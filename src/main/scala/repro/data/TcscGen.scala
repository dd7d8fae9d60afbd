package repro.data

import repro.core.{SlotCandidates, Task, TaskInstance}
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Deterministic TCSC instance generator (dataset substrate).
  *
  * Substitutes the paper's datasets (DESIGN.md §4):
  *  - workers: seeded random-walk trajectories instead of the T-Drive taxi
  *    sample; each worker's activity is cut into pieces of 1–5 consecutive
  *    slots, exactly as the paper cuts the real trajectories;
  *  - task locations: the paper's generator distributions — uniform,
  *    gaussian (μ = domain centre, σ = side/6), zipfian (exponent 1, over
  *    grid cells) — plus "poi", a mixture of Gaussian hotspots standing in
  *    for the Beijing POI dataset.
  *
  * All draws are seeded; identical parameters yield identical instances on
  * the driver and in Spark partitions.
  */
object TcscGen {

  /** One worker's presence at one time slot. */
  final case class WorkerAt(workerId: Int, slot: Int, x: Double, y: Double)

  sealed trait Dist { def name: String }
  case object Uniform  extends Dist { val name = "uniform"  }
  case object Gaussian extends Dist { val name = "gaussian" }
  case object Zipf     extends Dist { val name = "zipf"     }
  case object Poi      extends Dist { val name = "poi"      }
  val AllDists: Seq[Dist] = Seq(Uniform, Gaussian, Zipf, Poi)
  def distByName(s: String): Dist =
    AllDists.find(_.name == s).getOrElse(sys.error(s"unknown distribution $s"))

  private def clamp01(v: Double): Double = math.max(0.0, math.min(1.0, v))

  /** Worker presences over a horizon of `m` slots: each worker starts at a
    * uniform position, takes `pieces` active windows of 1–5 slots at random
    * offsets, and random-walks (step σ = 0.02) while active.
    */
  def workers(n: Int, m: Int, seed: Long, pieces: Int = 3): Vector[WorkerAt] = {
    val rnd = new Random(seed)
    val out = new ArrayBuffer[WorkerAt]
    var w = 0
    while (w < n) {
      var x = rnd.nextDouble(); var y = rnd.nextDouble()
      val used = scala.collection.mutable.BitSet.empty
      var p = 0
      while (p < pieces) {
        val len = 1 + rnd.nextInt(5)               // 1–5 slots, as in the paper
        val start = rnd.nextInt(math.max(1, m - len + 1))
        var s = start
        while (s < math.min(m, start + len)) {
          if (!used(s)) {
            used += s
            out += WorkerAt(w, s, x, y)
          }
          x = clamp01(x + rnd.nextGaussian() * 0.02)
          y = clamp01(y + rnd.nextGaussian() * 0.02)
          s += 1
        }
        p += 1
      }
      w += 1
    }
    out.toVector
  }

  /** Task locations drawn from the requested distribution. */
  def taskLocations(n: Int, dist: Dist, seed: Long): Vector[(Double, Double)] = {
    val rnd = new Random(seed)
    dist match {
      case Uniform =>
        Vector.fill(n)((rnd.nextDouble(), rnd.nextDouble()))
      case Gaussian =>
        // μ = domain centre, σ = side/6 (paper's generator parameters).
        Vector.fill(n)((clamp01(0.5 + rnd.nextGaussian() / 6.0),
                        clamp01(0.5 + rnd.nextGaussian() / 6.0)))
      case Zipf =>
        // Zipf (exponent 1) over a 16×16 grid of cells; uniform in-cell.
        val cells = 16
        val ranks = cells * cells
        val weights = Array.tabulate(ranks)(i => 1.0 / (i + 1))
        val total = weights.sum
        // deterministic shuffle of cell order so hotspots are scattered
        val cellOrder = rnd.shuffle((0 until ranks).toVector)
        Vector.fill(n) {
          var u = rnd.nextDouble() * total
          var i = 0
          while (u > weights(i) && i < ranks - 1) { u -= weights(i); i += 1 }
          val c = cellOrder(i)
          val cx = c % cells; val cy = c / cells
          ((cx + rnd.nextDouble()) / cells, (cy + rnd.nextDouble()) / cells)
        }
      case Poi =>
        // Beijing-POI stand-in: 8 Gaussian hotspots with σ = 0.04.
        val hubs = Vector.fill(8)((rnd.nextDouble(), rnd.nextDouble()))
        Vector.fill(n) {
          val (hx, hy) = hubs(rnd.nextInt(hubs.length))
          (clamp01(hx + rnd.nextGaussian() * 0.04),
           clamp01(hy + rnd.nextGaussian() * 0.04))
        }
    }
  }

  /** Per-slot spatial indexes over the available workers. A counting pass
    * buckets the presences by slot, keeping their order, into primitive
    * arrays; presences with a slot outside [0, m) are dropped.
    */
  def slotIndexes(ws: Vector[WorkerAt], m: Int): Array[GridIndex] = {
    val count = new Array[Int](m)
    ws.foreach(w => if (w.slot >= 0 && w.slot < m) count(w.slot) += 1)
    val xs = Array.tabulate(m)(s => new Array[Double](count(s)))
    val ys = Array.tabulate(m)(s => new Array[Double](count(s)))
    val ids = Array.tabulate(m)(s => new Array[Int](count(s)))
    java.util.Arrays.fill(count, 0)
    ws.foreach { w =>
      val s = w.slot
      if (s >= 0 && s < m) {
        val i = count(s)
        xs(s)(i) = w.x; ys(s)(i) = w.y; ids(s)(i) = w.workerId
        count(s) = i + 1
      }
    }
    Array.tabulate(m)(s => new GridIndex(xs(s), ys(s), ids(s), GridIndex.cellsFor(count(s))))
  }

  /** Materialize a single-task instance: for each slot, the `maxRank`
    * nearest available workers ranked by travel distance (the cost model of
    * Section II-A). `maxRank` > 1 feeds multi-task conflict resolution
    * (2nd-, 3rd-nearest fallbacks).
    */
  def instance(task: Task, indexes: Array[GridIndex], maxRank: Int): TaskInstance = {
    val slots = Array.tabulate(task.m) { s =>
      val (ids, dists) = indexes(s).knn(task.x, task.y, maxRank)
      SlotCandidates(ids, dists)
    }
    TaskInstance(task, slots)
  }

  /** Complete multi-task scenario. */
  final case class Scenario(
      tasks: Vector[Task],
      instances: Vector[TaskInstance],
      workerPresence: Vector[WorkerAt],
  )

  def scenario(nTasks: Int, m: Int, nWorkers: Int, dist: Dist, seed: Long,
               maxRank: Int = 12): Scenario = {
    val ws = workers(nWorkers, m, seed)
    val idx = slotIndexes(ws, m)
    val locs = taskLocations(nTasks, dist, seed + 1000)
    val tasks = locs.zipWithIndex.map { case ((x, y), i) => Task(i, x, y, m) }
    Scenario(tasks, tasks.map(t => instance(t, idx, maxRank)), ws)
  }

  /** Budget expressed as a fraction of the average full-assignment cost,
    * matching the paper's $50/$100/$200 ≈ 12.5/25/50% framing.
    */
  def budgetFor(instances: Seq[TaskInstance], fraction: Double): Double = {
    val avg = instances.map(_.fullCost).sum / math.max(1, instances.size)
    avg * fraction * instances.size
  }
}
