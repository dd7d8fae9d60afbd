package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Task
import scala.util.Random

/** Determinism and shape checks for the TCSC instance generator. */
class TcscGenSpec extends AnyFunSuite {

  test("workers are deterministic in the seed") {
    val a = TcscGen.workers(50, 40, seed = 1)
    val b = TcscGen.workers(50, 40, seed = 1)
    val c = TcscGen.workers(50, 40, seed = 2)
    assert(a == b)
    assert(a != c)
  }

  test("worker presences stay in the unit square and slot range") {
    val ws = TcscGen.workers(100, 60, seed = 3)
    assert(ws.nonEmpty)
    ws.foreach { w =>
      assert(w.slot >= 0 && w.slot < 60)
      assert(w.x >= 0 && w.x <= 1 && w.y >= 0 && w.y <= 1)
    }
  }

  test("each worker piece spans 1-5 slots (paper's trajectory cuts)") {
    val ws = TcscGen.workers(80, 50, seed = 4)
    val bySlotCount = ws.groupBy(_.workerId).view.mapValues(_.size)
    // 3 pieces of <=5 slots each, minus overlaps: never more than 15 slots.
    bySlotCount.values.foreach(n => assert(n >= 1 && n <= 15))
  }

  test("task locations are deterministic and within the domain") {
    for (dist <- TcscGen.AllDists) {
      val a = TcscGen.taskLocations(200, dist, seed = 5)
      assert(a == TcscGen.taskLocations(200, dist, seed = 5), dist.name)
      a.foreach { case (x, y) =>
        assert(x >= 0 && x <= 1 && y >= 0 && y <= 1, dist.name)
      }
    }
  }

  test("gaussian concentrates around the centre more than uniform") {
    def spread(v: Vector[(Double, Double)]): Double =
      v.map { case (x, y) => (x - 0.5) * (x - 0.5) + (y - 0.5) * (y - 0.5) }.sum / v.size
    val u = spread(TcscGen.taskLocations(2000, TcscGen.Uniform, 6))
    val g = spread(TcscGen.taskLocations(2000, TcscGen.Gaussian, 6))
    assert(g < u, s"gaussian spread $g !< uniform spread $u")
  }

  test("zipf skews mass onto few cells") {
    val locs = TcscGen.taskLocations(2000, TcscGen.Zipf, 7)
    val cells = locs.groupBy { case (x, y) =>
      ((x * 16).toInt.min(15), (y * 16).toInt.min(15))
    }
    val top = cells.values.map(_.size).toSeq.sorted.reverse
    assert(top.head > 2000 / 256 * 5, s"no hot cell: top=${top.take(3)}")
  }

  test("instance candidates are ranked by ascending cost") {
    val sc = TcscGen.scenario(3, 30, 200, TcscGen.Uniform, seed = 8)
    sc.instances.foreach { inst =>
      inst.slots.foreach { s =>
        assert(s.costs.toSeq == s.costs.toSeq.sorted)
        assert(s.workers.length == s.costs.length)
      }
    }
  }

  test("scenario is deterministic") {
    val a = TcscGen.scenario(5, 20, 100, TcscGen.Poi, seed = 9)
    val b = TcscGen.scenario(5, 20, 100, TcscGen.Poi, seed = 9)
    assert(a.tasks == b.tasks)
    a.instances.zip(b.instances).foreach { case (x, y) =>
      x.slots.zip(y.slots).foreach { case (sa, sb) =>
        assert(sa.workers.sameElements(sb.workers))
        assert(sa.costs.sameElements(sb.costs))
      }
    }
  }

  test("fullCost sums cheapest per-slot costs") {
    val inst = TcscGen.scenario(1, 15, 100, TcscGen.Uniform, 10).instances.head
    val expected = inst.slots.filter(_.nonEmpty).map(_.costs(0)).sum
    assert(math.abs(inst.fullCost - expected) < 1e-12)
  }

  test("budgetFor scales with the fraction and the task count") {
    val sc = TcscGen.scenario(4, 20, 150, TcscGen.Uniform, 11)
    val b1 = TcscGen.budgetFor(sc.instances, 0.25)
    val b2 = TcscGen.budgetFor(sc.instances, 0.5)
    assert(math.abs(b2 - 2 * b1) < 1e-9)
    val avg = sc.instances.map(_.fullCost).sum / sc.instances.size
    assert(math.abs(b1 - avg * 0.25 * sc.instances.size) < 1e-9)
  }

  test("slot candidate workers are available at that slot") {
    val sc = TcscGen.scenario(2, 25, 120, TcscGen.Uniform, 12)
    val presence = sc.workerPresence.map(w => (w.workerId, w.slot)).toSet
    sc.instances.foreach { inst =>
      inst.slots.zipWithIndex.foreach { case (s, j) =>
        s.workers.foreach(w => assert(presence.contains((w, j)), s"worker $w slot $j"))
      }
    }
  }

  /** Each slot's `maxRank` nearest presences by brute force, ascending by
    * (distance, worker id), with the distance expression `GridIndex` uses.
    */
  private def bruteCandidates(ws: Seq[TcscGen.WorkerAt], task: Task,
                              maxRank: Int): Seq[(Seq[Int], Seq[Double])] =
    (0 until task.m).map { s =>
      val best = ws.filter(_.slot == s).map { w =>
        val dx = w.x - task.x; val dy = w.y - task.y
        (math.sqrt(dx * dx + dy * dy), w.workerId)
      }.sortWith((a, b) => a._1 < b._1 || (a._1 == b._1 && a._2 < b._2)).take(maxRank)
      (best.map(_._2), best.map(_._1))
    }

  test("slotIndexes + instance equal a brute-force candidate list") {
    val rnd = new Random(13)
    for (seed <- 0L until 12L) {
      val m = 5 + rnd.nextInt(40)
      // Slot 2 is emptied, so at least one slot has no workers.
      val ws = TcscGen.workers(5 + rnd.nextInt(200), m, seed).filter(_.slot != 2)
      val idx = TcscGen.slotIndexes(ws, m)
      assert(idx(2).size == 0)
      for (_ <- 0 until 4; maxRank <- Seq(0, 1, 3, 12, 500)) {
        val task = Task(0, rnd.nextDouble(), rnd.nextDouble(), m)
        val inst = TcscGen.instance(task, idx, maxRank)
        val want = bruteCandidates(ws, task, maxRank)
        for (s <- 0 until m) {
          assert(inst.slots(s).workers.toSeq == want(s)._1, s"seed=$seed slot=$s rank=$maxRank")
          assert(inst.slots(s).costs.toSeq == want(s)._2, s"seed=$seed slot=$s rank=$maxRank")
        }
      }
    }
  }

  test("presences with a slot outside [0, m) are dropped") {
    val m = 10
    val ws = TcscGen.workers(60, m, seed = 14)
    val stray = Vector(TcscGen.WorkerAt(900, -1, 0.5, 0.5), TcscGen.WorkerAt(901, m, 0.5, 0.5),
      TcscGen.WorkerAt(902, m + 7, 0.4, 0.6))
    val idx = TcscGen.slotIndexes(stray ++ ws ++ stray, m)
    assert(idx.length == m)
    assert(idx.map(_.size).sum == ws.size)
    val task = Task(0, 0.5, 0.5, m)
    val got = TcscGen.instance(task, idx, 5)
    val want = TcscGen.instance(task, TcscGen.slotIndexes(ws, m), 5)
    for (s <- 0 until m) {
      assert(got.slots(s).workers.toSeq == want.slots(s).workers.toSeq)
      assert(!got.slots(s).workers.exists(_ >= 900))
    }
  }
}
