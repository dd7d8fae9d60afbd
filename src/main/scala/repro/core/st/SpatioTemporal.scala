package repro.core.st

import repro.core._
import repro.core.multi.{Ledger, MultiOutcome}
import scala.collection.mutable.ArrayBuffer

/** The combined metric of the spatiotemporal interpolation extension (paper
  * Appendix C, Eq 13–15) over one horizon m, kept incrementally as subtasks
  * are executed.
  *
  * An unexecuted subtask τ_i(j) is interpolated both temporally (k-NN among
  * executed slots of its own task, Eq 3, read through
  * `ExecutedSet.knnDistSum` as `Quality.finishProb` reads it) and spatially
  * (k-NN among subtasks of *other* tasks executed at the same slot j, Eq 13,
  * distances normalized by the domain diameter √2). The combined error is the
  * weighted sum ρ = w_s·ρ_s + w_t·ρ_t (Eq 14, w_s + w_t = 1) and the
  * finishing probability is p = (1 − ρ)/m (Eq 15). Missing neighbours count
  * the maximal distance (m temporally, √2 spatially), consistent with
  * footnote 2. An executed (task, slot) counts once: inserting it again
  * changes nothing.
  */
final class StState(
    val tasks: IndexedSeq[Task],
    val k: Int,
    val ws: Double,
    val wt: Double,
) {
  require(math.abs(ws + wt - 1.0) < 1e-9, "w_s + w_t must equal 1")
  val n: Int = tasks.length
  val m: Int = if (tasks.isEmpty) 0 else tasks.head.m
  require(tasks.forall(_.m == m),
    s"StState interpolates over one horizon; tasks have m in ${tasks.map(_.m).distinct.sorted.mkString(", ")}")
  private val Diam = math.sqrt(2.0) // |D|: diameter of the unit square

  private val byTask = Array.fill(n)(new ExecutedSet(m))
  private val bySlot = Array.fill(m)(new ArrayBuffer[Int]) // executing task ids
  private val contrib = Array.fill(n, m)(0.0)
  private var totalQ = 0.0

  def quality: Double = totalQ
  def qualityOfTask(i: Int): Double = contrib(i).sum
  def isExecuted(i: Int, j: Int): Boolean = byTask(i).contains(j)
  def executedCount(i: Int): Int = byTask(i).size

  private def spatialDist(a: Int, b: Int): Double = {
    val dx = tasks(a).x - tasks(b).x
    val dy = tasks(a).y - tasks(b).y
    math.sqrt(dx * dx + dy * dy)
  }

  private val nearest = new Array[Double](k) // rhoSpatial's k smallest, ascending

  /** Spatial error ratio of τ_i(j) (Eq 13); `extraTask` is an optional
    * tentatively-executing task at the same slot. The k smallest distances
    * are summed in ascending order.
    */
  def rhoSpatial(i: Int, j: Int, extraTask: Int = -1): Double = {
    val others = bySlot(j)
    var count = 0
    var t = 0
    while (t < others.length) {
      if (others(t) != i) count = keepNearest(count, spatialDist(i, others(t)))
      t += 1
    }
    if (extraTask >= 0 && extraTask != i && !isExecuted(extraTask, j))
      count = keepNearest(count, spatialDist(i, extraTask))
    var sum = 0.0
    var p = 0
    while (p < count) { sum += nearest(p); p += 1 }
    sum += (k - count) * Diam // phantom neighbours at the diameter
    sum / (k * Diam)
  }

  /** Offers `d` to `nearest`, whose first `count` entries are the smallest
    * distances so far in ascending order; returns the new count (at most k).
    */
  private def keepNearest(count: Int, d: Double): Int =
    if (count == k && d >= nearest(k - 1)) count
    else {
      var p = math.min(count, k - 1)
      while (p > 0 && nearest(p - 1) > d) { nearest(p) = nearest(p - 1); p -= 1 }
      nearest(p) = d
      math.min(count + 1, k)
    }

  /** Temporal error ratio of τ_i(j) (Eq 3), bit for bit `Quality.errRatio` over `knn`. */
  def rhoTemporal(i: Int, j: Int, extraSlot: Int = -1): Double =
    byTask(i).knnDistSum(j, k, extraSlot).toDouble / (k.toDouble * m)

  /** Combined finishing probability (Eq 14–15). */
  def prob(i: Int, j: Int, extraTaskAtJ: Int = -1, extraSlotOfI: Int = -1): Double = {
    if (isExecuted(i, j) || extraSlotOfI == j) 1.0 / m
    else {
      val rho = ws * rhoSpatial(i, j, extraTaskAtJ) + wt * rhoTemporal(i, j, extraSlotOfI)
      math.max(0.0, (1.0 - rho) / m)
    }
  }

  /** Marginal gain of executing τ_i(j): own slot + temporal window of task i
    * + spatial effect on every other task at slot j.
    */
  def deltaQ(i: Int, j: Int): Double = pass(i, j, commit = false)

  /** Commit execution of τ_i(j); a no-op when it is executed already. */
  def insert(i: Int, j: Int): Unit = if (!isExecuted(i, j)) pass(i, j, commit = true)

  /** Δq and, with `commit`, the insert, in one pass that reads τ_i(j) as the
    * extra execution of the unchanged state (task i's slots in a full scan:
    * m is small in ST benches). The total adds task i's other slots, then
    * its own, then the other tasks at j; that order fixes `quality`'s bits
    * (`PlanDigestSpec` pins them).
    */
  private def pass(i: Int, j: Int, commit: Boolean): Double = {
    val cSelf = Quality.contribution(1.0 / m)
    var dq = cSelf - contrib(i)(j)
    var s = 0
    while (s < m) {
      if (s != j && !isExecuted(i, s)) {
        val c = Quality.contribution(prob(i, s, extraSlotOfI = j))
        dq += c - contrib(i)(s)
        if (commit) { totalQ += c - contrib(i)(s); contrib(i)(s) = c }
      }
      s += 1
    }
    if (commit) { totalQ += cSelf - contrib(i)(j); contrib(i)(j) = cSelf }
    var t = 0
    while (t < n) {
      if (t != i && !isExecuted(t, j)) {
        val c = Quality.contribution(prob(t, j, extraTaskAtJ = i))
        dq += c - contrib(t)(j)
        if (commit) { totalQ += c - contrib(t)(j); contrib(t)(j) = c }
      }
      t += 1
    }
    if (commit) { byTask(i).add(j); bySlot(j) += i }
    dq
  }

  /** Full recomputation — test oracle. */
  def recomputeFromScratch(): Double = {
    var q = 0.0
    for (i <- 0 until n; j <- 0 until m)
      q += (if (isExecuted(i, j)) Quality.contribution(1.0 / m)
            else Quality.contribution(prob(i, j)))
    q
  }
}

/** SApprox (Appendix C): the greedy ratio rule under the combined metric and
  * one global budget; the (1 − 1/√e) guarantee carries over, as both parts
  * stay monotone submodular. T11's Approx is SApprox at w_s = 0, w_t = 1.
  */
object SpatioTemporal {

  /** SApprox's plan, booked through a `Ledger`, and its final state; `evals`
    * counts Δq calls and task i's quality is `st.qualityOfTask(i)`.
    */
  def sApprox(instances: Seq[TaskInstance], budget: Double, k: Int,
              ws: Double, wt: Double): (MultiOutcome, StState) = {
    val insts = instances.toIndexedSeq
    val st = new StState(insts.map(_.task), k, ws, wt)
    val ledger = new Ledger(insts, budget)
    var evals = 0L
    val gain = (i: Int, j: Int) => { evals += 1; st.deltaQ(i, j) }
    while (ledger.step(0, insts.length, gain)(st.insert)) ()
    (ledger.outcome(evals)((i, _) => st.qualityOfTask(i)), st)
  }

  /** Score an arbitrary assignment under a (ws, wt) metric — used to compare
    * SApprox/Approx/Rand on an equal footing (Fig 11).
    */
  def scoreUnder(tasks: IndexedSeq[Task], executions: Seq[Execution],
                 k: Int, ws: Double, wt: Double): Double = {
    val st = new StState(tasks, k, ws, wt)
    val idOf = tasks.zipWithIndex.map { case (t, i) => t.id -> i }.toMap
    executions.foreach(e => st.insert(idOf(e.taskId), e.slot))
    st.quality
  }
}
