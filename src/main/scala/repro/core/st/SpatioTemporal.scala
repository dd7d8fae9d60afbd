package repro.core.st

import repro.core._
import repro.core.multi.Ledger
import scala.collection.mutable.ArrayBuffer

/** Spatiotemporal interpolation extension (paper Appendix C, Eq 13–15).
  *
  * An unexecuted subtask τ_i(j) is interpolated both temporally (k-NN among
  * executed slots of its own task, Eq 3) and spatially (k-NN among subtasks
  * of *other* tasks executed at the same slot j, Eq 13, distances normalized
  * by the domain diameter √2). The combined error is the weighted sum
  * ρ = w_s·ρ_s + w_t·ρ_t (Eq 14, w_s + w_t = 1) and the finishing
  * probability is p = (1 − ρ)/m (Eq 15). Missing neighbours count the
  * maximal distance (m temporally, √2 spatially), consistent with
  * footnote 2.
  *
  * `SApprox` runs the same greedy ratio rule over all tasks' subtasks under
  * a global budget; the framework and the (1 − 1/√e) guarantee carry over
  * because both interpolation parts stay monotone submodular (Appendix C).
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

  /** Spatial error ratio of τ_i(j) (Eq 13); `extraTask` is an optional
    * tentatively-executing task at the same slot.
    */
  def rhoSpatial(i: Int, j: Int, extraTask: Int = -1): Double = {
    val ds = new ArrayBuffer[Double](k + 1)
    val others = bySlot(j)
    var t = 0
    while (t < others.length) {
      if (others(t) != i) ds += spatialDist(i, others(t))
      t += 1
    }
    if (extraTask >= 0 && extraTask != i && !others.contains(extraTask))
      ds += spatialDist(i, extraTask)
    val sorted = ds.sorted.take(k)
    var sum = sorted.sum
    sum += (k - sorted.length) * Diam // phantom neighbours at the diameter
    sum / (k * Diam)
  }

  /** Temporal error ratio of τ_i(j) (Eq 3). */
  def rhoTemporal(i: Int, j: Int, extraSlot: Int = -1): Double = {
    val nn = byTask(i).knn(j, k, extraSlot)
    Quality.errRatio(j, nn, k, m)
  }

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
  def deltaQ(i: Int, j: Int): Double = {
    var dq = Quality.contribution(1.0 / m) - contrib(i)(j)
    // temporal effects within task i (full scan: m is small in ST benches,
    // and correctness over cleverness here — the windowed engine covers the
    // pure-temporal case)
    var s = 0
    while (s < m) {
      if (s != j && !isExecuted(i, s)) {
        dq += Quality.contribution(prob(i, s, extraSlotOfI = j)) - contrib(i)(s)
      }
      s += 1
    }
    // spatial effects on other tasks at slot j
    var t = 0
    while (t < n) {
      if (t != i && !isExecuted(t, j)) {
        dq += Quality.contribution(prob(t, j, extraTaskAtJ = i)) - contrib(t)(j)
      }
      t += 1
    }
    dq
  }

  /** Commit execution of τ_i(j). */
  def insert(i: Int, j: Int): Unit = {
    byTask(i).add(j)
    bySlot(j) += i
    var s = 0
    while (s < m) {
      if (!isExecuted(i, s)) {
        val c = Quality.contribution(prob(i, s))
        totalQ += c - contrib(i)(s); contrib(i)(s) = c
      }
      s += 1
    }
    val cSelf = Quality.contribution(1.0 / m)
    totalQ += cSelf - contrib(i)(j); contrib(i)(j) = cSelf
    var t = 0
    while (t < n) {
      if (t != i && !isExecuted(t, j)) {
        val c = Quality.contribution(prob(t, j))
        totalQ += c - contrib(t)(j); contrib(t)(j) = c
      }
      t += 1
    }
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

object SpatioTemporal {

  /** SApprox: greedy ratio rule under the combined metric, global budget. */
  def sApprox(instances: Seq[TaskInstance], budget: Double, k: Int,
              ws: Double, wt: Double): (MultiResult, StState) = {
    val insts = instances.toIndexedSeq
    val st = new StState(insts.map(_.task), k, ws, wt)
    greedy(insts, st, budget)
  }

  /** Approx under the ST evaluation: optimizes temporal-only (w_t = 1) but
    * is *scored* on a caller-chosen metric — see bench T11.
    */
  def temporalOnly(instances: Seq[TaskInstance], budget: Double, k: Int): (MultiResult, StState) = {
    val insts = instances.toIndexedSeq
    val st = new StState(insts.map(_.task), k, 0.0, 1.0)
    greedy(insts, st, budget)
  }

  final case class MultiResult(executions: Vector[Execution], totalCost: Double)

  private def greedy(insts: IndexedSeq[TaskInstance], st: StState,
                     budget: Double): (MultiResult, StState) = {
    val ledger = new Ledger(insts, budget)
    var e = ledger.best(0, insts.length, st.deltaQ)
    while (e != null) {
      ledger.book(e.task, e.slot)
      st.insert(e.task, e.slot)
      e = ledger.best(0, insts.length, st.deltaQ)
    }
    (MultiResult(ledger.executions, ledger.spent), st)
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
