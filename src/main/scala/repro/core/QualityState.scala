package repro.core

/** Incremental quality engine exploiting the order-k Voronoi locality of
  * Section III-C.
  *
  * Maintains, for the current executed set S, every slot's finishing
  * probability contribution (`-p·log2 p`) and the total quality. The key
  * observation (paper, "Locality of k-NN Searching"): tentatively executing
  * slot `t` only changes the interpolation of slots `j` with
  * `|j - t| < d_k(j)` where `d_k(j)` is j's current k-th-NN distance.
  * Since `d_k` is 1-Lipschitz in `j` while `|j - t|` grows by exactly 1 per
  * step, scanning outward from `t` until `|j - t| >= d_k(j)` visits exactly
  * the affected window — the Voronoi-cell neighbourhood — so both what-if
  * queries (`deltaQ`) and commits (`insert`) cost O(window · (log m + k))
  * instead of O(m).
  *
  * Floating-point determinism: window sums iterate slots in ascending order
  * and the terms outside the window are exactly zero, so `deltaQ` is
  * bit-identical to the naive full-scan marginal and Approx* picks the same
  * plan as Approx. The running `quality`, however, is a sum of per-commit
  * deltas, not an ascending sum over slots, so it can differ from
  * `recomputeFromScratch()` by a few ulps (up to 3.4e-14 at m = 300); tests
  * hold it within 1e-12.
  */
final class QualityState(val m: Int, val k: Int) {
  val executed = new ExecutedSet(m)
  private val contrib = new Array[Double](m) // current -p log2 p per slot
  private var totalQ  = 0.0

  /** Cumulative number of slots visited by window scans (for pruning stats). */
  var slotsVisited: Long = 0L

  def quality: Double = totalQ
  def contributionOf(j: Int): Double = contrib(j)
  def executedCount: Int = executed.size
  def isExecuted(j: Int): Boolean = executed.contains(j)

  /** Inclusive affected window [lo, hi] for a tentative execution at `t`,
    * derived from the Lipschitz stopping rule. `t` itself is included.
    */
  def window(t: Int): (Int, Int) = {
    var lo = t
    var cont = true
    while (cont && lo > 0) {
      val j = lo - 1
      val d = executed.kthDist(j, k)
      if (d == Int.MaxValue || (t - j) < d) lo = j else cont = false
    }
    var hi = t
    cont = true
    while (cont && hi < m - 1) {
      val j = hi + 1
      val d = executed.kthDist(j, k)
      if (d == Int.MaxValue || (j - t) < d) hi = j else cont = false
    }
    (lo, hi)
  }

  /** Exact marginal quality gain of executing slot `t`, without mutating. */
  def deltaQ(t: Int): Double = {
    require(!executed.contains(t), s"slot $t already executed")
    val (lo, hi) = window(t)
    var dq = 0.0
    var j = lo
    while (j <= hi) {
      slotsVisited += 1
      if (j == t) {
        dq += Quality.contribution(1.0 / m) - contrib(t)
      } else if (!executed.contains(j)) {
        val p = Quality.finishProb(j, executed, k, extra = t)
        dq += Quality.contribution(p) - contrib(j)
      }
      j += 1
    }
    dq
  }

  /** Commit execution of slot `t`; returns the realized quality gain. */
  def insert(t: Int): Double = {
    require(!executed.contains(t), s"slot $t already executed")
    val (lo, hi) = window(t)
    executed.add(t)
    var dq = 0.0
    var j = lo
    while (j <= hi) {
      slotsVisited += 1
      val c =
        if (executed.contains(j)) Quality.contribution(1.0 / m)
        else Quality.contribution(Quality.finishProb(j, executed, k))
      dq += c - contrib(j)
      contrib(j) = c
      j += 1
    }
    totalQ += dq
    dq
  }

  /** Full O(m) recomputation — test oracle for the incremental path. */
  def recomputeFromScratch(): Double = {
    var q = 0.0
    var j = 0
    while (j < m) { q += Quality.contribution(Quality.finishProb(j, executed, k)); j += 1 }
    q
  }
}
