package repro.core

/** Incremental quality engine exploiting the order-k Voronoi locality of
  * Section III-C.
  *
  * Maintains, for the current executed set S, every slot's finishing
  * probability contribution (`-p·log2 p`) and the total quality, plus the
  * k-NN results of every slot, as the paper's index stores
  * ⟨k-set, knn(l), knn(r)⟩ per cell:
  *  - `near`: j's k nearest executed distances, ascending, in row j of one
  *    m × k array, each footnote-2 phantom counted at distance m; an
  *    executed j counts itself at distance 0;
  *  - `dsum(j)`: Eq 3's numerator, the sum of row j;
  *  - `dk(j)`: j's k-th-NN distance, the last entry of row j.
  *
  * The key observation (paper, "Locality of k-NN Searching"): executing
  * slot `t` only changes the k-NN distances of slots `j` with
  * `|j - t| < dk(j)`, and for those t replaces the k-th neighbour, so the new
  * numerator is `dsum(j) - dk(j) + |j - t|`. A phantom's m exceeds every
  * `|j - t|` ≤ m - 1, so while fewer than k slots are executed every slot is
  * affected. Since `dk` is 1-Lipschitz in `j` while `|j - t|` grows by exactly
  * 1 per step, scanning outward from `t` until `|j - t| >= dk(j)` visits
  * exactly the affected window — the Voronoi-cell neighbourhood.
  *
  * A what-if query (`deltaQ`) is therefore O(window) array reads: no k-NN
  * walk and no logarithm, because each term reads `ent(s)`, a table of the
  * contribution of every numerator s ∈ [0, k·m]. A commit (`insert`) makes
  * no walk either: for each j of the window, `t` itself included at
  * distance 0, it drops the last entry of row j and sorts `|j - t|` into
  * it, which yields the new `dsum(j)` and `dk(j)`: O(window · k) per
  * commit. `ExecutedSet`'s walks serve only the oracles.
  *
  * Floating-point determinism: `ent(s)` is the exact expression
  * `Quality.finishProb` evaluates, window sums iterate slots in ascending
  * order and the terms outside the window are exactly zero, so `deltaQ` is
  * bit-identical to the naive full-scan marginal and Approx* picks the same
  * plan as Approx. The running `quality`, however, is a sum of per-commit
  * deltas, not an ascending sum over slots, so it can differ from
  * `recomputeFromScratch()` by a few ulps (up to 3.4e-14 at m = 300); tests
  * hold it within 1e-12.
  *
  * `ent` must be `QualityState.entropyTable(m, k)`; tasks of the same (m, k)
  * share one.
  */
final class QualityState(val m: Int, val k: Int, ent: Array[Double]) {
  require(k >= 1, s"k = $k, need k >= 1")
  require(k.toLong * m < Int.MaxValue, s"k·m = ${k.toLong * m} overflows the numerator table")
  require(ent.length == k * m + 1, s"entropy table of ${ent.length} entries, need ${k * m + 1}")

  def this(m: Int, k: Int) = this(m, k, QualityState.entropyTable(m, k))

  val executed = new ExecutedSet(m)
  private val contrib = new Array[Double](m)      // current -p log2 p per slot
  private val near = Array.fill(m * k)(m)         // row j: k-NN distances, ascending
  private val dsum = Array.fill(m)(k * m)         // Eq 3 numerator, phantoms at m
  private val dk = Array.fill(m)(m)               // k-th-NN distance, phantom = m
  private val self = Quality.contribution(1.0 / m)
  private var totalQ  = 0.0

  /** Cumulative number of slots visited by window scans (for pruning stats). */
  var slotsVisited: Long = 0L

  def quality: Double = totalQ
  def contributionOf(j: Int): Double = contrib(j)
  def executedCount: Int = executed.size
  def isExecuted(j: Int): Boolean = executed.contains(j)

  /** Cached Eq 3 numerator and k-th-NN distance of `j` (tests). */
  private[core] def cachedDistSum(j: Int): Int = dsum(j)
  private[core] def cachedKthDist(j: Int): Int = dk(j)

  /** Inclusive affected window [lo, hi] for a tentative execution at `t`,
    * derived from the Lipschitz stopping rule. `t` itself is included.
    */
  def window(t: Int): (Int, Int) = (windowLo(t), windowHi(t))

  private def windowLo(t: Int): Int = {
    var lo = t
    while (lo > 0 && t - (lo - 1) < dk(lo - 1)) lo -= 1
    lo
  }

  private def windowHi(t: Int): Int = {
    var hi = t
    while (hi < m - 1 && (hi + 1) - t < dk(hi + 1)) hi += 1
    hi
  }

  /** Slots whose Δq can change when `t` is inserted, to call before
    * `insert(t)`: [lo − Dmax, hi + Dmax] clipped to the task, where [lo, hi]
    * is t's window and Dmax the largest *pre-insert* k-th-NN distance in it
    * (a candidate's marginal can lose terms whose pre-insert reach was wider
    * than the post-insert one). While a phantom remains Dmax is m: the full
    * range.
    */
  def dirtyRange(t: Int): (Int, Int) = {
    val lo = windowLo(t)
    val hi = windowHi(t)
    var dmax = 0
    var j = lo
    while (j <= hi) { if (dk(j) > dmax) dmax = dk(j); j += 1 }
    (math.max(0, lo - dmax), math.min(m - 1, hi + dmax))
  }

  /** Exact marginal quality gain of executing slot `t`, without mutating. */
  def deltaQ(t: Int): Double = {
    require(!executed.contains(t), s"slot $t already executed")
    val lo = windowLo(t)
    val hi = windowHi(t)
    slotsVisited += hi - lo + 1
    var dq = 0.0
    var j = lo
    while (j <= hi) {
      if (j == t) dq += self - contrib(t)
      else if (!executed.contains(j)) dq += ent(dsum(j) - dk(j) + math.abs(j - t)) - contrib(j)
      j += 1
    }
    dq
  }

  /** Commit execution of slot `t`; returns the realized quality gain. */
  def insert(t: Int): Double = {
    require(!executed.contains(t), s"slot $t already executed")
    val lo = windowLo(t)
    val hi = windowHi(t)
    executed.add(t)
    slotsVisited += hi - lo + 1
    var dq = 0.0
    var j = lo
    while (j <= hi) {
      // |j - t| < dk(j): it replaces the row's last entry, then sorts down.
      val d = math.abs(j - t)
      val row = j * k
      var i = k - 1
      while (i > 0 && near(row + i - 1) > d) { near(row + i) = near(row + i - 1); i -= 1 }
      near(row + i) = d
      dsum(j) += d - dk(j)
      dk(j) = near(row + k - 1)
      val c = if (executed.contains(j)) self else ent(dsum(j))
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

object QualityState {
  /** `ent(s)`: the entropy contribution of an unexecuted slot whose Eq 3
    * numerator is s, for s = 0 .. k·m — the expression `Quality.finishProb`
    * evaluates, so every entry is bit-identical to it; `ent(k·m)` is 0.0.
    */
  def entropyTable(m: Int, k: Int): Array[Double] = {
    require(k.toLong * m < Int.MaxValue, s"k·m = ${k.toLong * m} overflows the numerator table")
    Array.tabulate(k * m + 1)(s => Quality.contribution((1.0 - s.toDouble / (k.toDouble * m)) / m))
  }
}
