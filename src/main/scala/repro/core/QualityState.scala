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
  *  - `dk(j)`: j's k-th-NN distance, the last entry of row j;
  *  - Eq 3's numerator `dsum(j)`, the sum of row j, through `base(j)`
  *    below.
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
  * contribution of every numerator s ∈ [0, k·m]. Each slot caches
  * `base(j) = dsum(j) - dk(j)`, the numerator without its k-th neighbour,
  * so a term is `ent(base(j) + |j - t|) - contrib(j)`. An executed slot's
  * base is the sentinel k·m, and the table continues past k·m with m
  * copies of `self`, an executed slot's contribution: its term is
  * `self - self`, exactly 0.0, with no branch. The scan finds the left end
  * of the window, then sums in ascending j and stops on the right at the
  * first `j - t >= dk(j)`: one pass, no separate right-end scan.
  *
  * A commit (`insert`) makes no walk either: for each j of the window, `t`
  * itself included at distance 0, it drops the last entry of row j and
  * sorts `|j - t|` into it, which yields the new `base(j)` and `dk(j)`:
  * O(window · k) per commit. The same pass takes Dmax, the largest
  * pre-insert `dk` of the window, for the dirty range (`dirtyLo`,
  * `dirtyHi`). `ExecutedSet`'s walks serve only the oracles.
  *
  * Floating-point determinism: `ent(s)` is the exact expression
  * `Quality.finishProb` evaluates, window sums iterate slots in ascending
  * order and the terms outside the window, or of executed slots, are
  * exactly zero, so `deltaQ` is bit-identical to the naive full-scan
  * marginal and Approx* picks the same plan as Approx. The running
  * `quality`, however, is a sum of per-commit deltas, not an ascending sum
  * over slots, so it can differ from `recomputeFromScratch()` by a few ulps
  * (up to 3.4e-14 at m = 300); tests hold it within 1e-12.
  *
  * `ent` must be `QualityState.entropyTable(m, k)`; tasks of the same (m, k)
  * share one.
  */
final class QualityState(val m: Int, val k: Int, ent: Array[Double]) {
  require(k >= 1, s"k = $k, need k >= 1")
  require((k + 1).toLong * m < Int.MaxValue, s"(k+1)·m = ${(k + 1).toLong * m} overflows the numerator table")
  require(ent.length == (k + 1) * m + 1,
    s"entropy table of ${ent.length} entries, need ${(k + 1) * m + 1}")

  def this(m: Int, k: Int) = this(m, k, QualityState.entropyTable(m, k))

  val executed = new ExecutedSet(m)
  private val contrib = new Array[Double](m)      // current -p log2 p per slot
  private val near = QualityState.filled(m * k, m)       // row j: k-NN distances, ascending
  private val base = QualityState.filled(m, (k - 1) * m) // dsum - dk; ExecutedBase once executed
  private val dk = QualityState.filled(m, m)             // k-th-NN distance, phantom = m
  private val self = Quality.contribution(1.0 / m)
  private val ExecutedBase = k * m                // ent(ExecutedBase + d) = self, d ≥ 1
  private var totalQ  = 0.0
  private var dLo = 0
  private var dHi = -1

  /** Cumulative number of slots visited by window scans (for pruning stats). */
  var slotsVisited: Long = 0L

  def quality: Double = totalQ
  def contributionOf(j: Int): Double = contrib(j)
  def executedCount: Int = executed.size
  def isExecuted(j: Int): Boolean = executed.contains(j)

  /** Cached Eq 3 numerator and k-th-NN distance of `j` (tests). */
  private[core] def cachedDistSum(j: Int): Int = {
    var s = 0
    var i = 0
    while (i < k) { s += near(j * k + i); i += 1 }
    s
  }
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

  /** Slots whose Δq the last `insert` can have changed: [lo − Dmax,
    * hi + Dmax] clipped to the task, where [lo, hi] is that insert's window
    * and Dmax the largest *pre-insert* k-th-NN distance in it (a
    * candidate's marginal can lose terms whose pre-insert reach was wider
    * than the post-insert one). While a phantom remains Dmax is m: the full
    * range. Empty (`dirtyHi < dirtyLo`) before the first insert.
    */
  def dirtyLo: Int = dLo
  def dirtyHi: Int = dHi

  /** Exact marginal quality gain of executing slot `t`, without mutating. */
  def deltaQ(t: Int): Double = {
    require(!executed.contains(t), s"slot $t already executed")
    val lo = windowLo(t)
    var dq = 0.0
    var j = lo
    while (j < t) { dq += ent(base(j) + (t - j)) - contrib(j); j += 1 }
    dq += self - contrib(t)
    j += 1
    while (j < m && j - t < dk(j)) { dq += ent(base(j) + (j - t)) - contrib(j); j += 1 }
    slotsVisited += j - lo
    dq
  }

  /** Commit execution of slot `t`; returns the realized quality gain and
    * sets `dirtyLo` / `dirtyHi`.
    */
  def insert(t: Int): Double = {
    require(!executed.contains(t), s"slot $t already executed")
    val lo = windowLo(t)
    executed.add(t)
    base(t) = ExecutedBase
    var dmax = 0
    var dq = 0.0
    var j = lo
    // |j - t| < dk(j), read before row j changes: it replaces the row's last
    // entry, then sorts down.
    while (j <= t || (j < m && j - t < dk(j))) {
      val kth = dk(j)
      if (kth > dmax) dmax = kth
      val d = math.abs(j - t)
      val row = j * k
      var i = k - 1
      while (i > 0 && near(row + i - 1) > d) { near(row + i) = near(row + i - 1); i -= 1 }
      near(row + i) = d
      dk(j) = near(row + k - 1)
      val c =
        if (base(j) == ExecutedBase) self
        else { val s = base(j) + d; base(j) = s - dk(j); ent(s) }
      dq += c - contrib(j)
      contrib(j) = c
      j += 1
    }
    slotsVisited += j - lo
    dLo = math.max(0, lo - dmax)
    dHi = math.min(m - 1, j - 1 + dmax)
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
    * Entries k·m + 1 .. (k+1)·m hold an executed slot's contribution,
    * `Quality.contribution(1 / m)`, for `deltaQ`'s executed-slot sentinel.
    */
  def entropyTable(m: Int, k: Int): Array[Double] = {
    require((k + 1).toLong * m < Int.MaxValue, s"(k+1)·m = ${(k + 1).toLong * m} overflows the numerator table")
    val ent = new Array[Double]((k + 1) * m + 1)
    var s = 0
    while (s <= k * m) { ent(s) = Quality.contribution((1.0 - s.toDouble / (k.toDouble * m)) / m); s += 1 }
    java.util.Arrays.fill(ent, k * m + 1, ent.length, Quality.contribution(1.0 / m))
    ent
  }

  private def filled(n: Int, v: Int): Array[Int] = {
    val a = new Array[Int](n)
    java.util.Arrays.fill(a, v)
    a
  }
}
