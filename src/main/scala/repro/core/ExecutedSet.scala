package repro.core

import scala.collection.immutable.ArraySeq

/** Sorted set of executed slot indices with deterministic k-NN queries.
  *
  * Slots are 0-based internally (0 .. m-1); temporal distance between slots
  * `a` and `b` is `|a - b|` (paper's `|τ(a), τ(b)|_i`). k-NN ties (equal
  * distance left/right) break toward the smaller slot index so every
  * algorithm variant sees the same neighbour sets.
  *
  * Backed by a sorted `Array[Int]` of capacity m with a size counter, plus a
  * membership bitmap of length m, so `contains` is O(1). `add` binary-searches
  * and shifts with `System.arraycopy` (O(n), n executed slots). In 1-D the k
  * nearest neighbours of j are among its k predecessors and k successors, so
  * every query is a two-cursor walk outward from `lowerBound(j)`.
  * `knnDistSum` and `kthDist` allocate nothing; `knn` returns the neighbour
  * list itself. `QualityState` keeps its own k-NN distances and only uses
  * the set for membership; the walks serve the oracles: Approx
  * (`Quality.finishProb`), naive MMQM, `QualityTree` and the tests.
  */
final class ExecutedSet(val m: Int) {
  private val slots  = new Array[Int](m)
  private val member = new Array[Boolean](m)
  private var n = 0

  def size: Int        = n
  def isEmpty: Boolean = n == 0
  def toVector: Vector[Int] = Vector.tabulate(n)(slots)

  def contains(j: Int): Boolean = j >= 0 && j < m && member(j)

  /** Index of first element >= j. */
  private def lowerBound(j: Int): Int = {
    var lo = 0; var hi = n
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (slots(mid) < j) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Insert slot `j`; no-op if already present. */
  def add(j: Int): Unit = {
    require(j >= 0 && j < m, s"slot $j out of [0, $m)")
    if (!member(j)) {
      val i = lowerBound(j)
      System.arraycopy(slots, i, slots, i + 1, n - i)
      slots(i) = j
      member(j) = true
      n += 1
    }
  }

  /** The k executed slots nearest to `j` (ascending distance, ties toward the
    * smaller slot). Fewer than k are returned when fewer are executed.
    * `extra` (if >= 0) is treated as an additional executed slot — used for
    * tentative-execution what-if queries without mutating the set.
    */
  def knn(j: Int, k: Int, extra: Int = -1): IndexedSeq[Int] = {
    val out = new Array[Int](math.max(0, math.min(k, n + 1)))
    var found = 0
    // Merge-walk two cursors (left: descending, right: ascending) plus the
    // optional extra slot folded in by distance; an executed `j` (or
    // `extra == j`) comes first at distance 0.
    var ri = lowerBound(j)
    var li = ri - 1
    var extraUsed = extra < 0 || contains(extra)
    val extraDist = math.abs(extra - j)
    while (found < k && (li >= 0 || ri < n || !extraUsed)) {
      val ld = if (li >= 0) j - slots(li) else Int.MaxValue
      val rd = if (ri < n) slots(ri) - j else Int.MaxValue
      val ed = if (!extraUsed) extraDist else Int.MaxValue
      // pick smallest distance; ties toward the smaller slot index
      if (ed <= ld && ed <= rd && !(ld == ed && slots(li) < extra) && !(rd == ed && slots(ri) < extra)) {
        out(found) = extra; extraUsed = true
      } else if (ld <= rd) { out(found) = slots(li); li -= 1 }
      else { out(found) = slots(ri); ri += 1 }
      found += 1
    }
    ArraySeq.unsafeWrapArray(if (found == out.length) out else java.util.Arrays.copyOf(out, found))
  }

  /** Eq 3's numerator for slot `j`: the sum of distances from `j` to its k
    * nearest executed slots (counting `extra`, if >= 0, as executed), plus
    * `m` for each of the k − found phantom neighbours of footnote 2. Equal
    * to the distance sum over `knn(j, k, extra)` plus the phantoms, without
    * building the list (a distance sum does not depend on the tie rule).
    */
  def knnDistSum(j: Int, k: Int, extra: Int = -1): Long = walk(j, k, extra, sum = true)

  /** Distance from `j` to its k-th nearest executed slot, or Int.MaxValue if
    * fewer than k slots are executed. Used for the locality-window bound.
    */
  def kthDist(j: Int, k: Int): Int = walk(j, k, -1, sum = false).toInt

  /** Ascending-distance walk over the k nearest executed slots (plus
    * `extra`). Returns their distance sum with phantoms when `sum`, else the
    * k-th distance (Int.MaxValue when fewer than k exist). Allocates nothing.
    */
  private def walk(j: Int, k: Int, extra: Int, sum: Boolean): Long = {
    var ri = lowerBound(j)
    var li = ri - 1
    var ed = if (extra < 0 || contains(extra)) Int.MaxValue else math.abs(extra - j)
    var acc = 0L
    var d = 0
    var found = 0
    while (found < k && d != Int.MaxValue) {
      val ld = if (li >= 0) j - slots(li) else Int.MaxValue
      val rd = if (ri < n) slots(ri) - j else Int.MaxValue
      if (ld <= rd && ld <= ed) { d = ld; li -= 1 }
      else if (rd <= ed) { d = rd; ri += 1 }
      else { d = ed; ed = Int.MaxValue }
      if (d != Int.MaxValue) { acc += d; found += 1 }
    }
    if (sum) acc + (k - found).toLong * m
    else if (found < k) Int.MaxValue
    else d
  }

  /** Nearest executed neighbours strictly for diagnostics/tests. */
  def nearest(j: Int): Option[Int] = knn(j, 1).headOption
}
