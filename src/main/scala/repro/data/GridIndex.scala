package repro.data

/** Uniform-grid spatial index over points in the unit square with
  * ring-expansion k-NN search.
  *
  * This is the spatial indexing/pruning substrate for worker lookup: a k-NN
  * query inspects grid cells in growing rings around the query cell and
  * stops as soon as the best k distances cannot be beaten by any unvisited
  * ring (ring lower-bound pruning), so dense instances avoid the O(n) scan.
  *
  * The buckets are one counting-sorted `Int` array of point indices with
  * per-cell offsets, and a query keeps its best k in two primitive arrays,
  * so neither building nor querying boxes a value.
  */
final class GridIndex(xs: Array[Double], ys: Array[Double], ids: Array[Int], cells: Int) {
  require(xs.length == ys.length && ys.length == ids.length)
  private val cellSize = 1.0 / cells
  // Point indices of cell c: order(start(c) until start(c + 1)), ascending.
  private val start = new Array[Int](cells * cells + 1)
  private val order = new Array[Int](xs.length)

  locally {
    var i = 0
    while (i < xs.length) { start(cellOf(xs(i), ys(i)) + 1) += 1; i += 1 }
    var c = 0
    while (c < cells * cells) { start(c + 1) += start(c); c += 1 }
    val fill = java.util.Arrays.copyOf(start, cells * cells)
    i = 0
    while (i < xs.length) {
      val c = cellOf(xs(i), ys(i))
      order(fill(c)) = i
      fill(c) += 1
      i += 1
    }
  }

  def size: Int = xs.length

  private def clampCell(c: Int): Int = math.max(0, math.min(cells - 1, c))
  private def cellOf(x: Double, y: Double): Int =
    clampCell((y / cellSize).toInt) * cells + clampCell((x / cellSize).toInt)

  /** Ids and distances of the k nearest points to (x, y), ascending by
    * (distance, id) — the id tie-break keeps results deterministic. Fewer
    * than k when the index holds fewer points; empty for k = 0.
    */
  def knn(x: Double, y: Double, k: Int): (Array[Int], Array[Double]) = {
    require(k >= 0, s"k = $k")
    if (size == 0 || k == 0) return (Array.empty, Array.empty)
    val cx = clampCell((x / cellSize).toInt)
    val cy = clampCell((y / cellSize).toInt)
    // The current best, sorted ascending by (distance, id).
    val bestD = new Array[Double](k)
    val bestId = new Array[Int](k)
    var n = 0
    var ring = 0
    var done = false
    val maxRing = cells // worst case covers the whole grid
    while (!done && ring <= maxRing) {
      // Visit cells at Chebyshev distance `ring` from (cx, cy).
      var yy = cy - ring
      while (yy <= cy + ring) {
        var xx = cx - ring
        while (xx <= cx + ring) {
          val onRing = math.max(math.abs(xx - cx), math.abs(yy - cy)) == ring
          if (onRing && xx >= 0 && xx < cells && yy >= 0 && yy < cells) {
            val c = yy * cells + xx
            var t = start(c)
            while (t < start(c + 1)) {
              val i = order(t)
              val dx = xs(i) - x; val dy = ys(i) - y
              val d = math.sqrt(dx * dx + dy * dy)
              val id = ids(i)
              if (n < k || d < bestD(k - 1) || (d == bestD(k - 1) && id < bestId(k - 1))) {
                // Insert at the end (dropping the k-th when full), sort down.
                var p = if (n < k) n else k - 1
                while (p > 0 && (d < bestD(p - 1) || (d == bestD(p - 1) && id < bestId(p - 1)))) {
                  bestD(p) = bestD(p - 1); bestId(p) = bestId(p - 1); p -= 1
                }
                bestD(p) = d; bestId(p) = id
                if (n < k) n += 1
              }
              t += 1
            }
          }
          xx += 1
        }
        yy += 1
      }
      // Prune: any point in ring r+1 is at least r*cellSize away (points in
      // the current ring's cells can still be closer than the ring bound).
      if (n == k && bestD(k - 1) <= ring * cellSize) done = true
      ring += 1
    }
    if (n == k) (bestId, bestD)
    else (java.util.Arrays.copyOf(bestId, n), java.util.Arrays.copyOf(bestD, n))
  }
}

object GridIndex {
  /** Grid side for n points, so the average bucket holds a handful. */
  def cellsFor(n: Int): Int = math.max(1, math.min(128, math.sqrt(math.max(1, n) / 4.0).toInt))
}
