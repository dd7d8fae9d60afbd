package repro.core

/** Closed-form singleton qualities q({t}) for all t in O(m) total.
  *
  * With a single executed slot t, every other slot j has exactly one
  * neighbour at distance d = |j - t| and k-1 phantom neighbours at distance
  * m (footnote 2), so ρ = (d + (k-1)·m)/(k·m) and p = (m - d)/(k·m²).
  * q({t}) therefore depends only on the distance multiset {1..t, 1..m-1-t},
  * which prefix sums over g(d) = -p(d)·log2 p(d) collapse to O(1) per slot.
  *
  * Used by both Approx and Approx* for Algorithm 1's line 3 (best single
  * subtask) and the first greedy iteration, so the two variants break
  * floating-point ties identically.
  */
object Singletons {
  /** q({t}) for t = 0 .. m-1. */
  def qualities(m: Int, k: Int): Array[Double] = {
    val g = new Array[Double](m) // g(d), d = 1 .. m-1 (g(0) unused)
    var d = 1
    while (d < m) {
      val p = (m - d).toDouble / (k.toDouble * m * m)
      g(d) = Quality.contribution(p)
      d += 1
    }
    val prefix = new Array[Double](m) // prefix(D) = Σ_{d=1..D} g(d)
    var acc = 0.0
    d = 1
    while (d < m) { acc += g(d); prefix(d) = acc; d += 1 }
    val self = Quality.contribution(1.0 / m)
    Array.tabulate(m)(t => self + prefix(t) + prefix(m - 1 - t))
  }

  /** Algorithm 1 lines 3/10: the greedy plan, or the best affordable single
    * subtask when that alone has the higher quality.
    */
  def orBest(greedy: AssignmentResult, singles: Array[Double], cost: Array[Double],
             budget: Double): AssignmentResult = {
    var best = -1
    var j = 0
    while (j < singles.length) {
      if (cost(j) <= budget && (best < 0 || singles(j) > singles(best))) best = j
      j += 1
    }
    if (best >= 0 && singles(best) > greedy.quality)
      AssignmentResult(Vector(best), cost(best), singles(best))
    else greedy
  }
}
