package repro.core

/** Execution statistics shared by the greedy variants (feeds Fig 8 tables).
  *
  * `candidateEvaluations` counts Δq computations; `slotsVisited` counts slot
  * touches inside those computations; `heuristicNanos` / `updateNanos` split
  * time between finding the max heuristic value and committing/updating the
  * index, mirroring the paper's cost breakdown (Fig 8 (c)). `treeNanos` is
  * 0 on both variants: neither builds a `QualityTree` (`QualityTree.replay`
  * times one).
  */
final case class GreedyStats(
    iterations: Int,
    candidateEvaluations: Long,
    slotsVisited: Long,
    heuristicNanos: Long,
    updateNanos: Long,
    treeNanos: Long,
)

final case class GreedyOutcome(result: AssignmentResult, stats: GreedyStats)

/** Approx — Algorithm 1 without the Section III-C optimizations.
  *
  * Every iteration enumerates all remaining affordable subtasks and, for
  * each, recomputes the marginal quality gain with a full O(m) scan over
  * slots (k-NN via binary search on the sorted executed list), i.e. the
  * paper's O(m³ log m) baseline. Ties break toward the smaller slot index.
  *
  * Returns the better of the greedy set and the best affordable singleton
  * (Algorithm 1 lines 3/10), which yields the (1 - 1/√e) guarantee.
  */
object GreedyNaive {
  /** Naive marginal gain: ascending full-scan difference sum. The windowed
    * engine (`QualityState.deltaQ`) is bit-identical because excluded terms
    * subtract to exactly 0.0 and its entropy table holds the same expression
    * as `Quality.finishProb`.
    */
  def deltaQNaive(s: ExecutedSet, k: Int, t: Int): Double = {
    val m = s.m
    var dq = 0.0
    var j = 0
    while (j < m) {
      if (j == t) {
        dq += Quality.contribution(1.0 / m) -
          Quality.contribution(Quality.finishProb(t, s, k))
      } else if (!s.contains(j)) {
        dq += Quality.contribution(Quality.finishProb(j, s, k, extra = t)) -
          Quality.contribution(Quality.finishProb(j, s, k))
      }
      j += 1
    }
    dq
  }

  def run(inst: TaskInstance, budget: Double, params: TcscParams): GreedyOutcome = {
    val m = inst.m
    val k = params.k
    val cost = Array.tabulate(m)(inst.cost) // +inf where no worker exists
    val singles = Singletons.qualities(m, k)

    val s = new ExecutedSet(m)
    val order = Vector.newBuilder[Int]
    var spent = 0.0
    var iterations = 0
    var evals = 0L
    var visited = 0L
    var heuristicNanos = 0L
    var first = true

    var continue = true
    while (continue) {
      val t0 = System.nanoTime()
      var best = -1
      var bestH = Double.NegativeInfinity
      var t = 0
      while (t < m) {
        if (!s.contains(t) && spent + cost(t) <= budget) {
          val dq = if (first) singles(t) else deltaQNaive(s, k, t)
          evals += 1
          visited += m
          val h = LazyGreedy.ratio(dq, cost(t))
          if (h > bestH) { bestH = h; best = t }
        }
        t += 1
      }
      heuristicNanos += System.nanoTime() - t0
      if (best < 0) continue = false
      else {
        s.add(best)
        order += best
        spent += cost(best)
        iterations += 1
        first = false
      }
    }

    val greedy = AssignmentResult(order.result(), spent, Quality.quality(s, k))
    GreedyOutcome(Singletons.orBest(greedy, singles, cost, budget),
      GreedyStats(iterations, evals, visited, heuristicNanos, 0L, 0L))
  }
}
