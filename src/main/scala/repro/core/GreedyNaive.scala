package repro.core

import repro.core.multi.Ledger

/** Execution statistics shared by the greedy variants (feeds Fig 8 tables).
  *
  * `candidateEvaluations` counts Δq computations; `slotsVisited` counts slot
  * touches inside those computations; `heuristicNanos` / `updateNanos` split
  * time between finding the max heuristic value and committing/updating the
  * index, mirroring the paper's cost breakdown (Fig 8 (c)); Approx counts
  * its whole loop as heuristic time, as its commits are trivial next to its
  * scans. `treeNanos` is 0 on both variants: neither builds a `QualityTree`
  * (`QualityTree.replay` times one).
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
  * paper's O(m³ log m) baseline. Each iteration is one `Ledger.step` of a
  * one-task ledger: its single task never loses a worker, so a slot costs
  * its rank-0 candidate, and ties break toward the smaller slot index. The
  * executed slots live in a plain `ExecutedSet`, not in a `QualityState`,
  * so Approx stays an oracle independent of the incremental engine; its
  * quality is recomputed from scratch (`Quality.quality`).
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
    val singles = Singletons.qualities(m, k)
    val ledger = new Ledger(Vector(inst), budget)
    val s = new ExecutedSet(m)
    var evals = 0L
    val gain = { (_: Int, t: Int) =>
      evals += 1
      if (s.size == 0) singles(t) else deltaQNaive(s, k, t)
    }

    val t0 = System.nanoTime()
    while (ledger.step(0, 1, gain)((_, t) => s.add(t))) ()
    val heuristicNanos = System.nanoTime() - t0

    val greedy = AssignmentResult(ledger.executions.map(_.slot), ledger.spent, Quality.quality(s, k))
    GreedyOutcome(Singletons.orBest(greedy, singles, Array.tabulate(m)(inst.cost), budget),
      GreedyStats(ledger.commits, evals, evals * m, heuristicNanos, 0L, 0L))
  }
}
