package repro.core

/** Approx* — Algorithm 1 with the Section III-C index and pruning.
  *
  * Two mechanisms reproduce the paper's optimizations:
  *
  *  1. **Voronoi locality** (`QualityState`): marginal gains and commits are
  *     computed over the affected order-k Voronoi window only, not all m
  *     slots. Each slot's k-NN distance sum and k-th-NN distance are cached
  *     (the index's stored `knn(l)`/`knn(r)`), so a marginal gain is
  *     O(window) array reads through a table of entropy terms; only a
  *     commit walks the executed set.
  *  2. **Best-first search with upper-bound pruning** (`LazyGreedy` over one
  *     task at the static cost, refreshing one stale entry at a time): only
  *     candidates whose Voronoi window was dirtied since their last
  *     evaluation are recomputed, and the result is *exactly* the eager
  *     greedy argmax.
  *
  * A `QualityTree` (the aggregated approximate order-k Voronoi tree) is
  * maintained alongside to reproduce the paper's index-cost measurements;
  * its aggregated q' is cross-checked against the incremental state in tests.
  *
  * Output matches `GreedyNaive` (tested): same executed slots in the same
  * order and the same cost. The reported quality is the running sum of
  * `QualityState` and agrees with Approx's full recomputation within 1e-12.
  */
object GreedyIndexed {

  final case class IndexedOutcome(
      result: AssignmentResult,
      stats: GreedyStats,
      treeNodeCount: Int,
  )

  def run(inst: TaskInstance, budget: Double, params: TcscParams): IndexedOutcome = {
    val cost = Array.tabulate(inst.m)(inst.cost)
    val g = new LazyGreedy(Vector(inst), params.k, budget, (_, j) => cost(j), width = 1)
    val task = g.tasks.head

    val tree = new QualityTree(inst.m, params.k, params.ts)
    var t0 = System.nanoTime()
    tree.rebuild()
    var treeNanos = System.nanoTime() - t0
    var iterations = 0
    var heuristicNanos = 0L
    var updateNanos = 0L

    var done = false
    while (!done) {
      t0 = System.nanoTime()
      val e = g.next()
      heuristicNanos += System.nanoTime() - t0
      if (e == null) done = true
      else {
        t0 = System.nanoTime()
        g.commit(0, e.slot, cost(e.slot))
        updateNanos += System.nanoTime() - t0
        t0 = System.nanoTime()
        tree.insert(e.slot)
        treeNanos += System.nanoTime() - t0
        iterations += 1
      }
    }

    val stats = GreedyStats(iterations, g.evals, task.st.slotsVisited,
      heuristicNanos, updateNanos, treeNanos)
    IndexedOutcome(Singletons.orBest(task.result, task.singles, cost, budget),
      stats, tree.nodeCount)
  }
}
