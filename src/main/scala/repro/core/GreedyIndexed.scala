package repro.core

/** Approx* — Algorithm 1 with the Section III-C index and pruning.
  *
  * Two mechanisms reproduce the paper's optimizations:
  *
  *  1. **Voronoi locality** (`QualityState`): marginal gains and commits are
  *     computed over the affected order-k Voronoi window only, not all m
  *     slots. Each slot's k nearest distances, their sum and the k-th are
  *     cached (the index's stored ⟨k-set, knn(l), knn(r)⟩), so a marginal
  *     gain is O(window) array reads through a table of entropy terms, and
  *     a commit is an O(k) sorted insert per window slot: neither walks
  *     the executed set.
  *  2. **Best-first search with upper-bound pruning** (`LazyGreedy` over one
  *     task at the static cost, refreshing one stale entry at a time): only
  *     candidates whose Voronoi window was dirtied since their last
  *     evaluation are recomputed, and the result is *exactly* the eager
  *     greedy argmax.
  *
  * No `QualityTree` is built: no selection reads it. The paper's index-cost
  * measurements (Fig 8 (c)/(e)) replay the returned commit order into one
  * (`QualityTree.replay`), and its aggregated q' is cross-checked against
  * the incremental state in tests.
  *
  * Output matches `GreedyNaive` (tested): same executed slots in the same
  * order and the same cost. The reported quality is the running sum of
  * `QualityState` and agrees with Approx's full recomputation within 1e-12.
  */
object GreedyIndexed {

  /** `treeNodeCount` is always 0: the run builds no `QualityTree`
    * (`QualityTree.replay` sizes one from the commit order).
    */
  final case class IndexedOutcome(
      result: AssignmentResult,
      stats: GreedyStats,
      treeNodeCount: Int,
  )

  def run(inst: TaskInstance, budget: Double, params: TcscParams): IndexedOutcome = {
    val cost = Array.tabulate(inst.m)(inst.cost)
    val g = new LazyGreedy(Vector(inst), params.k, budget, (_, j) => cost(j), refreshAll = false)
    val task = g.tasks.head
    val order = Vector.newBuilder[Int]
    var spent = 0.0

    var iterations = 0
    var heuristicNanos = 0L
    var updateNanos = 0L

    var done = false
    while (!done) {
      var t0 = System.nanoTime()
      val e = g.next(spent)
      heuristicNanos += System.nanoTime() - t0
      if (e == null) done = true
      else {
        t0 = System.nanoTime()
        g.commit(0, e.slot)
        updateNanos += System.nanoTime() - t0
        spent += cost(e.slot)
        order += e.slot
        iterations += 1
      }
    }

    val stats = GreedyStats(iterations, g.evals, task.st.slotsVisited,
      heuristicNanos, updateNanos, treeNanos = 0L)
    val greedy = AssignmentResult(order.result(), spent, task.st.quality)
    IndexedOutcome(Singletons.orBest(greedy, task.singles, cost, budget),
      stats, treeNodeCount = 0)
  }
}
