package repro.core

import scala.collection.mutable

/** Approx* — Algorithm 1 with the Section III-C index and pruning.
  *
  * Two mechanisms reproduce the paper's optimizations:
  *
  *  1. **Voronoi locality** (`QualityState`): marginal gains and commits are
  *     computed over the affected order-k Voronoi window only, not all m
  *     slots.
  *  2. **Best-first search with upper-bound pruning**: candidates live in a
  *     max-heap keyed by their last computed heuristic value. Because q is
  *     monotone submodular and costs are fixed, cached values are always
  *     upper bounds of current ones, so popping in descending order and
  *     recomputing only entries whose Voronoi window was dirtied since their
  *     computation yields *exactly* the eager-greedy argmax while skipping
  *     (pruning) the vast majority of candidate evaluations.
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
  private val Eps = 1e-12

  private final case class Entry(h: Double, slot: Int, ver: Long)
  private val ord: Ordering[Entry] =
    Ordering.by((e: Entry) => (e.h, -e.slot)) // max-heap: h desc, slot asc

  final case class IndexedOutcome(
      result: AssignmentResult,
      stats: GreedyStats,
      treeNodeCount: Int,
      treeBuildNanos: Long,
  )

  def run(inst: TaskInstance, budget: Double, params: TcscParams,
          maintainTree: Boolean = true): IndexedOutcome = {
    val m = inst.m
    val k = params.k
    val cost = Array.tabulate(m)(inst.cost)
    val singles = Singletons.qualities(m, k)

    var bestSingle = -1
    var j = 0
    while (j < m) {
      if (cost(j) <= budget &&
          (bestSingle < 0 || singles(j) > singles(bestSingle))) bestSingle = j
      j += 1
    }

    val st = new QualityState(m, k)
    val tree = if (maintainTree) new QualityTree(m, k, params.ts) else null
    var treeNanos = 0L
    if (tree != null) {
      val t0 = System.nanoTime()
      tree.rebuild()
      treeNanos += System.nanoTime() - t0
    }

    val heap = new mutable.PriorityQueue[Entry]()(ord)
    val dirtyVer  = new Array[Long](m) // version at which slot's Δq was last invalidated
    val latestVer = new Array[Long](m) // newest entry version pushed per slot
    var version = 0L

    var t = 0
    while (t < m) {
      if (cost(t) <= budget) {
        heap.enqueue(Entry(singles(t) / math.max(cost(t), Eps), t, 0L))
      }
      t += 1
    }

    val order = Vector.newBuilder[Int]
    var spent = 0.0
    var iterations = 0
    var evals = 0L
    var heuristicNanos = 0L
    var updateNanos = 0L

    var done = false
    while (!done && heap.nonEmpty) {
      val h0 = System.nanoTime()
      var selected = -1
      while (selected < 0 && heap.nonEmpty) {
        val e = heap.dequeue()
        val live = !st.isExecuted(e.slot) &&
          e.ver >= latestVer(e.slot) &&
          spent + cost(e.slot) <= budget
        if (live) {
          if (e.ver >= dirtyVer(e.slot)) selected = e.slot // fresh: exact value
          else {
            val dq = st.deltaQ(e.slot) // stale: recompute within its window
            evals += 1
            val ne = Entry(dq / math.max(cost(e.slot), Eps), e.slot, version)
            latestVer(e.slot) = version
            heap.enqueue(ne)
          }
        }
      }
      heuristicNanos += System.nanoTime() - h0
      if (selected < 0) done = true
      else {
        val u0 = System.nanoTime()
        val (lo, hi) = st.window(selected)
        // Dirty every candidate whose Δq window can overlap the affected
        // range: [lo - Dmax, hi + Dmax] where Dmax bounds *pre-insert*
        // k-th-NN distances inside the window — pre-insert, because a
        // candidate's marginal can lose terms whose pre-insert reach was
        // wider than the post-insert one (DESIGN.md §6).
        var dmax = 0
        var jj = lo
        var unbounded = false
        while (jj <= hi && !unbounded) {
          val d = st.executed.kthDist(jj, k)
          if (d == Int.MaxValue) unbounded = true else if (d > dmax) dmax = d
          jj += 1
        }
        st.insert(selected)
        version += 1
        val dLo = if (unbounded) 0 else math.max(0, lo - dmax)
        val dHi = if (unbounded) m - 1 else math.min(m - 1, hi + dmax)
        jj = dLo
        while (jj <= dHi) { dirtyVer(jj) = version; jj += 1 }
        updateNanos += System.nanoTime() - u0

        if (tree != null) {
          val t0 = System.nanoTime()
          tree.insert(selected)
          treeNanos += System.nanoTime() - t0
        }
        order += selected
        spent += cost(selected)
        iterations += 1
      }
    }

    val greedyQ = st.quality
    val stats = GreedyStats(iterations, evals, st.slotsVisited,
      heuristicNanos, updateNanos, treeNanos)
    val nodeCount = if (tree != null) tree.nodeCount else 0
    if (bestSingle >= 0 && singles(bestSingle) > greedyQ) {
      IndexedOutcome(
        AssignmentResult(Vector(bestSingle), cost(bestSingle), singles(bestSingle)),
        stats, nodeCount, treeNanos)
    } else {
      IndexedOutcome(AssignmentResult(order.result(), spent, greedyQ),
        stats, nodeCount, treeNanos)
    }
  }
}
