package repro.core.multi

import repro.core._

/** Outcome of a multi-task assignment run. */
final case class MultiOutcome(
    perTask: Vector[AssignmentResult],
    executions: Vector[Execution],
    totalCost: Double,
    qSum: Double,
    qMin: Double,
    commits: Int,
    evals: Long,
    conflicts: Long,
)

object MultiOutcome {
  /** The one way an outcome is built: cost, q_sum and q_min come from
    * `perTask`; q_min of no tasks is 0.
    */
  def of(perTask: Vector[AssignmentResult], executions: Vector[Execution], commits: Int,
         evals: Long, conflicts: Long): MultiOutcome =
    MultiOutcome(perTask, executions, perTask.map(_.totalCost).sum, perTask.map(_.quality).sum,
      if (perTask.isEmpty) 0.0 else perTask.map(_.quality).min,
      commits, evals, conflicts)
}

/** Serial multi-task assignment (Section IV).
  *
  * `basic` is the unparallelized MSQM baseline of Fig 9 (a): every iteration
  * re-enumerates all |T| tasks' candidate subtasks to find the global
  * maximum heuristic value, so it scales quadratically with |T| (the paper's
  * O(|T|² m log³ m) analysis). `minQuality` is the MMQM solver: a heap keyed
  * by current task quality; the minimum-quality task executes one greedy
  * step per pop.
  *
  * Both book through a `Ledger`: a subtask's cost is the travel distance of
  * its cheapest *still-free* worker, so a taken worker pushes competing
  * tasks to their 2nd-, 3rd-, … nearest (Fig 4). Commits are strictly
  * sequential, so a conflict only re-costs the bumped tasks; it is counted
  * all the same, as in the task-level framework.
  */
object SerialMulti {

  /** State of an eager run: every step scans the candidates afresh. */
  private final class Eager(instances: Seq[TaskInstance], budget: Double, params: TcscParams) {
    private val insts = instances.toIndexedSeq
    private val ledger = new Ledger(insts, budget)
    val ctxs: IndexedSeq[TaskCtx] = TaskCtx.all(insts, params.k)
    var evals = 0L

    /** Books the best affordable candidate of tasks `from until until`;
      * false when there is none.
      */
    def step(from: Int, until: Int, gain: (Int, Int) => Double): Boolean = {
      val e = ledger.best(from, until, gain)
      if (e != null) {
        ledger.book(e.task, e.slot)
        ctxs(e.task).st.insert(e.slot)
      }
      e != null
    }

    def result: MultiOutcome = ledger.outcome(evals)((i, _) => ctxs(i).st.quality)
  }

  /** MSQM, basic serial greedy (no index reuse across iterations, no
    * parallelism): the Fig 9 (a) "basic" competitor.
    */
  def basic(instances: Seq[TaskInstance], budget: Double,
            params: TcscParams): MultiOutcome = {
    val run = new Eager(instances, budget, params)
    val gain = (i: Int, j: Int) => { run.evals += 1; run.ctxs(i).deltaQ(j) }
    while (run.step(0, run.ctxs.length, gain)) ()
    run.result
  }

  /** MMQM (Problem 3): maximize the minimum task quality. A min-heap over
    * current task qualities; each pop executes one Algorithm-1 greedy step
    * for the weakest task. `indexed = false` recomputes marginals with the
    * naive full scan (Approx); `indexed = true` uses the windowed engine
    * (Approx*) — identical plans, different cost.
    */
  def minQuality(instances: Seq[TaskInstance], budget: Double,
                 params: TcscParams, indexed: Boolean = true): MultiOutcome = {
    val run = new Eager(instances, budget, params)
    val gain = { (i: Int, j: Int) =>
      run.evals += 1
      val ctx = run.ctxs(i)
      if (indexed || ctx.st.executedCount == 0) ctx.deltaQ(j)
      else GreedyNaive.deltaQNaive(ctx.st.executed, params.k, j)
    }
    // (quality, task index) min-heap: min quality, then min index.
    val heap = scala.collection.mutable.PriorityQueue.empty[(Double, Int)](
      Ordering.by((e: (Double, Int)) => (e._1, e._2)).reverse)
    run.ctxs.indices.foreach(i => heap.enqueue((0.0, i)))
    while (heap.nonEmpty) {
      val (_, i) = heap.dequeue()
      // One greedy step for the weakest task; a task with no affordable
      // candidate leaves the heap for good.
      if (run.step(i, i + 1, gain))
        heap.enqueue((run.ctxs(i).st.quality, i)) // re-enter with updated quality
    }
    run.result
  }
}
