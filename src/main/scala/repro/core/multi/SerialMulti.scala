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
    wallNanos: Long,
)

/** Serial multi-task assignment (Section IV).
  *
  * `basic` is the unparallelized MSQM baseline of Fig 9 (a): every iteration
  * re-enumerates all |T| tasks' candidate subtasks to find the global
  * maximum heuristic value, so it scales quadratically with |T| (the paper's
  * O(|T|² m log³ m) analysis). `minQuality` is the MMQM solver: a heap keyed
  * by current task quality; the minimum-quality task executes one greedy
  * step per pop (no worker-conflict machinery needed — commits are strictly
  * sequential).
  *
  * Both share the global `WorkerPool` cost model: a subtask's cost is the
  * travel distance of its cheapest *still-free* worker, so a taken worker
  * pushes competing tasks to their 2nd-, 3rd-, … nearest (Fig 4).
  */
object SerialMulti {

  private[multi] def outcome(ctxs: IndexedSeq[TaskCtx], execs: Vector[Execution],
                             commits: Int, evals: Long, conflicts: Long,
                             nanos: Long): MultiOutcome = {
    val per = ctxs.map(_.result).toVector
    MultiOutcome(per, execs, per.map(_.totalCost).sum, per.map(_.quality).sum,
      if (per.isEmpty) 0.0 else per.map(_.quality).min,
      commits, evals, conflicts, nanos)
  }

  /** Count tasks whose current cheapest candidate at `slot` is `worker`
    * (they will be pushed to a worse rank by this commit) and mark them via
    * `onConflict`.
    */
  private[multi] def registerConflicts(
      ctxs: IndexedSeq[TaskCtx], pool: WorkerPool, committer: Int,
      slot: Int, worker: Int, onConflict: Int => Unit): Long = {
    var c = 0L
    var i = 0
    while (i < ctxs.length) {
      if (i != committer && !ctxs(i).st.isExecuted(slot)) {
        val sc = ctxs(i).inst.slots(slot)
        val fr = pool.freeRank(sc, slot)
        if (fr >= 0 && fr < sc.workers.length && sc.workers(fr) == worker) {
          c += 1
          onConflict(i)
        }
      }
      i += 1
    }
    c
  }

  /** State of an eager run: every step scans the candidates afresh. */
  private final class Eager(instances: Seq[TaskInstance], budget: Double, params: TcscParams) {
    private val t0 = System.nanoTime()
    val insts: IndexedSeq[TaskInstance] = instances.toIndexedSeq
    val ctxs: IndexedSeq[TaskCtx] = TaskCtx.all(insts, params.k)
    private val pool = new WorkerPool
    private val execs = Vector.newBuilder[Execution]
    private var spent = 0.0
    private var commits = 0
    var evals = 0L
    private var conflicts = 0L

    /** Best affordable candidate of tasks `from until until`, or null. */
    def best(from: Int, until: Int, gain: (Int, Int) => Double): WorkerPool.Pick =
      pool.bestAffordable(insts, from, until, spent, budget,
        (i, j) => ctxs(i).st.isExecuted(j), gain)

    def commit(p: WorkerPool.Pick): Unit = {
      val ctx = ctxs(p.task)
      conflicts += registerConflicts(ctxs, pool, p.task, p.slot, p.worker, _ => ())
      require(pool.tryTake(p.worker, p.slot), "serial take cannot race")
      ctx.st.insert(p.slot)
      ctx.order += p.slot
      ctx.spent += p.cost
      spent += p.cost
      execs += Execution(ctx.inst.task.id, p.slot, p.worker, p.cost)
      commits += 1
    }

    def result: MultiOutcome =
      outcome(ctxs, execs.result(), commits, evals, conflicts, System.nanoTime() - t0)
  }

  /** MSQM, basic serial greedy (no index reuse across iterations, no
    * parallelism): the Fig 9 (a) "basic" competitor.
    */
  def basic(instances: Seq[TaskInstance], budget: Double,
            params: TcscParams): MultiOutcome = {
    val run = new Eager(instances, budget, params)
    val gain = (i: Int, j: Int) => { run.evals += 1; run.ctxs(i).deltaQ(j) }
    var p = run.best(0, run.ctxs.length, gain)
    while (p != null) {
      run.commit(p)
      p = run.best(0, run.ctxs.length, gain)
    }
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
      val p = run.best(i, i + 1, gain)
      if (p != null) {
        run.commit(p)
        heap.enqueue((run.ctxs(i).st.quality, i)) // re-enter with updated quality
      }
    }
    run.result
  }
}
