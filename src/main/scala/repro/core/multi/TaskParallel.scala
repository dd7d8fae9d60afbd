package repro.core.multi

import repro.core._
import java.util.concurrent.Executors

/** Task-level parallelization of MSQM (Section IV-A-2, Fig 5).
  *
  * A master loop owns the global best-first heap of candidate subtasks
  * (`LazyGreedy` over all tasks, costed by the cheapest free worker); a
  * fixed pool of worker threads concurrently recomputes stale heuristic
  * values (the expensive part). With one thread they are recomputed inline.
  * The paper's coordination structures are materialized:
  *
  *  - **Heartbeat Table** — per-task latest heuristic value, refreshed every
  *    time a task's candidate is (re)evaluated or committed;
  *  - **Conflicting Table** — one record ⟨task set, slot, next NN rank⟩ per
  *    detected worker conflict: when a commit takes worker w, every other
  *    task whose cheapest free worker at that slot was w is bumped to its
  *    next-nearest candidate;
  *  - **Logging Table** — the commit history (the Heartbeat trace).
  *
  * Because q is monotone submodular and per-slot costs only grow as workers
  * are taken, cached heuristic values are upper bounds; the master commits
  * only a *fresh* maximum, so the parallel plan is identical to the serial
  * plan for any thread count (the paper's determinism claim — tested).
  *
  * `priority = true` refreshes stale candidates in descending heuristic
  * order, `threads` at a time, and stops as soon as the maximum is provably
  * fresh (the paper's dynamic thread priorities); `priority = false`
  * refreshes every stale candidate before each commit, quantifying what the
  * priority adjustment saves (Fig 9 (f)).
  */
object TaskParallel {

  final case class ConflictRecord(tasks: Set[Int], slot: Int, nextRank: Int)
  final case class LogRecord(commit: Int, task: Int, slot: Int, worker: Int,
                             h: Double, spentAfter: Double)
  final case class Tables(
      heartbeat: Vector[Double],
      conflicts: Vector[ConflictRecord],
      log: Vector[LogRecord],
  )

  def run(instances: Seq[TaskInstance], budget: Double, params: TcscParams,
          threads: Int, priority: Boolean = true): (MultiOutcome, Tables) = {
    require(threads >= 1, "threads >= 1")
    val t0 = System.nanoTime()
    val insts = instances.toIndexedSeq
    val pool = new WorkerPool
    val heartbeat = Array.fill(insts.length)(Double.NaN)
    val conflictTable = Vector.newBuilder[ConflictRecord]
    val logTable = Vector.newBuilder[LogRecord]
    val execs = Vector.newBuilder[Execution]
    var commits = 0
    var conflicts = 0L

    val exec = if (threads > 1) Executors.newFixedThreadPool(threads) else null
    try {
      // A candidate costs its cheapest free worker; none left is +∞.
      def cost(i: Int, j: Int): Double = {
        val sc = insts(i).slots(j)
        val r = pool.freeRank(sc, j)
        if (r < 0) Double.PositiveInfinity else sc.costs(r)
      }
      val g = new LazyGreedy(insts, params.k, budget, cost,
        width = if (priority) threads else LazyGreedy.All, exec,
        (i, h) => heartbeat(i) = h)
      var e = g.next()
      while (e != null) {
        val i = e.task
        val j = e.slot
        val sc = insts(i).slots(j)
        val rank = pool.freeRank(sc, j)
        val w = sc.workers(rank)
        val cost = sc.costs(rank)
        g.commit(i, j, cost)
        conflicts += SerialMulti.registerConflicts(g.tasks, pool, i, j, w, { other =>
          g.dirty(other, j) // cost bumped to the next-nearest worker
          conflictTable += ConflictRecord(Set(i, other), j,
            pool.rankOf(insts(other).slots(j), w) + 2)
        })
        require(pool.tryTake(w, j), "master commit cannot race")
        commits += 1
        heartbeat(i) = e.h
        execs += Execution(insts(i).task.id, j, w, cost)
        logTable += LogRecord(commits, i, j, w, e.h, g.spent)
        e = g.next()
      }
      val out = SerialMulti.outcome(g.tasks, execs.result(), commits, g.evals, conflicts,
        System.nanoTime() - t0)
      (out, Tables(heartbeat.toVector, conflictTable.result(), logTable.result()))
    } finally if (exec != null) exec.shutdown()
  }
}
