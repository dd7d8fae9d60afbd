package repro.core.multi

import repro.core._
import java.util.concurrent.Executors

/** Task-level parallelization of MSQM (Section IV-A-2, Fig 5).
  *
  * A master loop owns the global best-first heap of candidate subtasks
  * (`LazyGreedy` over all tasks, costed by the cheapest free worker of the
  * run's `Ledger`, which books every commit); a fixed pool of worker
  * threads concurrently recomputes stale heuristic values (the expensive
  * part). With one thread they are recomputed inline.
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
    val insts = instances.toIndexedSeq
    val ledger = new Ledger(insts, budget)
    val heartbeat = Array.fill(insts.length)(Double.NaN)
    val conflictTable = Vector.newBuilder[ConflictRecord]
    val logTable = Vector.newBuilder[LogRecord]

    val exec = if (threads > 1) Executors.newFixedThreadPool(threads) else null
    try {
      val g = new LazyGreedy(insts, params.k, budget, ledger.cost,
        width = if (priority) threads else LazyGreedy.All, exec,
        (i, h) => heartbeat(i) = h)
      var e = g.next()
      while (e != null) {
        val i = e.task
        val j = e.slot
        val rank = ledger.freeRank(i, j)
        // Commit first: a bump dirties a candidate as of this commit.
        g.commit(i, j, insts(i).slots(j).costs(rank))
        val ex = ledger.book(i, j, rank, { (other, lost) =>
          g.dirty(other, j) // cost bumped to the next-nearest worker
          conflictTable += ConflictRecord(Set(i, other), j, lost + 2) // 1-based next rank
        })
        heartbeat(i) = e.h
        logTable += LogRecord(ledger.commits, i, j, ex.workerId, e.h, g.spent)
        e = g.next()
      }
      val out = ledger.outcome(g.tasks.map(_.result), g.evals)
      (out, Tables(heartbeat.toVector, conflictTable.result(), logTable.result()))
    } finally if (exec != null) exec.shutdown()
  }
}
