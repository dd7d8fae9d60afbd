package repro.core.multi

import repro.core._

/** Task-level parallelization of MSQM (Section IV-A-2, Fig 5).
  *
  * A master loop owns the global best-first heap of candidate subtasks
  * (`LazyGreedy` over all tasks, costed by the cheapest free worker of the
  * run's `Ledger`, which books every commit). The paper hands stale
  * heuristic values to worker threads; here the master recomputes them
  * inline, because a Δq costs well under a microsecond and a hand-off to a
  * pool costs far more (4 threads ran about 8× slower than 1 at the T9
  * defaults, with the same plan; EXPERIMENTS.md T9).
  * The paper's coordination structures are materialized:
  *
  *  - **Heartbeat Table** — per-task latest heuristic value, refreshed every
  *    time a task's candidate is (re)evaluated or committed;
  *  - **Conflicting Table** — one record ⟨task set, slot, next NN rank⟩ per
  *    detected worker conflict: when a commit takes worker w, every other
  *    task whose cheapest free worker at that slot was w is bumped to its
  *    next-nearest candidate;
  *  - **Logging Table** — the commit history (the Heartbeat trace), each
  *    record with the ledger's spend after it. The ledger is the run's one
  *    record of the spend: the lazy greedy reads it at every `next`.
  *
  * Because q is monotone submodular and per-slot costs only grow as workers
  * are taken, cached heuristic values are upper bounds; the master commits
  * only a *fresh* maximum, so the plan equals the eager serial plan
  * (`SerialMulti.basic`, tested).
  *
  * `priority = true` refreshes only the stale maximum and stops as soon as
  * the maximum is provably fresh (the paper's dynamic priorities);
  * `priority = false` refreshes every stale candidate before each commit,
  * quantifying what the priority adjustment saves (Fig 9 (f)).
  *
  * `threads` no longer changes the run: outcome and tables are those of one
  * thread for every value. It is kept, with its check, only for callers that
  * still pass a thread count.
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
          threads: Int = 1, priority: Boolean = true): (MultiOutcome, Tables) = {
    require(threads >= 1, "threads >= 1")
    val insts = instances.toIndexedSeq
    val ledger = new Ledger(insts, budget)
    val heartbeat = Array.fill(insts.length)(Double.NaN)
    val conflictTable = Vector.newBuilder[ConflictRecord]
    val logTable = Vector.newBuilder[LogRecord]

    val g = new LazyGreedy(insts, params.k, budget, ledger.cost, refreshAll = !priority,
      (i, h) => heartbeat(i) = h)
    var e = g.next(ledger.spent)
    while (e != null) {
      val i = e.task
      val j = e.slot
      // Commit first: a bump dirties a candidate as of this commit.
      g.commit(i, j)
      val ex = ledger.book(i, j, { (other, lost) =>
        g.dirty(other, j) // cost bumped to the next-nearest worker
        conflictTable += ConflictRecord(Set(i, other), j, lost + 2) // 1-based next rank
      })
      heartbeat(i) = e.h
      logTable += LogRecord(ledger.commits, i, j, ex.workerId, e.h, ledger.spent)
      e = g.next(ledger.spent)
    }
    val out = ledger.outcome(g.evals)((i, _) => g.tasks(i).st.quality)
    (out, Tables(heartbeat.toVector, conflictTable.result(), logTable.result()))
  }
}
