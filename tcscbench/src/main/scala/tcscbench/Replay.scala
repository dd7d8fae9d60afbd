package tcscbench

import repro.core.{ExecutedSet, Execution, QualityState, QualityTree, TaskInstance, TcscParams}
import repro.core.multi.WorkerPool

/** Per-call timers for the public calls the assignment paths make, taken by
  * replaying a finished plan through fresh structures. Replays run outside
  * the timed round, so they never change `plan_ms_p50`.
  */
object Replay {

  /** Totals over every replayed commit; `calls` commits were replayed. */
  final class CoreTimes {
    var calls = 0L
    var windowNs = 0L; var windowSlots = 0L
    var deltaQNs = 0L; var insertNs = 0L
    var knnNs = 0L; var kthDistNs = 0L
    var treeInsertNs = 0L
  }

  /** Replay one task's commit order through a fresh `QualityState`,
    * `ExecutedSet` and `QualityTree`, timing each call before the commit it
    * precedes, as the greedy loop makes them.
    */
  def core(m: Int, order: Seq[Int], params: TcscParams, into: CoreTimes): Unit = {
    val k = params.k
    val st = new QualityState(m, k)
    val es = new ExecutedSet(m)
    val tree = new QualityTree(m, k, params.ts)
    tree.rebuild()
    for (j <- order) {
      var t = System.nanoTime()
      val (lo, hi) = st.window(j)
      into.windowNs += System.nanoTime() - t
      into.windowSlots += hi - lo + 1
      t = System.nanoTime()
      st.deltaQ(j)
      into.deltaQNs += System.nanoTime() - t
      t = System.nanoTime()
      st.insert(j)
      into.insertNs += System.nanoTime() - t
      t = System.nanoTime()
      es.knn(j, k)
      into.knnNs += System.nanoTime() - t
      t = System.nanoTime()
      es.kthDist(j, k)
      into.kthDistNs += System.nanoTime() - t
      es.add(j)
      t = System.nanoTime()
      tree.insert(j)
      into.treeInsertNs += System.nanoTime() - t
      into.calls += 1
    }
  }

  final class PoolTimes {
    var commits = 0L
    var freeRankNs = 0L; var tryTakeNs = 0L; var conflictProbeNs = 0L
  }

  /** Replay a multi-task plan's executions, in commit order, through a fresh
    * `WorkerPool`. Per commit: `freeRank` of the committing candidate list,
    * `freeRank` over every other task's list at the same slot (the probe
    * `registerConflicts` makes), then `tryTake`.
    */
  def pool(instances: IndexedSeq[TaskInstance], executions: Seq[Execution],
           into: PoolTimes): Unit = {
    val byId = instances.map(i => i.task.id -> i).toMap
    val pool = new WorkerPool
    for (e <- executions) {
      val sc = byId(e.taskId).slots(e.slot)
      var t = System.nanoTime()
      pool.freeRank(sc, e.slot)
      into.freeRankNs += System.nanoTime() - t
      t = System.nanoTime()
      var i = 0
      while (i < instances.length) {
        val other = instances(i)
        if (other.task.id != e.taskId && e.slot < other.m) pool.freeRank(other.slots(e.slot), e.slot)
        i += 1
      }
      into.conflictProbeNs += System.nanoTime() - t
      t = System.nanoTime()
      pool.tryTake(e.workerId, e.slot)
      into.tryTakeNs += System.nanoTime() - t
      into.commits += 1
    }
  }
}
