package repro.core.multi

import repro.core.{LazyGreedy, SlotCandidates, TaskInstance}

/** Global (worker, slot) occupancy — a worker serves at most one subtask per
  * time slot, which is what creates cross-task conflicts (Section IV-A).
  *
  * Thread-safe: `tryTake` is atomic so parallel frameworks can share one
  * pool; losers of a race simply recompute their next-cheapest candidate.
  */
final class WorkerPool {
  private val taken = java.util.concurrent.ConcurrentHashMap.newKeySet[Long]()

  private def key(worker: Int, slot: Int): Long = (slot.toLong << 32) | (worker.toLong & 0xffffffffL)

  def isTaken(worker: Int, slot: Int): Boolean = taken.contains(key(worker, slot))

  /** Atomically claim (worker, slot); false if already taken. */
  def tryTake(worker: Int, slot: Int): Boolean = taken.add(key(worker, slot))

  def takenCount: Int = taken.size

  /** Rank of the cheapest still-free candidate for this slot, or -1 when the
    * whole known candidate list is occupied.
    */
  def freeRank(sc: SlotCandidates, slot: Int): Int = {
    var r = 0
    while (r < sc.workers.length) {
      if (!isTaken(sc.workers(r), slot)) return r
      r += 1
    }
    -1
  }

  /** Rank of `worker` within the candidate list, or -1. */
  def rankOf(sc: SlotCandidates, worker: Int): Int = {
    var r = 0
    while (r < sc.workers.length) {
      if (sc.workers(r) == worker) return r
      r += 1
    }
    -1
  }

  /** The eager greedy scan: among the unexecuted slots of tasks
    * `from until until` whose cheapest free worker fits the budget, the one
    * with the largest `LazyGreedy.ratio` of `gain` to that worker's cost.
    * Ties go to the lower task, then the lower slot. Null when nothing is
    * affordable.
    */
  def bestAffordable(insts: IndexedSeq[TaskInstance], from: Int, until: Int,
                     spent: Double, budget: Double,
                     executed: (Int, Int) => Boolean,
                     gain: (Int, Int) => Double): WorkerPool.Pick = {
    var bi = -1; var bj = -1; var bRank = -1; var bh = Double.NegativeInfinity
    var i = from
    while (i < until) {
      var j = 0
      while (j < insts(i).m) {
        if (!executed(i, j)) {
          val sc = insts(i).slots(j)
          val rank = freeRank(sc, j)
          if (rank >= 0 && spent + sc.costs(rank) <= budget) {
            val h = LazyGreedy.ratio(gain(i, j), sc.costs(rank))
            if (h > bh) { bh = h; bi = i; bj = j; bRank = rank }
          }
        }
        j += 1
      }
      i += 1
    }
    if (bi < 0) null
    else {
      val sc = insts(bi).slots(bj)
      WorkerPool.Pick(bi, bj, sc.workers(bRank), sc.costs(bRank))
    }
  }
}

object WorkerPool {
  /** Slot `slot` of task index `task`, by `worker` at `cost`. */
  final case class Pick(task: Int, slot: Int, worker: Int, cost: Double)
}
