package repro.core.multi

import repro.core.SlotCandidates

/** Global (worker, slot) occupancy — a worker serves at most one subtask per
  * time slot, which is what creates cross-task conflicts (Section IV-A).
  *
  * Each run owns one pool inside its `Ledger`, and only the thread that
  * books touches it: the task-level framework's helper threads evaluate Δq
  * and never book, and each conflict group of the group-level framework and
  * the Spark job runs its own ledger.
  */
final class WorkerPool {
  private val taken = new java.util.HashSet[Long]()

  private def key(worker: Int, slot: Int): Long = (slot.toLong << 32) | (worker.toLong & 0xffffffffL)

  def isTaken(worker: Int, slot: Int): Boolean = taken.contains(key(worker, slot))

  /** Claim (worker, slot); false if already taken. */
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
}
