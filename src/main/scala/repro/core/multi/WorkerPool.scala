package repro.core.multi

import repro.core.SlotCandidates

/** A (worker, slot) occupancy set — a worker serves at most one subtask per
  * time slot, which is what creates cross-task conflicts (Section IV-A).
  *
  * No plan books through it: `Ledger` keeps occupancy, ranks and costs in
  * its own arrays. It is kept only for the standalone benchmark, whose
  * `Replay.pool` times its calls (`BenchSurfaceSpec` pins that surface);
  * delete it once the benchmark stops calling it.
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
