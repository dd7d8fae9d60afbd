package repro.core.multi

import repro.core.{Execution, TaskInstance}
import scala.collection.mutable.ArrayBuffer

/** Test oracle for `Ledger`'s booking model, without its index: a cost is a
  * walk of the candidate list through `WorkerPool.freeRank`, and a booking
  * scans every task for the ones whose cheapest free worker it takes, in
  * task order. `unbook` books the remaining prefix again on a fresh pool.
  */
final class ScanLedger(insts: IndexedSeq[TaskInstance], budget: Double) {
  private var pool = new WorkerPool
  private var booked = insts.map(inst => new Array[Boolean](inst.m))
  private val order = ArrayBuffer.empty[(Int, Int)]
  private val execs = ArrayBuffer.empty[Execution]
  private var spentSoFar = 0.0
  private var conflictCount = 0L

  def spent: Double = spentSoFar
  def conflicts: Long = conflictCount
  def executions: Vector[Execution] = execs.toVector

  def freeRank(i: Int, j: Int): Int = pool.freeRank(insts(i).slots(j), j)

  def cost(i: Int, j: Int): Double = {
    val r = freeRank(i, j)
    if (r < 0) Double.PositiveInfinity else insts(i).slots(j).costs(r)
  }

  def affordable(i: Int, j: Int): Boolean = spentSoFar + cost(i, j) <= budget

  def book(i: Int, j: Int, bumped: (Int, Int) => Unit = (_, _) => ()): Execution = {
    require(!booked(i)(j), s"slot $j of task $i is already booked")
    val rank = freeRank(i, j)
    require(rank >= 0, s"slot $j of task $i has no free worker")
    val sc = insts(i).slots(j)
    val w = sc.workers(rank)
    for (o <- insts.indices if o != i && j < insts(o).m && !booked(o)(j)) {
      val other = insts(o).slots(j)
      val r = pool.freeRank(other, j)
      if (r >= 0 && other.workers(r) == w) {
        conflictCount += 1
        bumped(o, r)
      }
    }
    require(pool.tryTake(w, j), s"worker $w is already booked at slot $j")
    val e = Execution(insts(i).task.id, j, w, sc.costs(rank))
    booked(i)(j) = true
    spentSoFar += e.cost
    order += ((i, j))
    execs += e
    e
  }

  def unbook(): Unit = {
    require(order.nonEmpty, "nothing is booked")
    val keep = order.init.toVector
    pool = new WorkerPool
    booked = insts.map(inst => new Array[Boolean](inst.m))
    order.clear(); execs.clear()
    spentSoFar = 0.0
    conflictCount = 0L
    keep.foreach { case (i, j) => book(i, j) }
  }
}
