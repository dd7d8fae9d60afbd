package repro.core.multi

import repro.core.{AssignmentResult, Execution, LazyGreedy, SlotCandidates, TaskInstance}
import scala.collection.mutable.ArrayBuffer

/** The bookings of one multi-task run under Section IV's cost model: a
  * subtask costs its cheapest *still-free* worker, and booking that worker
  * pushes every other task that wanted it at the same slot to its next rank
  * (Fig 4, the Conflicting Table of IV-A-2).
  *
  * Owns the run's occupancy, the spend, the commit and conflict counts and
  * the executions in commit order. Task `i` is `insts(i)`, and no two
  * instances may share a task id: `outcome` reads each task's result off
  * the executions by id. Every multi-task path books through one ledger:
  * the lazy greedy (task-level, and per group for group-level and Spark),
  * the eager greedy paths (basic, MMQM, SApprox), Rand and the exact OPT;
  * so does Approx, as a one-task ledger, whose single task never loses a
  * worker. The eager paths take every step through `step`. A ledger is not
  * thread-safe: each run uses its own from one thread, and the group-level
  * framework and the Spark job give every conflict group its own run.
  *
  * Candidate (i, j) has the id `off(i) + j`, as in `LazyGreedy`. Its
  * cheapest free rank and that rank's cost live in an `Int` and a `Double`
  * array, so `cost`, `freeRank`, `affordable` and `step` read arrays. No
  * worker is ever released during a run, so a rank only grows; it moves
  * only when a booking takes the worker it points at. Occupancy is one flag
  * per (slot, worker) key (`SlotWorkerKeys`).
  *
  * The Conflicting Table's lookup side is an index built at construction:
  * every candidate-list entry is chained to the next entry, in ascending
  * task order, that lists the same (slot, worker), with one chain head per
  * key. A booking walks only the chain of the (slot, worker) it takes, so
  * it visits the tasks that list that worker there and no others.
  */
final class Ledger(insts: IndexedSeq[TaskInstance], budget: Double) {
  require(insts.map(_.task.id).distinct.size == insts.size,
    "a ledger books each task once; two instances share a task id")
  import Ledger.Booking

  private val off = LazyGreedy.offsets(insts)
  private val n = off(insts.length)
  private val rank = new Array[Int](n)     // cheapest free rank, -1 when all are taken
  private val price = new Array[Double](n) // its cost, +∞ when all are taken
  private val booked = new Array[Boolean](n)
  private val keys = new SlotWorkerKeys(insts)
  private val taken = new Array[Boolean](keys.size)
  // Entry `entryOff(id) + r` is rank r of candidate id's list; `next` chains
  // it to the next entry of the same (slot, worker), -1 at the end.
  private val entryOff = insts.iterator.flatMap(_.slots).map(_.workers.length)
    .scanLeft(0)(Math.addExact).toArray
  private val head = Array.fill(keys.size)(-1)
  private val entryTask = new Array[Int](entryOff(n))
  private val next = new Array[Int](entryOff(n))
  private val trail = ArrayBuffer.empty[Booking]
  private var spentSoFar = 0.0
  private var conflictCount = 0L

  // Nothing is taken yet. Prepending in descending (task, rank) order
  // leaves every chain ascending.
  for (i <- insts.indices.reverse; j <- insts(i).m - 1 to 0 by -1) {
    val sc = insts(i).slots(j)
    val id = off(i) + j
    setRank(id, sc, if (sc.isEmpty) -1 else 0)
    var r = sc.workers.length - 1
    while (r >= 0) {
      val e = entryOff(id) + r
      val key = keys(j, sc.workers(r))
      entryTask(e) = i
      next(e) = head(key)
      head(key) = e
      r -= 1
    }
  }

  def spent: Double = spentSoFar
  def commits: Int = trail.size

  /** Rank of the cheapest free worker of slot `j` of task `i`, or -1 when
    * every candidate is taken.
    */
  def freeRank(i: Int, j: Int): Int = rank(off(i) + j)

  /** The cheapest free worker's cost, or +∞ when every candidate is taken. */
  def cost(i: Int, j: Int): Double = price(off(i) + j)

  /** Whether slot `j` of task `i` can be booked now within the budget. */
  def affordable(i: Int, j: Int): Boolean = spentSoFar + cost(i, j) <= budget

  /** The eager greedy argmax: among the unbooked slots of tasks
    * `from until until` that are affordable, the one with the largest
    * `LazyGreedy.ratio` of `gain` to its cost. Ties go to the lower task,
    * then the lower slot. Null when nothing is affordable.
    */
  private def best(from: Int, until: Int, gain: (Int, Int) => Double): LazyGreedy.Entry = {
    var bi = -1; var bj = -1; var bh = Double.NegativeInfinity
    var i = from
    while (i < until) {
      var id = off(i)
      while (id < off(i + 1)) {
        if (!booked(id)) {
          val c = price(id)
          if (spentSoFar + c <= budget) {
            val h = LazyGreedy.ratio(gain(i, id - off(i)), c)
            if (h > bh) { bh = h; bi = i; bj = id - off(i) }
          }
        }
        id += 1
      }
      i += 1
    }
    if (bi < 0) null else LazyGreedy.Entry(bh, bi, bj)
  }

  /** One eager greedy step: books `best(from, until, gain)` and passes its
    * (task, slot) to `commit`, the caller's state. False when nothing is
    * affordable.
    */
  def step(from: Int, until: Int, gain: (Int, Int) => Double)(commit: (Int, Int) => Unit): Boolean = {
    val e = best(from, until, gain)
    if (e != null) { book(e.task, e.slot); commit(e.task, e.slot) }
    e != null
  }

  /** Books slot `j` of task `i`, which must not be booked yet, with its
    * cheapest free worker. Every other task that has not booked slot `j`
    * and whose cheapest free worker there was the same one is a conflict:
    * it is passed to `bumped` with the rank it loses, in ascending task
    * order, and counted. One walk of the taken (slot, worker)'s chain finds
    * those tasks and moves every rank that pointed at the worker.
    */
  def book(i: Int, j: Int, bumped: (Int, Int) => Unit = (_, _) => ()): Execution = {
    val id = off(i) + j
    require(!booked(id), s"slot $j of task $i is already booked")
    val r = rank(id)
    require(r >= 0, s"slot $j of task $i has no free worker")
    val sc = insts(i).slots(j)
    val key = keys(j, sc.workers(r))
    val conflictsBefore = conflictCount
    taken(key) = true
    var e = head(key)
    while (e >= 0) {
      val o = entryTask(e)
      val c = off(o) + j
      val lost = e - entryOff(c)
      if (rank(c) == lost) {
        if (o != i && !booked(c)) {
          conflictCount += 1
          bumped(o, lost)
        }
        advance(c, insts(o).slots(j), j)
      }
      e = next(e)
    }
    val ex = Execution(insts(i).task.id, j, sc.workers(r), sc.costs(r))
    trail += Booking(id, ex, spentSoFar, conflictsBefore)
    booked(id) = true
    spentSoFar += ex.cost
    ex
  }

  /** Undoes the last `book` that is not undone yet: frees its worker,
    * restores every rank and cost it moved, and restores the spend (the
    * saved value, not a subtraction), the commit and conflict counts, the
    * booked flag and the executions.
    */
  def unbook(): Unit = {
    require(trail.nonEmpty, "nothing is booked")
    val b = trail.remove(trail.length - 1)
    val j = b.exec.slot
    val key = keys(j, b.exec.workerId)
    taken(key) = false
    // Each rank returns to the first free entry: the freed worker's first
    // entry in its list, when that comes before its current rank.
    var e = head(key)
    while (e >= 0) {
      val o = entryTask(e)
      val c = off(o) + j
      val r = e - entryOff(c)
      if (rank(c) < 0 || rank(c) > r) setRank(c, insts(o).slots(j), r)
      e = next(e)
    }
    booked(b.id) = false
    spentSoFar = b.spentBefore
    conflictCount = b.conflictsBefore
  }

  /** Moves candidate `c` (slot `j`, list `sc`) past its taken rank to the
    * next free one.
    */
  private def advance(c: Int, sc: SlotCandidates, j: Int): Unit = {
    var r = rank(c) + 1
    while (r < sc.workers.length && taken(keys(j, sc.workers(r)))) r += 1
    setRank(c, sc, if (r < sc.workers.length) r else -1)
  }

  private def setRank(c: Int, sc: SlotCandidates, r: Int): Unit = {
    rank(c) = r
    price(c) = if (r < 0) Double.PositiveInfinity else sc.costs(r)
  }

  /** The executions in commit order so far. */
  def executions: Vector[Execution] = trail.iterator.map(_.exec).toVector

  /** The run's outcome, `perTask` following `insts`, with each task's result
    * read off the executions: task `i`'s result holds its slots in commit
    * order, the sum of their costs and `quality(i, slots)`.
    */
  def outcome(evals: Long)(quality: (Int, Vector[Int]) => Double): MultiOutcome = {
    val all = executions
    val byTask = all.groupBy(_.taskId)
    val perTask = insts.indices.map { i =>
      val es = byTask.getOrElse(insts(i).task.id, Vector.empty)
      val slots = es.map(_.slot)
      AssignmentResult(slots, es.map(_.cost).sum, quality(i, slots))
    }
    MultiOutcome(perTask.toVector, all, commits, evals, conflictCount)
  }
}

object Ledger {
  /** One booking, with what `unbook` restores: the spend and the conflict
    * count before it.
    */
  private final case class Booking(id: Int, exec: Execution, spentBefore: Double, conflictsBefore: Long)
}
