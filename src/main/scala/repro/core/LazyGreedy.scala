package repro.core

import scala.collection.mutable

/** One task's state in a greedy run: its incremental quality and its
  * singleton qualities. The plan itself is the caller's record (a `Ledger`,
  * or Approx*'s commit order). `ent` is `QualityState.entropyTable` of the
  * task's (m, k); the tasks of a run share it (`TaskCtx.all`).
  */
final class TaskCtx(val inst: TaskInstance, k: Int, ent: Array[Double]) {
  val st = new QualityState(inst.m, k, ent)
  val singles: Array[Double] = Singletons.qualities(inst.m, k)
  /** Δq of slot `j`; the O(1) singleton quality while nothing is executed. */
  def deltaQ(j: Int): Double =
    if (st.executedCount == 0) singles(j) else st.deltaQ(j)
}

object TaskCtx {
  /** One context per task; the entropy table is built once per distinct m. */
  def all(insts: IndexedSeq[TaskInstance], k: Int): IndexedSeq[TaskCtx] = {
    val tables = mutable.HashMap.empty[Int, Array[Double]]
    insts.map(inst => new TaskCtx(inst, k,
      tables.getOrElseUpdate(inst.m, QualityState.entropyTable(inst.m, k))))
  }
}

/** The lazy greedy behind Approx* (Section III-C, best-first search with
  * upper-bound pruning) and the task-level MSQM master (Section IV-A-2):
  * Minoux's accelerated greedy, keyed by the budgeted ratio h = Δq / cost
  * as in CELF.
  *
  * Every candidate (task, slot) has one id, `off(task) + slot`, so id order
  * is (task, slot) order. Its h of the last evaluation, that evaluation's
  * commit count and the commit count of its last invalidation live in
  * primitive arrays indexed by id. The heap is an `Int` array of ids, a
  * max-heap on (h desc by `java.lang.Double.compare`, id asc), holding each
  * candidate at most once: a refresh rewrites the candidate's key, it never
  * adds a second entry. Δq only shrinks as a task's executed set grows (q
  * is monotone submodular) and a cost only grows as workers are taken, so a
  * cached h is an upper bound of the current one. `next` refreshes until
  * the top is fresh — nothing it depends on changed since it was computed —
  * and that candidate is exactly the eager argmax. The order is total, so
  * the sequence of tops does not depend on the heap's layout.
  *
  * The caller supplies the two things that differ between the paths:
  *  - `cost(task, slot)`: the current cost of a candidate, +∞ when no worker
  *    can execute it. It may only grow, and only at a commit; a rise must be
  *    reported with `dirty`.
  *  - `refreshAll`: false rewrites the stale top's key in place and sifts it
  *    down, so only candidates that reach the top are re-evaluated; true
  *    re-evaluates every stale candidate in the heap, in id order, then
  *    re-heapifies (the task-level framework without priorities, Fig 9 (f)).
  *
  * Refreshes run inline on the calling thread: a Δq takes well under a
  * microsecond, far less than handing it to another thread.
  * `refreshed(task, h)` sees every re-evaluated value (the Heartbeat Table).
  * The caller keeps the one record of the spend (Approx*'s sum, or the
  * task-level run's `Ledger`) and passes it to `next`; `commit` must execute
  * the candidate `next` just returned.
  */
final class LazyGreedy(
    insts: IndexedSeq[TaskInstance],
    k: Int,
    budget: Double,
    cost: (Int, Int) => Double,
    refreshAll: Boolean,
    refreshed: (Int, Double) => Unit = (_, _) => (),
) {
  import LazyGreedy._

  val tasks: IndexedSeq[TaskCtx] = TaskCtx.all(insts, k)
  /** Δq evaluations made by refreshes. */
  var evals = 0L

  private val off = offsets(insts)
  private val n = off(tasks.length)
  private val taskOf = new Array[Int](n)
  private val h = new Array[Double](n)     // h of the last evaluation
  private val evalVer = new Array[Int](n)  // commits before that evaluation
  private val dirtyVer = new Array[Int](n) // commits before the last invalidation
  private var version = 0
  private val heap = new Array[Int](n)
  private var size = 0
  private val stale = new Array[Int](if (refreshAll) n else 0)

  // Nothing is executed yet, so every marginal is a singleton quality.
  for (i <- tasks.indices; j <- 0 until tasks(i).inst.m) {
    val id = off(i) + j
    taskOf(id) = i
    val c = cost(i, j)
    if (c <= budget) { h(id) = ratio(tasks(i).singles(j), c); heap(size) = id; size += 1 }
  }
  heapify()

  /** The fresh maximum affordable after spending `spent`, or null when no
    * affordable candidate is left.
    */
  def next(spent: Double): Entry = {
    while (size > 0) {
      val id = heap(0)
      val task = taskOf(id)
      val slot = id - off(task)
      val c = cost(task, slot)
      if (!affordable(spent, c)) removeTop()
      else if (fresh(id)) { removeTop(); return Entry(h(id), task, slot) }
      else if (refreshAll) refreshStale(spent)
      else { refresh(id, c); siftDown(0) }
    }
    null
  }

  /** Executes `slot` of `task`. Every candidate of the task whose Δq window
    * can overlap the change is dirtied: the insert's [`dirtyLo`, `dirtyHi`]
    * (`QualityState`, DESIGN.md §6).
    */
  def commit(task: Int, slot: Int): Unit = {
    version += 1
    val st = tasks(task).st
    st.insert(slot)
    java.util.Arrays.fill(dirtyVer, off(task) + st.dirtyLo, off(task) + st.dirtyHi + 1, version)
  }

  /** Marks (task, slot) stale as of the last commit: its cost rose. */
  def dirty(task: Int, slot: Int): Unit = dirtyVer(off(task) + slot) = version

  // Affordability is permanent once lost: spend and costs only grow.
  private def affordable(spent: Double, c: Double): Boolean = spent + c <= budget

  private def costOf(id: Int): Double = {
    val task = taskOf(id)
    cost(task, id - off(task))
  }

  private def fresh(id: Int): Boolean = evalVer(id) >= dirtyVer(id)

  /** Re-evaluates candidate `id` at its current cost `c`. */
  private def refresh(id: Int, c: Double): Unit = {
    val task = taskOf(id)
    val v = ratio(tasks(task).deltaQ(id - off(task)), c)
    evals += 1
    h(id) = v
    evalVer(id) = version
    refreshed(task, v)
  }

  /** Drops the candidates unaffordable after `spent`, re-evaluates every
    * stale one in id order (so the heartbeat does not depend on the heap's
    * layout) and re-heapifies.
    */
  private def refreshStale(spent: Double): Unit = {
    var ns = 0
    var kept = 0
    var p = 0
    while (p < size) {
      val id = heap(p)
      if (affordable(spent, costOf(id))) {
        if (fresh(id)) { heap(kept) = id; kept += 1 }
        else { stale(ns) = id; ns += 1 }
      }
      p += 1
    }
    java.util.Arrays.sort(stale, 0, ns)
    var b = 0
    while (b < ns) {
      val id = stale(b)
      refresh(id, costOf(id))
      heap(kept) = id
      kept += 1
      b += 1
    }
    size = kept
    heapify()
  }

  /** `a` pops before `b`: larger h by `Double.compare`, then smaller id. */
  private def above(a: Int, b: Int): Boolean = {
    val c = java.lang.Double.compare(h(a), h(b))
    c > 0 || (c == 0 && a < b)
  }

  /** Bottom-up: moves the higher child up all the way to a leaf, then
    * climbs back to the displaced id's place. A refreshed top usually sinks
    * deep, so this takes fewer comparisons than stopping on the way down.
    */
  private def siftDown(from: Int): Unit = {
    val id = heap(from)
    var p = from
    var c = 2 * p + 1
    while (c < size) {
      if (c + 1 < size && above(heap(c + 1), heap(c))) c += 1
      heap(p) = heap(c)
      p = c
      c = 2 * p + 1
    }
    while (p > from && above(id, heap((p - 1) >> 1))) { heap(p) = heap((p - 1) >> 1); p = (p - 1) >> 1 }
    heap(p) = id
  }

  private def removeTop(): Unit = {
    size -= 1
    if (size > 0) { heap(0) = heap(size); siftDown(0) }
  }

  private def heapify(): Unit = {
    var p = size / 2 - 1
    while (p >= 0) { siftDown(p); p -= 1 }
  }
}

object LazyGreedy {
  private val Eps = 1e-12

  /** The budgeted ratio rule's heuristic value: gain per unit cost, with a
    * zero cost counted as 1e-12.
    */
  def ratio(dq: Double, cost: Double): Double = dq / math.max(cost, Eps)

  /** Candidate ids: (task i, slot j) is `off(i) + j`, so id order is
    * (task, slot) order, and `off(insts.length)` is the number of ids.
    */
  private[core] def offsets(insts: IndexedSeq[TaskInstance]): Array[Int] =
    insts.iterator.map(_.m.toLong).scanLeft(0L)(_ + _).map { o =>
      require(o < Int.MaxValue, s"$o candidates overflow an Int id"); o.toInt
    }.toArray

  /** Heuristic `h` of (task, slot): the fresh maximum `next` returns. */
  final case class Entry(h: Double, task: Int, slot: Int)
}
