package repro.core

import java.util.concurrent.{Callable, ExecutorService}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One task's state in a greedy run: its incremental quality, its singleton
  * qualities and the plan so far. `ent` is `QualityState.entropyTable` of the
  * task's (m, k); the tasks of a run share it (`TaskCtx.all`).
  */
final class TaskCtx(val inst: TaskInstance, k: Int, ent: Array[Double]) {
  val st = new QualityState(inst.m, k, ent)
  val singles: Array[Double] = Singletons.qualities(inst.m, k)
  val order = Vector.newBuilder[Int]
  var spent = 0.0
  /** Δq of slot `j`; the O(1) singleton quality while nothing is executed. */
  def deltaQ(j: Int): Double =
    if (st.executedCount == 0) singles(j) else st.deltaQ(j)
  def result: AssignmentResult = AssignmentResult(order.result(), spent, st.quality)
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
  *  - `width`: how many stale candidates one refresh re-evaluates. At width
  *    1 the stale top's key is rewritten in place and sifted down. A wider
  *    batch takes stale tops until it is full or the top is fresh;
  *    `LazyGreedy.All` instead refreshes every stale candidate in the heap.
  *    With an `exec`, a batch is evaluated on its threads; otherwise inline.
  *
  * `refreshed(task, h)` sees every re-evaluated value (the Heartbeat Table).
  * `commit` must execute the candidate `next` just returned.
  */
final class LazyGreedy(
    insts: IndexedSeq[TaskInstance],
    k: Int,
    budget: Double,
    cost: (Int, Int) => Double,
    width: Int,
    exec: ExecutorService = null,
    refreshed: (Int, Double) => Unit = (_, _) => (),
) {
  import LazyGreedy._
  require(width >= 1, s"width = $width, need width >= 1")

  val tasks: IndexedSeq[TaskCtx] = TaskCtx.all(insts, k)
  var spent = 0.0
  /** Δq evaluations made by refreshes. */
  var evals = 0L

  private val off = tasks.iterator.map(_.inst.m.toLong).scanLeft(0L)(_ + _).map { o =>
    require(o < Int.MaxValue, s"$o candidates overflow an Int id"); o.toInt
  }.toArray
  private val n = off(tasks.length)
  private val taskOf = new Array[Int](n)
  private val h = new Array[Double](n)     // h of the last evaluation
  private val evalVer = new Array[Int](n)  // commits before that evaluation
  private val dirtyVer = new Array[Int](n) // commits before the last invalidation
  private var version = 0
  private val heap = new Array[Int](n)
  private var size = 0
  private val batch = new Array[Int](if (width == 1) 0 else math.min(width, n))
  private val gains = new Array[Double](batch.length)

  // Nothing is executed yet, so every marginal is a singleton quality.
  for (i <- tasks.indices; j <- 0 until tasks(i).inst.m) {
    val id = off(i) + j
    taskOf(id) = i
    val c = cost(i, j)
    if (c <= budget) { h(id) = ratio(tasks(i).singles(j), c); heap(size) = id; size += 1 }
  }
  heapify()

  /** The fresh maximum, or null when no affordable candidate is left. */
  def next(): Entry = {
    while (size > 0) {
      val id = heap(0)
      val task = taskOf(id)
      val slot = id - off(task)
      val c = cost(task, slot)
      if (!affordable(c)) removeTop()
      else if (fresh(id)) { removeTop(); return Entry(h(id), task, slot) }
      else if (width == 1) {
        val v = ratio(tasks(task).deltaQ(slot), c)
        evals += 1
        h(id) = v
        evalVer(id) = version
        refreshed(task, v)
        siftDown(0)
      } else refreshBatch()
    }
    null
  }

  /** Executes `slot` of `task` at cost `c`. Every candidate of the task whose
    * Δq window can overlap the change is dirtied: the insert's
    * [`dirtyLo`, `dirtyHi`] (`QualityState`, DESIGN.md §6).
    */
  def commit(task: Int, slot: Int, c: Double): Unit = {
    version += 1
    val ctx = tasks(task)
    val st = ctx.st
    st.insert(slot)
    java.util.Arrays.fill(dirtyVer, off(task) + st.dirtyLo, off(task) + st.dirtyHi + 1, version)
    ctx.order += slot
    ctx.spent += c
    spent += c
  }

  /** Marks (task, slot) stale as of the last commit: its cost rose. */
  def dirty(task: Int, slot: Int): Unit = dirtyVer(off(task) + slot) = version

  // Affordability is permanent once lost: spend and costs only grow.
  private def affordable(c: Double): Boolean = spent + c <= budget

  private def costOf(id: Int): Double = {
    val task = taskOf(id)
    cost(task, id - off(task))
  }

  private def fresh(id: Int): Boolean = evalVer(id) >= dirtyVer(id)

  /** Re-evaluates a batch of stale candidates (the top first), then puts
    * the affordable ones back in id order, so the heartbeat does not depend
    * on how the batch was evaluated. Unaffordable candidates met on the way
    * leave the heap.
    */
  private def refreshBatch(): Unit = {
    var nb = 0
    if (width == All) {
      var kept = 0
      var p = 0
      while (p < size) {
        val id = heap(p)
        if (affordable(costOf(id))) {
          if (fresh(id)) { heap(kept) = id; kept += 1 }
          else { batch(nb) = id; nb += 1 }
        }
        p += 1
      }
      size = kept
    } else {
      var stop = false
      while (!stop && size > 0) {
        val id = heap(0)
        if (!affordable(costOf(id))) removeTop()
        else if (fresh(id)) stop = true
        else { batch(nb) = id; nb += 1; removeTop(); stop = nb == batch.length }
      }
    }
    java.util.Arrays.sort(batch, 0, nb)
    evaluate(nb)
    var b = 0
    while (b < nb) {
      val id = batch(b)
      val c = costOf(id)
      if (affordable(c)) {
        h(id) = ratio(gains(b), c)
        evalVer(id) = version
        refreshed(taskOf(id), h(id))
        heap(size) = id
        size += 1
        if (width != All) siftUp(size - 1)
      }
      b += 1
    }
    evals += nb
    if (width == All) heapify()
  }

  /** Δq of the first `nb` batch candidates into `gains`. */
  private def evaluate(nb: Int): Unit =
    if (exec == null || nb == 1) {
      var b = 0
      while (b < nb) { gains(b) = gain(batch(b)); b += 1 }
    } else {
      val jobs = (0 until nb).map { b => val id = batch(b); (() => gain(id)): Callable[Double] }
      val results = exec.invokeAll(jobs.asJava)
      var b = 0
      while (b < nb) { gains(b) = results.get(b).get(); b += 1 }
    }

  private def gain(id: Int): Double = {
    val task = taskOf(id)
    tasks(task).deltaQ(id - off(task))
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

  private def siftUp(from: Int): Unit = {
    val id = heap(from)
    var p = from
    while (p > 0 && above(id, heap((p - 1) >> 1))) { heap(p) = heap((p - 1) >> 1); p = (p - 1) >> 1 }
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
  /** `width` that refreshes every stale candidate before each commit. */
  val All: Int = Int.MaxValue

  private val Eps = 1e-12

  /** The budgeted ratio rule's heuristic value: gain per unit cost, with a
    * zero cost counted as 1e-12.
    */
  def ratio(dq: Double, cost: Double): Double = dq / math.max(cost, Eps)

  /** Heuristic `h` of (task, slot): the fresh maximum `next` returns. */
  final case class Entry(h: Double, task: Int, slot: Int)
}
