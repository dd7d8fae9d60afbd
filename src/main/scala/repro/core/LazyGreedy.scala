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
  * Every candidate (task, slot) sits in a max-heap on (h desc, task asc,
  * slot asc) with the h of its last evaluation. Δq only shrinks as a task's
  * executed set grows (q is monotone submodular) and a cost only grows as
  * workers are taken, so a cached h is an upper bound of the current one.
  * `next` pops until the top entry is fresh — nothing it depends on changed
  * since it was computed — and that entry is exactly the eager argmax.
  *
  * The caller supplies the two things that differ between the paths:
  *  - `cost(task, slot)`: the current cost of a candidate, +∞ when no worker
  *    can execute it. It may only grow, and only at a commit; a rise must be
  *    reported with `dirty`.
  *  - `width`: how many stale entries one refresh re-evaluates. A batch
  *    stops at the first fresh entry below it; `LazyGreedy.All` instead
  *    refreshes every stale entry in the heap. With an `exec`, a batch is
  *    evaluated on its threads; otherwise inline.
  *
  * `refreshed(task, h)` sees every re-evaluated value (the Heartbeat Table).
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

  val tasks: IndexedSeq[TaskCtx] = TaskCtx.all(insts, k)
  var spent = 0.0
  /** Δq evaluations made by refreshes. */
  var evals = 0L

  private var version = 0L
  private val dirtyVer  = tasks.map(t => new Array[Long](t.inst.m)).toArray // last invalidation
  private val latestVer = tasks.map(t => new Array[Long](t.inst.m)).toArray // newest entry pushed
  private val heap = new mutable.PriorityQueue[Entry]()(ByPriority)
  private val batch = mutable.ArrayBuffer.empty[Entry]
  private val kept = mutable.ArrayBuffer.empty[Entry]
  private var gains = new Array[Double](1)

  // Nothing is executed yet, so every marginal is a singleton quality.
  for (i <- tasks.indices; j <- 0 until tasks(i).inst.m) {
    val c = cost(i, j)
    if (c <= budget) heap.enqueue(Entry(ratio(tasks(i).singles(j), c), i, j, 0L))
  }

  /** The fresh maximum, or null when no affordable candidate is left. */
  def next(): Entry = {
    while (heap.nonEmpty) {
      val e = heap.dequeue()
      if (live(e)) {
        if (fresh(e)) return e
        refresh(e)
      }
    }
    null
  }

  /** Executes `slot` of `task` at cost `c`. Every candidate of the task whose
    * Δq window can overlap the change is dirtied: [lo − Dmax, hi + Dmax],
    * where [lo, hi] is the insert window and Dmax the largest *pre-insert*
    * cached k-th-NN distance inside it (`QualityState.dirtyRange`,
    * DESIGN.md §6).
    */
  def commit(task: Int, slot: Int, c: Double): Unit = {
    version += 1
    val ctx = tasks(task)
    val st = ctx.st
    val (from, to) = st.dirtyRange(slot)
    st.insert(slot)
    java.util.Arrays.fill(dirtyVer(task), from, to + 1, version)
    ctx.order += slot
    ctx.spent += c
    spent += c
  }

  /** Marks (task, slot) stale as of the last commit: its cost rose. */
  def dirty(task: Int, slot: Int): Unit = dirtyVer(task)(slot) = version

  // Affordability is permanent once lost: spend and costs only grow.
  private def live(e: Entry): Boolean =
    !tasks(e.task).st.isExecuted(e.slot) &&
      e.ver >= latestVer(e.task)(e.slot) && // not superseded
      spent + cost(e.task, e.slot) <= budget

  private def fresh(e: Entry): Boolean = e.ver >= dirtyVer(e.task)(e.slot)

  /** Re-evaluates the stale `first` and the batch below it, then pushes the
    * new values in (task, slot) order, so the heap does not depend on how
    * the batch was evaluated.
    */
  private def refresh(first: Entry): Unit = {
    batch += first
    val all = width == All
    var stop = false
    while ((all || batch.length < width) && !stop && heap.nonEmpty) {
      val e = heap.dequeue()
      if (live(e)) {
        if (!fresh(e)) batch += e
        else if (all) kept += e
        else { heap.enqueue(e); stop = true }
      }
    }
    kept.foreach(heap.enqueue(_))
    kept.clear()
    if (batch.length > 1)
      batch.sortInPlaceWith((a, b) => a.task < b.task || (a.task == b.task && a.slot < b.slot))
    evaluate()
    var b = 0
    while (b < batch.length) {
      val e = batch(b)
      val c = cost(e.task, e.slot)
      if (spent + c <= budget) {
        val h = ratio(gains(b), c)
        latestVer(e.task)(e.slot) = version
        refreshed(e.task, h)
        heap.enqueue(Entry(h, e.task, e.slot, version))
      }
      evals += 1
      b += 1
    }
    batch.clear()
  }

  /** Δq of every batch entry into `gains`. */
  private def evaluate(): Unit = {
    if (gains.length < batch.length) gains = new Array[Double](batch.length)
    if (exec == null || batch.length == 1) {
      var b = 0
      while (b < batch.length) { gains(b) = gain(batch(b)); b += 1 }
    } else {
      val jobs = batch.map(e => (() => gain(e)): Callable[Double])
      val results = exec.invokeAll(jobs.asJava)
      var b = 0
      while (b < batch.length) { gains(b) = results.get(b).get(); b += 1 }
    }
  }

  private def gain(e: Entry): Double = tasks(e.task).deltaQ(e.slot)
}

object LazyGreedy {
  /** `width` that refreshes every stale entry before each commit. */
  val All: Int = Int.MaxValue

  private val Eps = 1e-12

  /** The budgeted ratio rule's heuristic value: gain per unit cost, with a
    * zero cost counted as 1e-12.
    */
  def ratio(dq: Double, cost: Double): Double = dq / math.max(cost, Eps)

  /** Heuristic `h` of (task, slot), evaluated as of commit `ver`. */
  final case class Entry(h: Double, task: Int, slot: Int, ver: Long)

  /** h desc, then task asc, then slot asc (as a max-heap order). */
  private object ByPriority extends Ordering[Entry] {
    def compare(a: Entry, b: Entry): Int = {
      val c = java.lang.Double.compare(a.h, b.h)
      if (c != 0) c
      else if (a.task != b.task) Integer.compare(b.task, a.task)
      else Integer.compare(b.slot, a.slot)
    }
  }
}
