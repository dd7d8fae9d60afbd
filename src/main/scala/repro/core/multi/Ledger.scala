package repro.core.multi

import repro.core.{AssignmentResult, Execution, LazyGreedy, TaskInstance}

/** The bookings of one multi-task run under Section IV's cost model: a
  * subtask costs its cheapest *still-free* worker, and booking that worker
  * pushes every other task that wanted it at the same slot to its next rank
  * (Fig 4, the Conflicting Table of IV-A-2).
  *
  * Owns the run's `WorkerPool`, the spend, the commit and conflict counts and
  * the executions in commit order. Task `i` is `insts(i)`, and no two
  * instances may share a task id: `outcome` reads each task's result off
  * the executions by id. Every multi-task path books through one ledger:
  * the lazy greedy (task-level, and per group for group-level and Spark),
  * the eager baselines (basic, MMQM, SApprox), Rand and T11's exact OPT. A
  * ledger is not thread-safe: each run uses its own from one thread, and
  * the group-level framework and the Spark job give every conflict group
  * its own run.
  */
final class Ledger(insts: IndexedSeq[TaskInstance], budget: Double) {
  require(insts.map(_.task.id).distinct.size == insts.size,
    "a ledger books each task once; two instances share a task id")
  private val pool = new WorkerPool
  private val booked = insts.map(inst => new Array[Boolean](inst.m))
  private val execs = Vector.newBuilder[Execution]
  private var spentSoFar = 0.0
  private var commitCount = 0
  private var conflictCount = 0L

  def spent: Double = spentSoFar
  def commits: Int = commitCount

  /** Rank of the cheapest free worker of slot `j` of task `i`, or -1 when
    * every candidate is taken.
    */
  def freeRank(i: Int, j: Int): Int = pool.freeRank(insts(i).slots(j), j)

  /** The cheapest free worker's cost, or +∞ when every candidate is taken. */
  def cost(i: Int, j: Int): Double = {
    val r = freeRank(i, j)
    if (r < 0) Double.PositiveInfinity else insts(i).slots(j).costs(r)
  }

  /** Whether slot `j` of task `i` can be booked now within the budget. */
  def affordable(i: Int, j: Int): Boolean = spentSoFar + cost(i, j) <= budget

  /** The eager greedy argmax: among the unbooked slots of tasks
    * `from until until` that are affordable, the one with the largest
    * `LazyGreedy.ratio` of `gain` to its cost. Ties go to the lower task,
    * then the lower slot. Null when nothing is affordable.
    */
  def best(from: Int, until: Int, gain: (Int, Int) => Double): LazyGreedy.Entry = {
    var bi = -1; var bj = -1; var bh = Double.NegativeInfinity
    var i = from
    while (i < until) {
      var j = 0
      while (j < insts(i).m) {
        if (!booked(i)(j)) {
          val c = cost(i, j)
          if (spentSoFar + c <= budget) {
            val h = LazyGreedy.ratio(gain(i, j), c)
            if (h > bh) { bh = h; bi = i; bj = j }
          }
        }
        j += 1
      }
      i += 1
    }
    if (bi < 0) null else LazyGreedy.Entry(bh, bi, bj)
  }

  /** Books slot `j` of task `i` with its cheapest free worker. */
  def book(i: Int, j: Int): Execution = book(i, j, freeRank(i, j), (_, _) => ())

  /** Books slot `j` of task `i` with the candidate at `rank`, its cheapest
    * free worker. Before the worker is taken, every other task that has not
    * booked slot `j` and whose cheapest free worker there is the same one is
    * a conflict: it is passed to `bumped` with the rank it loses, and counted.
    */
  def book(i: Int, j: Int, rank: Int, bumped: (Int, Int) => Unit): Execution = {
    require(rank >= 0, s"slot $j of task $i has no free worker")
    val sc = insts(i).slots(j)
    val w = sc.workers(rank)
    var o = 0
    while (o < insts.length) {
      if (o != i && j < insts(o).m && !booked(o)(j)) {
        val other = insts(o).slots(j)
        val r = pool.freeRank(other, j)
        if (r >= 0 && other.workers(r) == w) {
          conflictCount += 1
          bumped(o, r)
        }
      }
      o += 1
    }
    require(pool.tryTake(w, j), s"worker $w is already booked at slot $j")
    val e = Execution(insts(i).task.id, j, w, sc.costs(rank))
    booked(i)(j) = true
    spentSoFar += e.cost
    commitCount += 1
    execs += e
    e
  }

  /** The executions in commit order; read once the run is over. */
  def executions: Vector[Execution] = execs.result()

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
    MultiOutcome.of(perTask.toVector, all, commitCount, evals, conflictCount)
  }
}
