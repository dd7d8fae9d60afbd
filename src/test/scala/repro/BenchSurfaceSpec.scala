package repro

import repro.core._
import repro.core.multi.{MultiOutcome, TaskParallel, WorkerPool}
import repro.data.TcscGen
import repro.spark.AssignPipeline

/** The program's surface that the standalone benchmark (`tcscbench/`)
  * compiles against, called here with the same argument shapes on a tiny
  * scenario. The benchmark builds the program's sources with its own code,
  * so a name or signature deleted here breaks its build; this spec makes the
  * program's own test build fail first.
  */
class BenchSurfaceSpec extends SparkSpec {
  private val params = TcscParams()
  private val m = 12
  private val maxRank = 12
  private val seed = 3L

  private def tasksAt(locs: Seq[(Double, Double)], m: Int): Vector[Task] =
    locs.zipWithIndex.map { case ((x, y), i) => Task(i, x, y, m) }.toVector

  private lazy val ws: Vector[TcscGen.WorkerAt] = TcscGen.workers(60, m, seed)
  private lazy val tasks: Vector[Task] = tasksAt(TcscGen.taskLocations(4, TcscGen.Uniform, seed + 1000), m)
  private lazy val insts: IndexedSeq[TaskInstance] = {
    val idx = TcscGen.slotIndexes(ws, m)
    tasks.map(t => TcscGen.instance(t, idx, maxRank)).toIndexedSeq
  }

  test("single task: GreedyIndexed.run, its stats and tree node count") {
    val inst = insts.head
    val budget = inst.fullCost * 0.25
    val out = GreedyIndexed.run(inst, budget, params)
    val r: AssignmentResult = out.result
    val s: GreedyStats = out.stats
    val counters: Seq[Double] = Seq(s.heuristicNanos / 1e6, s.updateNanos / 1e6, s.treeNanos / 1e6,
      s.iterations, s.candidateEvaluations.toDouble, s.slotsVisited.toDouble, out.treeNodeCount)
    assert(counters.forall(_ >= 0))
    assert(s.iterations == r.executedSlots.size && r.totalCost <= budget)
    assert(math.abs(r.quality - Quality.qualityOf(inst.m, r.executedSlots, params.k)) < 1e-9)
  }

  test("multi task: TaskParallel.run with threads, its tables and outcome counters") {
    val budget = TcscGen.budgetFor(insts, 0.25)
    val (out, tables) = TaskParallel.run(insts, budget, params, threads = 1)
    val (again, _) = TaskParallel.run(insts, budget, params, 2)
    val o: MultiOutcome = out
    assert(o.commits == o.executions.size && o.evals >= 0 && o.conflicts == tables.conflicts.size)
    assert(again.executions == out.executions)
    val e: Execution = out.executions.head
    assert(insts.exists(i => i.task.id == e.taskId && i.slots(e.slot).workers.contains(e.workerId)))
  }

  test("replay: QualityState, ExecutedSet, QualityTree and WorkerPool calls") {
    val inst = insts.head
    val order = GreedyIndexed.run(inst, inst.fullCost * 0.5, params).result.executedSlots
    val st = new QualityState(inst.m, params.k)
    val es = new ExecutedSet(inst.m)
    val tree = new QualityTree(inst.m, params.k, params.ts)
    tree.rebuild()
    for (j <- order) {
      val (lo, hi) = st.window(j)
      assert(lo <= j && j <= hi)
      st.deltaQ(j)
      st.insert(j)
      es.knn(j, params.k)
      es.kthDist(j, params.k)
      es.add(j)
      tree.insert(j)
    }
    assert(math.abs(tree.quality - st.quality) < 1e-9)
    val pool = new WorkerPool
    val sc: SlotCandidates = inst.slots(order.head)
    assert(pool.freeRank(sc, order.head) == 0 && pool.tryTake(sc.workers(0), order.head))
    assert(!sc.isEmpty && sc.costs(0) >= 0)
  }

  test("spark: conflictEdges over tasksDf/workersDf, groups and planQualities") {
    val session = spark
    import session.implicits._
    val scenario = TcscGen.Scenario(tasks, insts.toVector, ws)
    val edges = AssignPipeline.conflictEdges(spark, AssignPipeline.tasksDf(spark, scenario),
      AssignPipeline.workersDf(spark, scenario), 0.08).as[(Int, Int)].collect().toSeq
    val groups = AssignPipeline.groups(scenario.tasks.size, edges)
    assert(groups.length == tasks.size && groups.distinct.length >= 1)
    assert(groups.groupBy(identity).values.map(_.length).max >= 1)
    val (out, _) = TaskParallel.run(insts, TcscGen.budgetFor(insts, 0.25), params, threads = 1)
    val udaf = AssignPipeline.planQualities(spark, scenario, out.executions.toDF(), params.k)
      .as[(Int, Double)].collect().toMap
    val byTask = out.executions.groupBy(_.taskId)
    for (inst <- insts) {
      val slots = byTask.getOrElse(inst.task.id, Vector.empty).map(_.slot)
      assert(math.abs(udaf(inst.task.id) - Quality.qualityOf(inst.m, slots, params.k)) < 1e-9)
    }
  }
}
