package repro.spark

import java.util.Properties
import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageSubmitted}
import repro.{PlanCheck, SparkSpec}
import repro.core.{Execution, Quality, Task, TcscParams}
import repro.core.multi.{GroupParallel, TaskParallel}
import repro.data.TcscGen

/** End-to-end Spark assignment pipeline vs the driver-side engine. */
class AssignPipelineSpec extends SparkSpec {
  private val params = TcscParams()

  private lazy val sc = TcscGen.scenario(nTasks = 12, m = 24, nWorkers = 250,
    TcscGen.Uniform, seed = 101)

  test("conflict edges are valid task pairs") {
    import spark.implicits._
    val tasks = AssignPipeline.tasksDf(spark, sc)
    val workers = AssignPipeline.workersDf(spark, sc)
    val edges = AssignPipeline.conflictEdges(spark, tasks, workers, radius = 0.1)
      .as[(Int, Int)].collect()
    edges.foreach { case (a, b) =>
      assert(a < b && a >= 0 && b < sc.tasks.size)
    }
  }

  test("groups assign every task exactly once") {
    val groupOf = AssignPipeline.groups(10, Seq((0, 1), (1, 2), (5, 6)))
    assert(groupOf.length == 10)
    assert(groupOf(0) == groupOf(1) && groupOf(1) == groupOf(2))
    assert(groupOf(5) == groupOf(6))
    assert(groupOf(3) != groupOf(0) && groupOf(3) != groupOf(5))
  }

  test("union-find handles chains and cycles") {
    val g = AssignPipeline.groups(6, Seq((0, 1), (1, 2), (2, 0), (3, 4), (4, 5)))
    assert(g(0) == g(1) && g(1) == g(2))
    assert(g(3) == g(4) && g(4) == g(5))
    assert(g(0) != g(3))
  }

  test("Spark assignment equals the driver-side per-group engine") {
    import spark.implicits._
    val execsDs = AssignPipeline.assign(spark, sc, budgetFraction = 0.25, params)
    val sparkExecs = execsDs.collect().toVector
      .sortBy(e => (e.taskId, e.slot))

    val budget = TcscGen.budgetFor(sc.instances, 0.25)
    val expected = GroupParallel.run(sc.instances, budget, params, threads = 2).outcome.executions
      .sortBy(e => (e.taskId, e.slot))
    assert(sparkExecs == expected)
  }

  test("pipeline qualities match the core metric per task") {
    import spark.implicits._
    val execs = AssignPipeline.assign(spark, sc, 0.25, params).collect().toVector
    val qDf = AssignPipeline.planQualities(spark, sc, execs.toDF(), params.k)
    val rows = qDf.collect().map(r => r.getInt(0) -> r.getDouble(1))
    assert(rows.map(_._1).sorted.toSeq == sc.tasks.map(_.id).sorted, "one row per task")
    val got = rows.toMap
    val bySlots = execs.groupBy(_.taskId).view.mapValues(_.map(_.slot)).toMap
    sc.tasks.foreach { t =>
      val expected = Quality.qualityOf(t.m, bySlots.getOrElse(t.id, Vector.empty), params.k)
      assert(got(t.id) == expected, s"task ${t.id}: spark=${got(t.id)} core=$expected")
    }
  }

  test("no worker-slot double booking in the Spark plan") {
    val execs = AssignPipeline.assign(spark, sc, 0.25, params).collect()
    val pairs = execs.map(e => (e.workerId, e.slot)).toSeq
    assert(pairs.distinct.size == pairs.size)
  }

  test("Spark assignment at RunSparkAssign's sizes passes PlanCheck") {
    import spark.implicits._
    // 40 tasks, m = 80, 800 workers, 25 % budget; on seed 6 groups from a
    // 0.08-radius worker join book some (worker, slot) twice.
    val big = TcscGen.scenario(nTasks = 40, m = 80, nWorkers = 800, TcscGen.Uniform, seed = 6)
    val execs = AssignPipeline.assign(spark, big, 0.25, params).collect().toVector
    val q = AssignPipeline.planQualities(spark, big, execs.toDF(), params.k)
      .collect().map(r => r.getInt(0) -> r.getDouble(1)).toMap
    val plan = PlanCheck.Plan(execs, q, TcscGen.budgetFor(big.instances, 0.25))
    assert(execs.nonEmpty)
    assert(PlanCheck.check(big.instances, plan, params.k) == Vector.empty)
  }

  test("planQualities of an empty task list scores nothing") {
    import spark.implicits._
    val empty = TcscGen.Scenario(Vector.empty, Vector.empty, Vector.empty)
    val q = AssignPipeline.planQualities(spark, empty, Seq.empty[Execution].toDF(), params.k)
    assert(q.collect().isEmpty)
  }

  test("planQualities rejects tasks with different horizons") {
    import spark.implicits._
    val tasks = Vector(Task(0, 0.2, 0.2, 20), Task(1, 0.7, 0.7, 30))
    val mixed = TcscGen.Scenario(tasks, Vector.empty, Vector.empty)
    val execs = Seq(Execution(1, 25, 0, 1.0)).toDF()
    val err = intercept[IllegalArgumentException] {
      AssignPipeline.planQualities(spark, mixed, execs, params.k)
    }
    assert(err.getMessage.contains("20, 30"))
  }

  test("planQualities fails on an executed slot outside [0, m)") {
    import spark.implicits._
    val m = sc.tasks.head.m
    for (slot <- Seq(m, -1)) {
      val execs = Seq(Execution(sc.tasks.head.id, slot, 0, 1.0)).toDF()
      val err = intercept[Exception] {
        AssignPipeline.planQualities(spark, sc, execs, params.k).collect()
      }
      val causes = Iterator.iterate[Throwable](err)(_.getCause).takeWhile(_ != null).toSeq
      assert(causes.exists(c => String.valueOf(c.getMessage).contains(s"slot $slot out of [0, $m)")),
        s"slot $slot: $err")
    }
  }

  test("planQualities runs one job of two stages") {
    import spark.implicits._
    val (out, _) = TaskParallel.run(sc.instances, TcscGen.budgetFor(sc.instances, 0.25), params, 1)
    val ctx = spark.sparkContext
    val jobs = new AtomicInteger
    val stages = new AtomicInteger
    val reduceTasks = new AtomicInteger(-1) // tasks of the job's last stage
    val drained = new CountDownLatch(1)
    def group(props: Properties) = Option(props).map(_.getProperty("spark.jobGroup.id")).orNull
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = group(e.properties) match {
        case "score" =>
          jobs.incrementAndGet()
          reduceTasks.set(e.stageInfos.maxBy(_.stageId).numTasks)
        case "sentinel" => drained.countDown()
        case _ =>
      }
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
        if (group(e.properties) == "score") stages.incrementAndGet()
    }
    ctx.addSparkListener(listener)
    try {
      ctx.setJobGroup("score", "planQualities")
      AssignPipeline.planQualities(spark, sc, out.executions.toDF(), params.k).collect()
      // the bus delivers events in order: once the sentinel's job start
      // arrives, every event of the scoring query has been seen
      ctx.setJobGroup("sentinel", "listener sentinel")
      ctx.parallelize(Seq(1), 1).count()
      assert(drained.await(30, TimeUnit.SECONDS), "listener bus did not drain")
    } finally {
      ctx.clearJobGroup()
      ctx.removeSparkListener(listener)
    }
    assert(jobs.get == 1, "jobs")
    assert(stages.get == 2, "stages")
    assert(reduceTasks.get == 1, "reduce tasks")
  }
}
