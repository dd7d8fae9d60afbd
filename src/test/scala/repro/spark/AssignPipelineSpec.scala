package repro.spark

import org.apache.spark.sql.DataFrame
import repro.{PlanCheck, SparkSpec}
import repro.core.{Execution, Quality, Task, TcscParams}
import repro.core.multi.{ConflictGraph, GroupParallel, MultiAssignSpec, TaskParallel}
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
    val expected = GroupParallel.run(sc.instances, budget, params).executions
      .sortBy(e => (e.taskId, e.slot))
    assert(sparkExecs == expected)
  }

  test("the assignment job is one stage of one task per conflict group, with no shuffle") {
    val threeGroups = MultiAssignSpec.blocked(TcscGen.scenario(12, 30, 250, TcscGen.Uniform, 91), blocks = 3)
    val scenarios = Seq(("spec scenario", sc, 1), ("three groups", threeGroups, 3))
    for ((name, scen, groups) <- scenarios) withClue(s"$name: ") {
      assert(ConflictGraph.build(scen.instances).groups.size == groups)
      val (execs, shape) = jobShape(AssignPipeline.assign(spark, scen, 0.25, params).collect().toVector)
      assert(shape.jobs == 1, "jobs")
      assert(shape.stages == 1, "stages")
      assert(shape.tasks == groups, "one task per group")
      assert(shape.shuffleWriteBytes == 0L, "shuffle-write bytes")
      val budget = TcscGen.budgetFor(scen.instances, 0.25)
      assert(execs.nonEmpty)
      assert(execs == GroupParallel.run(scen.instances, budget, params).executions)
    }
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

  test("planQualities runs one job of one stage with no shuffle") {
    import spark.implicits._
    val (out, _) = TaskParallel.run(sc.instances, TcscGen.budgetFor(sc.instances, 0.25), params, 1)
    val execs = out.executions.toDF()
    val (scored, shape) = jobShape(AssignPipeline.planQualities(spark, sc, execs, params.k))
    assert(shape.jobs == 1, "jobs")
    assert(shape.stages == 1, "stages")
    assert(shape.tasks == execs.rdd.getNumPartitions, "one task per partition of the plan")
    assert(shape.shuffleWriteBytes == 0L, "shuffle-write bytes")
    val (rows, collected) = jobShape(scored.as[(Int, Double)].collect())
    assert(rows.length == sc.tasks.size)
    assert(collected.jobs == 0, "collecting the scored frame starts no job")
  }

  test("planQualities reads taskId and slot by name and rejects other types") {
    import spark.implicits._
    val t = sc.tasks.head.id
    val plan = Seq((t, 3), (t, 9), (t, 17))
    val expected = Quality.qualityOf(sc.tasks.head.m, plan.map(_._2), params.k)
    def q(df: DataFrame) =
      AssignPipeline.planQualities(spark, sc, df, params.k).as[(Int, Double)].collect().toMap
    val permuted = plan.map { case (tt, s) => (2.5, s, "x", tt) }.toDF("cost", "slot", "note", "taskId")
    assert(q(permuted)(t) == expected, "permuted and extra columns")
    val broken = Seq(
      "taskId" -> plan.toDF("task", "slot"),
      "slot" -> plan.map { case (tt, s) => (tt, s.toLong) }.toDF("taskId", "slot"),
      "taskId" -> plan.map { case (tt, s) => (tt.toLong, s) }.toDF("taskId", "slot"))
    for ((column, df) <- broken) {
      val err = intercept[IllegalArgumentException](AssignPipeline.planQualities(spark, sc, df, params.k))
      assert(err.getMessage.contains(s"int column $column"), err.getMessage)
    }
    val nulls = Seq((t, Option(3)), (t, None)).toDF("taskId", "slot")
    val err = intercept[Exception](AssignPipeline.planQualities(spark, sc, nulls, params.k))
    val causes = Iterator.iterate[Throwable](err)(_.getCause).takeWhile(_ != null).toSeq
    assert(causes.exists(c => String.valueOf(c.getMessage).contains("no null taskId or slot")), err)
  }

  test("planQualities rejects a task id listed twice") {
    import spark.implicits._
    val tasks = Vector(Task(4, 0.2, 0.2, 20), Task(4, 0.7, 0.7, 20))
    val twice = TcscGen.Scenario(tasks, Vector.empty, Vector.empty)
    val err = intercept[IllegalArgumentException] {
      AssignPipeline.planQualities(spark, twice, Seq(Execution(4, 5, 0, 1.0)).toDF(), params.k)
    }
    assert(err.getMessage.contains("task id twice"))
  }
}
