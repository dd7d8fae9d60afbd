package repro.spark

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec}
import repro.core.{Execution, Quality, Task, TcscParams}
import repro.core.multi.TaskParallel
import repro.data.TcscGen
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import scala.util.Random

/** Spark plan scoring (`AssignPipeline.planQualities`) vs the core metric
  * and the DuckDB oracle (Eq 1–3 as SQL, the independent formulation).
  */
class ProbabilitySqlSpec extends SparkSpec {

  private val k = 3
  private val m = 20

  /** A scenario listing the tasks of `executedByTask`, all of horizon m. */
  private def scenario(executedByTask: Map[Int, Seq[Int]], m: Int): TcscGen.Scenario =
    TcscGen.Scenario(executedByTask.keys.toVector.sorted.map(Task(_, 0.5, 0.5, m)),
      Vector.empty, Vector.empty)

  private def pairs(executedByTask: Map[Int, Seq[Int]]): Seq[(Int, Int)] =
    executedByTask.toSeq.flatMap { case (t, ss) => ss.map((t, _)) }

  private def executionsDf(taskSlots: Seq[(Int, Int)]): DataFrame = {
    import spark.implicits._
    taskSlots.map { case (t, s) => Execution(t, s, 0, 1.0) }.toDF()
  }

  private def scored(executedByTask: Map[Int, Seq[Int]], k: Int, m: Int): DataFrame =
    AssignPipeline.planQualities(spark, scenario(executedByTask, m),
      executionsDf(pairs(executedByTask)), k)

  /** DuckDB's q per task: `duckSql`'s probabilities summed by `duckQualitySql`. */
  private def duckQualities(k: Int, m: Int): String =
    s"WITH probs AS (\n${ProbabilitySql.duckSql(k, m)})\n${ProbabilitySql.duckQualitySql}"

  /** `planQualities` against the composed DuckDB formulation on the same
    * plan; DuckDB reads one slot row per (task, slot) and the executed slots.
    */
  private def assertDuckAgrees(executedByTask: Map[Int, Seq[Int]], k: Int, m: Int): Unit = {
    import spark.implicits._
    val slots = executedByTask.keys.toSeq.sorted.flatMap(t => (0 until m).map((t, _)))
      .toDF("task_id", "slot")
    val executed = pairs(executedByTask).toDF("task_id", "slot")
    Oracle.assertEquivalent(scored(executedByTask, k, m), duckQualities(k, m),
      "slots" -> slots, "executed" -> executed)
  }

  /** Empty, fully executed, evenly spaced (equidistant ties), end-point and
    * single-slot sets, then `nRandom` seeded random sets of every size.
    */
  private def executedSets(m: Int, seed: Long, nRandom: Int = 40): Map[Int, Seq[Int]] = {
    val rnd = new Random(seed)
    val all = 0 until m
    val fixed = Seq(Seq.empty[Int], all, all.filter(_ % 4 == 0), Seq(0, m - 1).distinct,
      Seq(m / 2), all.filter(_ % 2 == 1))
    val random = Seq.fill(nRandom)(rnd.shuffle(all.toList).take(rnd.nextInt(m + 1)).sorted)
    (fixed ++ random).zipWithIndex.map { case (ss, t) => t -> ss }.toMap
  }

  /** (m, k): the default, k = 1, k = m, m = 2 < k = 3, and an odd m. */
  private val shapes = Seq((20, 3), (20, 1), (20, 20), (2, 3), (9, 4))

  test("pipeline matches the core metric task by task, bit for bit") {
    for (((mm, kk), seed) <- shapes.zipWithIndex) {
      val executedByTask = executedSets(mm, 81L + seed)
      val q = scored(executedByTask, kk, mm)
        .collect().map(r => r.getInt(0) -> r.getDouble(1)).toMap
      assert(q.keySet == executedByTask.keySet, s"m=$mm k=$kk: one row per task")
      for ((t, ss) <- executedByTask) {
        val expected = Quality.qualityOf(mm, ss, kk)
        assert(q(t) == expected, s"m=$mm k=$kk task $t: spark=${q(t)} core=$expected")
      }
    }
  }

  test("pipeline agrees with the DuckDB formulation on every set of the exact test") {
    for (((mm, kk), seed) <- shapes.zipWithIndex) withClue(s"m=$mm k=$kk: ") {
      assertDuckAgrees(executedSets(mm, 81L + seed), kk, mm)
    }
  }

  test("pipeline agrees with DuckDB running the same SQL (oracle)") {
    assertDuckAgrees(Map(0 -> Seq(1, 3, 6, 8), 1 -> Seq(0, 19), 2 -> Seq.empty[Int]), k, m)
  }

  test("oracle check with a random plan and k=2") {
    val rnd = new Random(82)
    val executedByTask = (0 until 3).map { t =>
      t -> rnd.shuffle((0 until m).toList).take(5).sorted.toSeq
    }.toMap
    assertDuckAgrees(executedByTask, 2, m)
  }

  test("oracle check at RunSparkAssign's sizes with a TaskParallel plan") {
    val params = TcscParams()
    val sc = TcscGen.scenario(nTasks = 40, m = 80, nWorkers = 800, TcscGen.Uniform, seed = 88)
    val budget = TcscGen.budgetFor(sc.instances, 0.25)
    val (out, _) = TaskParallel.run(sc.instances, budget, params, threads = 1)
    assert(out.executions.nonEmpty)
    val bySlots = out.executions.groupBy(_.taskId).view.mapValues(_.map(_.slot)).toMap
    assertDuckAgrees(sc.tasks.map(t => t.id -> bySlots.getOrElse(t.id, Vector.empty)).toMap,
      params.k, 80)
  }

  test("task with no executions gets p = 0 everywhere") {
    // every p <= 1/m < 1, so q = -Σ p log2 p is 0 exactly when every p is 0
    val rows = scored(Map(0 -> Seq.empty[Int]), k, m).collect()
    assert(rows.map(r => (r.getInt(0), r.getDouble(1))).toSeq == Seq((0, 0.0)))
  }

  test("a slot executed twice counts once; a task missing from the task frame is not scored") {
    import spark.implicits._
    val executed = executionsDf(Seq((0, 3), (0, 3), (0, 9), (1, 4)))
    val q = AssignPipeline.planQualities(spark, scenario(Map(0 -> Nil), m), executed, k)
      .as[(Int, Double)].collect()
    assert(q.toSeq == Seq((0, Quality.qualityOf(m, Seq(3, 9), k))))
  }

  test("property: bitmap words and partitions do not change q, bit for bit") {
    import spark.implicits._
    // m on both sides of each 64-bit word boundary; k below, at and above m
    val plans = for {
      m <- Gen.oneOf(1, 63, 64, 65, 127, 128, 200)
      k <- Gen.oneOf(1, 3, m + 1)
      picked <- Gen.choose(1, 6).flatMap(Gen.pick(_, 0 until 12))
      listed <- Gen.long.map(s => new Random(s).shuffle(picked.toVector)) // any order of sc.tasks
      ids = listed ++ Seq(40, 41) // two tasks that sc.tasks does not list
      slot = Gen.frequency(3 -> Gen.choose(0, m - 1), 1 -> Gen.oneOf(Seq(0, 63, 64, 127, 128, m - 1).filter(_ < m)))
      plan <- Gen.listOfN(m * 2, Gen.zip(Gen.oneOf(ids), slot)).flatMap(Gen.someOf(_))
      partitions <- Gen.choose(1, 4)
    } yield (m, k, listed, plan.toSeq, partitions)
    val prop = Prop.forAllNoShrink(plans) { case (m, k, listed, plan, partitions) =>
      val sc = TcscGen.Scenario(listed.map(Task(_, 0.5, 0.5, m)), Vector.empty, Vector.empty)
      val execs = executionsDf(plan).repartition(partitions)
      val q = AssignPipeline.planQualities(spark, sc, execs, k).as[(Int, Double)].collect()
      val expected = listed.map(t => (t, Quality.qualityOf(m, plan.collect { case (`t`, s) => s }, k)))
      Prop(q.toSeq == expected) :| s"m=$m k=$k partitions=$partitions tasks=$listed: ${q.toSeq} != $expected"
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(40)
      .withInitialSeed(Seed(1201L)).withWorkers(1), prop)
    assert(result.passed, result.status)
  }
}
