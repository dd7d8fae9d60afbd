package repro.spark

import repro.{Oracle, SparkSpec}
import repro.core.{ExecutedSet, Quality, TcscParams}
import repro.core.multi.TaskParallel
import repro.data.TcscGen
import scala.util.Random

/** The Spark probability pipeline vs the core engine and the DuckDB
  * oracle (Eq 1–3 as SQL, the independent formulation).
  */
class ProbabilitySqlSpec extends SparkSpec {
  import org.apache.spark.sql.functions._

  private val k = 3
  private val m = 20

  /** The task frame Spark scores, the slot table DuckDB scores and the
    * executed slots both read.
    */
  private def frames(executedByTask: Map[Int, Seq[Int]], m: Int = m) = {
    import spark.implicits._
    val taskIds = executedByTask.keys.toSeq.sorted
    val tasks = taskIds.toDF("task_id")
    val slots = taskIds.flatMap(t => (0 until m).map(s => (t, s))).toDF("task_id", "slot")
    val executed = executedByTask.toSeq.flatMap { case (t, ss) => ss.map((t, _)) }
      .toDF("task_id", "slot")
    (tasks, slots, executed)
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

  test("pipeline matches the core metric slot by slot") {
    for (((mm, kk), seed) <- shapes.zipWithIndex) {
      val executedByTask = executedSets(mm, 81L + seed)
      val (tasks, _, executed) = frames(executedByTask, mm)
      val probs = ProbabilitySql.probabilities(spark, tasks, executed, kk, mm)
        .collect().map(r => (r.getInt(0), r.getInt(1)) -> r.getDouble(2)).toMap
      assert(probs.size == executedByTask.size * mm)
      for ((t, ss) <- executedByTask) {
        val es = new ExecutedSet(mm)
        ss.foreach(es.add)
        for (j <- 0 until mm) {
          val expected = Quality.finishProb(j, es, kk)
          assert(probs((t, j)) == expected,
            s"m=$mm k=$kk task $t slot $j: spark=${probs((t, j))} core=$expected")
        }
      }
    }
  }

  test("pipeline agrees with the DuckDB formulation on every set of the exact test") {
    for (((mm, kk), seed) <- shapes.zipWithIndex) withClue(s"m=$mm k=$kk: ") {
      val (tasks, slots, executed) = frames(executedSets(mm, 81L + seed), mm)
      Oracle.assertEquivalent(ProbabilitySql.probabilities(spark, tasks, executed, kk, mm),
        ProbabilitySql.duckSql(kk, mm), "slots" -> slots, "executed" -> executed)
    }
  }

  test("pipeline agrees with DuckDB running the same SQL (oracle)") {
    val executedByTask = Map(0 -> Seq(1, 3, 6, 8), 1 -> Seq(0, 19), 2 -> Seq.empty[Int])
    val (tasks, slots, executed) = frames(executedByTask)
    val sparkDf = ProbabilitySql.probabilities(spark, tasks, executed, k, m)
    Oracle.assertEquivalent(sparkDf, ProbabilitySql.duckSql(k, m),
      "slots" -> slots, "executed" -> executed)
  }

  test("oracle check with a random plan and k=2") {
    val rnd = new Random(82)
    val executedByTask = (0 until 3).map { t =>
      t -> rnd.shuffle((0 until m).toList).take(5).sorted.toSeq
    }.toMap
    val (tasks, slots, executed) = frames(executedByTask)
    val sparkDf = ProbabilitySql.probabilities(spark, tasks, executed, 2, m)
    Oracle.assertEquivalent(sparkDf, ProbabilitySql.duckSql(2, m),
      "slots" -> slots, "executed" -> executed)
  }

  test("oracle check at RunSparkAssign's sizes with a TaskParallel plan") {
    import spark.implicits._
    val params = TcscParams()
    val sc = TcscGen.scenario(nTasks = 40, m = 80, nWorkers = 800, TcscGen.Uniform, seed = 88)
    val budget = TcscGen.budgetFor(sc.instances, 0.25)
    val (out, _) = TaskParallel.run(sc.instances, budget, params, threads = 1)
    assert(out.executions.nonEmpty)
    val tasks = sc.tasks.map(_.id).toDF("task_id")
    val slots = sc.tasks.flatMap(t => (0 until t.m).map((t.id, _))).toDF("task_id", "slot")
    val executed = out.executions.map(e => (e.taskId, e.slot)).toDF("task_id", "slot")
    val sparkDf = ProbabilitySql.probabilities(spark, tasks, executed, params.k, 80)
    Oracle.assertEquivalent(sparkDf, ProbabilitySql.duckSql(params.k, 80),
      "slots" -> slots, "executed" -> executed)
  }

  test("task with no executions gets p = 0 everywhere") {
    val (tasks, _, executed) = frames(Map(0 -> Seq.empty[Int]))
    val probs = ProbabilitySql.probabilities(spark, tasks, executed, k, m)
    assert(probs.agg(sum(abs(col("p")))).collect()(0).getDouble(0) == 0.0)
  }

  test("a slot executed twice counts once; a task missing from the task frame is not scored") {
    import spark.implicits._
    val executed = Seq((0, 3), (0, 3), (0, 9), (1, 4)).toDF("task_id", "slot")
    val probs = ProbabilitySql.probabilities(spark, Seq(0).toDF("task_id"), executed, k, m)
      .as[(Int, Int, Double)].collect()
    val es = new ExecutedSet(m)
    Seq(3, 9).foreach(es.add)
    assert(probs.sortBy(_._2).toSeq == (0 until m).map(j => (0, j, Quality.finishProb(j, es, k))))
  }

  test("registered UDAF quality matches DuckDB entropy aggregation") {
    val rnd = new Random(83)
    import spark.implicits._
    val probsRows = for {
      t <- 0 until 5
      s <- 0 until m
    } yield (t, s, if (rnd.nextBoolean()) rnd.nextDouble() / m else 0.0)
    val probs = probsRows.toDF("task_id", "slot", "p")
    val sparkQ = ProbabilitySql.qualities(spark, probs.select($"task_id", $"p"))
    Oracle.assertEquivalent(sparkQ, ProbabilitySql.duckQualitySql, "probs" -> probs)
  }

  test("UDAF quality equals the core quality for a real plan") {
    import spark.implicits._
    val executedSlots = Seq(2, 5, 11, 17)
    val es = new ExecutedSet(m)
    executedSlots.foreach(es.add)
    val probs = (0 until m).map(j => (0, Quality.finishProb(j, es, k)))
      .toDF("task_id", "p")
    val q = ProbabilitySql.qualities(spark, probs).collect()(0).getDouble(1)
    assert(math.abs(q - Quality.quality(es, k)) < 1e-9)
  }
}
