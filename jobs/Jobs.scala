package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.PlanCheck
import repro.core.TcscParams
import repro.data.TcscGen
import repro.expts._
import repro.spark.AssignPipeline

/** spark-submit entrypoints — one per reproduced evaluation table
  * (DESIGN.md §5). Each runs the same harness the bench suites call, so
  * `spark-submit --class repro.jobs.RunT8 <jar>` regenerates a table
  * standalone. The table harnesses run in core; only `RunSparkAssign`
  * starts a `SparkSession`.
  */
object RunT6 {
  def main(args: Array[String]): Unit = T6SingleQuality.render(T6SingleQuality.run())
}

object RunT7 {
  def main(args: Array[String]): Unit = T7MultiQuality.render(T7MultiQuality.run())
}

object RunT8 {
  def main(args: Array[String]): Unit = T8SingleEfficiency.render(T8SingleEfficiency.run())
}

object RunT9 {
  def main(args: Array[String]): Unit = T9MultiEfficiency.render(T9MultiEfficiency.run())
}

object RunT11 {
  def main(args: Array[String]): Unit = T11SpatioTemporal.render(T11SpatioTemporal.run())
}

/** The Spark-native multi-task assignment pipeline (DESIGN.md §3): conflict
  * groups from the candidate lists (`ConflictGraph`), one group per
  * partition running the lazy greedy, quality via `planQualities` (the
  * collected plan's rows added to one executed set per task and scored on
  * the driver with the core metric, no job). The plan, with those qualities
  * as the reported ones, must pass `PlanCheck`; any finding is printed and
  * the job exits with status 1.
  */
object RunSparkAssign {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("tcsc-spark-assign")
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    val findings = try {
      import spark.implicits._
      val sc = TcscGen.scenario(nTasks = 40, m = 80, nWorkers = 800,
        TcscGen.Uniform, seed = 23)
      val params = TcscParams()
      val budgetFraction = 0.25
      val execs = AssignPipeline.assign(spark, sc, budgetFraction, params).collect().toVector
      val q = AssignPipeline.planQualities(spark, sc, execs.toDF(), params.k)
        .as[(Int, Double)].collect().toMap
      Harness.printTable("Spark assignment pipeline: per-task quality", Seq("task_id", "q"),
        q.toSeq.sorted.map { case (t, v) => Harness.row(t, v) })
      PlanCheck.check(sc.instances,
        PlanCheck.Plan(execs, q, TcscGen.budgetFor(sc.instances, budgetFraction)), params.k)
    } finally spark.stop()
    findings.foreach(f => Console.err.println(s"PlanCheck: $f"))
    if (findings.nonEmpty) sys.exit(1)
  }
}
