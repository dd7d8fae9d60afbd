package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Execution, TcscParams}
import repro.core.multi.{ConflictGraph, TaskParallel}
import repro.data.TcscGen

/** The multi-task assignment as a partitioned Spark job (DESIGN.md §3).
  *
  * The conflict groups are built before the job from the candidate lists
  * the scenario already holds (`ConflictGraph`, the same groups as
  * `GroupParallel`), and each group runs the task-level lazy greedy at one
  * thread on its own partition via `groupByKey(group).flatMapGroups` —
  * Spark partitions play the paper's computation cores. Instances travel to
  * executors via a broadcast of the deterministic scenario.
  */
object AssignPipeline {

  final case class TaskRow(task_id: Int, x: Double, y: Double, m: Int)
  final case class WorkerRow(worker_id: Int, slot: Int, x: Double, y: Double)
  final case class GroupedTask(group_id: Int, task_id: Int)

  def tasksDf(spark: SparkSession, sc: TcscGen.Scenario): DataFrame = {
    import spark.implicits._
    sc.tasks.map(t => TaskRow(t.id, t.x, t.y, t.m)).toDF()
  }

  def workersDf(spark: SparkSession, sc: TcscGen.Scenario): DataFrame = {
    import spark.implicits._
    sc.workerPresence.map(w => WorkerRow(w.workerId, w.slot, w.x, w.y)).toDF()
  }

  /** Task pairs whose `radius`-neighbourhoods contain a common worker, as a
    * task×worker grid join (each task probes the 3×3 grid cells around it)
    * followed by a worker self-join. Not a conflict model: these pairs differ
    * from the candidate lists the greedy books from, and `assign` does not
    * use them. Kept, with `tasksDf` and `workersDf`, only for the traced
    * `spark.edges` probe of `tcscbench`, which compiles against them.
    */
  def conflictEdges(spark: SparkSession, tasks: DataFrame, workers: DataFrame,
                    radius: Double): DataFrame = {
    import spark.implicits._
    val cell = (c: org.apache.spark.sql.Column) => floor(c / radius).cast("int")
    // distinct worker positions (first presence is representative)
    val wpos = workers.groupBy($"worker_id")
      .agg(first($"x").as("wx"), first($"y").as("wy"))
      .withColumn("cx", cell($"wx")).withColumn("cy", cell($"wy"))
    val probes = tasks
      .select($"task_id", $"x", $"y")
      .withColumn("dx", explode(array(lit(-1), lit(0), lit(1))))
      .withColumn("dy", explode(array(lit(-1), lit(0), lit(1))))
      .withColumn("cx", cell($"x") + $"dx")
      .withColumn("cy", cell($"y") + $"dy")
    val cand = probes.join(wpos, Seq("cx", "cy"))
      .filter(sqrt(pow($"x" - $"wx", 2) + pow($"y" - $"wy", 2)) <= radius)
      .select($"task_id", $"worker_id")
    cand.as("l").join(cand.as("r"), $"l.worker_id" === $"r.worker_id")
      .filter($"l.task_id" < $"r.task_id")
      .select($"l.task_id".as("a"), $"r.task_id".as("b"))
      .distinct()
  }

  /** Connected components of `nTasks` nodes under `edges`
    * (`ConflictGraph.components`), for the `spark.edges` probe's pairs.
    */
  def groups(nTasks: Int, edges: Seq[(Int, Int)]): Array[Int] =
    ConflictGraph.components(nTasks, edges)

  /** End-to-end: scenario → conflict groups → per-partition greedy →
    * executions DataFrame. Budget is split b·|G|/|T| per group, as in
    * `GroupParallel`.
    */
  def assign(spark: SparkSession, sc: TcscGen.Scenario, budgetFraction: Double,
             params: TcscParams): Dataset[Execution] = {
    import spark.implicits._
    val groupOf = ConflictGraph.build(sc.instances).groupOf
    val totalBudget = TcscGen.budgetFor(sc.instances, budgetFraction)
    val nTasks = sc.tasks.size
    val instByTask = spark.sparkContext.broadcast(
      sc.instances.map(i => i.task.id -> i).toMap)
    val bParams = spark.sparkContext.broadcast(params)

    val grouped = sc.instances.indices
      .map(i => GroupedTask(groupOf(i), sc.instances(i).task.id)).toDS()
    grouped
      .groupByKey(_.group_id)
      .flatMapGroups { (_, rows) =>
        val members = rows.map(_.task_id).toVector.sorted
        val insts = members.map(instByTask.value(_))
        val share = totalBudget * members.size / nTasks
        val (out, _) = TaskParallel.run(insts, share, bParams.value, threads = 1)
        out.executions.iterator
      }
  }

  /** Quality of an executions plan, computed in Spark with the registered
    * UDAF over the probability pipeline. Every task must share one horizon m.
    */
  def planQualities(spark: SparkSession, sc: TcscGen.Scenario,
                    executions: DataFrame, k: Int): DataFrame = {
    import spark.implicits._
    val m = sc.tasks.headOption.fold(1)(_.m) // no rows to score when empty
    require(sc.tasks.forall(_.m == m),
      s"planQualities scores one horizon; tasks have m in ${sc.tasks.map(_.m).distinct.sorted.mkString(", ")}")
    val tasks = sc.tasks.map(_.id).toDF("task_id")
    val executed = executions.select($"taskId".as("task_id"), $"slot")
    val probs = ProbabilitySql.probabilities(spark, tasks, executed, k, m)
    ProbabilitySql.qualities(spark, probs)
  }
}
