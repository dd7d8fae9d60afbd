package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Execution, TcscParams}
import repro.core.multi.{ConflictGraph, TaskParallel}
import repro.data.TcscGen

/** The multi-task assignment as a partitioned Spark job (DESIGN.md §3).
  *
  * Conflict-candidate edges are discovered with a grid-cell self-join
  * (spatial pruning: only tasks whose neighbourhoods can share a worker are
  * paired), independent groups are the connected components, and each group
  * runs the task-level lazy greedy at one thread on its own partition via
  * `groupByKey(group).flatMapGroups` — Spark partitions play the paper's
  * computation cores. Instances travel to executors via a broadcast of the
  * deterministic scenario.
  */
object AssignPipeline {

  final case class TaskRow(task_id: Int, x: Double, y: Double, m: Int)
  final case class WorkerRow(worker_id: Int, slot: Int, x: Double, y: Double)
  final case class EdgeRow(a: Int, b: Int)
  final case class GroupedTask(group_id: Int, task_id: Int)

  def tasksDf(spark: SparkSession, sc: TcscGen.Scenario): DataFrame = {
    import spark.implicits._
    sc.tasks.map(t => TaskRow(t.id, t.x, t.y, t.m)).toDF()
  }

  def workersDf(spark: SparkSession, sc: TcscGen.Scenario): DataFrame = {
    import spark.implicits._
    sc.workerPresence.map(w => WorkerRow(w.workerId, w.slot, w.x, w.y)).toDF()
  }

  /** Conflict-candidate edges: tasks whose `radius`-neighbourhoods contain a
    * common worker. Implemented as task×worker grid join (each task probes
    * the 3×3 grid cells around it) followed by a worker self-join.
    */
  def conflictEdges(spark: SparkSession, tasks: DataFrame, workers: DataFrame,
                    radius: Double): DataFrame = {
    import spark.implicits._
    val cell = (c: org.apache.spark.sql.Column) => floor(c / radius).cast("int")
    // distinct worker positions (first presence is representative, as in the
    // driver-side ConflictGraph)
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

  /** Connected components over the (small) edge set: union-find on the
    * driver after the Spark-side edge discovery.
    */
  def groups(nTasks: Int, edges: Seq[(Int, Int)]): Array[Int] =
    ConflictGraph.components(nTasks, edges)

  /** End-to-end: scenario → conflict groups → per-partition greedy →
    * executions DataFrame. Budget is split b·|G|/|T| per group, as in
    * `GroupParallel`.
    */
  def assign(spark: SparkSession, sc: TcscGen.Scenario, budgetFraction: Double,
             params: TcscParams, conflictRadius: Double = 0.08): Dataset[Execution] = {
    import spark.implicits._
    val tasks = tasksDf(spark, sc)
    val workers = workersDf(spark, sc)
    val edgeSeq = conflictEdges(spark, tasks, workers, conflictRadius)
      .as[(Int, Int)].collect().toSeq
    val groupOf = groups(sc.tasks.size, edgeSeq)
    val totalBudget = TcscGen.budgetFor(sc.instances, budgetFraction)
    val nTasks = sc.tasks.size
    val instByTask = spark.sparkContext.broadcast(
      sc.instances.map(i => i.task.id -> i).toMap)
    val bParams = spark.sparkContext.broadcast(params)

    val grouped = sc.tasks.map(t => GroupedTask(groupOf(t.id), t.id)).toDS()
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
    val slots = sc.tasks.flatMap(t => (0 until t.m).map(s => (t.id, s)))
      .toDF("task_id", "slot")
    val executed = executions.select($"taskId".as("task_id"), $"slot")
    val probs = ProbabilitySql.probabilities(spark, slots, executed, k, m)
    ProbabilitySql.qualities(spark, probs)
  }
}
