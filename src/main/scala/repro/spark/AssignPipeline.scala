package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, IntegerType, StructField, StructType}
import scala.jdk.CollectionConverters._
import repro.core.{ExecutedSet, Execution, Quality, TcscParams}
import repro.core.multi.{ConflictGraph, GroupParallel}
import repro.data.TcscGen

/** The multi-task assignment as a partitioned Spark job (DESIGN.md §3).
  *
  * The driver builds the conflict groups from the candidate lists the
  * scenario already holds (`ConflictGraph`, the same groups as
  * `GroupParallel`) and parallelizes them one group per partition; each
  * partition plans its group with `GroupParallel.planGroup`, the task-level
  * lazy greedy at one thread, so Spark partitions play the paper's
  * computation cores. One job of one stage, no shuffle. Instances travel to
  * executors via a broadcast of the deterministic scenario. `planQualities`
  * scores a plan with the core's quality metric on the driver: it collects
  * the plan's rows (no job for a local plan) into one executed set per task.
  */
object AssignPipeline {

  final case class TaskRow(task_id: Int, x: Double, y: Double, m: Int)
  final case class WorkerRow(worker_id: Int, slot: Int, x: Double, y: Double)

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
    * executions Dataset. Group g is partition g and is planned by
    * `GroupParallel.planGroup`, as in `GroupParallel`, so the collected
    * executions equal `GroupParallel.run`'s in order.
    */
  def assign(spark: SparkSession, sc: TcscGen.Scenario, budgetFraction: Double,
             params: TcscParams): Dataset[Execution] = {
    import spark.implicits._
    val groups = ConflictGraph.build(sc.instances)
    val totalBudget = TcscGen.budgetFor(sc.instances, budgetFraction)
    val bInsts = spark.sparkContext.broadcast(sc.instances)
    spark.sparkContext.parallelize(groups, math.max(1, groups.size))
      .flatMap(members => GroupParallel.planGroup(bInsts.value, members, totalBudget, params).executions)
      .toDS()
  }

  /** Quality of an executions plan under the core's own metric: one
    * `(task_id, q)` row per task of `sc.tasks`, in that order, q equal to
    * `Quality.qualityOf` at that task's own m, bit for bit. Every task must
    * have its own id. `executions` needs `int` columns `taskId` and `slot`;
    * they are read by name, so other columns and their order do not matter.
    *
    * The driver collects the plan's physical rows and adds each slot to its
    * task's `ExecutedSet`, then scores each set with `Quality.quality`. A
    * local plan (`Seq.toDF()`, a collected `assign`) is a
    * `LocalTableScanExec`, whose rows are read without a job; any other plan
    * costs the one job that collects it. A slot executed twice counts once;
    * a null or a slot outside [0, m) of a listed task fails. Executions of a
    * task not in `sc.tasks` are skipped after the null check: no horizon is
    * known for them, so their slots are not range-checked. The result is a
    * local relation, so collecting it starts no job.
    */
  def planQualities(spark: SparkSession, sc: TcscGen.Scenario,
                    executions: DataFrame, k: Int): DataFrame = {
    require(sc.tasks.map(_.id).distinct.size == sc.tasks.size,
      "planQualities scores each task once; sc.tasks lists a task id twice")
    def intColumn(name: String): Int = {
      val i = executions.schema.fieldNames.indexOf(name)
      require(i >= 0 && executions.schema(i).dataType == IntegerType,
        s"planQualities reads an int column $name; executions has ${executions.schema.simpleString}")
      i
    }
    val (taskCol, slotCol) = (intColumn("taskId"), intColumn("slot"))
    val executed = sc.tasks.iterator.map(t => t.id -> new ExecutedSet(t.m)).toMap
    for (row <- executions.queryExecution.executedPlan.executeCollect()) {
      require(!row.isNullAt(taskCol) && !row.isNullAt(slotCol), "planQualities reads no null taskId or slot")
      executed.get(row.getInt(taskCol)).foreach(_.add(row.getInt(slotCol)))
    }
    val rows = sc.tasks.map(t => Row(t.id, Quality.quality(executed(t.id), k)))
    spark.createDataFrame(rows.asJava,
      StructType(Seq(StructField("task_id", IntegerType, nullable = false),
        StructField("q", DoubleType, nullable = false))))
  }
}
