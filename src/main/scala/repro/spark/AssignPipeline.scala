package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{ExecutedSet, Execution, Quality, TcscParams}
import repro.core.multi.{ConflictGraph, GroupParallel}
import repro.data.TcscGen

/** The multi-task assignment as a partitioned Spark job (DESIGN.md §3).
  *
  * The conflict groups are built before the job from the candidate lists
  * the scenario already holds (`ConflictGraph`, the same groups as
  * `GroupParallel`), and each group runs the task-level lazy greedy at one
  * thread on its own partition via `groupByKey(group).flatMapGroups` —
  * Spark partitions play the paper's computation cores. Instances travel to
  * executors via a broadcast of the deterministic scenario. `planQualities`
  * scores a plan with one keyed fold and the core's quality metric.
  */
object AssignPipeline {

  final case class TaskRow(task_id: Int, x: Double, y: Double, m: Int)
  final case class WorkerRow(worker_id: Int, slot: Int, x: Double, y: Double)
  final case class GroupedTask(group_id: Int, task_index: Int)

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
    * executions DataFrame. Each group is planned by
    * `GroupParallel.planGroup`, as in `GroupParallel`.
    */
  def assign(spark: SparkSession, sc: TcscGen.Scenario, budgetFraction: Double,
             params: TcscParams): Dataset[Execution] = {
    import spark.implicits._
    val groupOf = ConflictGraph.build(sc.instances).groupOf
    val totalBudget = TcscGen.budgetFor(sc.instances, budgetFraction)
    val bInsts = spark.sparkContext.broadcast(sc.instances)
    val bParams = spark.sparkContext.broadcast(params)

    sc.instances.indices.map(i => GroupedTask(groupOf(i), i)).toDS()
      .groupByKey(_.group_id)
      .flatMapGroups { (_, rows) =>
        val members = rows.map(_.task_index).toVector.sorted
        GroupParallel.planGroup(bInsts.value, members, totalBudget, bParams.value).executions.iterator
      }
  }

  /** Quality of an executions plan, computed in Spark with the core's own
    * metric: one `(task_id, q)` row per task of `sc.tasks`, q equal to
    * `Quality.qualityOf` bit for bit. Every task must share one horizon m.
    *
    * One keyed fold, one job of two stages: a marker pair per listed task is
    * unioned with the plan's `(taskId, slot)` pairs, and `combineByKey` ORs
    * each task's slots into a bitmap of m bits plus one "listed" word (map
    * side), then ORs the bitmaps in one reduce task: there is one small
    * bitmap per task, too little to spread. Each listed bitmap fills an
    * `ExecutedSet` that `Quality.quality` scores. A slot executed twice
    * counts once; a slot outside [0, m) fails the map step with
    * `ExecutedSet`'s message; executions of a task not in `sc.tasks` are not
    * scored.
    */
  def planQualities(spark: SparkSession, sc: TcscGen.Scenario,
                    executions: DataFrame, k: Int): DataFrame = {
    import spark.implicits._
    val m = sc.tasks.headOption.fold(1)(_.m) // no rows to score when empty
    require(sc.tasks.forall(_.m == m),
      s"planQualities scores one horizon; tasks have m in ${sc.tasks.map(_.m).distinct.sorted.mkString(", ")}")
    val listedWord = (m + 63) >>> 6 // the bitmap's last word flags a listed task
    val listed = spark.sparkContext.parallelize(sc.tasks.map(t => (t.id, Listed)), 1)
    val slots = executions.select($"taskId", $"slot".cast("long")).as[(Int, Long)].rdd
    def add(bits: Array[Long], s: Long): Array[Long] = {
      if (s == Listed) bits(listedWord) = 1L
      else {
        require(s >= 0 && s < m, s"slot $s out of [0, $m)")
        bits(s.toInt >>> 6) |= 1L << s
      }
      bits
    }
    def or(a: Array[Long], b: Array[Long]): Array[Long] = {
      var i = 0
      while (i <= listedWord) { a(i) |= b(i); i += 1 }
      a
    }
    listed.union(slots)
      .combineByKey((s: Long) => add(new Array[Long](listedWord + 1), s), add, or, 1)
      .flatMap { case (t, bits) =>
        if (bits(listedWord) == 0L) None
        else {
          val es = new ExecutedSet(m)
          for (j <- 0 until m if (bits(j >>> 6) & (1L << j)) != 0L) es.add(j)
          Some((t, Quality.quality(es, k)))
        }
      }
      .toDF("task_id", "q")
  }

  /** The value of a listed task's marker pair; no `Int` slot maps to it. */
  private final val Listed = Long.MinValue
}
