package tcscbench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.core.multi.{MultiOutcome, TaskParallel}
import repro.data.TcscGen
import repro.spark.AssignPipeline

/** One planned round: what the validator checks and what the layers did. */
final case class Planned(
    instances: IndexedSeq[TaskInstance],
    plan: PlanCheck.Plan,
    rankZero: Boolean,
    scored: Vector[Double], // Quality.qualityOf per task, in instance order
    commits: Long,
    layers: Map[String, Double], // per-layer values known from the round itself
)

/** A benchmark workload: raw inputs made in `setup` from the seed, then a
  * fixed pool of distinct rounds cycled by a single caller.
  */
abstract class Workload(val seed: Long) {
  val params = TcscParams() // k = 3, t_s = 4
  val budgetFraction = 0.25
  val maxRank = 12
  def poolSize: Int
  def warmupRounds: Int
  /** JVMs an untraced run is split over (see `Main`). */
  def forks: Int = 1
  /** Generate the raw inputs; called several times to time set-up. */
  def setup(): Unit
  /** One round: index, assign and score pool item `item`. */
  def plan(item: Int, tr: Tracer): Planned
  /** Extra per-layer probes on a finished traced round, outside its timing. */
  def probe(item: Int, p: Planned, tr: Tracer, into: Layers): Unit = ()
  /** Once-per-run check beyond the per-round validator; problems found. */
  def runCheck(planned: Map[Int, Planned], trace: Boolean, into: Layers): Vector[String] = Vector.empty
  def stamp: Map[String, String] = Map.empty
  def close(): Unit = ()

  /** Step 1 of a round: the per-slot indexes and every task's candidate list. */
  protected def materialize(ws: Vector[TcscGen.WorkerAt], tasks: Seq[Task], m: Int,
                            tr: Tracer, layers: Layers.Round): IndexedSeq[TaskInstance] = {
    val idx = layers.time("data.index_ms")(tr.span("data.index")(TcscGen.slotIndexes(ws, m)))
    val insts = layers.time("data.candidates_ms")(tr.span("data.candidates")(
      tasks.map(t => TcscGen.instance(t, idx, maxRank)).toIndexedSeq))
    layers("data.knn_queries") = tasks.map(_.m.toLong).sum.toDouble
    insts
  }

  protected def score(insts: IndexedSeq[TaskInstance], orders: Int => Seq[Int],
                      tr: Tracer, layers: Layers.Round): Vector[Double] =
    layers.time("core.score_ms")(tr.span("core.score")(
      insts.indices.map(i => Quality.qualityOf(insts(i).m, orders(i), params.k)).toVector))

  protected def multiCounts(out: MultiOutcome, l: Layers.Round): Unit = {
    l("multi.commits") = out.commits
    l("multi.evals_per_commit") = out.evals.toDouble / math.max(1, out.commits)
    l("multi.conflicts_per_commit") = out.conflicts.toDouble / math.max(1, out.commits)
  }

  /** Commit order of each task in a multi-task plan. */
  protected def ordersOf(insts: IndexedSeq[TaskInstance], execs: Seq[Execution]): Int => Seq[Int] = {
    val by = execs.groupBy(_.taskId).map { case (t, es) => t -> es.map(_.slot) }
    i => by.getOrElse(insts(i).task.id, Seq.empty)
  }

  protected def tasksAt(locs: Seq[(Double, Double)], m: Int): Vector[Task] =
    locs.zipWithIndex.map { case ((x, y), i) => Task(i, x, y, m) }.toVector

  /** Raw inputs of a pool whose items each have their own workers and tasks. */
  protected def poolInputs(nTasks: Int, m: Int, nWorkers: Int, dist: TcscGen.Dist)
      : Vector[(Vector[TcscGen.WorkerAt], Vector[Task])] =
    Vector.tabulate(poolSize) { i =>
      val itemSeed = seed * 7919L + i
      (TcscGen.workers(nWorkers, m, itemSeed),
       tasksAt(TcscGen.taskLocations(nTasks, dist, itemSeed + 1000), m))
    }
}

object Workload {
  val names = Seq("sqm_m1000", "spark_score")

  def apply(name: String, seed: Long, nproc: Int, outDir: java.io.File): Workload = name match {
    case "sqm_m1000"       => new SingleTask(seed)
    case "spark_score"     => new SparkScore(seed, nproc, outDir)
    case _ => throw new IllegalArgumentException(
      s"unknown workload '$name'; one of ${names.mkString(", ")}")
  }
}

/** `sqm_m1000`: single-task Approx* (`GreedyIndexed.run`, defaults) at the
  * paper's largest point, m = 1000, |W| = 2000, uniform. Each round plans
  * one task of the pool.
  */
final class SingleTask(seed: Long) extends Workload(seed) {
  val m = 1000; val nWorkers = 2000
  val poolSize = 12
  val warmupRounds = 6
  override val forks = 6
  private var ws: Vector[TcscGen.WorkerAt] = _
  private var tasks: Vector[Task] = _

  def setup(): Unit = {
    ws = TcscGen.workers(nWorkers, m, seed)
    tasks = tasksAt(TcscGen.taskLocations(poolSize, TcscGen.Uniform, seed + 1000), m)
  }

  def plan(item: Int, tr: Tracer): Planned = {
    val l = new Layers.Round
    val insts = materialize(ws, Seq(tasks(item)), m, tr, l)
    val inst = insts.head
    val budget = inst.fullCost * budgetFraction
    val out = l.time("core.assign_ms")(tr.span("core.assign")(GreedyIndexed.run(inst, budget, params)))
    val r = out.result
    val scored = score(insts, _ => r.executedSlots, tr, l)
    val s = out.stats
    l("core.heuristic_ms") = s.heuristicNanos / 1e6
    l("core.update_ms") = s.updateNanos / 1e6
    l("core.tree_ms") = s.treeNanos / 1e6
    l("core.commits") = s.iterations
    l("core.delta_evals") = s.candidateEvaluations.toDouble
    val naiveEquiv = (0 until s.iterations).map(m.toDouble - _).sum
    l("core.pruning_ratio") = if (naiveEquiv == 0) 0.0 else 1.0 - s.candidateEvaluations / naiveEquiv
    l("core.slots_visited") = s.slotsVisited.toDouble
    l("core.tree_nodes") = out.treeNodeCount
    Planned(insts,
      PlanCheck.Plan(PlanCheck.singleTaskExecutions(inst, r.executedSlots),
        Map(inst.task.id -> r.quality), budget),
      rankZero = true, scored, r.executedSlots.size, l.values)
  }

  override def probe(item: Int, p: Planned, tr: Tracer, into: Layers): Unit =
    Probes.coreReplay(p, params, tr, into)
}

/** `spark_score`: the Spark layer at `RunSparkAssign`'s sizes on
  * `local[nproc]`. Each round plans in core with `TaskParallel.run` at one
  * thread, as `AssignPipeline.assign` runs it per group, and scores the plan
  * with `AssignPipeline.planQualities`: the Catalyst probability pipeline
  * and the entropy UDAF. The validator takes the UDAF's qualities as the
  * reported ones. `AssignPipeline.assign` itself is not run: its groups
  * share workers, and its plans double-book.
  */
final class SparkScore(seed: Long, nproc: Int, outDir: java.io.File) extends Workload(seed) {
  val nTasks = 40; val m = 80; val nWorkers = 800
  val poolSize = 3
  val warmupRounds = 6
  val master = s"local[$nproc]"
  val shufflePartitions = nproc
  private var inputs: Vector[(Vector[TcscGen.WorkerAt], Vector[Task])] = _
  private var spark: SparkSession = _
  private var stages: SparkStages = _

  override def stamp: Map[String, String] =
    Map("spark_master" -> master, "spark_shuffle_partitions" -> shufflePartitions.toString)

  def setup(): Unit = {
    if (spark != null) spark.stop()
    inputs = poolInputs(nTasks, m, nWorkers, TcscGen.Uniform)
    spark = SparkSession.builder()
      .master(master)
      .appName("tcscbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", shufflePartitions.toString)
      .config("spark.local.dir", new java.io.File(outDir, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new java.io.File(outDir, "spark-warehouse").getPath)
      .getOrCreate()
  }

  private def scenario(item: Int, insts: IndexedSeq[TaskInstance]): TcscGen.Scenario = {
    val (ws, tasks) = inputs(item)
    TcscGen.Scenario(tasks, insts.toVector, ws)
  }

  def plan(item: Int, tr: Tracer): Planned = {
    val l = new Layers.Round
    val (ws, tasks) = inputs(item)
    val insts = materialize(ws, tasks, m, tr, l)
    val budget = TcscGen.budgetFor(insts, budgetFraction)
    val (out, tables) = l.time("multi.assign_ms")(tr.span("multi.assign")(
      TaskParallel.run(insts, budget, params, threads = 1)))
    val session = spark
    import session.implicits._
    val udaf = l.time("spark.score_ms")(tr.span("spark.score")(
      AssignPipeline.planQualities(spark, scenario(item, insts), out.executions.toDF(), params.k)
        .as[(Int, Double)].collect()))
    val scored = score(insts, ordersOf(insts, out.executions), tr, l)
    multiCounts(out, l)
    l("multi.conflict_records") = tables.conflicts.size
    Planned(insts, PlanCheck.Plan(out.executions, udaf.toMap, budget), rankZero = false,
      scored, out.commits, l.values)
  }

  /** Once per run, the `nproc`-thread plan of pool item 0 must equal its
    * 1-thread plan. Traced runs also time both for the speedup.
    */
  override def runCheck(planned: Map[Int, Planned], trace: Boolean, into: Layers): Vector[String] = {
    val first = planned(0)
    def timed(threads: Int) = {
      val t0 = System.nanoTime()
      val (out, _) = TaskParallel.run(first.instances, first.plan.budget, params, threads)
      (out.executions, System.nanoTime() - t0)
    }
    val (one, oneNs) = timed(1)
    val (many, manyNs) = timed(nproc)
    if (trace) into.add("multi.speedup_vs_1_thread", oneNs.toDouble / manyNs)
    if (one == many && one == first.plan.executions) Vector.empty
    else Vector(s"$nproc-thread plan of pool item 0 differs from its 1-thread plan")
  }

  /** Reset the listener's totals before a traced round. */
  def beforeTraced(): Unit = {
    if (stages == null) stages = new SparkStages(spark.sparkContext)
    stages.settle()
  }

  override def probe(item: Int, p: Planned, tr: Tracer, into: Layers): Unit = {
    val t = stages.settle()
    val wallMs = p.layers("spark.score_ms")
    into.add("spark.jobs", t.jobs.toDouble)
    into.add("spark.stages", t.stages.toDouble)
    into.add("spark.tasks", t.tasks.toDouble)
    into.add("spark.executor_run_ms", t.executorRunMs.toDouble)
    into.add("spark.shuffle_write_kb", t.shuffleWriteBytes / 1024.0)
    into.add("spark.executor_busy_share", t.executorRunMs / (wallMs * nproc))
    // The first stage of the Spark assignment job: conflict-edge discovery
    // and grouping. Their output is not a plan, so they are safe to time.
    val sc = scenario(item, p.instances)
    val session = spark
    import session.implicits._
    val edges = Layers.timed(into, "spark.edges_ms")(tr.span("spark.edges")(
      AssignPipeline.conflictEdges(spark, AssignPipeline.tasksDf(spark, sc),
        AssignPipeline.workersDf(spark, sc), 0.08).as[(Int, Int)].collect().toSeq))
    val groups = Layers.timed(into, "spark.groups_ms")(tr.span("spark.groups")(
      AssignPipeline.groups(sc.tasks.size, edges)))
    into.add("spark.edges", edges.size)
    into.add("spark.groups", groups.distinct.length)
    into.add("spark.largest_group", groups.groupBy(identity).values.map(_.length).max)
    stages.settle()
    Probes.coreReplay(p, params, tr, into)
    Probes.poolReplay(p, tr, into)
  }

  override def close(): Unit = {
    if (stages != null) stages.remove()
    if (spark != null) spark.stop()
  }
}

/** Replay probes shared by the workloads. */
object Probes {
  def coreReplay(p: Planned, params: TcscParams, tr: Tracer, into: Layers): Unit =
    tr.span("core.replay") {
      val ct = new Replay.CoreTimes
      val execs = p.plan.executions
      for (inst <- p.instances) {
        val order = execs.iterator.filter(_.taskId == inst.task.id).map(_.slot).toSeq
        Replay.core(inst.m, order, params, ct)
      }
      val n = math.max(1L, ct.calls).toDouble
      into.add("core.window_ns", ct.windowNs / n)
      into.add("core.window_slots", ct.windowSlots / n)
      into.add("core.delta_q_ns", ct.deltaQNs / n)
      into.add("core.insert_ns", ct.insertNs / n)
      into.add("core.knn_ns", ct.knnNs / n)
      into.add("core.kth_dist_ns", ct.kthDistNs / n)
      into.add("core.tree_insert_ns", ct.treeInsertNs / n)
    }

  def poolReplay(p: Planned, tr: Tracer, into: Layers): Unit =
    tr.span("multi.replay") {
      val pt = new Replay.PoolTimes
      Replay.pool(p.instances, p.plan.executions, pt)
      val n = math.max(1L, pt.commits).toDouble
      into.add("multi.free_rank_ns", pt.freeRankNs / n)
      into.add("multi.try_take_ns", pt.tryTakeNs / n)
      into.add("multi.conflict_probe_us", pt.conflictProbeNs / n / 1e3)
    }
}
