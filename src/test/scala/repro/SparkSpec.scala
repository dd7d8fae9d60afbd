package repro

import java.util.Properties
import java.util.concurrent.{ConcurrentHashMap, CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageSubmitted, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** Runs `block` under a job group of its own and returns its value with
    * what it asked of Spark: the jobs it started, their submitted stages,
    * the tasks those stages ran and the shuffle bytes they wrote.
    */
  def jobShape[A](block: => A): (A, SparkSpec.JobShape) = {
    val ctx = spark.sparkContext
    val id = s"shape-${SparkSpec.groups.incrementAndGet()}"
    val sentinel = s"$id-sentinel"
    val jobs = new AtomicInteger
    val stages = new AtomicInteger
    val tasks = new AtomicInteger
    val shuffleBytes = new AtomicLong
    val stageIds = ConcurrentHashMap.newKeySet[Int]()
    val drained = new CountDownLatch(1)
    def group(props: Properties) = Option(props).map(_.getProperty("spark.jobGroup.id")).orNull
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = group(e.properties) match {
        case `id` =>
          jobs.incrementAndGet()
          e.stageIds.foreach(stageIds.add)
        case `sentinel` => drained.countDown()
        case _ =>
      }
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
        if (group(e.properties) == id) stages.incrementAndGet()
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        if (stageIds.contains(e.stageId)) {
          tasks.incrementAndGet()
          Option(e.taskMetrics).foreach(t => shuffleBytes.addAndGet(t.shuffleWriteMetrics.bytesWritten))
        }
    }
    ctx.addSparkListener(listener)
    try {
      ctx.setJobGroup(id, "jobShape")
      val out = block
      // the bus delivers events in order: once the sentinel's job start
      // arrives, every event of the block's jobs has been seen
      ctx.setJobGroup(sentinel, "listener sentinel")
      ctx.parallelize(Seq(1), 1).count()
      assert(drained.await(30, TimeUnit.SECONDS), "listener bus did not drain")
      (out, SparkSpec.JobShape(jobs.get, stages.get, tasks.get, shuffleBytes.get))
    } finally {
      ctx.clearJobGroup()
      ctx.removeSparkListener(listener)
    }
  }
}

object SparkSpec {
  final case class JobShape(jobs: Int, stages: Int, tasks: Int, shuffleWriteBytes: Long)

  private val groups = new AtomicInteger

  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
