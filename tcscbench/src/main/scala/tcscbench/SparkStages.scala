package tcscbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Collects job, stage and task counts, executor run time and shuffle
  * writes from Spark's listener bus, per measurement window.
  *
  * Listener events arrive asynchronously. `settle` runs a one-task sentinel
  * job tagged with its own job group and waits for its end event: the bus
  * delivers one queue's events in order, so every event of the window has
  * been seen by then. The sentinel's own job, stage and task are excluded.
  */
final class SparkStages(sc: SparkContext) extends SparkListener {
  import SparkStages.Totals

  private val SentinelGroup = "tcscbench-sentinel"
  private val JobGroupKey = "spark.jobGroup.id" // the property setJobGroup sets

  private var jobs = 0L; private var stages = 0L; private var tasks = 0L
  private var runMs = 0L; private var shuffleBytes = 0L
  private val sentinelJobs = scala.collection.mutable.HashSet.empty[Int]
  private val sentinelStages = scala.collection.mutable.HashSet.empty[Int]
  private var sentinelsSeen = 0

  sc.addSparkListener(this)

  private def isSentinel(props: java.util.Properties): Boolean =
    props != null && props.getProperty(JobGroupKey) == SentinelGroup

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    if (isSentinel(e.properties)) { sentinelJobs += e.jobId; sentinelStages ++= e.stageIds }
    else jobs += 1
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    if (sentinelJobs(e.jobId)) { sentinelsSeen += 1; notifyAll() }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val info = e.stageInfo
    if (!sentinelStages(info.stageId)) {
      stages += 1
      tasks += info.numTasks
      val tm = info.taskMetrics
      if (tm != null) {
        runMs += tm.executorRunTime
        shuffleBytes += tm.shuffleWriteMetrics.bytesWritten
      }
    }
  }

  /** Wait until every event posted so far has been delivered, then return
    * the totals since the previous call and reset them.
    */
  def settle(): Totals = {
    sc.setJobGroup(SentinelGroup, "listener sentinel", interruptOnCancel = false)
    try {
      val before = synchronized(sentinelsSeen)
      sc.parallelize(Seq(1), 1).count()
      synchronized {
        val deadline = System.nanoTime() + 30L * 1000000000L
        while (sentinelsSeen == before && System.nanoTime() < deadline) wait(100)
        require(sentinelsSeen > before, "Spark listener bus did not drain within 30 s")
        val t = Totals(jobs, stages, tasks, runMs, shuffleBytes)
        jobs = 0; stages = 0; tasks = 0; runMs = 0; shuffleBytes = 0
        t
      }
    } finally sc.clearJobGroup()
  }

  def remove(): Unit = sc.removeSparkListener(this)
}

object SparkStages {
  final case class Totals(jobs: Long, stages: Long, tasks: Long,
                          executorRunMs: Long, shuffleWriteBytes: Long)
}
