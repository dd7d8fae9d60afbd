package tcscbench

import com.sun.management.GarbageCollectionNotificationInfo
import java.lang.management.{ManagementFactory, MemoryType}
import java.util.concurrent.atomic.AtomicLong
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import scala.jdk.CollectionConverters._

/** Heap allocation and GC time of the whole JVM, all threads included.
  *
  * Per-thread allocation counters lose the bytes of threads that end between
  * two readings, and the assignment paths start and stop their own thread
  * pools. So allocation is read as heap in use plus every byte the
  * collectors have freed so far, taken from GC notifications.
  */
object JvmMeter {
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toVector
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
  private val freed = new AtomicLong
  private val notified = new AtomicLong

  private val listener = new NotificationListener {
    def handleNotification(n: Notification, hb: AnyRef): Unit =
      if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData]).getGcInfo
        def used(m: java.util.Map[String, java.lang.management.MemoryUsage]): Long =
          m.asScala.collect { case (pool, u) if heapPools(pool) => u.getUsed }.sum
        freed.addAndGet(used(info.getMemoryUsageBeforeGc) - used(info.getMemoryUsageAfterGc))
        notified.incrementAndGet()
      }
  }
  gcs.foreach {
    case e: NotificationEmitter => e.addNotificationListener(listener, null, null)
    case _ =>
  }

  private def collections: Long = gcs.map(_.getCollectionCount.max(0L)).sum

  private def heapUsed: Long = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed

  /** Bytes allocated since the JVM started. Waits briefly for outstanding
    * GC notifications so freed bytes are not missed.
    */
  def allocatedBytes(): Long = {
    val deadline = System.nanoTime() + 200L * 1000000L
    while (notified.get < collections && System.nanoTime() < deadline) Thread.sleep(1)
    heapUsed + freed.get
  }

  def gcMillis(): Long = gcs.map(_.getCollectionTime.max(0L)).sum

  /** Live heap after full collections, in MiB. */
  def retainedHeapMb(): Double = {
    System.gc(); System.gc()
    heapUsed / (1024.0 * 1024.0)
  }
}
