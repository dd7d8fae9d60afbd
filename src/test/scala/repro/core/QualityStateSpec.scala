package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** The cached kernel of `QualityState`: its entropy table, its size guard and
  * an allocation-free Δq.
  */
class QualityStateSpec extends AnyFunSuite {

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  /** Executed sets for (m, k): empty, every single slot, evenly spaced sets
    * at every gap, all but one slot, and seeded random sets of every size.
    */
  private def sets(m: Int, rnd: Random, nRandom: Int): Seq[Seq[Int]] =
    Seq(Seq.empty[Int]) ++
      (0 until m).map(Seq(_)) ++
      (1 to m).map(g => 0 until m by g) ++
      (0 until m).map(j => (0 until m).filter(_ != j)) ++
      Seq.fill(nRandom)(rnd.shuffle((0 until m).toList).take(rnd.nextInt(m + 1)))

  test("entropy table equals the finishing-probability contribution bit for bit") {
    val rnd = new Random(20)
    for ((m, k) <- Seq((20, 3), (20, 1), (20, 20), (2, 3), (1000, 3))) {
      val ent = QualityState.entropyTable(m, k)
      assert(ent.length == k * m + 1)
      assert(bits(ent(k * m)) == bits(0.0), s"m=$m k=$k: ent(k·m) = ${ent(k * m)}")
      val realised = new java.util.BitSet(k * m + 1)
      val nRandom = if (m > 100) 40 else 400
      for (slots <- sets(m, rnd, nRandom)) {
        val s = new ExecutedSet(m)
        slots.foreach(s.add)
        val free = (0 until m).filterNot(s.contains)
        // Without a tentative slot (insert's terms), and with one (Δq's).
        val extras = -1 +: (if (free.isEmpty) Nil else Seq.fill(3)(free(rnd.nextInt(free.length))))
        for (extra <- extras; j <- free if j != extra) {
          val sum = s.knnDistSum(j, k, extra).toInt
          val want = Quality.contribution(Quality.finishProb(j, s, k, extra))
          if (bits(ent(sum)) != bits(want))
            fail(s"m=$m k=$k j=$j extra=$extra S=$slots: ent($sum) = ${ent(sum)}, want $want")
          realised.set(sum)
        }
      }
      // Single slots alone realise every d + (k - 1)·m, d = 1 .. m - 1.
      assert(realised.cardinality >= m - 1, s"m=$m k=$k: ${realised.cardinality} sums realised")
    }
  }

  test("k·m beyond Int range is rejected before anything is allocated") {
    intercept[IllegalArgumentException](QualityState.entropyTable(70000, 40000))
    intercept[IllegalArgumentException](new QualityState(70000, 40000))
    intercept[IllegalArgumentException](new QualityState(70000, 40000, Array(0.0)))
    intercept[IllegalArgumentException](new QualityState(20, 3, QualityState.entropyTable(20, 2)))
  }

  /** `calls` Δq queries cycling over `free`; a checksum keeps them live. */
  private def queries(st: QualityState, free: Array[Int], calls: Int): Double = {
    var acc = 0.0
    var i = 0
    while (i < calls) { acc += st.deltaQ(free(i % free.length)); i += 1 }
    acc
  }

  test("deltaQ allocates nothing") {
    val threads = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    assume(threads.isThreadAllocatedMemorySupported)
    threads.setThreadAllocatedMemoryEnabled(true)
    val m = 1000
    val st = new QualityState(m, 3)
    new Random(21).shuffle((0 until m).toList).take(400).foreach(st.insert)
    val free = (0 until m).filterNot(st.isExecuted).toArray
    val id = Thread.currentThread.getId
    queries(st, free, 300000) // warm-up: class loading and JIT
    val before = threads.getThreadAllocatedBytes(id)
    val checksum = queries(st, free, 100000)
    val allocated = threads.getThreadAllocatedBytes(id) - before
    assert(checksum > 0)
    assert(allocated < 64 * 1024, s"$allocated bytes allocated by 100k deltaQ calls")
  }
}
