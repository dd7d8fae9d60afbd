package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** The cached kernel of `QualityState`: its entropy table, its size guard,
  * a Δq bit-identical to the naive marginal and allocation-free, and a
  * walk-free, allocation-free insert.
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
      assert(ent.length == (k + 1) * m + 1)
      assert(bits(ent(k * m)) == bits(0.0), s"m=$m k=$k: ent(k·m) = ${ent(k * m)}")
      // The executed-slot region past k·m holds the contribution of p = 1/m.
      val self = Quality.contribution(1.0 / m)
      for (s <- k * m + 1 to (k + 1) * m)
        assert(bits(ent(s)) == bits(self), s"m=$m k=$k: ent($s) = ${ent(s)}, want $self")
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

  test("deltaQ equals the naive marginal bit for bit after every insert") {
    // m < k, the all-phantom phase (fewer than k executed) and whole histories.
    val rnd = new Random(24)
    var compared = 0L
    for (m <- Seq(1, 2, 5, 40, 301); k <- Seq(1, 2, 3, 5)) {
      val histories = if (m > 100) 1 else 20
      for (h <- 0 until histories) {
        val st = new QualityState(m, k)
        val order = rnd.shuffle((0 until m).toList)
        for ((t, step) <- (-1 +: order).zipWithIndex) {
          if (t >= 0) st.insert(t)
          for (j <- 0 until m if !st.isExecuted(j)) {
            val got = st.deltaQ(j)
            val want = GreedyNaive.deltaQNaive(st.executed, k, j)
            if (bits(got) != bits(want))
              fail(s"m=$m k=$k history=$h step=$step j=$j: deltaQ $got, naive $want")
            compared += 1
          }
        }
      }
    }
    assert(compared > 190000, s"$compared comparisons")
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

  /** After every insert of `order`, every slot's cached numerator and k-th
    * distance must equal fresh walks (a k-th distance of "fewer than k" is m).
    */
  private def checkCaches(m: Int, k: Int, order: Seq[Int], label: String): Unit = {
    val st = new QualityState(m, k)
    def check(step: Int): Unit =
      for (j <- 0 until m) {
        val sum = st.executed.knnDistSum(j, k)
        val kth = st.executed.kthDist(j, k)
        if (st.cachedDistSum(j) != sum || st.cachedKthDist(j) != (if (kth == Int.MaxValue) m else kth))
          fail(s"$label m=$m k=$k step=$step j=$j: cached (${st.cachedDistSum(j)}, " +
            s"${st.cachedKthDist(j)}), walked ($sum, $kth)")
      }
    check(0)
    order.zipWithIndex.foreach { case (t, step) => st.insert(t); check(step + 1) }
  }

  test("insert keeps every cached distance sum and k-th distance equal to the walks") {
    val rnd = new Random(22)
    // Seeded whole histories: every prefix, so fewer than k executed too.
    for (_ <- 0 until 60) {
      val m = 1 + rnd.nextInt(60)
      val k = 1 + rnd.nextInt(5)
      checkCaches(m, k, rnd.shuffle((0 until m).toList), "random")
    }
    // m = 1, m < k, k = m, and evenly spaced sets first (equidistant ties).
    for ((m, k) <- Seq((1, 1), (1, 3), (2, 3), (3, 7), (12, 12)))
      checkCaches(m, k, rnd.shuffle((0 until m).toList), "edge")
    for ((m, k, gap) <- Seq((41, 1, 4), (41, 2, 4), (40, 3, 5)))
      checkCaches(m, k, (0 until m by gap) ++ (0 until m).filter(_ % gap != 0), "spaced")
    // A long history at the benchmark's size, stopped while slots are free.
    checkCaches(1000, 3, rnd.shuffle((0 until 1000).toList).take(300), "m=1000")
  }

  test("insert allocates nothing") {
    val threads = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    assume(threads.isThreadAllocatedMemorySupported)
    threads.setThreadAllocatedMemoryEnabled(true)
    val (m, k, perState) = (1000, 3, 400)
    val order = new Random(23).shuffle((0 until m).toList).toArray
    val ent = QualityState.entropyTable(m, k)
    /** `perState` inserts into each of `states`; a checksum keeps them live. */
    def inserts(states: Array[QualityState]): Double = {
      var acc = 0.0
      var s = 0
      while (s < states.length) {
        var i = 0
        while (i < perState) { acc += states(s).insert(order(i)); i += 1 }
        s += 1
      }
      acc
    }
    inserts(Array.fill(500)(new QualityState(m, k, ent))) // warm-up: class loading and JIT
    val states = Array.fill(100000 / perState)(new QualityState(m, k, ent))
    val id = Thread.currentThread.getId
    val before = threads.getThreadAllocatedBytes(id)
    val checksum = inserts(states)
    val allocated = threads.getThreadAllocatedBytes(id) - before
    assert(checksum > 0)
    assert(allocated < 64 * 1024, s"$allocated bytes allocated by 100k insert calls")
  }
}
