package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Tests for the sorted executed-slot set and its deterministic k-NN.
  * Property-style coverage uses seeded random instances (the offline image
  * ships scalacheck but not the scalatest bridge, so loops it is).
  */
class ExecutedSetSpec extends AnyFunSuite {

  /** Brute-force k-NN with the same tie rule (distance, then smaller slot). */
  private def bruteKnn(slots: Seq[Int], j: Int, k: Int, extra: Int = -1): Seq[Int] = {
    val all = (slots ++ (if (extra >= 0 && !slots.contains(extra)) Seq(extra) else Nil)).distinct
    all.sortBy(e => (math.abs(e - j), e)).take(k)
  }

  private def randomCase(rnd: Random): (Int, List[Int]) = {
    val m = 5 + rnd.nextInt(56)
    val n = rnd.nextInt(m + 1)
    (m, rnd.shuffle((0 until m).toList).take(n).sorted)
  }

  /** (m, executed slots, k): seeded random sets plus the degenerate shapes —
    * an empty set, fewer than k executed, and m < k.
    */
  private val kernelCases: Seq[(Int, List[Int], Int)] = {
    val rnd = new Random(4)
    val random = Seq.fill(120) {
      val (m, slots) = randomCase(rnd)
      (m, slots, 1 + rnd.nextInt(5))
    }
    random ++ Seq(
      (10, Nil, 3), (10, List(4), 3), (10, List(2, 7), 3),
      (2, Nil, 3), (2, List(1), 3), (2, List(0, 1), 3), (1, List(0), 2))
  }

  /** Brute-force Eq 3 numerator: neighbour distances plus m per phantom. */
  private def bruteDistSum(m: Int, slots: Seq[Int], j: Int, k: Int, extra: Int): Long = {
    val nn = bruteKnn(slots, j, k, extra)
    nn.map(e => math.abs(e - j).toLong).sum + (k - nn.length).toLong * m
  }

  /** `Quality.finishProb` as it was computed from the neighbour list. */
  private def finishProbFromKnn(j: Int, s: ExecutedSet, k: Int, extra: Int): Double =
    if (s.contains(j) || j == extra) 1.0 / s.m
    else {
      val nn = s.knn(j, k, extra)
      if (nn.isEmpty && extra < 0) 0.0
      else (1.0 - Quality.errRatio(j, nn, k, s.m)) / s.m
    }

  /** `calls` calls of the three per-slot kernels, three per visited slot;
    * returns a checksum so none is dead code.
    */
  private def exerciseKernels(s: ExecutedSet, k: Int, calls: Int): Double = {
    val m = s.m
    var acc = 0.0
    var i = 0
    while (i < calls) {
      val j = i % m
      val extra = (i * 7919) % m
      acc += s.kthDist(j, k) + s.knnDistSum(j, k, extra) + Quality.finishProb(j, s, k, extra)
      i += 3
    }
    acc
  }

  test("add keeps slots sorted and deduplicated") {
    val s = new ExecutedSet(20)
    Seq(5, 1, 9, 5, 1).foreach(s.add)
    assert(s.toVector == Vector(1, 5, 9))
    assert(s.size == 3)
  }

  test("contains") {
    val s = new ExecutedSet(10)
    s.add(3)
    assert(s.contains(3) && !s.contains(4))
  }

  test("add out of range throws") {
    val s = new ExecutedSet(10)
    intercept[IllegalArgumentException](s.add(10))
    intercept[IllegalArgumentException](s.add(-1))
  }

  test("isEmpty") {
    val s = new ExecutedSet(4)
    assert(s.isEmpty)
    s.add(0)
    assert(!s.isEmpty)
  }

  test("knn on the paper example") {
    val s = new ExecutedSet(100)
    Seq(1, 3, 6, 8).foreach(s.add) // 0-based {2,4,7,9} of Fig 3
    assert(s.knn(0, 2) == IndexedSeq(1, 3))
    assert(s.knn(4, 2).toSet == Set(3, 6)) // dists 1 and 2
  }

  test("knn tie breaks toward the smaller slot") {
    val s = new ExecutedSet(10)
    Seq(2, 6).foreach(s.add)
    assert(s.knn(4, 1) == IndexedSeq(2)) // both at distance 2
  }

  test("knn of an executed slot includes itself first") {
    val s = new ExecutedSet(10)
    Seq(4, 7).foreach(s.add)
    assert(s.knn(4, 2) == IndexedSeq(4, 7))
  }

  test("knn returns fewer than k when fewer executed") {
    val s = new ExecutedSet(10)
    s.add(1)
    assert(s.knn(5, 3) == IndexedSeq(1))
  }

  test("kthDist is MaxValue when fewer than k executed") {
    val s = new ExecutedSet(10)
    s.add(2)
    assert(s.kthDist(5, 2) == Int.MaxValue)
    assert(s.kthDist(5, 1) == 3)
  }

  test("nearest") {
    val s = new ExecutedSet(10)
    assert(s.nearest(3).isEmpty)
    s.add(8)
    assert(s.nearest(3).contains(8))
  }

  test("property: knn matches brute force for random sets") {
    val rnd = new Random(1)
    for (_ <- 0 until 200) {
      val (m, slots) = randomCase(rnd)
      val k = 1 + rnd.nextInt(5)
      val s = new ExecutedSet(m)
      slots.foreach(s.add)
      for (j <- 0 until m) {
        assert(s.knn(j, k) == bruteKnn(slots, j, k), s"m=$m j=$j k=$k slots=$slots")
      }
    }
  }

  test("property: knn with tentative extra slot matches brute force") {
    val rnd = new Random(2)
    for (_ <- 0 until 100) {
      val (m, slots) = randomCase(rnd)
      val k = 1 + rnd.nextInt(4)
      val s = new ExecutedSet(m)
      slots.foreach(s.add)
      for (extra <- 0 until m if !slots.contains(extra); j <- 0 until m) {
        assert(s.knn(j, k, extra) == bruteKnn(slots, j, k, extra),
          s"m=$m j=$j k=$k extra=$extra slots=$slots")
      }
    }
  }

  test("property: kthDist agrees with knn") {
    val rnd = new Random(3)
    for (_ <- 0 until 200) {
      val (m, slots) = randomCase(rnd)
      val k = 1 + rnd.nextInt(4)
      val s = new ExecutedSet(m)
      slots.foreach(s.add)
      for (j <- 0 until m) {
        val nn = s.knn(j, k)
        val expected = if (nn.length < k) Int.MaxValue else math.abs(nn.last - j)
        assert(s.kthDist(j, k) == expected)
      }
    }
  }

  test("property: knnDistSum and kthDist match brute force, with and without extra") {
    for ((m, slots, k) <- kernelCases) {
      val s = new ExecutedSet(m)
      slots.foreach(s.add)
      for (j <- 0 until m) {
        val nn = bruteKnn(slots, j, k)
        val kth = if (nn.length < k) Int.MaxValue else math.abs(nn.last - j)
        assert(s.kthDist(j, k) == kth, s"m=$m j=$j k=$k slots=$slots")
        // extra = -1 (none), executed extras and extra == j are all included
        for (extra <- -1 until m) {
          assert(s.knnDistSum(j, k, extra) == bruteDistSum(m, slots, j, k, extra),
            s"m=$m j=$j k=$k extra=$extra slots=$slots")
        }
      }
    }
  }

  test("property: finishProb equals the knn-list formula bit for bit") {
    for ((m, slots, k) <- kernelCases) {
      val s = new ExecutedSet(m)
      slots.foreach(s.add)
      for (j <- 0 until m; extra <- -1 until m) {
        val got = Quality.finishProb(j, s, k, extra)
        val want = finishProbFromKnn(j, s, k, extra)
        assert(java.lang.Double.doubleToRawLongBits(got) ==
          java.lang.Double.doubleToRawLongBits(want),
          s"m=$m j=$j k=$k extra=$extra slots=$slots: $got vs $want")
      }
    }
  }

  test("kthDist, knnDistSum and finishProb allocate nothing") {
    val threads = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    assume(threads.isThreadAllocatedMemorySupported)
    threads.setThreadAllocatedMemoryEnabled(true)
    val m = 1000
    val s = new ExecutedSet(m)
    new Random(5).shuffle((0 until m).toList).take(400).foreach(s.add)
    val k = 3
    val id = Thread.currentThread.getId
    exerciseKernels(s, k, 600000) // warm-up: class loading and JIT
    val before = threads.getThreadAllocatedBytes(id)
    val checksum = exerciseKernels(s, k, 100000)
    val allocated = threads.getThreadAllocatedBytes(id) - before
    assert(checksum > 0)
    assert(allocated < 64 * 1024, s"$allocated bytes allocated by 100k kernel calls")
  }
}
