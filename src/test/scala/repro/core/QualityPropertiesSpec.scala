package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.TcscGen
import scala.util.Random

/** Property tests for the paper's Lemmas: monotonicity and submodularity of
  * the quality metric (Lemmas 2, 6, 7), plus the incremental engine's
  * equivalence to full recomputation.
  */
class QualityPropertiesSpec extends AnyFunSuite {

  private def randomSet(rnd: Random, m: Int, n: Int): List[Int] =
    rnd.shuffle((0 until m).toList).take(n).sorted

  test("Lemma 7 (monotone): executing a subtask never decreases q") {
    val rnd = new Random(11)
    for (_ <- 0 until 150) {
      val m = 8 + rnd.nextInt(50)
      val k = 1 + rnd.nextInt(4)
      val base = randomSet(rnd, m, rnd.nextInt(m))
      val q0 = Quality.qualityOf(m, base, k)
      val free = (0 until m).filterNot(base.contains(_))
      if (free.nonEmpty) {
        val e = free(rnd.nextInt(free.length))
        val q1 = Quality.qualityOf(m, base :+ e, k)
        assert(q1 >= q0 - 1e-12, s"m=$m k=$k S=$base e=$e: $q0 -> $q1")
      }
    }
  }

  test("Lemma 6 (submodular): marginal gains shrink as the set grows") {
    val rnd = new Random(12)
    for (_ <- 0 until 150) {
      val m = 8 + rnd.nextInt(40)
      val k = 1 + rnd.nextInt(3)
      val small = randomSet(rnd, m, rnd.nextInt(m / 2))
      val extras = (0 until m).filterNot(small.contains(_))
      if (extras.length >= 2) {
        val shuffled = rnd.shuffle(extras.toList)
        val x = shuffled.head           // element to grow the set with
        val e = shuffled.tail.head      // element whose marginal we compare
        val big = small :+ x
        val gSmall = Quality.qualityOf(m, small :+ e, k) - Quality.qualityOf(m, small, k)
        val gBig   = Quality.qualityOf(m, big :+ e, k)   - Quality.qualityOf(m, big, k)
        assert(gBig <= gSmall + 1e-9,
          s"m=$m k=$k small=$small x=$x e=$e: gain grew $gSmall -> $gBig")
      }
    }
  }

  test("error ratio is non-increasing in the executed set (Eq 12)") {
    val rnd = new Random(13)
    for (_ <- 0 until 100) {
      val m = 10 + rnd.nextInt(40)
      val k = 1 + rnd.nextInt(3)
      val base = randomSet(rnd, m, 1 + rnd.nextInt(m - 2))
      val s0 = new ExecutedSet(m); base.foreach(s0.add)
      val free = (0 until m).filterNot(base.contains(_))
      if (free.nonEmpty) {
        val e = free(rnd.nextInt(free.length))
        val s1 = new ExecutedSet(m); (base :+ e).foreach(s1.add)
        for (j <- 0 until m if !s1.contains(j)) {
          val r0 = Quality.errRatio(j, s0.knn(j, k), k, m)
          val r1 = Quality.errRatio(j, s1.knn(j, k), k, m)
          assert(r1 <= r0 + 1e-12, s"slot $j: rho grew $r0 -> $r1")
        }
      }
    }
  }

  test("QualityState.insert tracks full recomputation") {
    val rnd = new Random(14)
    for (_ <- 0 until 50) {
      val m = 10 + rnd.nextInt(60)
      val k = 1 + rnd.nextInt(4)
      val st = new QualityState(m, k)
      val order = rnd.shuffle((0 until m).toList).take(1 + rnd.nextInt(m))
      order.foreach { t =>
        st.insert(t)
        assert(math.abs(st.quality - st.recomputeFromScratch()) < 1e-9,
          s"m=$m k=$k after inserting up to $t")
      }
    }
  }

  test("QualityState.deltaQ is bit-identical to the naive full-scan marginal") {
    val rnd = new Random(15)
    for (_ <- 0 until 60) {
      val m = 10 + rnd.nextInt(50)
      val k = 1 + rnd.nextInt(4)
      val st = new QualityState(m, k)
      randomSet(rnd, m, rnd.nextInt(m - 1)).foreach(st.insert)
      for (t <- 0 until m if !st.isExecuted(t)) {
        val windowed = st.deltaQ(t)
        val naive = GreedyNaive.deltaQNaive(st.executed, k, t)
        assert(windowed == naive,
          s"m=$m k=$k t=$t: windowed=$windowed naive=$naive")
      }
    }
  }

  /** The window rule on fresh `kthDist` walks, with "fewer than k executed"
    * reaching every slot.
    */
  private def walkedWindow(s: ExecutedSet, k: Int, t: Int): (Int, Int) = {
    def reaches(j: Int) = { val d = s.kthDist(j, k); d == Int.MaxValue || math.abs(j - t) < d }
    var lo = t
    while (lo > 0 && reaches(lo - 1)) lo -= 1
    var hi = t
    while (hi < s.m - 1 && reaches(hi + 1)) hi += 1
    (lo, hi)
  }

  /** A commit's dirty range from fresh walks: [lo − Dmax, hi + Dmax] over the
    * walked window, the whole task while any slot in it has fewer than k
    * neighbours.
    */
  private def walkedDirtyRange(s: ExecutedSet, k: Int, t: Int): (Int, Int) = {
    val (lo, hi) = walkedWindow(s, k, t)
    val ds = (lo to hi).map(s.kthDist(_, k))
    if (ds.contains(Int.MaxValue)) (0, s.m - 1)
    else (math.max(0, lo - ds.max), math.min(s.m - 1, hi + ds.max))
  }

  /** The parent's windowed Δq on fresh walks: the ascending sum over the
    * walked window of `finishProb` with and without `t`.
    */
  private def walkedDeltaQ(s: ExecutedSet, k: Int, t: Int): Double = {
    val (lo, hi) = walkedWindow(s, k, t)
    var dq = 0.0
    for (j <- lo to hi) {
      if (j == t) dq += Quality.contribution(1.0 / s.m) - Quality.contribution(Quality.finishProb(t, s, k))
      else if (!s.contains(j))
        dq += Quality.contribution(Quality.finishProb(j, s, k, extra = t)) -
          Quality.contribution(Quality.finishProb(j, s, k))
    }
    dq
  }

  /** Inserts `order` into a fresh state; before every insert (and after the
    * last), checks every free slot's Δq and window against the uncached
    * walks, and Δq against the naive full scan for the free slots with
    * `(t + step) % naiveEvery == 0`; after every insert, checks the dirty
    * range it reports against the walk made before it.
    */
  private def checkHistory(m: Int, k: Int, order: Seq[Int], label: String,
                           naiveEvery: Int = 1): Unit = {
    val st = new QualityState(m, k)
    def check(step: Int): Unit =
      for (t <- 0 until m if !st.isExecuted(t)) {
        def at = s"$label m=$m k=$k step=$step t=$t"
        val got = java.lang.Double.doubleToRawLongBits(st.deltaQ(t))
        val walked = java.lang.Double.doubleToRawLongBits(walkedDeltaQ(st.executed, k, t))
        if (got != walked) fail(s"$at: deltaQ differs from the walked window sum")
        if ((t + step) % naiveEvery == 0 &&
            got != java.lang.Double.doubleToRawLongBits(GreedyNaive.deltaQNaive(st.executed, k, t)))
          fail(s"$at: deltaQ differs from the naive marginal")
        if (st.window(t) != walkedWindow(st.executed, k, t)) fail(s"$at: window")
      }
    order.zipWithIndex.foreach { case (t, step) =>
      check(step)
      val dirty = walkedDirtyRange(st.executed, k, t)
      st.insert(t)
      if ((st.dirtyLo, st.dirtyHi) != dirty) fail(s"$label m=$m k=$k step=$step t=$t: dirty range")
    }
    check(order.length)
  }

  test("QualityState caches stay exact along whole insert histories") {
    val rnd = new Random(19)
    // Random orders, run to one free slot left (the empty set is step 0).
    for (_ <- 0 until 40) {
      val m = 1 + rnd.nextInt(40)
      val k = 1 + rnd.nextInt(5)
      checkHistory(m, k, rnd.shuffle((0 until m).toList).take(math.max(0, m - 1)), "random")
    }
    // m < k, k = 1 and k = m, over whole orders.
    for ((m, k) <- Seq((2, 3), (1, 2), (30, 1), (12, 12), (25, 25))) {
      checkHistory(m, k, rnd.shuffle((0 until m).toList), "edge")
    }
    // Evenly spaced sets first: every free slot between two is equidistant.
    for ((m, k, gap) <- Seq((41, 1, 4), (41, 2, 4), (40, 3, 5), (37, 4, 6))) {
      val spaced = (0 until m by gap).toList
      checkHistory(m, k, spaced ++ rnd.shuffle((0 until m).filterNot(spaced.contains).toList), "spaced")
    }
  }

  test("QualityState caches stay exact along Approx*'s commit order at m = 1000") {
    val m = 1000
    val inst = TcscGen.scenario(1, m, 2000, TcscGen.Uniform, 11).instances.head
    val order = GreedyIndexed.run(inst, inst.fullCost * 0.25, TcscParams()).result.executedSlots
    assert(order.size > 50)
    // The naive marginal costs m finishing probabilities per slot, so at this
    // size it checks one free slot in eight per step, a different eighth each step.
    checkHistory(m, TcscParams().k, order, "approx*", naiveEvery = 8)
  }

  test("deltaQ equals the realized insert gain") {
    val rnd = new Random(16)
    for (_ <- 0 until 60) {
      val m = 10 + rnd.nextInt(40)
      val k = 1 + rnd.nextInt(3)
      val st = new QualityState(m, k)
      randomSet(rnd, m, rnd.nextInt(m - 1)).foreach(st.insert)
      val free = (0 until m).filterNot(st.isExecuted)
      if (free.nonEmpty) {
        val t = free(rnd.nextInt(free.length))
        val predicted = st.deltaQ(t)
        val before = st.quality
        st.insert(t)
        assert(math.abs((st.quality - before) - predicted) < 1e-9)
      }
    }
  }

  test("window contains every slot whose contribution changes") {
    val rnd = new Random(17)
    for (_ <- 0 until 60) {
      val m = 10 + rnd.nextInt(40)
      val k = 1 + rnd.nextInt(3)
      val st = new QualityState(m, k)
      randomSet(rnd, m, rnd.nextInt(m - 1)).foreach(st.insert)
      val free = (0 until m).filterNot(st.isExecuted)
      if (free.nonEmpty) {
        val t = free(rnd.nextInt(free.length))
        val (lo, hi) = st.window(t)
        val before = (0 until m).map(st.contributionOf)
        st.insert(t)
        for (j <- 0 until m if j < lo || j > hi) {
          assert(st.contributionOf(j) == before(j),
            s"slot $j outside window [$lo,$hi] changed on insert of $t")
        }
      }
    }
  }

  test("singleton qualities match the generic metric for all slots") {
    for (m <- Seq(5, 17, 40, 101); k <- Seq(1, 2, 3, 5)) {
      val singles = Singletons.qualities(m, k)
      for (t <- 0 until m) {
        val expected = Quality.qualityOf(m, Seq(t), k)
        assert(math.abs(singles(t) - expected) < 1e-9, s"m=$m k=$k t=$t")
      }
    }
  }

  test("quality is symmetric under timeline reversal") {
    val rnd = new Random(18)
    for (_ <- 0 until 40) {
      val m = 8 + rnd.nextInt(30)
      val k = 1 + rnd.nextInt(3)
      val s = randomSet(rnd, m, 1 + rnd.nextInt(m - 1))
      val mirrored = s.map(m - 1 - _)
      assert(math.abs(Quality.qualityOf(m, s, k) - Quality.qualityOf(m, mirrored, k)) < 1e-9)
    }
  }
}
