package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.TcscGen
import scala.util.Random

/** Tests for Algorithm 1 (Approx), its indexed variant (Approx*), OPT and
  * Rand — including the paper's approximation guarantee and the exact
  * equivalence of the two greedy variants.
  */
class GreedySpec extends AnyFunSuite {
  private val params = TcscParams()

  /** Instance with one dedicated worker per slot at the given distances. */
  private def instOf(costs: Seq[Double]): TaskInstance = {
    val m = costs.length
    TaskInstance(Task(0, 0.5, 0.5, m),
      costs.zipWithIndex.map { case (c, i) =>
        SlotCandidates(Array(i), Array(c))
      }.toArray)
  }

  private def uniformInst(m: Int, seed: Long, nW: Int = 300): TaskInstance =
    TcscGen.scenario(1, m, nW, TcscGen.Uniform, seed).instances.head

  test("zero budget executes nothing") {
    val out = GreedyNaive.run(instOf(Seq.fill(10)(1.0)), 0.0, params)
    assert(out.result.executedSlots.isEmpty && out.result.quality == 0.0)
  }

  test("budget for one slot executes exactly one") {
    val out = GreedyNaive.run(instOf(Seq.fill(10)(1.0)), 1.0, params)
    assert(out.result.executedSlots.size == 1)
  }

  test("unit costs and full budget execute everything") {
    val m = 12
    val out = GreedyNaive.run(instOf(Seq.fill(m)(1.0)), m.toDouble, params)
    assert(out.result.executedSlots.size == m)
    assert(math.abs(out.result.quality - Quality.log2(m)) < 1e-9)
  }

  test("budget constraint is never violated") {
    val rnd = new Random(31)
    for (_ <- 0 until 20) {
      val inst = uniformInst(30, rnd.nextLong())
      val b = inst.fullCost * 0.3
      val out = GreedyNaive.run(inst, b, params)
      assert(out.result.totalCost <= b + 1e-9)
    }
  }

  test("reported quality equals recomputed quality of the executed set") {
    val inst = uniformInst(40, 99)
    val out = GreedyNaive.run(inst, inst.fullCost * 0.25, params)
    val q = Quality.qualityOf(40, out.result.executedSlots, params.k)
    assert(math.abs(out.result.quality - q) < 1e-9)
  }

  test("slots with no available worker are never selected") {
    val m = 10
    val slots = Array.tabulate(m) { i =>
      if (i % 2 == 0) SlotCandidates(Array.empty[Int], Array.empty[Double])
      else SlotCandidates(Array(i), Array(1.0))
    }
    val out = GreedyNaive.run(TaskInstance(Task(0, 0.5, 0.5, m), slots), 100.0, params)
    assert(out.result.executedSlots.forall(_ % 2 == 1))
  }

  test("Approx* produces the identical plan to Approx (many seeds)") {
    val rnd = new Random(32)
    for (i <- 0 until 25) {
      val m = 20 + rnd.nextInt(60)
      val inst = uniformInst(m, 1000 + i)
      for (frac <- Seq(0.1, 0.25, 0.5)) {
        val b = inst.fullCost * frac
        val naive = GreedyNaive.run(inst, b, params)
        val star = GreedyIndexed.run(inst, b, params)
        assert(star.result.executedSlots == naive.result.executedSlots,
          s"m=$m frac=$frac seed=${1000 + i}")
        assert(math.abs(star.result.quality - naive.result.quality) < 1e-12)
        assert(math.abs(star.result.totalCost - naive.result.totalCost) < 1e-12)
      }
    }
  }

  test("Approx* equals Approx where many h values tie exactly") {
    // At a constant cost h is Δq / c and q is symmetric about the middle
    // slot, so slots j and m - 1 - j tie from the first step on; at zero
    // cost every h goes through the 1e-12 floor and the whole task executes.
    for (m <- Seq(7, 20, 61); k <- Seq(1, 3); c <- Seq(0.0, 1.0, 2.5)) {
      val inst = instOf(Seq.fill(m)(c))
      val p = TcscParams(k = k)
      for (b <- Seq(0.0, c * m / 4, c * m / 2)) {
        val naive = GreedyNaive.run(inst, b, p)
        val star = GreedyIndexed.run(inst, b, p)
        assert(star.result.executedSlots == naive.result.executedSlots, s"m=$m k=$k c=$c b=$b")
        assert(star.result.totalCost == naive.result.totalCost)
        if (c == 0.0) assert(star.result.executedSlots.size == m, s"m=$m k=$k")
      }
    }
  }

  test("Approx* at m = 300: same plan as Approx, quality within 1e-12 of a recompute") {
    // Approx* sums per-commit deltas; Approx recomputes q in ascending slot
    // order. The two differ by a few ulps, never by more than 1e-12.
    for (seed <- 4000 until 4020) {
      val inst = uniformInst(300, seed)
      val b = inst.fullCost * 0.25
      val star = GreedyIndexed.run(inst, b, params).result
      val naive = GreedyNaive.run(inst, b, params).result
      assert(star.executedSlots == naive.executedSlots, s"seed=$seed")
      assert(math.abs(star.quality - naive.quality) < 1e-12,
        s"seed=$seed: ${star.quality} vs ${naive.quality}")
    }
  }

  test("Approx* equivalence holds across k and t_s") {
    val rnd = new Random(33)
    for (k <- Seq(1, 2, 4); ts <- Seq(2, 8); i <- 0 until 5) {
      val inst = uniformInst(35, 2000 + i)
      val p = TcscParams(k = k, ts = ts)
      val b = inst.fullCost * 0.25
      assert(GreedyIndexed.run(inst, b, p).result.executedSlots ==
        GreedyNaive.run(inst, b, p).result.executedSlots, s"k=$k ts=$ts i=$i")
      val _ = rnd // keep seed threading explicit
    }
  }

  test("Approx* prunes: fewer candidate evaluations than the naive scan") {
    val inst = uniformInst(200, 77, nW = 800)
    val b = inst.fullCost * 0.25
    val naive = GreedyNaive.run(inst, b, params)
    val star = GreedyIndexed.run(inst, b, params)
    assert(star.stats.candidateEvaluations < naive.stats.candidateEvaluations / 2,
      s"star=${star.stats.candidateEvaluations} naive=${naive.stats.candidateEvaluations}")
  }

  test("greedy achieves the (1 - 1/sqrt(e)) guarantee against OPT") {
    val bound = 1.0 - 1.0 / math.sqrt(math.E)
    val rnd = new Random(34)
    for (i <- 0 until 15) {
      val inst = uniformInst(12, 3000 + i, nW = 150)
      val frac = Seq(0.125, 0.25, 0.5)(rnd.nextInt(3))
      val b = inst.fullCost * frac
      val opt = ExactOpt.run(inst, b, params).quality
      val app = GreedyNaive.run(inst, b, params).result.quality
      assert(app <= opt + 1e-9, "greedy exceeded OPT")
      assert(app >= bound * opt - 1e-9, s"ratio ${app / opt} below $bound (i=$i)")
    }
  }

  test("singleton fallback: when one expensive slot beats many cheap ones") {
    // Slot 5 (centre) gives the best singleton quality; ratio-greedy on the
    // cheap edge slots can be worse — Algorithm 1 line 10 takes the max.
    val inst = instOf(Seq(0.1, 10.0, 10.0, 10.0, 10.0, 1.0, 10.0, 10.0, 10.0, 0.1))
    val out = GreedyNaive.run(inst, 1.0, params)
    val singles = Singletons.qualities(10, params.k)
    assert(out.result.quality >= singles.max - 1e-9 ||
      out.result.quality >= Quality.qualityOf(10, Seq(0, 9), params.k) - 1e-9)
  }

  test("Rand respects the budget and is dominated by Approx on average") {
    val inst = uniformInst(40, 55)
    val b = inst.fullCost * 0.25
    val r = RandomBaseline.run(inst, b, params, seed = 1)
    assert(r.totalCost <= b + 1e-9)
    val randMean = RandomBaseline.meanQuality(inst, b, params)
    val app = GreedyNaive.run(inst, b, params).result.quality
    assert(app >= randMean - 1e-9, s"approx $app < rand mean $randMean")
  }

  test("Rand is deterministic per seed") {
    val inst = uniformInst(30, 66)
    val b = inst.fullCost * 0.25
    assert(RandomBaseline.run(inst, b, params, 7).executedSlots ==
      RandomBaseline.run(inst, b, params, 7).executedSlots)
  }

  test("OPT is monotone in budget") {
    val inst = uniformInst(12, 88, nW = 150)
    val qs = Seq(0.1, 0.25, 0.5, 1.0).map(f =>
      ExactOpt.run(inst, inst.fullCost * f, params).quality)
    assert(qs == qs.sorted, s"OPT not monotone: $qs")
  }

  test("OPT rejects m above the enumeration cap") {
    intercept[IllegalArgumentException] {
      ExactOpt.run(uniformInst(25, 1), 1.0, params)
    }
    // The cap counts (task, slot) pairs over all tasks: 3 tasks of m = 7 are 21.
    val err = intercept[IllegalArgumentException] {
      ExactOpt.best(TcscGen.scenario(3, 7, 60, TcscGen.Uniform, seed = 19).instances, 1.0)(_ => 0.0)
    }
    assert(err.getMessage.contains("got 21"))
  }

  test("greedy quality grows with budget") {
    val inst = uniformInst(50, 101)
    val qs = Seq(0.1, 0.25, 0.5).map(f =>
      GreedyIndexed.run(inst, inst.fullCost * f, params).result.quality)
    assert(qs == qs.sorted, s"quality not monotone in budget: $qs")
  }
}
