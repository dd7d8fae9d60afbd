package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.TcscGen

/** Approx* bookkeeping: stats, the replayed tree, edge cases. */
class GreedyIndexedStatsSpec extends AnyFunSuite {
  private val params = TcscParams()

  private def inst(m: Int, seed: Long): TaskInstance =
    TcscGen.scenario(1, m, 400, TcscGen.Uniform, seed).instances.head

  test("zero budget yields empty plan and zero stats") {
    val out = GreedyIndexed.run(inst(30, 1), 0.0, params)
    assert(out.result.executedSlots.isEmpty)
    assert(out.stats.iterations == 0)
  }

  test("iterations equal executed slots for the greedy branch") {
    val i = inst(60, 2)
    val out = GreedyIndexed.run(i, i.fullCost * 0.25, params)
    assert(out.stats.iterations == out.result.executedSlots.size)
  }

  test("tree is maintained and sized by t_s") {
    val i = inst(120, 3)
    val out = GreedyIndexed.run(i, i.fullCost * 0.25, params)
    // Approx* itself builds no tree; the replay of its commit order does.
    assert(out.treeNodeCount == 0 && out.stats.treeNanos == 0L)
    val order = out.result.executedSlots
    assert(order.size > 10)
    val (big, bigNanos) = QualityTree.replay(i.m, params.k, 2, order)
    val (small, _) = QualityTree.replay(i.m, params.k, 16, order)
    assert(big.nodeCount > small.nodeCount)
    assert(bigNanos > 0)
    assert(big.executedSet.toVector == order.sorted)
    assert(math.abs(big.quality - out.result.quality) < 1e-9)
    assert(math.abs(big.quality - big.recomputeFromScratch()) < 1e-9)
  }

  test("Approx* counters are pinned on three seeded instances") {
    // (m, |W|, distribution, seed, budget fraction, k) → (iterations,
    // candidate evaluations, slots visited), measured on the first task.
    val pinned = Seq(
      ((300, 1000, TcscGen.Uniform, 1L, 0.25, 3), (119, 1998L, 102513L)),
      ((1000, 2000, TcscGen.Uniform, 11L, 0.25, 3), (416, 7575L, 842850L)),
      ((200, 800, TcscGen.Zipf, 7L, 0.5, 2), (142, 1179L, 38750L)))
    for (((m, nW, dist, seed, frac, k), (it, evals, visited)) <- pinned) {
      val i = TcscGen.scenario(2, m, nW, dist, seed).instances.head
      val s = GreedyIndexed.run(i, i.fullCost * frac, TcscParams(k = k)).stats
      assert((s.iterations, s.candidateEvaluations, s.slotsVisited) == ((it, evals, visited)),
        s"m=$m seed=$seed")
    }
  }

  test("a warmed Approx* run at m = 1000 allocates under 768 KiB") {
    val threads = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    assume(threads.isThreadAllocatedMemorySupported)
    threads.setThreadAllocatedMemoryEnabled(true)
    val i = TcscGen.scenario(1, 1000, 2000, TcscGen.Uniform, 11).instances.head
    val b = i.fullCost * 0.25
    for (_ <- 0 until 30) GreedyIndexed.run(i, b, params) // warm-up: class loading and JIT
    val id = Thread.currentThread.getId
    val before = threads.getThreadAllocatedBytes(id)
    val out = GreedyIndexed.run(i, b, params)
    val allocated = threads.getThreadAllocatedBytes(id) - before
    assert(out.stats.iterations > 300)
    assert(allocated < 768 * 1024, s"$allocated bytes allocated by one run")
  }

  test("candidate evaluations stay well below the naive count") {
    val i = inst(150, 5)
    val b = i.fullCost * 0.25
    val star = GreedyIndexed.run(i, b, params)
    val it = star.stats.iterations.toLong
    val naiveEquiv = (0L until it).map(150L - _).sum
    assert(star.stats.candidateEvaluations < naiveEquiv,
      s"${star.stats.candidateEvaluations} !< $naiveEquiv")
  }

  test("deterministic: identical runs give identical plans and stats") {
    val i = inst(70, 6)
    val b = i.fullCost * 0.3
    val a = GreedyIndexed.run(i, b, params)
    val c = GreedyIndexed.run(i, b, params)
    assert(a.result == c.result)
    assert(a.stats.candidateEvaluations == c.stats.candidateEvaluations)
  }

  test("all slots executable with huge budget") {
    val i = inst(40, 7)
    val out = GreedyIndexed.run(i, i.fullCost + 1.0, params)
    val executable = (0 until 40).count(j => i.slots(j).nonEmpty)
    assert(out.result.executedSlots.size == executable)
  }
}
