package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.TcscGen

/** Approx* bookkeeping: stats, tree maintenance, edge cases. */
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
    val big = GreedyIndexed.run(i, i.fullCost * 0.25, TcscParams(ts = 2))
    val small = GreedyIndexed.run(i, i.fullCost * 0.25, TcscParams(ts = 16))
    assert(big.treeNodeCount > small.treeNodeCount)
    assert(big.stats.treeNanos > 0)
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
