package repro.core

import repro.core.multi.{Ledger, MultiOutcome}
import scala.util.Random

/** Rand — the paper's randomized baseline: repeatedly pick a random
  * unexecuted subtask that still fits the budget and assign it to its
  * nearest worker, until no affordable subtask remains.
  */
object RandomBaseline {
  def run(inst: TaskInstance, budget: Double, params: TcscParams,
          seed: Long): AssignmentResult = {
    val m = inst.m
    val rnd = new Random(seed)
    val cost = Array.tabulate(m)(inst.cost)
    val s = new ExecutedSet(m)
    val order = Vector.newBuilder[Int]
    var spent = 0.0
    var candidates = (0 until m).filter(j => cost(j) <= budget).toBuffer
    while (candidates.nonEmpty) {
      // Every candidate fits: those that no longer did were dropped below.
      val t = candidates.remove(rnd.nextInt(candidates.length))
      s.add(t)
      order += t
      spent += cost(t)
      candidates = candidates.filter(j => spent + cost(j) <= budget)
    }
    AssignmentResult(order.result(), spent, Quality.quality(s, params.k))
  }

  /** Multi-task Rand: random (task, slot) picks booked with their cheapest
    * still-free worker whenever that fits the global budget, until every
    * pick has been drawn. Each booking is one commit; Rand evaluates no Δq.
    */
  def multi(instances: Seq[TaskInstance], budget: Double, params: TcscParams,
            seed: Long): MultiOutcome = {
    val insts = instances.toIndexedSeq
    val rnd = new Random(seed)
    val ledger = new Ledger(insts, budget)
    val picks = (for (i <- insts.indices; j <- 0 until insts(i).m) yield (i, j)).toBuffer
    while (picks.nonEmpty) {
      val (i, j) = picks.remove(rnd.nextInt(picks.length))
      if (ledger.affordable(i, j)) ledger.book(i, j)
    }
    ledger.outcome(evals = 0L)((i, slots) => Quality.qualityOf(insts(i).m, slots, params.k))
  }

  /** Mean quality over 20 runs, as the paper averages, at seeds 42–61. */
  def meanQuality(inst: TaskInstance, budget: Double, params: TcscParams): Double = {
    val runs = 20
    var sum = 0.0
    var i = 0
    while (i < runs) { sum += run(inst, budget, params, 42L + i).quality; i += 1 }
    sum / runs
  }
}
