package repro.core

import repro.core.multi.Ledger

/** OPT — exact solver by exhaustive subset enumeration.
  *
  * The paper's OPT "offers the optimal result by traversing the solution
  * space"; it is exponential (sQM is NP-hard, Lemma 3), so like the paper we
  * only run it on small instances (at most `MaxPairs` subtasks in all).
  */
object ExactOpt {
  val MaxPairs = 20

  /** The best `score` over every subset of the (task, slot) pairs of
    * `insts`, with that subset's executions. Each subset is booked through
    * a fresh `Ledger` in (task, slot)-ascending order and dropped once a
    * pair is unaffordable. A pair's cost therefore follows that one fixed
    * claim order over shared workers, so with several tasks the result is
    * not an upper bound on a greedy plan (SApprox may claim in a cheaper
    * order). Ties go to the subset enumerated first, the empty one first.
    */
  def best(insts: IndexedSeq[TaskInstance], budget: Double)(
      score: Vector[Execution] => Double): (Double, Vector[Execution]) = {
    val pairs = for (i <- insts.indices; j <- 0 until insts(i).m) yield (i, j)
    require(pairs.size <= MaxPairs, s"ExactOpt limited to $MaxPairs (task, slot) pairs (got ${pairs.size})")
    var bestScore = Double.NegativeInfinity
    var bestExecs = Vector.empty[Execution]
    var mask = 0
    while (mask < (1 << pairs.size)) {
      val ledger = new Ledger(insts, budget)
      var ok = true
      var b = 0
      while (b < pairs.size && ok) {
        if ((mask & (1 << b)) != 0) {
          val (i, j) = pairs(b)
          ok = ledger.affordable(i, j)
          if (ok) ledger.book(i, j)
        }
        b += 1
      }
      if (ok) {
        val es = ledger.executions
        val q = score(es)
        if (q > bestScore) { bestScore = q; bestExecs = es }
      }
      mask += 1
    }
    (bestScore, bestExecs)
  }

  /** Single-task OPT: `best` on `inst` alone, scored by its quality. */
  def run(inst: TaskInstance, budget: Double, params: TcscParams): AssignmentResult = {
    val (q, execs) = best(Vector(inst), budget)(es => Quality.qualityOf(inst.m, es.map(_.slot), params.k))
    AssignmentResult(execs.map(_.slot), execs.map(_.cost).sum, q)
  }
}
