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
    * `insts`, with that subset's executions. Each subset is booked in
    * (task, slot)-ascending order and dropped once a pair is unaffordable.
    * A pair's cost therefore follows that one fixed claim order over shared
    * workers, so with several tasks the result is not an upper bound on a
    * greedy plan (SApprox may claim in a cheaper order). Ties go to the
    * smallest mask (bit b for the b-th pair), the empty subset first.
    *
    * The subsets are walked depth first over the pairs in that order on one
    * `Ledger`: a branch books its pair, and `unbook` undoes it on the way
    * back, so each prefix is booked once and an unaffordable pair prunes
    * every subset that extends its prefix.
    */
  def best(insts: IndexedSeq[TaskInstance], budget: Double)(
      score: Vector[Execution] => Double): (Double, Vector[Execution]) = {
    val pairs = for (i <- insts.indices; j <- 0 until insts(i).m) yield (i, j)
    require(pairs.size <= MaxPairs, s"ExactOpt limited to $MaxPairs (task, slot) pairs (got ${pairs.size})")
    val ledger = new Ledger(insts, budget)
    var bestScore = Double.NegativeInfinity
    var bestMask = -1
    var bestExecs = Vector.empty[Execution]
    def visit(b: Int, mask: Int): Unit =
      if (b == pairs.size) {
        val es = ledger.executions
        val q = score(es)
        if (q > bestScore || (q == bestScore && mask < bestMask)) {
          bestScore = q; bestMask = mask; bestExecs = es
        }
      } else {
        visit(b + 1, mask)
        val (i, j) = pairs(b)
        if (ledger.affordable(i, j)) {
          ledger.book(i, j)
          visit(b + 1, mask | 1 << b)
          ledger.unbook()
        }
      }
    visit(0, 0)
    (bestScore, bestExecs)
  }

  /** Single-task OPT: `best` on `inst` alone, scored by its quality. */
  def run(inst: TaskInstance, budget: Double, params: TcscParams): AssignmentResult = {
    val (q, execs) = best(Vector(inst), budget)(es => Quality.qualityOf(inst.m, es.map(_.slot), params.k))
    AssignmentResult(execs.map(_.slot), execs.map(_.cost).sum, q)
  }
}
