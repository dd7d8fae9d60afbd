package repro.core.multi

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import scala.util.Random

/** `Ledger` against `ScanLedger`, the unindexed booking model, on
  * fixed-seed random booking and unbooking sequences; and the ledger's own
  * guards.
  */
class LedgerSpec extends AnyFunSuite {

  /** 1–6 tasks of horizons 1–8, a pool of 1–12 workers whose ids start at
    * 0, near `Int.MaxValue` or near `Int.MinValue`, lists of 0–6 entries
    * drawn with replacement (so a worker can be listed twice at one slot)
    * and ascending costs with ties.
    */
  private def scenario(rnd: Random): IndexedSeq[TaskInstance] = {
    val base = Seq(0, Int.MaxValue - 20, Int.MinValue + 3)(rnd.nextInt(3))
    val nW = 1 + rnd.nextInt(12)
    (0 until 1 + rnd.nextInt(6)).map { t =>
      val m = 1 + rnd.nextInt(8)
      TaskInstance(Task(100 + t, rnd.nextDouble(), rnd.nextDouble(), m), Array.fill(m) {
        val len = if (rnd.nextInt(6) == 0) 0 else 1 + rnd.nextInt(6)
        SlotCandidates(Array.fill(len)(base + rnd.nextInt(nW)), Array.fill(len)(rnd.nextInt(8) * 0.5).sorted)
      })
    }
  }

  test("differential: ranks, costs, affordability, bumps, conflicts and executions equal the scan's") {
    val rnd = new Random(2003)
    var bumps = 0; var unbooks = 0; var twice = 0; var empty = 0
    for (c <- 0 until 60) {
      val insts = scenario(rnd)
      val budget = rnd.nextInt(25) * 0.5
      val ledger = new Ledger(insts, budget)
      val scan = new ScanLedger(insts, budget)
      val cands = for (i <- insts.indices; j <- 0 until insts(i).m) yield (i, j)
      empty += cands.count { case (i, j) => insts(i).slots(j).isEmpty }
      twice += cands.count { case (i, j) => insts(i).slots(j).workers.distinct.length < insts(i).slots(j).workers.length }
      var booked = Set.empty[(Int, Int)]
      var stack = List.empty[(Int, Int)]
      for (s <- 0 until 40) withClue(s"case $c, step $s: ") {
        val open = cands.filter(p => !booked(p) && scan.freeRank(p._1, p._2) >= 0)
        if (stack.nonEmpty && (open.isEmpty || rnd.nextInt(4) == 0)) {
          ledger.unbook(); scan.unbook()
          booked -= stack.head; stack = stack.tail
          unbooks += 1
        } else if (open.nonEmpty) {
          val (i, j) = open(rnd.nextInt(open.size))
          val got = Vector.newBuilder[(Int, Int)]
          val want = Vector.newBuilder[(Int, Int)]
          assert(ledger.book(i, j, (o, r) => got += ((o, r))) == scan.book(i, j, (o, r) => want += ((o, r))))
          assert(got.result() == want.result(), s"bumps of booking ($i, $j)")
          bumps += want.result().size
          booked += ((i, j)); stack = (i, j) :: stack
        }
        for ((i, j) <- cands) {
          assert(ledger.freeRank(i, j) == scan.freeRank(i, j), s"freeRank($i, $j)")
          assert(ledger.cost(i, j) == scan.cost(i, j), s"cost($i, $j)")
          assert(ledger.affordable(i, j) == scan.affordable(i, j), s"affordable($i, $j)")
        }
        val out = ledger.outcome(0L)((_, _) => 0.0)
        assert(out.executions == scan.executions)
        assert(out.conflicts == scan.conflicts && out.commits == stack.size)
        assert(ledger.spent == scan.spent)
      }
    }
    assert(bumps > 0 && unbooks > 0 && twice > 0 && empty > 0,
      s"coverage: $bumps bumps, $unbooks unbooks, $twice lists with a repeat, $empty empty lists")
  }

  test("Ledger rejects booking a slot that is already booked") {
    // Without the check, the second booking would take worker 11 for the
    // same subtask: one subtask, two executions.
    val inst = TaskInstance(Task(0, 0.5, 0.5, 1), Array(SlotCandidates(Array(10, 11), Array(1.0, 2.0))))
    val l = new Ledger(Vector(inst), budget = 10.0)
    val e = l.book(0, 0)
    intercept[IllegalArgumentException](l.book(0, 0))
    assert(l.executions == Vector(e) && l.spent == 1.0 && l.commits == 1)
  }

  test("Ledger.unbook restores the state before the last booking") {
    // Tasks 0 and 1 list workers 10, 11 at slot 0; task 1 also lists 12.
    val insts = Vector(Seq(10, 11), Seq(10, 11, 12)).zipWithIndex.map { case (ws, i) =>
      TaskInstance(Task(i, 0.5, 0.5, 1), Array(SlotCandidates(ws.toArray, ws.map(w => (w - 9).toDouble).toArray)))
    }
    val l = new Ledger(insts, budget = 10.0)
    l.book(0, 0)
    l.book(1, 0)
    assert(l.freeRank(0, 0) == -1 && l.cost(1, 0) == 3.0)
    l.unbook()
    assert(l.freeRank(1, 0) == 1 && l.cost(1, 0) == 2.0 && l.spent == 1.0 && l.commits == 1)
    l.unbook()
    assert(l.freeRank(0, 0) == 0 && l.freeRank(1, 0) == 0 && l.spent == 0.0 && l.executions.isEmpty)
    assert(l.outcome(0L)((_, _) => 0.0).conflicts == 0L)
    intercept[IllegalArgumentException](l.unbook())
    assert(l.book(1, 0) == Execution(1, 0, 10, 1.0), "task 1 books worker 10 again")
  }
}
