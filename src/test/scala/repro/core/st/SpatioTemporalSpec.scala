package repro.core.st

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.TcscGen
import scala.util.Random

/** Spatiotemporal interpolation extension (Eq 13–15). */
class SpatioTemporalSpec extends AnyFunSuite {

  private def tasks(n: Int, m: Int, seed: Long): IndexedSeq[Task] = {
    val rnd = new Random(seed)
    IndexedSeq.tabulate(n)(i => Task(i, rnd.nextDouble(), rnd.nextDouble(), m))
  }

  test("empty state has quality 0") {
    val st = new StState(tasks(3, 10, 1), 3, 0.3, 0.7)
    assert(st.quality == 0.0)
    assert(st.recomputeFromScratch() == 0.0)
  }

  test("weights must sum to one") {
    intercept[IllegalArgumentException](new StState(tasks(2, 5, 1), 3, 0.5, 0.7))
  }

  test("insert maintains quality equal to full recomputation") {
    val rnd = new Random(2)
    for (_ <- 0 until 20) {
      val n = 2 + rnd.nextInt(4)
      val m = 6 + rnd.nextInt(15)
      val st = new StState(tasks(n, m, rnd.nextLong()), 2, 0.3, 0.7)
      for (_ <- 0 until 1 + rnd.nextInt(n * m / 2)) {
        val i = rnd.nextInt(n); val j = rnd.nextInt(m)
        if (!st.isExecuted(i, j)) st.insert(i, j)
        assert(math.abs(st.quality - st.recomputeFromScratch()) < 1e-9)
      }
    }
  }

  test("deltaQ equals the realized insert gain") {
    val rnd = new Random(3)
    for (_ <- 0 until 20) {
      val n = 2 + rnd.nextInt(3)
      val m = 6 + rnd.nextInt(10)
      val st = new StState(tasks(n, m, rnd.nextLong()), 2, 0.4, 0.6)
      for (_ <- 0 until 5) {
        val i = rnd.nextInt(n); val j = rnd.nextInt(m)
        if (!st.isExecuted(i, j)) {
          val predicted = st.deltaQ(i, j)
          val before = st.quality
          st.insert(i, j)
          assert(math.abs((st.quality - before) - predicted) < 1e-9)
        }
      }
    }
  }

  test("w_t = 1 on a single task degenerates to the temporal metric") {
    val rnd = new Random(4)
    val m = 20
    val st = new StState(tasks(1, m, 5), 3, 0.0, 1.0)
    val slots = rnd.shuffle((0 until m).toList).take(7)
    slots.foreach(st.insert(0, _))
    val expected = Quality.qualityOf(m, slots, 3)
    assert(math.abs(st.quality - expected) < 1e-9)
  }

  test("spatial interpolation adds quality for co-located tasks") {
    // Two identical-location tasks; executing a slot of task 0 should raise
    // task 1's probability at the same slot under w_s > 0.
    val ts = IndexedSeq(Task(0, 0.5, 0.5, 10), Task(1, 0.5, 0.5, 10))
    val st = new StState(ts, 2, 0.5, 0.5)
    val pBefore = st.prob(1, 4)
    st.insert(0, 4)
    val pAfter = st.prob(1, 4)
    assert(pAfter > pBefore, s"$pBefore -> $pAfter")
  }

  test("spatially distant executions help less than near ones") {
    val near = new StState(IndexedSeq(Task(0, 0.5, 0.5, 8), Task(1, 0.51, 0.5, 8)), 2, 0.5, 0.5)
    val far  = new StState(IndexedSeq(Task(0, 0.5, 0.5, 8), Task(1, 0.99, 0.99, 8)), 2, 0.5, 0.5)
    near.insert(0, 3); far.insert(0, 3)
    assert(near.prob(1, 3) > far.prob(1, 3))
  }

  test("monotone: any execution never lowers total quality") {
    val rnd = new Random(6)
    val st = new StState(tasks(3, 12, 7), 2, 0.3, 0.7)
    var last = 0.0
    for (_ <- 0 until 15) {
      val i = rnd.nextInt(3); val j = rnd.nextInt(12)
      if (!st.isExecuted(i, j)) {
        st.insert(i, j)
        assert(st.quality >= last - 1e-12)
        last = st.quality
      }
    }
  }

  test("SApprox respects the budget") {
    val sc = TcscGen.scenario(6, 20, 150, TcscGen.Uniform, 8)
    val b = TcscGen.budgetFor(sc.instances, 0.25)
    val (res, _) = SpatioTemporal.sApprox(sc.instances, b, 3, 0.3, 0.7)
    assert(res.totalCost <= b + 1e-9)
  }

  test("SApprox beats temporal-only Approx under the combined score") {
    val sc = TcscGen.scenario(8, 24, 200, TcscGen.Uniform, 9)
    val b = TcscGen.budgetFor(sc.instances, 0.25)
    val tasksIdx = sc.instances.map(_.task).toIndexedSeq
    val (sRes, _) = SpatioTemporal.sApprox(sc.instances, b, 3, 0.3, 0.7)
    val (tRes, _) = SpatioTemporal.sApprox(sc.instances, b, 3, 0.0, 1.0)
    val sQ = SpatioTemporal.scoreUnder(tasksIdx, sRes.executions, 3, 0.3, 0.7)
    val tQ = SpatioTemporal.scoreUnder(tasksIdx, tRes.executions, 3, 0.3, 0.7)
    assert(sQ >= tQ - 1e-9, s"SApprox $sQ < Approx $tQ")
  }

  test("scoreUnder of an empty plan is 0") {
    assert(SpatioTemporal.scoreUnder(tasks(3, 10, 10), Nil, 3, 0.3, 0.7) == 0.0)
  }

  test("tasks of two horizons are rejected in either order") {
    def inst(id: Int, m: Int) = TaskInstance(Task(id, 0.1 * id, 0.5, m),
      Array.tabulate(m)(j => SlotCandidates(Array(id * 100 + j), Array(1.0))))
    for (ms <- Seq(Seq(20, 30), Seq(30, 20))) {
      val insts = ms.zipWithIndex.map { case (m, i) => inst(i, m) }
      val viaSApprox = intercept[IllegalArgumentException](
        SpatioTemporal.sApprox(insts, 100.0, 3, 0.3, 0.7))
      val viaScore = intercept[IllegalArgumentException](
        SpatioTemporal.scoreUnder(insts.map(_.task).toIndexedSeq, Nil, 3, 0.3, 0.7))
      for (e <- Seq(viaSApprox, viaScore))
        assert(e.getMessage.contains("20, 30"), s"m = $ms: ${e.getMessage}")
    }
  }

  test("a repeated insert changes nothing") {
    // Listing task 0 at slot 4 twice would make task 1's spatial k-NN at
    // slot 4 count that neighbour twice.
    val ts = IndexedSeq(Task(0, 0.2, 0.2, 10), Task(1, 0.25, 0.2, 10), Task(2, 0.8, 0.8, 10))
    val once = SpatioTemporal.scoreUnder(ts, Seq(Execution(0, 4, 7, 1.0)), 3, 0.3, 0.7)
    val twice = SpatioTemporal.scoreUnder(ts, Seq.fill(2)(Execution(0, 4, 7, 1.0)), 3, 0.3, 0.7)
    assert(twice == once)
    val st = new StState(ts, 3, 0.3, 0.7)
    st.insert(0, 4)
    val p = (0 until 3).map(st.prob(_, 4))
    st.insert(0, 4)
    assert((0 until 3).map(st.prob(_, 4)) == p)
    assert(st.quality == once && math.abs(st.quality - st.recomputeFromScratch()) < 1e-9)
  }

  test("rhoTemporal equals Eq 3 over the k-NN list, bit for bit") {
    val rnd = new Random(12)
    for (_ <- 0 until 20) {
      val m = 1 + rnd.nextInt(20)
      val k = 1 + rnd.nextInt(5)
      val st = new StState(tasks(1, m, rnd.nextLong()), k, 0.0, 1.0)
      val es = new ExecutedSet(m)
      for (j <- rnd.shuffle((0 until m).toList).take(rnd.nextInt(m + 1))) { st.insert(0, j); es.add(j) }
      for (j <- 0 until m; extra <- -1 until m)
        assert(st.rhoTemporal(0, j, extra) == Quality.errRatio(j, es.knn(j, k, extra), k, m),
          s"m=$m k=$k j=$j extra=$extra")
    }
  }

  test("SApprox reports its commits, Δq calls and per-task results in commit order") {
    val sc = TcscGen.scenario(6, 20, 150, TcscGen.Uniform, 8)
    val insts = sc.instances
    val b = TcscGen.budgetFor(insts, 0.25)
    val (out, st) = SpatioTemporal.sApprox(insts, b, 3, 0.3, 0.7)
    assert(out.commits == out.executions.size && out.executions.nonEmpty)
    // every step scans each unbooked affordable subtask once; the last scan finds none
    assert(out.evals > out.commits)
    assert(out.perTask.map(_.quality) == insts.indices.map(st.qualityOfTask))
    insts.zip(out.perTask).foreach { case (inst, r) =>
      val es = out.executions.filter(_.taskId == inst.task.id)
      assert(r.executedSlots == es.map(_.slot) && r.totalCost == es.map(_.cost).sum)
    }
  }

  test("qualityOfTask sums to total quality") {
    val st = new StState(tasks(3, 10, 11), 2, 0.3, 0.7)
    st.insert(0, 2); st.insert(1, 5); st.insert(2, 8); st.insert(0, 7)
    val total = (0 until 3).map(st.qualityOfTask).sum
    assert(math.abs(total - st.quality) < 1e-9)
  }
}
