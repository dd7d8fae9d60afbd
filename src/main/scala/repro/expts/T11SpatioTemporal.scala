package repro.expts

import repro.core._
import repro.core.multi.Ledger
import repro.core.st.SpatioTemporal
import repro.data.TcscGen
import Harness.Cell

/** T11 ≡ Fig 11 — the spatiotemporal interpolation extension.
  *
  * (a) quality by task distribution and (b) by budget, for SApprox (combined
  * interpolation, w_s = 0.3 / w_t = 0.7), Approx (temporal-only: SApprox at
  * w_s = 0 / w_t = 1) and Rand — all plans *scored* under the combined
  * metric so they are comparable;
  * (c) quality of SApprox across w_t; (opt) an exact-OPT comparison on a
  * tiny instance (|T| = 2, m = 6), since OPT enumerates the joint solution
  * space.
  */
object T11SpatioTemporal {
  val DefaultWs = 0.3
  val DefaultWt = 0.7

  /** Exact OPT for the tiny ST instance: enumerate subsets of (task, slot)
    * pairs; costs follow a fixed (task, slot)-ascending worker-claim order.
    */
  private def optSt(insts: IndexedSeq[TaskInstance], budget: Double, k: Int,
                    ws: Double, wt: Double): Double = {
    val pairs = (for (i <- insts.indices; j <- 0 until insts(i).m) yield (i, j)).toVector
    require(pairs.size <= 16, "ST OPT limited to 16 subtask pairs")
    var best = 0.0
    var mask = 1
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
        val q = SpatioTemporal.scoreUnder(insts.map(_.task), ledger.executions, k, ws, wt)
        if (q > best) best = q
      }
      mask += 1
    }
    best
  }

  def run(nTasks: Int = 15, m: Int = 40, nWorkers: Int = 400, seed: Long = 19,
          params: TcscParams = TcscParams()): Seq[Cell] = {
    val cells = Vector.newBuilder[Cell]
    val k = params.k

    def measure(dist: TcscGen.Dist, frac: Double, section: String, x: String): Unit = {
      val sc = TcscGen.scenario(nTasks, m, nWorkers, dist, seed)
      val insts = sc.instances
      val b = TcscGen.budgetFor(insts, frac)
      val tasks = insts.map(_.task).toIndexedSeq
      val (sRes, _) = SpatioTemporal.sApprox(insts, b, k, DefaultWs, DefaultWt)
      val (tRes, _) = SpatioTemporal.sApprox(insts, b, k, 0.0, 1.0)
      val rQ = (0 until 5).map { s =>
        SpatioTemporal.scoreUnder(tasks, RandomBaseline.multi(insts, b, params, seed + 100 + s).executions,
          k, DefaultWs, DefaultWt)
      }.sum / 5
      cells += Cell(section, x, "SApprox",
        SpatioTemporal.scoreUnder(tasks, sRes.executions, k, DefaultWs, DefaultWt))
      cells += Cell(section, x, "Approx",
        SpatioTemporal.scoreUnder(tasks, tRes.executions, k, DefaultWs, DefaultWt))
      cells += Cell(section, x, "Rand", rQ)
    }

    TcscGen.AllDists.foreach(d => measure(d, 0.25, "Fig11a:distribution", d.name))
    Seq(0.125, 0.25, 0.5).foreach(b => measure(TcscGen.Uniform, b, "Fig11b:budget", f"$b%.3f"))

    // (c) w_t sweep: SApprox optimizes and is scored at each (w_s, w_t).
    locally {
      val sc = TcscGen.scenario(nTasks, m, nWorkers, TcscGen.Uniform, seed)
      val b = TcscGen.budgetFor(sc.instances, 0.25)
      val tasks = sc.instances.map(_.task).toIndexedSeq
      for (wt <- Seq(0.1, 0.3, 0.5, 0.7, 0.9)) {
        val (res, _) = SpatioTemporal.sApprox(sc.instances, b, k, 1.0 - wt, wt)
        cells += Cell("Fig11c:wt_sweep", f"$wt%.1f", "SApprox",
          SpatioTemporal.scoreUnder(tasks, res.executions, k, 1.0 - wt, wt))
      }
    }

    // (opt) tiny instance with exact OPT.
    locally {
      val sc = TcscGen.scenario(2, 6, 60, TcscGen.Uniform, seed)
      val insts = sc.instances.toIndexedSeq
      val b = TcscGen.budgetFor(insts, 0.25)
      val tasks = insts.map(_.task)
      val (sRes, _) = SpatioTemporal.sApprox(insts, b, k, DefaultWs, DefaultWt)
      val (tRes, _) = SpatioTemporal.sApprox(insts, b, k, 0.0, 1.0)
      cells += Cell("Fig11opt:tiny", "T=2,m=6", "OPT", optSt(insts, b, k, DefaultWs, DefaultWt))
      cells += Cell("Fig11opt:tiny", "T=2,m=6", "SApprox",
        SpatioTemporal.scoreUnder(tasks, sRes.executions, k, DefaultWs, DefaultWt))
      cells += Cell("Fig11opt:tiny", "T=2,m=6", "Approx",
        SpatioTemporal.scoreUnder(tasks, tRes.executions, k, DefaultWs, DefaultWt))
    }

    cells.result()
  }

  def render(cells: Seq[Cell]): Seq[String] =
    Harness.printTable("T11 (Fig 11): spatiotemporal interpolation quality",
      Seq("section", "x", "series", "value"),
      cells.map(c => Harness.row(c.section, c.x, c.series, c.value)))
}
