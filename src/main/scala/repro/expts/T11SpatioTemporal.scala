package repro.expts

import repro.core._
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
  * tiny instance (|T| = 2, m = 6): `ExactOpt.best` enumerates the joint
  * solution space and scores each subset under the combined metric.
  */
object T11SpatioTemporal {
  val DefaultWs = 0.3
  val DefaultWt = 0.7

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
      cells += Cell("Fig11opt:tiny", "T=2,m=6", "OPT",
        ExactOpt.best(insts, b)(SpatioTemporal.scoreUnder(tasks, _, k, DefaultWs, DefaultWt))._1)
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
