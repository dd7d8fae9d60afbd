package repro.expts

import repro.core._
import repro.core.multi.{SerialMulti, TaskParallel}
import repro.data.TcscGen

/** T7 ≡ Fig 7 — quality of multi-task assignment.
  *
  * (a)/(b): summation quality q_sum of Approx (the deterministic greedy
  * framework, task-level parallel variant) vs Rand, across distributions and
  * budgets. (c)/(d): the same comparison for the minimum quality q_min
  * (MMQM). Rand is averaged over 5 seeds.
  */
object T7MultiQuality {

  final case class Row(metric: String, section: String, x: String,
                       approx: Double, rand: Double)

  def run(nTasks: Int = 30, m: Int = 60, nWorkers: Int = 600, seed: Long = 11,
          params: TcscParams = TcscParams()): Seq[Row] = {

    def randMean(insts: Seq[TaskInstance], b: Double): (Double, Double) = {
      val rs = (0 until 5).map(s => RandomBaseline.multi(insts, b, params, seed + 100 + s))
      (rs.map(_.qSum).sum / rs.size, rs.map(_.qMin).sum / rs.size)
    }

    def measure(dist: TcscGen.Dist, budgetFrac: Double, section: String, x: String): Seq[Row] = {
      val sc = TcscGen.scenario(nTasks, m, nWorkers, dist, seed)
      val b = TcscGen.budgetFor(sc.instances, budgetFrac)
      val (sumOut, _) = TaskParallel.run(sc.instances, b, params, threads = 4)
      val minOut = SerialMulti.minQuality(sc.instances, b, params)
      val (rSum, rMin) = randMean(sc.instances, b)
      Seq(Row("q_sum", section, x, sumOut.qSum, rSum),
          Row("q_min", section, x, minOut.qMin, rMin))
    }

    val byDist = TcscGen.AllDists.flatMap(d =>
      measure(d, 0.25, "Fig7ac:distribution", d.name))
    val byBudget = Seq(0.125, 0.25, 0.5).flatMap(b =>
      measure(TcscGen.Uniform, b, "Fig7bd:budget", f"$b%.3f"))
    byDist ++ byBudget
  }

  def render(rows: Seq[Row]): Seq[String] =
    Harness.printTable("T7 (Fig 7): multi-task quality",
      Seq("metric", "section", "x", "Approx", "Rand"),
      rows.map(r => Harness.row(r.metric, r.section, r.x, r.approx, r.rand)))
}
