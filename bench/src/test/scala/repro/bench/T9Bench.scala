package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.expts.T9MultiEfficiency

/** T9 ≡ Fig 9: multi-task efficiency (basic vs group vs task parallel). */
class T9Bench extends AnyFunSuite {
  test("T9: multi-task efficiency table") {
    val cells = T9MultiEfficiency.run()
    T9MultiEfficiency.render(cells)
    def series(section: String, s: String): Seq[(String, Double)] =
      cells.filter(c => c.section == section && c.series == s).map(c => (c.x, c.value))

    // (a) task-level, timed once at one thread, beats basic (whose time
    // does not depend on the core count).
    val basicAt8 = series("Fig9a:time_vs_cores", "basic").last._2
    val taskAt8  = series("Fig9a:time_vs_cores", "task").last._2
    assert(taskAt8 < basicAt8,
      s"task-parallel $taskAt8 not faster than basic $basicAt8")

    // (c) conflicts grow with the number of tasks.
    val conf = series("Fig9c:conflicts_vs_T", "conflicts").map(_._2)
    assert(conf.last >= conf.head, s"conflicts not growing: $conf")

    // (d) basic grows faster with |T| than task-parallel.
    val basicGrowth = series("Fig9d:time_vs_T", "basic")
    val taskGrowth  = series("Fig9d:time_vs_T", "task")
    val bRatio = basicGrowth.last._2 / math.max(basicGrowth.head._2, 1e-9)
    val tRatio = taskGrowth.last._2 / math.max(taskGrowth.head._2, 1e-9)
    assert(bRatio > tRatio,
      s"basic growth $bRatio should exceed task growth $tRatio")

    // (g)/(h) q_min: Approx* at least as fast as Approx at the largest size.
    val gN = series("Fig9g:qmin_time_vs_T", "Approx").last._2
    val gS = series("Fig9g:qmin_time_vs_T", "Approx*").last._2
    assert(gS <= gN, s"qmin Approx* $gS slower than Approx $gN")
  }
}
