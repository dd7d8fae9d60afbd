package repro.expts

import org.scalatest.funsuite.AnyFunSuite
import repro.core.TcscParams

/** Smoke tests for the experiment harnesses at toy scale (the full sweeps
  * run in `bench/`).
  */
class HarnessSpec extends AnyFunSuite {

  test("timeMs returns the thunk value and a nonnegative duration") {
    val (v, ms) = Harness.timeMs { 21 * 2 }
    assert(v == 42 && ms >= 0.0)
  }

  test("medianMs warms up, then reports the median of the timed runs") {
    var calls = 0
    // The first timed run (call 2) is slow; the median must ignore it.
    val (v, ms) = Harness.medianMs({ calls += 1; if (calls == 2) Thread.sleep(200); calls })
    assert(calls == 6, "one warm-up run and five timed runs")
    assert(v == 6, "the value of the last run")
    assert(ms >= 0.0 && ms < 100.0, s"median $ms ms")
  }

  test("row pads columns and formats doubles") {
    val r = Harness.row("a", 1.5)
    assert(r.contains("a") && r.contains("1.5000"))
  }

  test("banner includes the title") {
    assert(Harness.banner("hello").contains("hello"))
  }

  test("T6 harness at toy scale produces the expected row grid") {
    val rows = T6SingleQuality.run(nInstances = 2, m = 10, nWorkers = 80, seed = 1)
    assert(rows.count(_.section == "Fig6a:distribution") == 4)
    assert(rows.count(_.section == "Fig6b:budget") == 3)
    rows.foreach { r =>
      assert(r.opt >= r.approx - 1e-9, s"${r.section}/${r.x}")
      assert(r.opt >= 0 && r.rand >= 0)
    }
  }

  test("T7 harness at toy scale covers both metrics") {
    val rows = T7MultiQuality.run(nTasks = 4, m = 12, nWorkers = 80, seed = 2)
    assert(rows.map(_.metric).toSet == Set("q_sum", "q_min"))
    assert(rows.count(_.section == "Fig7ac:distribution") == 8)
    assert(rows.count(_.section == "Fig7bd:budget") == 6)
  }

  test("T11 harness at toy scale emits every section") {
    val cells = T11SpatioTemporal.run(nTasks = 3, m = 8, nWorkers = 60, seed = 3,
      params = TcscParams(k = 2))
    val sections = cells.map(_.section).toSet
    assert(sections == Set("Fig11a:distribution", "Fig11b:budget",
      "Fig11c:wt_sweep", "Fig11opt:tiny"))
  }

  test("T6 render produces one line per row plus header") {
    val rows = T6SingleQuality.run(nInstances = 1, m = 8, nWorkers = 50, seed = 4)
    val lines = T6SingleQuality.render(rows)
    assert(lines.size == rows.size + 2)
  }
}
