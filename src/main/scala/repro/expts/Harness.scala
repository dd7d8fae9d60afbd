package repro.expts

/** Small shared utilities for the per-table experiment harnesses.
  *
  * Each `T*` object reproduces one evaluation artifact (DESIGN.md §5): it
  * generates the workload, runs our algorithms and the baselines, and
  * returns printable rows. The bench suites (`bench/`) and the spark-submit
  * entrypoints (`jobs/`) both delegate here so every number in
  * EXPERIMENTS.md is regenerable two ways.
  */
object Harness {

  /** Wall-clock a thunk in milliseconds, once and cold. */
  def timeMs[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e6)
  }

  /** Warmed wall-clock: one untimed run of `f`, then 5 timed runs; returns
    * the last run's value and the median time in milliseconds.
    */
  def medianMs[A](f: => A): (A, Double) = {
    f
    val timed = Vector.fill(5)(timeMs(f))
    (timed.last._1, timed.map(_._2).sorted.apply(2))
  }

  /** Render one table row with padded columns. */
  def row(cols: Any*): String =
    cols.map {
      case d: Double => f"$d%12.4f"
      case x         => f"${x.toString}%12s"
    }.mkString(" | ")

  def banner(title: String): String =
    "\n== " + title + " " + "=" * math.max(1, 72 - title.length) + "\n"

  /** One generic result cell: section, x-value, series name, measured value. */
  final case class Cell(section: String, x: String, series: String, value: Double)

  def printTable(title: String, header: Seq[String], lines: Seq[String]): Seq[String] = {
    val out = Seq(banner(title), row(header: _*)) ++ lines
    out.foreach(println)
    out
  }
}
