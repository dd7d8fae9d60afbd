package tcscbench

import scala.collection.mutable

/** Per-layer samples of a run: each name collects one value per traced
  * round (or per run), reported as the median.
  */
final class Layers {
  private val samples = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]

  def add(name: String, v: Double): Unit =
    samples.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += v

  def addAll(values: Map[String, Double]): Unit = values.foreach { case (k, v) => add(k, v) }

  def median(name: String): Option[Double] = samples.get(name).map(b => Stats.median(b.toSeq))
}

object Layers {
  /** Values one round records about itself. */
  final class Round {
    private val m = mutable.LinkedHashMap.empty[String, Double]
    def update(name: String, v: Double): Unit = m(name) = v
    def time[A](name: String)(f: => A): A = {
      val t0 = System.nanoTime()
      try f finally m(name) = m.getOrElse(name, 0.0) + (System.nanoTime() - t0) / 1e6
    }
    def values: Map[String, Double] = m.toMap
  }

  def timed[A](into: Layers, name: String)(f: => A): A = {
    val t0 = System.nanoTime()
    try f finally into.add(name, (System.nanoTime() - t0) / 1e6)
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Median, or NaN (reported as null) when there are no samples. */
  def medianOrNaN(xs: Seq[Double]): Double = if (xs.isEmpty) Double.NaN else median(xs)
}
