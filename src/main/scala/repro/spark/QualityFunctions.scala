package repro.spark

import org.apache.spark.sql.{Encoder, Encoders, SparkSession}
import org.apache.spark.sql.expressions.Aggregator
import org.apache.spark.sql.functions
import repro.core.Quality

/** The entropy quality metric as a Spark SQL function (DESIGN.md §3).
  *
  * `tcsc_quality(p)` aggregates subtask finishing probabilities into the
  * task quality q = -Σ p·log2 p (Eq 1). Registered in the session's
  * function registry so Catalyst plans (group-by aggregations over
  * probability DataFrames) can use the paper's metric directly; results are
  * oracle-checked against DuckDB in tests.
  */
object QualityFunctions {

  /** q = -Σ p log2 p as a typed aggregator, each term
    * `Quality.contribution(p)` (0·log 0 := 0).
    */
  val entropyQuality: Aggregator[Double, Double, Double] =
    new Aggregator[Double, Double, Double] {
      def zero: Double = 0.0
      def reduce(b: Double, p: Double): Double = b + Quality.contribution(p)
      def merge(b1: Double, b2: Double): Double = b1 + b2
      def finish(r: Double): Double = r
      def bufferEncoder: Encoder[Double] = Encoders.scalaDouble
      def outputEncoder: Encoder[Double] = Encoders.scalaDouble
    }

  /** Idempotently register `tcsc_quality` on `spark`. */
  def register(spark: SparkSession): Unit =
    spark.udf.register("tcsc_quality", functions.udaf(entropyQuality))
}
