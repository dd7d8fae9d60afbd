package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** Subtask finishing probabilities (Eq 2–3) as a Catalyst pipeline.
  *
  * Inputs: `slots(task_id, slot)` — every subtask of every task — and
  * `executed(task_id, slot)` — the assignment plan. Output:
  * `(task_id, slot, p)` with the paper's k-NN interpolation semantics,
  * including footnote 2 (missing neighbours at distance m), p bit-identical
  * to `repro.core.Quality.finishProb`.
  *
  * The timeline is 1-D, so a slot's p depends only on the executed slots of
  * its own task, through the sum of its k smallest distances. The plan has
  * one shuffle and no join: slot rows and executed rows are unioned, one
  * `Window.partitionBy(task_id)` hands every row its task's executed slots,
  * and array expressions take the k smallest distances. Ties among equal
  * distances do not change the sum, so no tie-break is needed. A
  * `groupBy(task_id)` downstream (`qualities`) reuses the partitioning.
  *
  * `duckSql` is an independent reference formulation (a slots × executed
  * join ranked with `ROW_NUMBER`), run on DuckDB by
  * `repro.Oracle.assertEquivalent` against this pipeline's output.
  */
object ProbabilitySql {

  def probabilities(spark: SparkSession, slots: DataFrame, executed: DataFrame,
                    k: Int, m: Int): DataFrame = {
    import spark.implicits._
    val none = lit(null).cast("int")
    val s = slots.select($"task_id".cast("int").as("task_id"),
      $"slot".cast("int").as("slot"), none.as("eslot"))
    val e = executed.select($"task_id".cast("int").as("task_id"),
      none.as("slot"), $"slot".cast("int").as("eslot"))

    // collect_list skips the slot rows' null eslot
    val rows = s.unionByName(e)
      .withColumn("ex", collect_list($"eslot").over(Window.partitionBy($"task_id")))
      .filter($"slot".isNotNull)
    val n = size($"ex")
    val nearest = slice(array_sort(transform($"ex", x => abs(x - $"slot"))), 1, k)
    val dsum = aggregate(nearest, lit(0L), (acc, d) => acc + d) + (lit(k) - least(n, lit(k))) * m
    rows.select(
      $"task_id", $"slot",
      when(array_contains($"ex", $"slot"), lit(1.0) / m)
        .when(n === 0, lit(0.0))
        .otherwise((lit(1.0) - dsum / lit(k.toDouble * m)) / m)
        .as("p"))
  }

  /** DuckDB-dialect reference over VARCHAR-typed oracle tables: each slot
    * joined to its task's executed slots, ranked with `ROW_NUMBER`.
    */
  def duckSql(k: Int, m: Int): String =
    s"""WITH s AS (SELECT CAST(task_id AS INT) AS task_id, CAST(slot AS INT) AS slot FROM slots),
       |     e AS (SELECT CAST(task_id AS INT) AS task_id, CAST(slot AS INT) AS slot FROM executed),
       |     d AS (SELECT s.task_id, s.slot, e.slot AS eslot, ABS(s.slot - e.slot) AS dist,
       |                  ROW_NUMBER() OVER (PARTITION BY s.task_id, s.slot
       |                                     ORDER BY ABS(s.slot - e.slot), e.slot) AS rn
       |           FROM s JOIN e ON s.task_id = e.task_id),
       |     knn AS (SELECT task_id, slot, SUM(dist) AS dsum, COUNT(*) AS cnt
       |             FROM d WHERE rn <= $k GROUP BY task_id, slot)
       |SELECT s.task_id AS task_id, s.slot AS slot,
       |       CASE WHEN ex.slot IS NOT NULL THEN 1.0 / $m
       |            WHEN knn.dsum IS NULL THEN 0.0
       |            ELSE (1.0 - (knn.dsum + ($k - knn.cnt) * $m) / (1.0 * $k * $m)) / $m
       |       END AS p
       |FROM s
       |LEFT JOIN e  AS ex  ON s.task_id = ex.task_id  AND s.slot = ex.slot
       |LEFT JOIN knn       ON s.task_id = knn.task_id AND s.slot = knn.slot
       |""".stripMargin

  /** Per-task quality via the registered UDAF over a probability frame. */
  def qualities(spark: SparkSession, probs: DataFrame): DataFrame = {
    QualityFunctions.register(spark)
    probs.groupBy(col("task_id")).agg(call_function("tcsc_quality", col("p")).as("q"))
  }

  /** DuckDB-dialect quality aggregation over a `probs` oracle table. */
  val duckQualitySql: String =
    """SELECT CAST(task_id AS INT) AS task_id,
      |       -SUM(CASE WHEN CAST(p AS DOUBLE) > 0
      |                 THEN CAST(p AS DOUBLE) * LOG2(CAST(p AS DOUBLE))
      |                 ELSE 0.0 END) AS q
      |FROM probs GROUP BY CAST(task_id AS INT)
      |""".stripMargin
}
