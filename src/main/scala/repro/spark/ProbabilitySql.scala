package repro.spark

/** The independent reference formulation of plan scoring, as DuckDB SQL.
  *
  * `AssignPipeline.planQualities` scores a plan with the core's own metric
  * (`repro.core.Quality`). These queries compute the same numbers a second
  * way, over VARCHAR-typed oracle tables: `duckSql` gives subtask finishing
  * probabilities (Eq 2–3) from a slots × executed join ranked with
  * `ROW_NUMBER`, and `duckQualitySql` sums them into the entropy quality
  * (Eq 1). The tests compose the two and compare the result with
  * `planQualities` through `repro.Oracle.assertEquivalent`.
  */
object ProbabilitySql {

  /** DuckDB-dialect p per `(task_id, slot)` of the `slots` table, from the
    * `executed(task_id, slot)` table: each slot joined to its task's executed
    * slots, ranked with `ROW_NUMBER`.
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

  /** DuckDB-dialect quality aggregation over a `probs(task_id, p)` table.
    * Each term is negated, not the sum, so a task with every p = 0 reads
    * 0.0 rather than -0.0.
    */
  val duckQualitySql: String =
    """SELECT CAST(task_id AS INT) AS task_id,
      |       SUM(CASE WHEN CAST(p AS DOUBLE) > 0
      |                THEN -CAST(p AS DOUBLE) * LOG2(CAST(p AS DOUBLE))
      |                ELSE 0.0 END) AS q
      |FROM probs GROUP BY CAST(task_id AS INT)
      |""".stripMargin
}
