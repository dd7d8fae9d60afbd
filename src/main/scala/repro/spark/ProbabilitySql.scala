package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{ExecutedSet, Quality}

/** Subtask finishing probabilities (Eq 2–3) in Spark, with the core's own
  * kernel.
  *
  * Inputs: `tasks(task_id)` — one row per task to score — and
  * `executed(task_id, slot)` — the assignment plan. Output:
  * `(task_id, slot, p)` for every slot 0 until m of every task, with p
  * `repro.core.Quality.finishProb` by construction.
  *
  * The timeline is 1-D, so a slot's p depends only on the executed slots of
  * its own task. The task rows (null `eslot`) and the executed rows are
  * unioned, and one `groupBy(task_id)` `collect_list` gathers each task's
  * executed slots: one shuffle, partially aggregated, and no join. A per-task
  * UDF fills an `ExecutedSet(m)` with them and returns the m values of
  * `Quality.finishProb`, which `posexplode` turns into `(slot, p)` rows. As
  * in `ExecutedSet`, a slot executed twice counts once, and a slot outside
  * [0, m) fails the job. Executed rows of a task not in `tasks` are dropped.
  * A `groupBy(task_id)` downstream (`qualities`) reuses the partitioning.
  *
  * `duckSql` is an independent reference formulation (a slots × executed
  * join ranked with `ROW_NUMBER`), run on DuckDB by
  * `repro.Oracle.assertEquivalent` against this pipeline's output.
  */
object ProbabilitySql {

  def probabilities(spark: SparkSession, tasks: DataFrame, executed: DataFrame,
                    k: Int, m: Int): DataFrame = {
    import spark.implicits._
    val t = tasks.select($"task_id".cast("int").as("task_id"), lit(null).cast("int").as("eslot"))
    val e = executed.select($"task_id".cast("int").as("task_id"), $"slot".cast("int").as("eslot"))
    val kernel = udf { (slots: Seq[Int]) =>
      val es = new ExecutedSet(m)
      slots.foreach(es.add)
      Array.tabulate(m)(Quality.finishProb(_, es, k))
    }
    // collect_list skips the task rows' null eslot; `listed` drops tasks
    // that only have executed rows
    t.unionByName(e)
      .groupBy($"task_id")
      .agg(collect_list($"eslot").as("ex"), max($"eslot".isNull).as("listed"))
      .where($"listed")
      .select($"task_id", posexplode(kernel($"ex")).as(Seq("slot", "p")))
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
