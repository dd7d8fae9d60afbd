package repro.data

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Grid spatial index vs brute-force k-NN. */
class GridIndexSpec extends AnyFunSuite {

  /** An index over (id, x, y) points, sized by `GridIndex.cellsFor`. */
  private def index(points: Seq[(Int, Double, Double)]): GridIndex =
    new GridIndex(points.map(_._2).toArray, points.map(_._3).toArray,
      points.map(_._1).toArray, GridIndex.cellsFor(points.size))

  private def brute(points: Seq[(Int, Double, Double)], x: Double, y: Double,
                    k: Int): Seq[(Int, Double)] =
    points.map { case (id, px, py) =>
      (id, math.sqrt((px - x) * (px - x) + (py - y) * (py - y)))
    }.sortBy { case (id, d) => (d, id) }.take(k)

  test("empty index returns empty result") {
    val idx = index(Seq.empty)
    val (ids, ds) = idx.knn(0.5, 0.5, 3)
    assert(ids.isEmpty && ds.isEmpty)
  }

  test("single point") {
    val idx = index(Seq((7, 0.2, 0.9)))
    val (ids, ds) = idx.knn(0.2, 0.9, 2)
    assert(ids.toSeq == Seq(7))
    assert(ds(0) == 0.0)
  }

  test("knn matches brute force on random point sets") {
    val rnd = new Random(41)
    for (_ <- 0 until 30) {
      val n = 1 + rnd.nextInt(400)
      val pts = (0 until n).map(i => (i, rnd.nextDouble(), rnd.nextDouble()))
      val idx = index(pts)
      for (_ <- 0 until 10) {
        val (qx, qy) = (rnd.nextDouble(), rnd.nextDouble())
        val k = 1 + rnd.nextInt(8)
        val (ids, ds) = idx.knn(qx, qy, k)
        val expected = brute(pts, qx, qy, k)
        assert(ids.toSeq == expected.map(_._1), s"n=$n q=($qx,$qy) k=$k")
        assert(ds.toSeq == expected.map(_._2), s"n=$n q=($qx,$qy) k=$k")
      }
    }
  }

  test("k larger than the point count returns all points") {
    val pts = Seq((1, 0.1, 0.1), (2, 0.9, 0.9))
    val (ids, _) = index(pts).knn(0.0, 0.0, 10)
    assert(ids.toSet == Set(1, 2))
  }

  test("ties break by id: duplicate coordinates and equidistant points") {
    val rnd = new Random(43)
    for (_ <- 0 until 40) {
      // Points on a coarse lattice, with several ids per position, queried
      // at lattice points and cell centres: many exact distance ties.
      val n = 1 + rnd.nextInt(120)
      val pts = rnd.shuffle((0 until n).toList).map(id =>
        (id, rnd.nextInt(5) / 4.0, rnd.nextInt(5) / 4.0))
      val idx = index(pts)
      for (qx <- Seq(0.0, 0.125, 0.5, 0.625, 1.0); qy <- Seq(0.0, 0.375, 0.5);
           k <- Seq(0, 1, 3, n, n + 5)) {
        val (ids, ds) = idx.knn(qx, qy, k)
        val expected = brute(pts, qx, qy, k)
        assert(ids.toSeq == expected.map(_._1), s"n=$n q=($qx,$qy) k=$k")
        assert(ds.toSeq == expected.map(_._2), s"n=$n q=($qx,$qy) k=$k")
      }
    }
  }

  test("k = 0 returns nothing; a negative k is rejected") {
    val pts = Seq((1, 0.1, 0.1), (2, 0.9, 0.9))
    val (ids, ds) = index(pts).knn(0.5, 0.5, 0)
    assert(ids.isEmpty && ds.isEmpty)
    intercept[IllegalArgumentException](index(pts).knn(0.5, 0.5, -1))
  }

  test("distances are ascending") {
    val rnd = new Random(42)
    val pts = (0 until 200).map(i => (i, rnd.nextDouble(), rnd.nextDouble()))
    val (_, ds) = index(pts).knn(0.3, 0.7, 12)
    assert(ds.toSeq == ds.toSeq.sorted)
  }

  test("query outside the unit square still works (clamped cells)") {
    val pts = Seq((1, 0.5, 0.5), (2, 0.1, 0.1))
    val (ids, _) = index(pts).knn(1.5, 1.5, 1)
    assert(ids.toSeq == Seq(1))
  }
}
