"""Tests for the DuckDB oracle over synthetic trajectory points
(exercised over Spark, per the repo's correctness contract)."""
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.trajgen import to_spark


@pytest.fixture(scope="module")
def pts(spark, porto_pts):
    return to_spark(spark, porto_pts)


class TestOracle:
    def test_simple_aggregate(self, pts):
        got = pts.groupBy("traj_id").agg(
            F.count("*").alias("n"),
            F.min("t").alias("t0"),
            F.max("x").alias("xmax"),
        )
        assert_equivalent(
            got,
            "SELECT traj_id, count(*) AS n, min(t) AS t0, max(x) AS xmax "
            "FROM pts GROUP BY traj_id",
            pts=pts,
        )

    def test_join_query(self, pts):
        starts = pts.groupBy("traj_id").agg(F.min("t").alias("t"))
        got = pts.join(starts, on=["traj_id", "t"]).select("traj_id", "x", "y")
        assert_equivalent(
            got,
            "SELECT p.traj_id, p.x, p.y FROM pts p JOIN "
            "(SELECT traj_id, min(t) AS t0 FROM pts GROUP BY traj_id) s "
            "ON p.traj_id = s.traj_id AND p.t = s.t0",
            pts=pts,
        )

    def test_oracle_catches_wrong_result(self, pts):
        wrong = pts.groupBy("traj_id").agg((F.count("*") + 1).alias("n"))
        with pytest.raises(AssertionError):
            assert_equivalent(
                wrong,
                "SELECT traj_id, count(*) AS n FROM pts GROUP BY traj_id",
                pts=pts,
            )

    def test_oracle_catches_column_mismatch(self, pts):
        got = pts.groupBy("traj_id").agg(F.count("*").alias("wrong_name"))
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(
                got,
                "SELECT traj_id, count(*) AS n FROM pts GROUP BY traj_id",
                pts=pts,
            )
