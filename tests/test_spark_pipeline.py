"""Integration tests for the distributed PPQ build (DESIGN.md section 3).

Uses the session ``spark`` fixture; query results are cross-checked
against DuckDB with ``repro.oracle.assert_equivalent``.
"""
import math

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro import DEG_TO_M
from repro.oracle import assert_equivalent
from repro.spark.pipeline import (
    assign_partitions,
    build_summary_spark,
    mae_m_spark,
    trajectory_features,
)
from repro.trajgen import POINT_SCHEMA, to_spark

EPS1 = 0.001
GS = 0.00045


@pytest.fixture(scope="module")
def spark_points(spark, porto_pts):
    return to_spark(spark, porto_pts).cache()


@pytest.fixture(scope="module")
def built(spark, spark_points):
    with_pid = assign_partitions(spark, spark_points, mode="S", eps_p=0.02, seed=0)
    coded, codebooks = build_summary_spark(
        with_pid, eps1=EPS1, gs=GS, seed=0
    )
    return coded.cache(), codebooks.cache()


class TestFeatures:
    def test_one_feature_row_per_trajectory(self, spark_points, porto_pts):
        feats = trajectory_features(spark_points, mode="S").toPandas()
        assert len(feats) == porto_pts.traj_id.nunique()
        assert set(feats.columns) == {"traj_id", "f0", "f1"}

    def test_spatial_features_are_start_positions(self, spark_points, porto_pts):
        feats = (
            trajectory_features(spark_points, mode="S")
            .toPandas()
            .set_index("traj_id")
        )
        first = porto_pts[porto_pts.t == 1].set_index("traj_id")
        for tid in list(first.index[:5]):
            assert feats.loc[tid, "f0"] == pytest.approx(first.loc[tid, "x"])

    def test_ar_features_columns(self, spark_points):
        feats = trajectory_features(spark_points, mode="A", k=2).toPandas()
        assert set(feats.columns) == {"traj_id", "f0", "f1"}

    def test_bad_mode_raises(self, spark_points):
        with pytest.raises(ValueError):
            trajectory_features(spark_points, mode="X")


class TestAssign:
    def test_pid_column_added_all_rows_kept(self, spark, spark_points, porto_pts):
        with_pid = assign_partitions(spark, spark_points, mode="S", eps_p=0.02, seed=0)
        assert with_pid.count() == len(porto_pts)
        assert "pid" in with_pid.columns

    def test_one_pid_per_trajectory(self, spark, spark_points):
        with_pid = assign_partitions(spark, spark_points, mode="S", eps_p=0.02, seed=0)
        multi = (
            with_pid.groupBy("traj_id")
            .agg(F.countDistinct("pid").alias("n"))
            .filter(F.col("n") > 1)
            .count()
        )
        assert multi == 0

    def test_multiple_partitions(self, spark, spark_points):
        with_pid = assign_partitions(spark, spark_points, mode="S", eps_p=0.02, seed=0)
        assert with_pid.select("pid").distinct().count() > 1

    def test_autocorr_mode(self, spark, spark_points):
        with_pid = assign_partitions(spark, spark_points, mode="A", eps_p=0.05, seed=0)
        assert "pid" in with_pid.columns
        assert with_pid.count() == spark_points.count()


class TestAssignValidation:
    """assign_partitions raises run_ppq's ValueError on the driver, before
    any worker runs, for input run_ppq would reject."""

    def _assign(self, spark, rows):
        df = spark.createDataFrame(rows, schema=POINT_SCHEMA)
        return assign_partitions(spark, df, mode="S", eps_p=0.02, seed=0)

    def test_empty_input_rejected(self, spark):
        with pytest.raises(ValueError, match="empty input"):
            self._assign(spark, [])

    def test_non_finite_xy_rejected(self, spark):
        rows = [(1, 1, 0.0, 0.0), (1, 2, float("nan"), 0.0), (2, 1, float("inf"), 1.0)]
        with pytest.raises(ValueError, match="non-finite x/y in 2 rows"):
            self._assign(spark, rows)

    def test_null_xy_rejected(self, spark):
        rows = [(1, 1, 0.0, 0.0), (1, 2, 0.1, None)]
        with pytest.raises(ValueError, match="non-finite x/y in 1 rows"):
            self._assign(spark, rows)

    def test_duplicate_rows_rejected(self, spark):
        rows = [(1, 1, 0.0, 0.0), (1, 1, 0.1, 0.1), (1, 2, 0.2, 0.2), (1, 2, 0.3, 0.3)]
        with pytest.raises(ValueError, match=r"duplicate \(traj_id, t\) in 2 rows"):
            self._assign(spark, rows)


class TestBuild:
    def test_one_coded_row_per_point(self, built, porto_pts):
        coded, _ = built
        assert coded.count() == len(porto_pts)

    def test_lemma3_bound_distributed(self, built):
        coded, _ = built
        bound = (math.sqrt(2) / 2) * GS
        row = coded.select(
            F.max(
                F.sqrt((F.col("x") - F.col("xrec")) ** 2 + (F.col("y") - F.col("yrec")) ** 2)
            ).alias("m")
        ).collect()[0]
        assert row.m <= bound + 1e-12

    def test_mae_below_bound(self, built):
        coded, _ = built
        assert mae_m_spark(coded) <= (math.sqrt(2) / 2) * GS * DEG_TO_M

    def test_codebook_rows_join_back(self, built):
        """Every coded point's (pid, code) resolves to a codeword row."""
        coded, codebooks = built
        missing = (
            coded.join(codebooks, on=["pid", "code"], how="left_anti").count()
        )
        assert missing == 0

    def test_xhat_equals_pred_plus_codeword(self, built):
        """The summary is self-describing: reconstruction - codeword is
        the prediction, finite everywhere."""
        coded, codebooks = built
        j = coded.join(codebooks, on=["pid", "code"]).select(
            (F.col("xhat") - F.col("cx")).alias("px"),
            (F.col("yhat") - F.col("cy")).alias("py"),
        )
        bad = j.filter(F.isnan("px") | F.isnan("py")).count()
        assert bad == 0

    def test_no_prediction_mode(self, spark, spark_points):
        with_pid = assign_partitions(spark, spark_points, mode="S", eps_p=0.02, seed=0)
        coded, _ = build_summary_spark(
            with_pid, predict=False, use_cqc=False, eps1=EPS1, seed=0
        )
        row = coded.select(
            F.max(
                F.sqrt((F.col("x") - F.col("xrec")) ** 2 + (F.col("y") - F.col("yrec")) ** 2)
            ).alias("m")
        ).collect()[0]
        assert row.m <= EPS1 + 1e-12


class TestOracle:
    def test_coded_frame_matches_duckdb_aggregate(self, built):
        """Cross-check a Spark aggregation over the coded points with the
        same SQL in DuckDB (oracle)."""
        coded, _ = built
        agg = coded.groupBy("pid").agg(
            F.count("*").alias("n"),
            F.round(F.avg(F.col("x") - F.col("xrec")), 6).alias("bias_x"),
        )
        assert_equivalent(
            agg,
            "SELECT pid, count(*) AS n, round(avg(x - xrec), 6) AS bias_x "
            "FROM coded GROUP BY pid",
            coded=coded,
        )

    def test_active_counts_match_duckdb(self, spark_points):
        agg = spark_points.groupBy("t").agg(F.count("*").alias("n"))
        assert_equivalent(
            agg,
            "SELECT t, count(*) AS n FROM pts GROUP BY t",
            pts=spark_points,
        )
