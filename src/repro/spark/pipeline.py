"""Distributed PPQ build (see DESIGN.md section 3).

Dataflow:

1. ``trajectory_features`` -- per-trajectory partition features via
   ``groupBy(traj_id).applyInPandas`` (start position for PPQ-S, fitted
   AR(k) parameters for PPQ-A);
2. ``assign_partitions`` -- the input is checked with one aggregation,
   raising ``run_ppq``'s ``ValueError`` on the driver; the small feature
   table is collected, split driver-side with the paper's grow-until-eps_p
   routine, and the ``traj_id -> pid`` map is joined back (broadcast-size);
3. ``build_summary_spark`` -- ``groupBy(pid).applyInPandas`` runs the
   sequential E-PQ + CQC core once per partition on its executor. Coded
   points and codebook rows come back in one pass, discriminated by a
   ``kind`` column, so the data is scanned once.

The per-point guarantees (codebook error <= eps1; with CQC, final error
<= (sqrt(2)/2)*gs, Lemma 3) hold per partition and therefore globally.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.kmeans import grow_partition
from repro.core.partitioning import AR_WINDOW, ar_features
from repro.core.ppq import run_ppq

CODED_SCHEMA = (
    "traj_id long, t int, x double, y double, pid long, code long, "
    "xhat double, yhat double, xrec double, yrec double, cqc long"
)
_WIDE_SCHEMA = "kind int, " + CODED_SCHEMA


def trajectory_features(df: DataFrame, *, mode: str, k: int = 2) -> DataFrame:
    """Per-trajectory feature rows: (traj_id, f0, f1 [, ...fk-1])."""
    if mode == "S":

        def feat(pdf: pd.DataFrame) -> pd.DataFrame:
            first = pdf.sort_values("t").iloc[0]
            return pd.DataFrame(
                {"traj_id": [int(first.traj_id)], "f0": [first.x], "f1": [first.y]}
            )

        schema = "traj_id long, f0 double, f1 double"
    elif mode == "A":

        def feat(pdf: pd.DataFrame) -> pd.DataFrame:
            pdf = pdf.sort_values("t").head(AR_WINDOW)
            a = ar_features(pdf[["x", "y"]].to_numpy()[None], k)[0]
            row = {"traj_id": [int(pdf.traj_id.iloc[0])]}
            for j in range(k):
                row[f"f{j}"] = [float(a[j])]
            return pd.DataFrame(row)

        schema = "traj_id long, " + ", ".join(f"f{j} double" for j in range(k))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return df.groupBy("traj_id").applyInPandas(feat, schema=schema)


def assign_partitions(
    spark: SparkSession,
    df: DataFrame,
    *,
    mode: str,
    eps_p: float,
    k: int = 2,
    seed: int = 0,
) -> DataFrame:
    """Add a ``pid`` column: static trajectory-level partition assignment."""
    _validate(df)
    feats = trajectory_features(df, mode=mode, k=k).toPandas()
    fcols = [c for c in feats.columns if c.startswith("f")]
    labels, _, _ = grow_partition(feats[fcols].to_numpy(), eps_p, seed=seed)
    mapping = spark.createDataFrame(
        pd.DataFrame({"traj_id": feats.traj_id, "pid": labels.astype(np.int64)}),
        schema="traj_id long, pid long",
    )
    return df.join(F.broadcast(mapping), on="traj_id", how="inner")


def _validate(df: DataFrame) -> None:
    """Reject on the driver, with one aggregation before the feature
    shuffle, input that ``run_ppq`` would reject in a worker: empty,
    non-finite or null x/y, duplicate (traj_id, t)."""

    def non_finite(c: str):
        col = F.col(c)
        return col.isNull() | F.isnan(col) | (F.abs(col) == float("inf"))

    row = df.agg(
        F.count(F.lit(1)).alias("n"),
        F.count(F.when(non_finite("x") | non_finite("y"), True)).alias("bad"),
        F.countDistinct("traj_id", "t").alias("keys"),
    ).first()
    if row.n == 0:
        raise ValueError("empty input: run_ppq needs at least one point")
    if row.bad:
        raise ValueError(f"non-finite x/y in {row.bad} rows")
    if row.keys < row.n:
        raise ValueError(f"duplicate (traj_id, t) in {row.n - row.keys} rows")


def build_summary_spark(
    df_with_pid: DataFrame,
    *,
    predict: bool = True,
    use_cqc: bool = True,
    eps1: float = 0.001,
    gs: float | None = None,
    k: int = 2,
    seed: int = 0,
) -> tuple[DataFrame, DataFrame]:
    """Run per-partition E-PQ (+CQC) with applyInPandas.

    Returns ``(coded, codebooks)``: coded points (CODED_SCHEMA) and
    codebook rows (pid, code, cx=xhat, cy=yhat).
    """

    def worker(key, pdf: pd.DataFrame) -> pd.DataFrame:
        pid = int(key[0])
        s = run_ppq(
            pdf[["traj_id", "t", "x", "y"]],
            mode=None,
            predict=predict,
            use_cqc=use_cqc,
            eps1=eps1,
            gs=gs,
            k=k,
            seed=seed + 7919 * (pid + 1),
        )
        coded = s.coded.copy()
        coded["pid"] = pid
        coded["kind"] = 0
        cb = s.codebooks[0]
        cb_rows = pd.DataFrame(
            {
                "kind": 1,
                "traj_id": -1,
                "t": -1,
                "x": 0.0,
                "y": 0.0,
                "pid": pid,
                "code": np.arange(len(cb), dtype=np.int64),
                "xhat": cb[:, 0] if len(cb) else np.zeros(0),
                "yhat": cb[:, 1] if len(cb) else np.zeros(0),
                "xrec": 0.0,
                "yrec": 0.0,
                "cqc": -1,
            }
        )
        return pd.concat(
            [coded.reindex(columns=_cols()), cb_rows.reindex(columns=_cols())],
            ignore_index=True,
        )

    wide = df_with_pid.groupBy("pid").applyInPandas(worker, schema=_WIDE_SCHEMA)
    wide = wide.cache()
    coded = wide.filter(F.col("kind") == 0).drop("kind")
    codebooks = (
        wide.filter(F.col("kind") == 1)
        .select("pid", "code", F.col("xhat").alias("cx"), F.col("yhat").alias("cy"))
    )
    return coded, codebooks


def _cols() -> list[str]:
    return [
        "kind", "traj_id", "t", "x", "y", "pid", "code",
        "xhat", "yhat", "xrec", "yrec", "cqc",
    ]


def mae_m_spark(coded: DataFrame) -> float:
    """Mean reconstruction error in meters, computed in Spark."""
    from repro import DEG_TO_M

    row = coded.select(
        F.avg(
            F.sqrt(
                (F.col("x") - F.col("xrec")) ** 2 + (F.col("y") - F.col("yrec")) ** 2
            )
        ).alias("mae")
    ).collect()[0]
    return float(row.mae) * DEG_TO_M
