"""Spatio-temporal queries as DataFrame ops over the coded points.

STRQ and TPQ (paper Section 5.2) run directly over the distributed coded
representation: grid-cell arithmetic, local-search dilation and the
verification step are all Spark SQL expressions, so the query never
reconstructs trajectories it does not touch. Correctness of these plans
is asserted against DuckDB via ``repro.oracle.assert_equivalent``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def strq_spark(
    coded: DataFrame,
    *,
    x: float,
    y: float,
    t: int,
    gc: float,
    local_search_radius: float = 0.0,
    verify: bool = False,
) -> DataFrame:
    """Trajectory IDs in the g_c cell of (x, y) at time t (Def. 5.2).

    Candidates come from reconstructed positions; ``local_search_radius``
    dilates the cell per the Lemma-3 bound; ``verify`` applies the
    precision-1 check against the original coordinates.
    """
    import math

    cx = math.floor(x / gc)
    cy = math.floor(y / gc)
    x0, x1 = cx * gc - local_search_radius, (cx + 1) * gc + local_search_radius
    y0, y1 = cy * gc - local_search_radius, (cy + 1) * gc + local_search_radius
    out = coded.filter(
        (F.col("t") == t)
        & (F.col("xrec") >= x0)
        & (F.col("xrec") < x1)
        & (F.col("yrec") >= y0)
        & (F.col("yrec") < y1)
    )
    if verify:
        out = out.filter(
            (F.floor(F.col("x") / gc) == cx) & (F.floor(F.col("y") / gc) == cy)
        )
    return out.select("traj_id").distinct()


def tpq_spark(
    coded: DataFrame,
    strq_ids: DataFrame,
    *,
    t: int,
    l: int,
) -> DataFrame:
    """Reconstructed next-l positions of the STRQ result set (Def. 5.3)."""
    window = coded.filter((F.col("t") > t) & (F.col("t") <= t + l))
    return (
        window.join(strq_ids, on="traj_id", how="inner")
        .select("traj_id", "t", F.col("xrec").alias("px"), F.col("yrec").alias("py"))
        .orderBy("traj_id", "t")
    )
