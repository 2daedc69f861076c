"""Synthetic trajectory datasets (substitutes for Porto / GeoLife).

The paper evaluates on the Porto taxi and GeoLife GPS datasets, which are
not available offline. ``porto_lite`` and ``geolife_lite`` generate
deterministic synthetic trajectories that preserve the properties the
paper's results depend on (see DESIGN.md section 4):

* strong lag-k autocorrelation (AR(2) momentum random walks),
* spatially clustered starting points,
* a small span for Porto-lite vs a large span (plus rare far excursions)
  for GeoLife-lite -- the span is what makes non-predictive quantizers'
  MAE explode in the paper's Table 2,
* variable trajectory lengths >= 30, all sampled on a synchronized
  integer timeline starting at t=1 (the paper's ``T^t`` is the set of
  points of active trajectories at time t).

Coordinates are degrees; ``repro.DEG_TO_M`` converts deviations to meters.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro import DEG_TO_M

POINT_SCHEMA = "traj_id long, t int, x double, y double"

#: movement regimes: (momentum rho, per-step speed sigma in meters)
_PORTO_REGIMES = [(0.95, 60.0), (0.85, 120.0), (0.70, 200.0)]
_GEOLIFE_REGIMES = [(0.98, 15.0), (0.90, 150.0), (0.75, 400.0), (0.60, 30.0)]


def _walks(
    g: np.random.Generator,
    *,
    n_traj: int,
    n_steps: int,
    centers: np.ndarray,
    start_spread_m: float,
    regimes: list[tuple[float, float]],
    min_len: int,
    bounds: tuple[float, float, float, float],
) -> pd.DataFrame:
    """AR(2)-style momentum random walks in degree coordinates."""
    x0, y0, x1, y1 = bounds
    rows_id, rows_t, rows_x, rows_y = [], [], [], []
    spread = start_spread_m / DEG_TO_M
    for i in range(n_traj):
        length = int(g.integers(min_len, n_steps + 1))
        c = centers[g.integers(0, len(centers))]
        rho, speed_m = regimes[i % len(regimes)]
        sigma = speed_m / DEG_TO_M
        pos = c + g.normal(0.0, spread, 2)
        vel = g.normal(0.0, sigma, 2)
        xs = np.empty(length)
        ys = np.empty(length)
        for s in range(length):
            vel = rho * vel + g.normal(0.0, sigma * (1 - rho), 2)
            pos = pos + vel
            # soft reflection at the region boundary keeps spans honest
            if pos[0] < x0 or pos[0] > x1:
                vel[0] = -vel[0]
                pos[0] = min(max(pos[0], x0), x1)
            if pos[1] < y0 or pos[1] > y1:
                vel[1] = -vel[1]
                pos[1] = min(max(pos[1], y0), y1)
            xs[s], ys[s] = pos
        rows_id.append(np.full(length, i, dtype=np.int64))
        rows_t.append(np.arange(1, length + 1, dtype=np.int32))
        rows_x.append(xs)
        rows_y.append(ys)
    return pd.DataFrame(
        {
            "traj_id": np.concatenate(rows_id),
            "t": np.concatenate(rows_t),
            "x": np.concatenate(rows_x),
            "y": np.concatenate(rows_y),
        }
    )


def porto_lite(
    *, n_traj: int = 200, n_steps: int = 60, seed: int = 7
) -> pd.DataFrame:
    """Taxi-like trajectories over a ~0.2 deg city box (Porto substitute)."""
    g = np.random.default_rng(seed)
    bounds = (-8.70, 41.10, -8.50, 41.30)
    x0, y0, x1, y1 = bounds
    centers = np.column_stack(
        [g.uniform(x0 + 0.03, x1 - 0.03, 8), g.uniform(y0 + 0.03, y1 - 0.03, 8)]
    )
    return _walks(
        g,
        n_traj=n_traj,
        n_steps=n_steps,
        centers=centers,
        start_spread_m=500.0,
        regimes=_PORTO_REGIMES,
        min_len=max(30, n_steps // 2),
        bounds=bounds,
    )


def geolife_lite(
    *, n_traj: int = 60, n_steps: int = 200, seed: int = 11
) -> pd.DataFrame:
    """Long mixed-mode trajectories over a ~1.2 deg box (GeoLife substitute).

    A small fraction of trajectories are "excursions" seeded far from the
    main city cluster, reproducing GeoLife's large spatial spanning that
    breaks non-predictive quantizers in the paper's Table 2.
    """
    g = np.random.default_rng(seed)
    bounds = (115.90, 39.60, 117.10, 40.80)
    x0, y0, x1, y1 = bounds
    city = np.column_stack(
        [g.uniform(116.20, 116.60, 6), g.uniform(39.85, 40.10, 6)]
    )
    far = np.column_stack([g.uniform(x0, x1, 4), g.uniform(y0, y1, 4)])
    centers = np.vstack([city, far])
    return _walks(
        g,
        n_traj=n_traj,
        n_steps=n_steps,
        centers=centers,
        start_spread_m=2000.0,
        regimes=_GEOLIFE_REGIMES,
        min_len=max(30, n_steps // 2),
        bounds=bounds,
    )


def sub_porto(
    *,
    n_base: int = 50,
    n_copies: int = 4,
    n_steps: int = 60,
    noise_m: float = 30.0,
    seed: int = 13,
) -> tuple[pd.DataFrame, np.ndarray]:
    """The paper's REST dataset recipe: base trajectories plus ``n_copies``
    noisy/down-sampled near-duplicates each.

    Returns ``(points, base_ids)`` where ``base_ids`` are the trajectory IDs
    of the originals (the paper compresses a random subset and builds the
    reference set from the rest; the harness does that split).
    """
    g = np.random.default_rng(seed)
    base = porto_lite(n_traj=n_base, n_steps=n_steps, seed=seed + 1)
    frames = [base]
    next_id = n_base
    sigma = noise_m / DEG_TO_M
    for bid in range(n_base):
        tb = base[base.traj_id == bid]
        for _ in range(n_copies):
            keep = np.sort(
                g.choice(len(tb), size=max(30, int(len(tb) * 0.8)), replace=False)
            )
            c = tb.iloc[keep].copy()
            c["traj_id"] = next_id
            c["t"] = np.arange(1, len(c) + 1, dtype=np.int32)
            c["x"] = c["x"].to_numpy() + g.normal(0, sigma, len(c))
            c["y"] = c["y"].to_numpy() + g.normal(0, sigma, len(c))
            frames.append(c)
            next_id += 1
    return pd.concat(frames, ignore_index=True), np.arange(n_base)


def to_spark(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """Lift a points frame into Spark with the canonical schema."""
    return spark.createDataFrame(pdf, schema=POINT_SCHEMA)
