"""Spatio-temporal range queries (paper Def. 5.2, Section 5.2).

STRQ(x, y, t) returns the trajectories located in the g_c grid cell of
(x, y) at time t. Methods answer from *reconstructed* positions:

* plain: return IDs whose reconstruction falls in the query cell;
* local search (CQC methods): Lemma 3 bounds the reconstruction within
  (sqrt(2)/2) * g_s of the truth, so scanning the cell dilated by that
  radius guarantees recall 1; verifying the candidates, and only them,
  against the original trajectory (the paper's final step) then makes
  precision 1 too. A frame of one timestep holds one row per trajectory,
  so checking a candidate row's true position checks its trajectory.

Evaluation uses a uniform global grid of cell size ``gc`` (the index-path
equivalents live in ``repro.index``); queries are true trajectory points,
and ground truth comes from the true positions.
"""
from __future__ import annotations

import math

import numpy as np
import pandas as pd


def cell_of(xs: np.ndarray, ys: np.ndarray, gc: float) -> tuple[np.ndarray, np.ndarray]:
    """Global grid cell indices."""
    return np.floor(np.asarray(xs) / gc).astype(np.int64), np.floor(
        np.asarray(ys) / gc
    ).astype(np.int64)


def sample_queries(
    points: pd.DataFrame, n: int, *, seed: int = 0
) -> pd.DataFrame:
    """Random true points used as (x, y, t) STRQ queries."""
    g = np.random.default_rng(seed)
    idx = g.choice(len(points), size=min(n, len(points)), replace=False)
    return points.iloc[idx][["traj_id", "t", "x", "y"]].reset_index(drop=True)


def strq_truth(frame_t: pd.DataFrame, x: float, y: float, gc: float) -> set[int]:
    """IDs whose *true* position at this timestamp is in the cell of (x, y)."""
    cx, cy = math.floor(x / gc), math.floor(y / gc)
    tx, ty = cell_of(frame_t["x"].to_numpy(), frame_t["y"].to_numpy(), gc)
    return set(frame_t["traj_id"].to_numpy()[(tx == cx) & (ty == cy)].tolist())


def strq_answer(
    frame_t: pd.DataFrame,
    x: float,
    y: float,
    gc: float,
    *,
    dilate: float = 0.0,
    verify: bool = False,
) -> set[int]:
    """IDs whose reconstruction is in the query cell (dilated by
    ``dilate``); with ``verify`` the candidates are checked against the
    original positions (precision-1 step).

    ``frame_t`` holds one timestep, so each ``traj_id`` appears in it at
    most once (``run_ppq`` rejects duplicate (traj_id, t)). Verification
    computes the true cell of the candidate rows only; it cannot add IDs,
    so recall is whatever the candidates achieved."""
    cx, cy = math.floor(x / gc), math.floor(y / gc)
    x0, x1 = cx * gc - dilate, (cx + 1) * gc + dilate
    y0, y1 = cy * gc - dilate, (cy + 1) * gc + dilate
    rx = frame_t["xrec"].to_numpy()
    ry = frame_t["yrec"].to_numpy()
    cand = np.flatnonzero((rx >= x0) & (rx < x1) & (ry >= y0) & (ry < y1))
    ids = frame_t["traj_id"].to_numpy()[cand]
    if verify:
        tx, ty = cell_of(
            frame_t["x"].to_numpy()[cand], frame_t["y"].to_numpy()[cand], gc
        )
        ids = ids[(tx == cx) & (ty == cy)]
    return set(ids.tolist())


def precision_recall(truth: set[int], answer: set[int]) -> tuple[float, float]:
    """(precision, recall); empty sets count as perfect on their side."""
    hit = len(truth & answer)
    precision = hit / len(answer) if answer else 1.0
    recall = hit / len(truth) if truth else 1.0
    return precision, recall


def evaluate_strq(
    recon: pd.DataFrame,
    queries: pd.DataFrame,
    *,
    gc: float,
    local_search_radius: float = 0.0,
    verify: bool = False,
) -> tuple[float, float]:
    """Mean (precision, recall) of STRQ over the query batch.

    ``recon`` is a frame with traj_id, t, x, y, xrec, yrec. CQC methods
    pass ``local_search_radius = (sqrt(2)/2) * gs`` and ``verify=True``.
    """
    ps, rs = [], []
    by_t = dict(tuple(recon.groupby("t")))
    for q in queries.itertuples(index=False):
        frame = by_t.get(q.t)
        if frame is None or len(frame) == 0:
            continue
        truth = strq_truth(frame, q.x, q.y, gc)
        ans = strq_answer(
            frame, q.x, q.y, gc, dilate=local_search_radius, verify=verify
        )
        p, r = precision_recall(truth, ans)
        ps.append(p)
        rs.append(r)
    return float(np.mean(ps)), float(np.mean(rs))
