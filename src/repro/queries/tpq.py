"""Trajectory path queries (paper Def. 5.3, Table 3).

TPQ(x, y, t, l) retrieves the STRQ trajectory IDs and reproduces their
next l positions from the summary. The paper measures, per retrieved
sub-trajectory, the accumulated spatial deviation against the original
sub-trajectory (its per-l numbers grow with l; the exact aggregation is
underspecified -- see DESIGN.md -- we report the *sum* of per-point
deviations over the l reconstructed points, in the paper's 10^3 m units).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro import DEG_TO_M, deviation_deg, traj_runs


def sample_path_queries(
    points: pd.DataFrame, n: int, *, max_l: int, seed: int = 0
) -> pd.DataFrame:
    """(traj_id, t) starts with at least ``max_l`` subsequent points, so
    the same query set works for every l (the paper fixes one ID set
    across methods)."""
    g = np.random.default_rng(seed)
    last = points.groupby("traj_id").t.max()
    ok = points.merge(last.rename("t_last"), on="traj_id")
    ok = ok[ok.t + max_l <= ok.t_last]
    if len(ok) == 0:
        raise ValueError("no trajectory long enough for max_l")
    idx = g.choice(len(ok), size=min(n, len(ok)), replace=False)
    return ok.iloc[idx][["traj_id", "t"]].reset_index(drop=True)


def tpq_mae_km(
    recon: pd.DataFrame, queries: pd.DataFrame, l: int
) -> float:
    """Mean accumulated deviation of reconstructed l-step paths, in 10^3 m.

    ``recon``: traj_id, t, x, y, xrec, yrec.
    """
    order, ids, starts = traj_runs(recon["traj_id"].to_numpy(), recon["t"].to_numpy())
    t = recon["t"].to_numpy()[order]
    err = (deviation_deg(recon) * DEG_TO_M)[order]
    sums = []
    for q in queries.itertuples(index=False):
        i = ids.searchsorted(q.traj_id)
        if i == len(ids) or ids[i] != q.traj_id:
            continue
        lo, hi = starts[i], starts[i + 1]
        run = t[lo:hi]
        # the l points after the start: t in the half-open (q.t, q.t + l]
        a = lo + run.searchsorted(q.t, "right")
        b = lo + run.searchsorted(q.t + l, "right")
        if b > a:
            sums.append(float(err[a:b].sum()))
    return float(np.mean(sums)) / 1000.0
