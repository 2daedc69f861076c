"""Exact-match filtering (paper Section 6.2.3, Table 4).

When the summary is used as an index for exact queries, the candidate set
for query point (x, y, t) is every trajectory whose reconstruction at t
lies within the method's worst-case reconstruction radius of (x, y) --
that radius guarantees no false negatives (for CQC methods it is Lemma
3's (sqrt(2)/2) * g_s, a constant, which is why the paper's PPQ rows do
not change with codebook size). The reported metric is the mean ratio of
candidates to trajectories active at the query time.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro import deviation_deg


def max_error_radius_deg(recon: pd.DataFrame) -> float:
    """Worst-case reconstruction deviation of a summary, in degrees."""
    return float(deviation_deg(recon).max())


def visited_ratio(
    recon: pd.DataFrame,
    queries: pd.DataFrame,
    *,
    radius_deg: float | None = None,
) -> float:
    """Mean |candidates| / |active| over the query batch.

    ``radius_deg`` defaults to the summary's own worst-case error (the
    smallest radius that still guarantees the exact answer is found).
    """
    if radius_deg is None:
        radius_deg = max_error_radius_deg(recon)
    by_t = dict(tuple(recon.groupby("t")))
    ratios = []
    for q in queries.itertuples(index=False):
        frame = by_t.get(q.t)
        if frame is None or len(frame) == 0:
            continue
        dx = frame.xrec.to_numpy() - q.x
        dy = frame.yrec.to_numpy() - q.y
        cand = int((dx * dx + dy * dy <= radius_deg * radius_deg).sum())
        ratios.append(cand / len(frame))
    return float(np.mean(ratios))
