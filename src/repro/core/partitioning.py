"""Spatial / autocorrelation partitioning with incremental maintenance.

Section 3.2.1: points are partitioned so every member is within ``eps_p``
of its partition centroid, in either feature space:

* **spatial** (PPQ-S): the feature of trajectory i at time t is its
  position T_i^t (Eq. 7);
* **autocorrelation** (PPQ-A): the feature is the fitted AR(k) parameter
  vector a_i^t of the trajectory's own recent history (Eq. 8).

Section 3.2.2 (incremental temporal partitioning): at t+1 every point
first inherits its t partition; partitions violating eps_p are re-split;
finally partitions whose centroids are within eps_p are merged -- each
surviving partition absorbs at most one other per update ("we only allow
merging at most once").
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.kmeans import (
    centroid,
    grow_partition,
    max_dist_to_centroid,
    sq_dists,
)

AR_WINDOW = 16
"""Points of recent raw history an AR(k) feature is fitted over."""


def ar_features(
    raw_hist: np.ndarray, k: int, *, ridge: float = 1e-10
) -> np.ndarray:
    """Lag-k AR parameters a_i of a stack of trajectories' raw histories.

    ``raw_hist`` is (n, w, 2): n windows of equal length w, oldest first.
    For each window fits p[s] ~= sum_j a_j p[s-j] by least squares over
    both axes (x and y lag rows interleaved) and returns the (n, k)
    parameters. Windows with w < k+1 get zeros (cold start -- such
    trajectories land in a common "unknown autocorrelation" region of
    feature space). The n ridge-regularised normal equations are solved
    in one stacked call; if one is singular, every window falls back to
    its own solve, or least squares where that fails.
    """
    raw_hist = np.asarray(raw_hist, dtype=np.float64)
    n, w, _ = raw_hist.shape
    if w < k + 1:
        return np.zeros((n, k))
    # lag matrix rows per window: [p[s-1], ..., p[s-k]] for x, then for y
    a = np.stack(
        [raw_hist[:, k - j : w - j] for j in range(1, k + 1)], axis=-1
    ).reshape(n, 2 * (w - k), k)
    b = raw_hist[:, k:].reshape(n, 2 * (w - k))
    at = a.transpose(0, 2, 1)
    # Python-float pow, as for a scalar; np.square can round differently
    scale = [max(1.0, m**2) for m in np.abs(a).max(axis=(1, 2)).tolist()]
    ata = at @ a + ridge * np.eye(k) * np.asarray(scale)[:, None, None]
    atb = (at @ b[:, :, None])[:, :, 0]
    try:
        return np.linalg.solve(ata, atb)
    except np.linalg.LinAlgError:
        out = np.empty((n, k))
        for i in range(n):
            try:
                out[i] = np.linalg.solve(ata[i], atb[i])
            except np.linalg.LinAlgError:
                out[i] = np.linalg.lstsq(a[i], b[i], rcond=None)[0]
        return out


@dataclass
class UpdateStats:
    """Bookkeeping of one incremental update (feeds Fig. 7/8-style checks)."""

    n_points: int = 0
    n_carried: int = 0
    n_new_partitions: int = 0
    n_resplit_partitions: int = 0
    q: int = 0
    merges: list[tuple[int, int]] = field(default_factory=list)  # (src, dst)

    @property
    def n_merges(self) -> int:
        return len(self.merges)


class IncrementalPartitioner:
    """Maintains the partition map across timesteps (Section 3.2.2).

    Partition ids are stable integers; merged-away ids are retired and
    never reused, so downstream codebooks keyed by pid keep decoding old
    codes after a merge (see ``repro.core.ppq``). ``_pids[r]`` is the pid
    of row r's trajectory at its last update, -1 before its first; the
    rows are the caller's (``Encoder.push`` maps trajectory ids to them).
    """

    def __init__(self, eps_p: float, n: int, seed: int = 0):
        self.eps_p = eps_p
        self.seed = seed
        self._pids = np.full(n, -1, dtype=np.int64)
        self._centroids: dict[int, np.ndarray] = {}
        self._next_pid = 0

    def update(self, rows: np.ndarray, feats: np.ndarray) -> tuple[np.ndarray, UpdateStats]:
        """Assign the points of the distinct ``rows`` active now; returns
        (pids per point, stats)."""
        feats = np.atleast_2d(np.asarray(feats, dtype=np.float64))
        pids = self._pids[rows]
        stats = UpdateStats(n_points=len(pids))

        # Step 1 -- carry forward; unseen trajectories go to the nearest
        # existing centroid (or seed the first partition).
        known = pids >= 0
        stats.n_carried = int(known.sum())
        new_idx = np.flatnonzero(~known)
        if len(new_idx):
            if self._centroids:
                cents = np.vstack(list(self._centroids.values()))
                keys = np.fromiter(self._centroids.keys(), dtype=np.int64)
                pids[new_idx] = keys[sq_dists(feats[new_idx], cents).argmin(axis=1)]
            else:
                pid = self._alloc()
                pids[new_idx] = pid
                self._centroids[pid] = centroid(feats[new_idx])

        # Step 2 -- recompute centroids on current members; re-split any
        # partition violating eps_p. A split only moves rows to fresh pids,
        # so the groups taken before the loop stay each pid's members.
        values, order, bounds = group_rows(pids)
        for pid, lo, hi in zip(values.tolist(), bounds[:-1], bounds[1:]):
            idxs = order[lo:hi]
            sub = feats[idxs]
            cent = centroid(sub)
            self._centroids[pid] = cent
            if len(sub) > 1 and max_dist_to_centroid(sub, cent) > self.eps_p:
                stats.n_resplit_partitions += 1
                labels, _, _ = grow_partition(sub, self.eps_p, seed=self.seed + pid)
                # label 0 keeps the original pid; others get fresh pids
                labs, lorder, lbounds = group_rows(labels)
                for lab, a, b in zip(labs.tolist(), lbounds[:-1], lbounds[1:]):
                    sel = idxs[lorder[a:b]]
                    if lab == 0:
                        self._centroids[pid] = centroid(feats[sel])
                        continue
                    npid = self._alloc()
                    stats.n_new_partitions += 1
                    pids[sel] = npid
                    self._centroids[npid] = centroid(feats[sel])

        # Drop centroids of partitions with no current members? No: keep
        # them -- dormant trajectories may resume; but they don't merge.
        live_sorted = np.unique(pids).tolist()

        # Step 3 -- merge near-duplicate partitions; each target absorbs
        # at most one source per update: it stops at its first merge, and
        # it precedes its sources in pid order, so it is never one itself.
        removed: set[int] = set()
        for a_i, pa in enumerate(live_sorted):
            if pa in removed:
                continue
            for pb in live_sorted[a_i + 1 :]:
                if pb in removed:
                    continue
                d = np.linalg.norm(self._centroids[pa] - self._centroids[pb])
                if d <= self.eps_p:
                    pids[pids == pb] = pa
                    removed.add(pb)
                    stats.merges.append((pb, pa))
                    self._centroids[pa] = centroid(feats[pids == pa])
                    break
        for pid in removed:
            self._centroids.pop(pid, None)

        self._pids[rows] = pids
        stats.q = len(live_sorted) - len(removed)
        return pids, stats

    def _alloc(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid


def group_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the rows of ``keys`` by value.

    Returns ``(values, order, bounds)``: the distinct values ascending, a
    stable argsort of ``keys``, and offsets such that
    ``order[bounds[i]:bounds[i + 1]]`` are the rows holding ``values[i]``,
    in ascending order.
    """
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    first = np.ones(len(sk), dtype=bool)
    first[1:] = sk[1:] != sk[:-1]
    starts = np.flatnonzero(first)
    return sk[starts], order, np.append(starts, len(sk))
