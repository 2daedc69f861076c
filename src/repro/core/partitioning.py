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

from repro.core.kmeans import centroid, grow_partition, sq_dists

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
    of row r's trajectory at its last update, or the partition that pid
    has merged into since (so a trajectory back from a gap never carries a
    retired pid), and -1 before its first; the rows are the caller's
    (``Encoder.rows_of`` maps trajectory ids to them).
    """

    def __init__(self, eps_p: float, n: int, seed: int = 0):
        self.eps_p = eps_p
        self.seed = seed
        self._pids = np.full(n, -1, dtype=np.int64)
        self._centroids: dict[int, np.ndarray] = {}
        self._next_pid = 0
        # merge candidates' squared-distance cut: above eps_p**2 by a
        # relative margin far beyond the rounding of either distance, and
        # by the smallest normal float for eps_p**2 near or below underflow
        self._merge_sq = eps_p * eps_p * (1 + 1e-9) + np.finfo(np.float64).tiny

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

        # Step 2 -- recompute every live partition's centroid on its current
        # members, and its radius, in one pass over the rows grouped by pid
        # (each centroid one reduction over its contiguous rows, as
        # ``centroid`` of that group alone gives); re-split the partitions
        # violating eps_p. A split only moves rows to fresh pids, so the
        # groups taken before the loop stay each pid's members.
        values, order, bounds = group_rows(pids)
        fs = feats[order]
        lo_hi = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
        dim = feats.shape[1]
        cents = np.array([centroid(fs[lo:hi]) for lo, hi in lo_hi]).reshape(-1, dim)
        sizes = np.diff(bounds)
        d2 = ((fs - np.repeat(cents, sizes, axis=0)) ** 2).sum(axis=1)
        far = np.sqrt(np.maximum.reduceat(d2, bounds[:-1])) > self.eps_p
        pid_list = values.tolist()
        self._centroids.update(zip(pid_list, cents))
        for g in np.flatnonzero(far & (sizes > 1)).tolist():
            pid, (lo, hi) = pid_list[g], lo_hi[g]
            idxs = order[lo:hi]
            stats.n_resplit_partitions += 1
            labels, _, _ = grow_partition(fs[lo:hi], self.eps_p, seed=self.seed + pid)
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

        # Dormant partitions (no current members) keep their centroids, as
        # their trajectories may resume, but take no part in merges.
        live = np.unique(pids).tolist()

        # Step 3 -- merge near-duplicate partitions; each target absorbs
        # at most one source per update: it stops at its first merge, and
        # it precedes its sources in pid order, so it is never one itself.
        # No pair is measured with a merged centroid (a target is never
        # measured again), so one distance matrix of the centroids before
        # the merges names the candidates: its margin keeps every pair
        # that ``np.linalg.norm`` puts within eps_p, and that norm decides.
        cents = np.array([self._centroids[pid] for pid in live]).reshape(-1, dim)
        near = np.triu(sq_dists(cents, cents) <= self._merge_sq, 1)
        removed: set[int] = set()
        for a in np.flatnonzero(near.any(axis=1)).tolist():
            if a in removed:
                continue
            for b in np.flatnonzero(near[a]).tolist():
                if b in removed:
                    continue
                if np.linalg.norm(cents[a] - cents[b]) <= self.eps_p:
                    pa, pb = live[a], live[b]
                    pids[pids == pb] = pa
                    removed.add(b)
                    stats.merges.append((pb, pa))
                    self._centroids[pa] = centroid(feats[pids == pa])
                    break
        for src, _ in stats.merges:
            del self._centroids[src]

        self._pids[rows] = pids
        # a trajectory absent now carries its retired pid's target forward
        for src, dst in stats.merges:
            self._pids[self._pids == src] = dst
        stats.q = len(live) - len(removed)
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
