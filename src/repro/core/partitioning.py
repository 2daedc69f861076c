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

from repro.core.kmeans import grow_partition, max_dist_to_centroid

AR_WINDOW = 16
"""Points of recent raw history an AR(k) feature is fitted over."""


def ar_features(
    raw_hist: np.ndarray, k: int, *, ridge: float = 1e-10
) -> np.ndarray:
    """Lag-k AR parameters a_i of one trajectory's recent raw history.

    ``raw_hist`` is (w, 2), oldest first, w >= k+1. Fits
    p[s] ~= sum_j a_j p[s-j] by least squares over both axes. Returns
    zeros when the history is too short (cold start -- such trajectories
    land in a common "unknown autocorrelation" region of feature space).
    """
    w = len(raw_hist)
    if w < k + 1:
        return np.zeros(k)
    rows = []
    ys = []
    for s in range(k, w):
        # lag matrix row: [p[s-1], ..., p[s-k]] per axis
        lags = raw_hist[s - k : s][::-1]  # (k, 2), lag-1 first
        rows.append(lags[:, 0])
        ys.append(raw_hist[s, 0])
        rows.append(lags[:, 1])
        ys.append(raw_hist[s, 1])
    a = np.asarray(rows)
    b = np.asarray(ys)
    ata = a.T @ a + ridge * np.eye(k) * max(1.0, np.abs(a).max() ** 2)
    try:
        return np.linalg.solve(ata, a.T @ b)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(a, b, rcond=None)[0]


@dataclass
class UpdateStats:
    """Bookkeeping of one incremental update (feeds Fig. 7/8-style checks)."""

    n_points: int = 0
    n_carried: int = 0
    n_new_partitions: int = 0
    n_resplit_partitions: int = 0
    n_merges: int = 0
    q: int = 0


@dataclass
class IncrementalPartitioner:
    """Maintains the partition map across timesteps (Section 3.2.2).

    Partition ids are stable integers; merged-away ids are retired and
    never reused, so downstream codebooks keyed by pid keep decoding old
    codes after a merge (see ``repro.core.ppq``).
    """

    eps_p: float
    seed: int = 0
    _assign: dict[int, int] = field(default_factory=dict)  # traj_id -> pid
    _centroids: dict[int, np.ndarray] = field(default_factory=dict)
    _next_pid: int = 0
    merge_events: list[tuple[int, int]] = field(default_factory=list)

    @property
    def q(self) -> int:
        """Current number of live partitions."""
        return len(self._centroids)

    def update(self, ids: np.ndarray, feats: np.ndarray) -> tuple[np.ndarray, UpdateStats]:
        """Assign the points active now; returns (pids per point, stats)."""
        ids = np.asarray(ids)
        feats = np.atleast_2d(np.asarray(feats, dtype=np.float64))
        stats = UpdateStats(n_points=len(ids))
        pids = np.empty(len(ids), dtype=np.int64)

        # Step 1 -- carry forward; unseen trajectories go to the nearest
        # existing centroid (or seed the first partition).
        known = np.fromiter(
            (int(i) in self._assign for i in ids), dtype=bool, count=len(ids)
        )
        stats.n_carried = int(known.sum())
        for idx in np.flatnonzero(known):
            pids[idx] = self._assign[int(ids[idx])]
        new_idx = np.flatnonzero(~known)
        if len(new_idx):
            if self._centroids:
                cents = np.vstack(list(self._centroids.values()))
                keys = list(self._centroids.keys())
                d2 = (
                    (feats[new_idx][:, None, :] - cents[None, :, :]) ** 2
                ).sum(axis=2)
                nearest_key = d2.argmin(axis=1)
                for j, idx in enumerate(new_idx):
                    pids[idx] = keys[int(nearest_key[j])]
            else:
                pid = self._alloc()
                pids[new_idx] = pid
                self._centroids[pid] = feats[new_idx].mean(axis=0)

        # Step 2 -- recompute centroids on current members; re-split any
        # partition violating eps_p.
        for pid in list(_group_ids(pids)):
            m = pids == pid
            sub = feats[m]
            centroid = sub.mean(axis=0)
            self._centroids[pid] = centroid
            if len(sub) > 1 and max_dist_to_centroid(sub, centroid) > self.eps_p:
                stats.n_resplit_partitions += 1
                labels, cents, _ = grow_partition(
                    sub, self.eps_p, seed=self.seed + pid
                )
                idxs = np.flatnonzero(m)
                # label 0 keeps the original pid; others get fresh pids
                for lab in np.unique(labels):
                    sel = idxs[labels == lab]
                    if lab == 0:
                        self._centroids[pid] = feats[sel].mean(axis=0)
                        continue
                    npid = self._alloc()
                    stats.n_new_partitions += 1
                    pids[sel] = npid
                    self._centroids[npid] = feats[sel].mean(axis=0)

        # Drop centroids of partitions with no current members? No: keep
        # them -- dormant trajectories may resume; but they don't merge.
        live = set(_group_ids(pids))

        # Step 3 -- merge near-duplicate partitions; each target absorbs
        # at most one source per update.
        merged_into: set[int] = set()
        removed: set[int] = set()
        live_sorted = sorted(live)
        for a_i, pa in enumerate(live_sorted):
            if pa in removed:
                continue
            for pb in live_sorted[a_i + 1 :]:
                if pa in merged_into:
                    break
                if pb in removed or pb in merged_into:
                    continue
                d = np.linalg.norm(self._centroids[pa] - self._centroids[pb])
                if d <= self.eps_p:
                    pids[pids == pb] = pa
                    removed.add(pb)
                    merged_into.add(pa)
                    self.merge_events.append((pb, pa))
                    stats.n_merges += 1
                    m = pids == pa
                    self._centroids[pa] = feats[m].mean(axis=0)
                    break
        for pid in removed:
            self._centroids.pop(pid, None)

        for i, pid in zip(ids, pids):
            self._assign[int(i)] = int(pid)
        stats.q = len(set(_group_ids(pids)))
        return pids, stats

    def _alloc(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid


def _group_ids(pids: np.ndarray) -> np.ndarray:
    return np.unique(pids)
