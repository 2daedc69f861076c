"""Tests for incremental spatio/autocorr partitioning (Sections 3.2.1-3.2.2)."""
import numpy as np
import pytest

from repro.core.kmeans import centroid, grow_partition, sq_dists
from repro.core.partitioning import (
    AR_WINDOW,
    IncrementalPartitioner,
    UpdateStats,
    ar_features,
    group_rows,
)


def max_dist_to_centroid(pts, cent):
    """Largest Euclidean distance from a row of ``pts`` to ``cent``."""
    return float(np.sqrt(((pts - cent) ** 2).sum(axis=1)).max())


def _ar_features_loop(raw_hist, k, ridge=1e-10):
    """Reference: the per-trajectory fit that ``ar_features`` batches
    (one (w, 2) window in, (k,) parameters out)."""
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


def _loop_stack(stack, k):
    return np.array([_ar_features_loop(h, k) for h in stack]).reshape(len(stack), k)


class TestARFeatures:
    def test_constant_velocity_coeffs(self):
        t = np.arange(20)
        hist = np.column_stack([0.1 * t, 0.2 * t])
        a = ar_features(hist[None], k=2)
        # linear motion satisfies p[s] = 2 p[s-1] - p[s-2]
        assert np.allclose(a, [[2.0, -1.0]], atol=1e-6)

    def test_stationary_coeffs(self):
        hist = np.full((1, 15, 2), 3.0)
        a = ar_features(hist, k=2)[0]
        pred = a[0] * 3.0 + a[1] * 3.0
        assert pred == pytest.approx(3.0, abs=1e-6)

    def test_short_history_zero(self):
        assert np.allclose(ar_features(np.zeros((1, 2, 2)), k=2), 0.0)
        assert np.allclose(ar_features(np.zeros((1, 0, 2)), k=2), 0.0)
        assert ar_features(np.zeros((3, 2, 2)), k=2).shape == (3, 2)

    def test_shape(self):
        g = np.random.default_rng(0)
        assert ar_features(g.random((1, 12, 2)), k=3).shape == (1, 3)
        assert ar_features(g.random((5, 12, 2)), k=3).shape == (5, 3)
        assert ar_features(g.random((0, 12, 2)), k=3).shape == (0, 3)

    def test_distinct_dynamics_distinct_features(self):
        t = np.arange(30, dtype=float)
        smooth = np.column_stack([0.01 * t, 0.01 * t])
        g = np.random.default_rng(1)
        jumpy = g.random((30, 2))
        a1, a2 = ar_features(np.stack([smooth, jumpy]), 2)
        assert np.linalg.norm(a1 - a2) > 0.05


class TestARFeaturesMatchesLoop:
    """The batched fit is bit-identical to fitting each window alone."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("w", range(AR_WINDOW + 1))
    def test_random_windows(self, k, w):
        g = np.random.default_rng(100 * k + w)
        stack = g.normal(0, 1, (40, w, 2)).cumsum(axis=1)
        assert np.array_equal(ar_features(stack, k), _loop_stack(stack, k))

    @pytest.mark.parametrize("w", range(3, AR_WINDOW + 1))
    def test_constant_velocity_and_stationary_windows(self, w):
        """Collinear lag columns: the ridge term carries the solve."""
        g = np.random.default_rng(w)
        t = np.arange(w, dtype=float)[None, :, None]
        start = g.uniform(-10, 50, (20, 1, 2))
        moving = start + g.normal(0, 1e-3, (20, 1, 2)) * t
        still = np.broadcast_to(start, (20, w, 2))
        stack = np.concatenate([moving, still])
        assert np.array_equal(ar_features(stack, 2), _loop_stack(stack, 2))

    @pytest.mark.parametrize("w", range(3, AR_WINDOW + 1))
    def test_coordinates_around_1e2(self, w):
        """Ridge scale max(1, max|A|^2) well above 1, as for lon/lat data."""
        g = np.random.default_rng(1000 + w)
        stack = 1e2 + g.normal(0, 1e-3, (60, w, 2)).cumsum(axis=1)
        assert np.array_equal(ar_features(stack, 2), _loop_stack(stack, 2))

    def test_ridge_dominated_lag_column(self):
        """One large first point over a near-zero tail: the ridge term
        sets the lag-1 diagonal, so the last bit of max|A|^2 shows in the
        fit. For this v, v**2 and np.square(v) differ in that bit."""
        v = -79.60370419441087
        stack = 1e-9 * np.arange(1, 9, dtype=float)[None, :, None].repeat(2, axis=2)
        stack[0, 0] = v
        assert np.array_equal(ar_features(stack, 2), _loop_stack(stack, 2))

    def test_failed_stacked_solve_falls_back_per_row(self, monkeypatch):
        """When the stacked solve raises, each window is solved alone and
        a window whose own solve raises gets its least-squares fit."""
        real_solve = np.linalg.solve

        def solve(a, b):
            if a.ndim == 3 or np.abs(a).max() < 1e-9:  # stack, or the zero window
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve)
        g = np.random.default_rng(5)
        stack = g.normal(0, 1, (4, 10, 2)).cumsum(axis=1)
        stack[2] = 0.0
        got = ar_features(stack, 2)
        assert np.array_equal(got, _loop_stack(stack, 2))
        assert np.array_equal(got[2], np.zeros(2))
        monkeypatch.undo()
        assert np.array_equal(got, ar_features(stack, 2))


def _two_blobs(n=40, d=5.0, seed=0):
    g = np.random.default_rng(seed)
    a = g.normal(0, 0.05, (n, 2))
    b = g.normal(0, 0.05, (n, 2)) + d
    rows = np.arange(2 * n)
    return rows, np.vstack([a, b])


class TestGroupRows:
    @pytest.mark.parametrize("seed", range(3))
    def test_groups_equal_masks(self, seed):
        """Each group is the ascending rows ``keys == value`` selects."""
        keys = np.random.default_rng(seed).integers(0, 9, 200)
        values, order, bounds = group_rows(keys)
        assert np.array_equal(values, np.unique(keys))
        for v, lo, hi in zip(values, bounds[:-1], bounds[1:]):
            assert np.array_equal(order[lo:hi], np.flatnonzero(keys == v))

    def test_empty(self):
        values, order, bounds = group_rows(np.empty(0, dtype=np.int64))
        assert len(values) == len(order) == 0 and bounds.tolist() == [0]


class TestIncrementalPartitioner:
    def test_initial_partition_respects_eps(self):
        rows, feats = _two_blobs()
        p = IncrementalPartitioner(0.5, len(rows), 0)
        pids, stats = p.update(rows, feats)
        assert stats.n_points == len(rows)
        for pid in np.unique(pids):
            m = pids == pid
            assert max_dist_to_centroid(feats[m], feats[m].mean(axis=0)) <= 0.5 + 1e-9

    def test_two_blobs_two_partitions(self):
        rows, feats = _two_blobs(d=10.0)
        p = IncrementalPartitioner(1.0, len(rows), 0)
        pids, stats = p.update(rows, feats)
        assert stats.q == 2
        # blob membership is pure
        assert len(np.unique(pids[:40])) == 1
        assert len(np.unique(pids[40:])) == 1
        assert pids[0] != pids[40]

    def test_carry_forward(self):
        rows, feats = _two_blobs()
        p = IncrementalPartitioner(1.0, len(rows), 0)
        pids1, _ = p.update(rows, feats)
        pids2, stats2 = p.update(rows, feats + 0.01)  # barely moved
        assert np.array_equal(pids1, pids2)
        assert stats2.n_carried == len(rows)
        assert stats2.n_new_partitions == 0

    def test_resplit_on_violation(self):
        rows, feats = _two_blobs(d=3.0)
        p = IncrementalPartitioner(10.0, len(rows), 0)
        pids1, s1 = p.update(rows, feats)
        assert s1.q == 1
        # blow the blobs apart: one partition now violates eps_p
        feats2 = feats.copy()
        feats2[40:] += 50.0
        pids2, s2 = p.update(rows, feats2)
        assert s2.q >= 2
        assert s2.n_resplit_partitions >= 1
        for pid in np.unique(pids2):
            m = pids2 == pid
            assert (
                max_dist_to_centroid(feats2[m], feats2[m].mean(axis=0)) <= 10.0 + 1e-9
            )

    def test_merge_close_partitions(self):
        rows, feats = _two_blobs(d=100.0)
        p = IncrementalPartitioner(1.0, len(rows), 0)
        pids1, s1 = p.update(rows, feats)
        assert s1.q == 2
        # move blob 2 onto blob 1 -> centroids within eps_p -> merge
        feats2 = feats.copy()
        feats2[40:] -= 100.0
        pids2, s2 = p.update(rows, feats2)
        assert s2.n_merges >= 1
        assert s2.q == 1

    def test_merge_at_most_once_per_target(self):
        """Three co-located partitions: one update merges at most one
        source into each target (the paper's merge-once rule)."""
        g = np.random.default_rng(2)
        rows = np.arange(30)
        feats = np.vstack(
            [g.normal(0, 0.01, (10, 2)), g.normal(5, 0.01, (10, 2)), g.normal(10, 0.01, (10, 2))]
        )
        p = IncrementalPartitioner(0.5, len(rows), 0)
        _, s1 = p.update(rows, feats)
        assert s1.q == 3
        collapsed = np.tile(feats[:10], (3, 1))
        _, s2 = p.update(rows, collapsed)
        # q=3 -> one merge allowed into the surviving target this round
        assert s2.n_merges == 1
        assert s2.q == 2

    def test_new_trajectories_join_nearest(self):
        rows, feats = _two_blobs(d=10.0)
        p = IncrementalPartitioner(1.0, len(rows) + 1, 0)
        pids1, _ = p.update(rows, feats)
        new_rows = np.array([len(rows)])
        new_feat = feats[:1][:]  # right on blob 1
        pids2, _ = p.update(
            np.concatenate([rows, new_rows]), np.vstack([feats, new_feat])
        )
        assert pids2[-1] == pids2[0]

    def test_pids_stable_integers(self):
        rows, feats = _two_blobs()
        p = IncrementalPartitioner(1.0, len(rows), 0)
        pids, _ = p.update(rows, feats)
        assert pids.dtype == np.int64
        assert (pids >= 0).all()

    def test_stats_q_counts_live_partitions(self):
        """q counts the partitions with members now, not dormant ones."""
        rows, feats = _two_blobs(d=10.0)
        p = IncrementalPartitioner(1.0, len(rows), 0)
        pids, s = p.update(rows, feats)
        assert s.q == len(np.unique(pids)) == 2
        pids2, s2 = p.update(rows[:40], feats[:40])  # blob 2 goes dormant
        assert s2.q == len(np.unique(pids2)) == 1

    def test_update_with_no_rows(self):
        rows, feats = _two_blobs(d=10.0)
        p = IncrementalPartitioner(1.0, len(rows), 0)
        pids1, _ = p.update(rows, feats)
        pids, s = p.update(rows[:0], feats[:0])
        assert len(pids) == 0 and s.q == 0 and s.merges == []
        pids2, _ = p.update(rows, feats)
        assert np.array_equal(pids1, pids2)

    def test_merge_events_recorded(self):
        rows, feats = _two_blobs(d=100.0)
        p = IncrementalPartitioner(1.0, len(rows), 0)
        _, s1 = p.update(rows, feats)
        assert s1.merges == []
        feats2 = feats.copy()
        feats2[40:] -= 100.0
        pids2, s2 = p.update(rows, feats2)
        assert s2.n_merges == len(s2.merges) >= 1
        src, dst = s2.merges[0]
        assert src != dst
        assert dst in pids2 and src not in pids2

    def test_absent_trajectory_follows_a_merge(self):
        """A trajectory absent while its partition merges away comes back
        in the merge target, never in the retired pid."""
        rows, feats = _two_blobs(d=100.0)
        p = IncrementalPartitioner(1.0, len(rows), 0)
        pids1, _ = p.update(rows, feats)
        feats2 = feats.copy()
        feats2[40:] -= 100.0
        _, s2 = p.update(rows[1:], feats2[1:])  # row 0 is absent
        [(src, dst)] = s2.merges
        assert pids1[0] in (src, dst)
        pids3, s3 = p.update(rows, feats2)
        assert pids3[0] == dst and src not in pids3
        assert s3.n_carried == len(rows)


def _update_loop(p: IncrementalPartitioner, rows, feats):
    """Reference for ``IncrementalPartitioner.update``: each partition's
    centroid and radius on its own, and every later live pair measured by
    ``np.linalg.norm`` in the merge scan."""
    feats = np.atleast_2d(np.asarray(feats, dtype=np.float64))
    pids = p._pids[rows]
    stats = UpdateStats(n_points=len(pids))
    known = pids >= 0
    stats.n_carried = int(known.sum())
    new_idx = np.flatnonzero(~known)
    if len(new_idx):
        if p._centroids:
            cents = np.vstack(list(p._centroids.values()))
            keys = np.fromiter(p._centroids.keys(), dtype=np.int64)
            pids[new_idx] = keys[sq_dists(feats[new_idx], cents).argmin(axis=1)]
        else:
            pid = p._alloc()
            pids[new_idx] = pid
            p._centroids[pid] = centroid(feats[new_idx])
    values, order, bounds = group_rows(pids)
    for pid, lo, hi in zip(values.tolist(), bounds[:-1], bounds[1:]):
        idxs = order[lo:hi]
        sub = feats[idxs]
        cent = centroid(sub)
        p._centroids[pid] = cent
        if len(sub) > 1 and max_dist_to_centroid(sub, cent) > p.eps_p:
            stats.n_resplit_partitions += 1
            labels, _, _ = grow_partition(sub, p.eps_p, seed=p.seed + pid)
            labs, lorder, lbounds = group_rows(labels)
            for lab, a, b in zip(labs.tolist(), lbounds[:-1], lbounds[1:]):
                sel = idxs[lorder[a:b]]
                if lab == 0:
                    p._centroids[pid] = centroid(feats[sel])
                    continue
                npid = p._alloc()
                stats.n_new_partitions += 1
                pids[sel] = npid
                p._centroids[npid] = centroid(feats[sel])
    live = np.unique(pids).tolist()
    removed = set()
    for i, pa in enumerate(live):
        if pa in removed:
            continue
        for pb in live[i + 1:]:
            if pb in removed:
                continue
            if np.linalg.norm(p._centroids[pa] - p._centroids[pb]) <= p.eps_p:
                pids[pids == pb] = pa
                removed.add(pb)
                stats.merges.append((pb, pa))
                p._centroids[pa] = centroid(feats[pids == pa])
                break
    for pid in removed:
        del p._centroids[pid]
    p._pids[rows] = pids
    for src, dst in stats.merges:
        p._pids[p._pids == src] = dst
    stats.q = len(live) - len(removed)
    return pids, stats


class TestUpdateMatchesLoop:
    """``update`` equals the per-partition loop bit for bit: pids, stats,
    the carried pid of every row and every centroid, in dict order."""

    @staticmethod
    def _merges(n, steps, eps_p) -> int:
        """Run both over ``steps`` of (rows, feats) of ``n`` trajectories,
        comparing after each; returns the merges made."""
        fast, slow = (IncrementalPartitioner(eps_p, n, 3) for _ in range(2))
        merges = 0
        for rows, feats in steps:
            pf, sf = fast.update(rows, feats)
            ps, ss = _update_loop(slow, rows, feats)
            assert np.array_equal(pf, ps) and sf == ss
            assert np.array_equal(fast._pids, slow._pids)
            assert list(fast._centroids) == list(slow._centroids)
            assert all(np.array_equal(fast._centroids[k], slow._centroids[k])
                       for k in slow._centroids)
            merges += sf.n_merges
        return merges

    @staticmethod
    def _steps(g, n, dim, n_steps, draw):
        """Features of ``n`` drifting trajectories, each step a random subset
        of them (so some are absent while partitions merge)."""
        base = draw((n, dim))
        steps = []
        for _ in range(n_steps):
            base = base + draw((n, dim)) * 0.5
            rows = np.flatnonzero(g.random(n) < 0.8)
            steps.append((rows, base[rows]))
        return steps

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_drift(self, dim, seed):
        g = np.random.default_rng(seed)
        steps = self._steps(g, 60, dim, 12, lambda s: g.normal(0, 1, s))
        assert self._merges(60, steps, eps_p=0.8) > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_grid_points_at_exactly_eps_p(self, seed):
        """Features on a grid of step eps_p: many centroid pairs lie at
        exactly eps_p, where ``np.linalg.norm`` accepts the merge."""
        g = np.random.default_rng(seed)
        steps = self._steps(g, 40, 2, 10, lambda s: g.integers(-3, 4, s) * 0.25)
        assert self._merges(40, steps, eps_p=0.25) > 0

    def test_pair_whose_summed_squares_exceed_eps_p_squared(self):
        """Two partitions whose centroids ``np.linalg.norm`` puts at exactly
        eps_p, while their summed squared differences round above eps_p**2,
        still merge."""
        g = np.random.default_rng(0)
        while True:
            a, b = g.normal(0, 1, (2, 2))
            eps_p = np.linalg.norm(a - b)
            if sq_dists(a[None], b[None])[0, 0] > eps_p * eps_p:
                break
        rows = np.arange(2)
        steps = [(rows, np.array([a, b + 100.0])), (rows, np.array([a, b]))]
        assert self._merges(2, steps, eps_p) == 1

    @pytest.mark.parametrize("scale,eps_p", [
        (1.0, 0.0),          # only coincident centroids merge
        (1e-160, 1e-160),    # eps_p ** 2 is subnormal
        (1e-170, 3e-170),    # eps_p ** 2 underflows to 0
        (1e150, 1e150),      # large squares, far from underflow
    ])
    def test_extreme_scales(self, scale, eps_p):
        g = np.random.default_rng(7)
        steps = self._steps(g, 30, 2, 8, lambda s: g.integers(-2, 3, s) * scale)
        self._merges(30, steps, eps_p=eps_p)
