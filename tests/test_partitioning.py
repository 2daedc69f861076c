"""Tests for incremental spatio/autocorr partitioning (Sections 3.2.1-3.2.2)."""
import numpy as np
import pytest

from repro.core.kmeans import max_dist_to_centroid
from repro.core.partitioning import (
    AR_WINDOW,
    IncrementalPartitioner,
    ar_features,
    group_rows,
)


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
