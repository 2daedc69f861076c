"""Tests for k-means and the grow-until-bounded partitioning (Lemma 1)."""
import re

import numpy as np
import pytest

from repro.core import kmeans as kmeans_mod
from repro.core.kmeans import (
    SMALL,
    _split_two,
    _split_two_small,
    centroid,
    first_draw,
    grow_partition,
    kmeans,
    max_dist_to_centroid,
    sq_dists,
)


def _blob_data(seed=0, n=200, k=4, spread=0.05):
    g = np.random.default_rng(seed)
    centers = g.uniform(-1, 1, (k, 2))
    pts = centers[g.integers(0, k, n)] + g.normal(0, spread, (n, 2))
    return pts


class TestKMeans:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_labels_in_range(self, k):
        pts = _blob_data(seed=k)
        labels, cents = kmeans(pts, k, seed=1)
        assert labels.min() >= 0
        assert labels.max() < len(cents)
        assert len(cents) == k

    def test_k_clamped_to_n(self):
        pts = _blob_data(n=3)
        labels, cents = kmeans(pts, 10, seed=0)
        assert len(cents) == 3

    def test_k_one_returns_mean(self):
        pts = _blob_data(n=50)
        labels, cents = kmeans(pts, 1, seed=0)
        assert np.allclose(cents[0], pts.mean(axis=0))
        assert (labels == 0).all()

    def test_separated_blobs_recovered(self):
        g = np.random.default_rng(0)
        centers = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0]])
        pts = np.vstack([c + g.normal(0, 0.1, (40, 2)) for c in centers])
        labels, cents = kmeans(pts, 3, seed=0)
        # every blob maps to exactly one cluster
        for s in range(3):
            blk = labels[s * 40 : (s + 1) * 40]
            assert len(np.unique(blk)) == 1
        assert len(np.unique(labels)) == 3

    def test_1d_input(self):
        vals = np.array([0.0, 0.1, 5.0, 5.1, 5.2])
        labels, cents = kmeans(vals, 2, seed=0)
        assert len(np.unique(labels)) == 2

    def test_deterministic(self):
        pts = _blob_data(seed=5)
        l1, c1 = kmeans(pts, 4, seed=3)
        l2, c2 = kmeans(pts, 4, seed=3)
        assert np.array_equal(l1, l2)
        assert np.allclose(c1, c2)

    def test_identical_points(self):
        pts = np.ones((20, 2))
        labels, cents = kmeans(pts, 3, seed=0)
        assert np.allclose(cents[labels], 1.0)


class TestGrowPartition:
    @pytest.mark.parametrize("eps", [0.5, 0.2, 0.1, 0.05])
    def test_bound_satisfied(self, eps):
        pts = _blob_data(seed=1, n=300)
        labels, cents, _ = grow_partition(pts, eps, seed=0)
        for j in np.unique(labels):
            assert max_dist_to_centroid(pts[labels == j], cents[j]) <= eps + 1e-12

    def test_tighter_eps_more_partitions(self):
        pts = _blob_data(seed=2, n=300)
        _, c1, _ = grow_partition(pts, 0.5, seed=0)
        _, c2, _ = grow_partition(pts, 0.05, seed=0)
        assert len(np.unique(_labels(pts, c2))) >= len(np.unique(_labels(pts, c1)))

    def test_single_point(self):
        labels, cents, rounds = grow_partition(np.array([[1.0, 2.0]]), 0.01, seed=0)
        assert labels.tolist() == [0]
        assert rounds == 0

    def test_identical_points_one_partition(self):
        pts = np.ones((50, 2)) * 3.0
        labels, cents, rounds = grow_partition(pts, 1e-9, seed=0)
        assert len(np.unique(labels)) == 1
        assert rounds == 0

    def test_tiny_eps_terminates(self):
        g = np.random.default_rng(3)
        pts = g.random((40, 2))
        labels, cents, _ = grow_partition(pts, 1e-12, seed=0)
        # effectively every distinct point becomes its own partition
        for j in np.unique(labels):
            assert max_dist_to_centroid(pts[labels == j], cents[j]) <= 1e-12

    def test_rounds_positive_when_split_needed(self):
        pts = _blob_data(seed=4, n=200)
        _, _, rounds = grow_partition(pts, 0.05, seed=0)
        assert rounds >= 1

    def test_loose_eps_single_partition(self):
        pts = _blob_data(seed=5, n=100)
        labels, _, rounds = grow_partition(pts, 100.0, seed=0)
        assert len(np.unique(labels)) == 1
        assert rounds == 0

    def test_1d_features(self):
        g = np.random.default_rng(6)
        vals = np.concatenate([g.normal(0, 0.01, 50), g.normal(5, 0.01, 50)])
        labels, cents, _ = grow_partition(vals, 0.1, seed=0)
        assert len(np.unique(labels)) >= 2

    def test_duplicate_heavy_data(self):
        pts = np.repeat(np.array([[0.0, 0.0], [1.0, 1.0]]), 30, axis=0)
        labels, cents, _ = grow_partition(pts, 0.1, seed=0)
        for j in np.unique(labels):
            assert max_dist_to_centroid(pts[labels == j], cents[j]) <= 0.1


    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_no_points(self, dim):
        labels, cents, rounds = grow_partition(np.zeros((0, dim)), 0.1, seed=0)
        assert labels.dtype == np.int64 and labels.shape == (0,)
        assert cents.shape == (0, dim)
        assert rounds == 0

    def test_no_points_1d(self):
        labels, cents, rounds = grow_partition(np.zeros(0), 0.1, seed=0)
        assert labels.shape == (0,) and cents.shape == (0, 1) and rounds == 0


def _kmeans_split(pts, seed):
    """The earlier _split_two: generic k-means(2) labels, with a median
    split along the widest axis when they leave one group empty."""
    labels, _ = kmeans(pts, 2, seed=seed, iters=8)
    if labels.min() == labels.max():
        axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
        med = np.median(pts[:, axis])
        labels = (pts[:, axis] > med).astype(np.int64)
        if labels.min() == labels.max():  # all identical values
            labels = np.zeros(len(pts), dtype=np.int64)
            labels[: len(pts) // 2] = 1
    return labels


def _loop_grow_partition(pts, eps, *, seed=0):
    """The earlier grow_partition: every round masks every label over all
    points to recompute all centroids and radii, and splits with
    ``_kmeans_split``."""
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    labels = np.zeros(len(pts), dtype=np.int64)
    rounds = 0
    while True:
        k = int(labels.max()) + 1
        centroids = np.zeros((k, pts.shape[1]))
        for j in range(k):
            m = labels == j
            if m.any():
                centroids[j] = pts[m].mean(axis=0)
        viol = []
        for j in range(k):
            m = labels == j
            if not m.any():
                continue
            d = np.sqrt(((pts[m] - centroids[j]) ** 2).sum(axis=1))
            if d.max() > eps and m.sum() > 1:
                viol.append(j)
        if not viol:
            return labels, centroids, rounds
        rounds += 1
        next_label = int(labels.max()) + 1
        for j in viol:
            m = labels == j
            if m.sum() <= 1:
                continue
            sub = _kmeans_split(pts[m], seed + rounds + j)
            idx = np.flatnonzero(m)
            labels[idx[sub == 1]] = next_label
            next_label += 1


class TestGrowPartitionMatchesLoop:
    """Revisiting only the split clusters gives bit-identical labels,
    centroids and rounds."""

    @staticmethod
    def _check(pts, eps, seed=0):
        got = grow_partition(pts, eps, seed=seed)
        want = _loop_grow_partition(pts, eps, seed=seed)
        assert np.array_equal(got[0], want[0])
        assert got[1].tobytes() == want[1].tobytes()  # -0.0 too
        assert got[2] == want[2]
        assert got[0].dtype == want[0].dtype and got[1].shape == want[1].shape

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("eps", [1e-9, 0.05, 0.3, 1e6])
    def test_random_points(self, seed, eps):
        g = np.random.default_rng(seed)
        pts = g.normal(0, 1, (int(g.integers(2, 300)), 2))
        self._check(pts, eps, seed=seed)

    @pytest.mark.parametrize("eps", [1e-12, 0.01, 0.2])
    def test_duplicate_points(self, eps):
        g = np.random.default_rng(7)
        base = g.normal(0, 1, (12, 2))
        pts = np.repeat(base, g.integers(1, 9, 12), axis=0)
        pts = pts[g.permutation(len(pts))]
        self._check(pts, eps)
        self._check(np.round(g.normal(0, 1, (200, 2)), 1), eps)

    @pytest.mark.parametrize("eps", [1e-9, 0.05, 2.0])
    def test_1d_input(self, eps):
        g = np.random.default_rng(8)
        self._check(g.normal(0, 1, 150), eps, seed=3)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_other_dimensions(self, dim):
        g = np.random.default_rng(9)
        self._check(g.normal(0, 1, (120, dim)), 0.1, seed=2)

    @pytest.mark.parametrize("eps", [0.0, 1e-9, 1.0])
    def test_single_point(self, eps):
        self._check(np.array([[1.5, -2.0]]), eps)

    def test_lon_lat_scale(self):
        """Degree coordinates with sub-metre spread, as the index sees."""
        g = np.random.default_rng(10)
        pts = np.array([116.3, 39.9]) + g.normal(0, 1e-3, (150, 2))
        self._check(pts, 1e-4, seed=5)

    @pytest.mark.parametrize("n", [1, 2, 3, SMALL, SMALL + 1, 2 * SMALL])
    @pytest.mark.parametrize("eps", [0.0, 1e-4, 0.3])
    def test_sizes_across_small_rule(self, n, eps):
        """Inputs at and around ``SMALL``, where the Python-float and numpy
        kernels take over from each other."""
        g = np.random.default_rng(n)
        for seed in range(3):
            self._check(g.normal(0, 1, (n, 2)), eps, seed=seed)
            degrees = np.array([116.3, 39.9]) + g.normal(0, 1e-3, (n, 2))
            self._check(degrees, eps * 1e-2, seed=seed)
            base = np.round(g.normal(0, 1, (int(g.integers(1, 5)), 2)), 1)
            self._check(base[g.integers(0, len(base), n)], eps, seed=seed)
            # integer grids put points exactly midway between two centroids
            self._check(g.integers(0, 3, (n, 2)).astype(np.float64), eps, seed=seed)

    @pytest.mark.parametrize("n", [3, 7, SMALL, 2 * SMALL])
    @pytest.mark.parametrize("eps", [0.0, 0.5])
    def test_negative_zero(self, n, eps):
        """A cluster whose coordinates are all -0.0 has a +0.0 centroid:
        numpy's axis-0 sum starts from +0.0, not from the first row."""
        g = np.random.default_rng(n)
        pts = np.where(g.random((n, 2)) < 0.7, -0.0, g.integers(1, 4, (n, 2)) * 2.0)
        self._check(pts, eps, seed=n)
        self._check(np.full((n, 2), -0.0), eps)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_input(self, bad):
        """Numpy's max and argmax propagate NaN where Python's skip it, so
        input with a non-finite value stays on numpy."""
        pts = np.random.default_rng(12).normal(0, 1, (20, 2))
        pts[5, 0] = bad
        with np.errstate(invalid="ignore"):  # inf - inf
            got = grow_partition(pts, 0.1, seed=1)
            want = _loop_grow_partition(pts, 0.1, seed=1)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1], equal_nan=True)
        assert got[2] == want[2]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_kernel_chosen_by_cluster_size(self, dim, monkeypatch):
        """2-D clusters of at most ``SMALL`` points split on Python floats,
        the rest (and any other dimension) on numpy."""
        sizes = {"numpy": [], "python": []}

        def spy(name, fn):
            def wrapped(pts, seed):
                sizes[name].append(len(pts))
                return fn(pts, seed)

            return wrapped

        monkeypatch.setattr(kmeans_mod, "_split_two", spy("numpy", _split_two))
        monkeypatch.setattr(
            kmeans_mod, "_split_two_small", spy("python", _split_two_small)
        )
        pts = np.random.default_rng(dim).normal(0, 1, (4 * SMALL, dim))
        self._check(pts, 0.05)
        assert sizes["numpy"] and min(sizes["numpy"]) > (SMALL if dim == 2 else 0)
        if dim == 2:
            assert sizes["python"] and max(sizes["python"]) <= SMALL
        else:
            assert not sizes["python"]


class TestSplitTwoMatchesKMeans:
    """The dedicated 2-means marks the same second group as the generic
    k-means(2) split: farthest-first seeds, Lloyd steps on columns with
    bincount centroids (centroid itself for one coordinate), the median
    fallback."""

    @staticmethod
    def _check(pts, seed=0):
        got, want = _split_two(pts, seed), _kmeans_split(pts, seed)
        assert got.dtype == bool
        assert np.array_equal(got, want == 1)
        if pts.shape[1] == 2:  # the Python-float kernel, at any size
            assert _split_two_small(pts.tolist(), seed) == (want == 1).tolist()

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_random(self, seed, dim):
        g = np.random.default_rng(seed)
        for n in (2, 3, int(g.integers(4, 40)), int(g.integers(40, 601)), 600):
            self._check(g.normal(0, 1, (n, dim)) * 10.0 ** g.uniform(-3, 3), seed)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_duplicate_heavy(self, dim):
        """Duplicates tie distances exactly: the tie keeps the first centroid
        (a symmetric integer grid puts points midway between the seeds)."""
        g = np.random.default_rng(dim)
        for seed in range(10):
            base = np.round(g.normal(0, 1, (int(g.integers(2, 6)), dim)), 1)
            n = int(g.integers(2, 300))
            self._check(base[g.integers(0, len(base), n)], seed)
            self._check(g.integers(0, 3, (n, dim)).astype(np.float64), seed)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 8, 51])
    def test_all_identical(self, dim, n):
        """2-means leaves one group empty: the median fallback halves them."""
        self._check(np.full((n, dim), 3.25), seed=n)

    @pytest.mark.parametrize(
        "vals, seed",
        [
            ([1.0, 0.9, 0.9, 0.1, 0.9, 0.5, 0.5, 0.8, 0.1, 0.8, 0.7, 0.1,
              0.6, 0.1, 0.7, 0.7, 0.1, 0.6, 0.1, 0.4, 0.1, 0.3, 0.4, 0.6], 15),
            ([0.8, 0.1, 0.6, 0.2, 0.1, 0.4, 0.3, 0.4, 1.0, 0.7, 0.4, 0.6,
              0.5, 0.5, 0.3, 0.5, 0.2, 0.2, 0.5, 0.7, 0.6, 0.2, 0.8, 0.1, 0.3], 36),
            (np.array([4, 0, 2, 3, 1, 1, 6, 2, 3, 4, 5, 2, 6, 5, 6]) * 0.1 + 116.3, 28),
        ],
    )
    def test_one_coordinate_grid_ties(self, vals, seed):
        """Grid values sit on the midpoint of two centroids, so the label
        follows the centroids' last bit: with one coordinate only the
        pairwise sum of ``centroid`` gives the earlier split (in-order
        bincount sums move a point here)."""
        self._check(np.asarray(vals, dtype=np.float64)[:, None], seed)

    @pytest.mark.parametrize("n", [2, 3, SMALL, SMALL + 1, 2 * SMALL])
    def test_sizes_across_small_rule(self, n):
        g = np.random.default_rng(n)
        for seed in range(6):
            self._check(g.normal(0, 1, (n, 2)), seed)
            self._check(np.array([116.3, 39.9]) + g.normal(0, 1e-4, (n, 2)), seed)
            self._check(np.round(g.normal(0, 1, (n, 2)), 0), seed)
            self._check(g.integers(0, 3, (n, 2)).astype(np.float64), seed)

    @pytest.mark.parametrize("n", [2, 5, SMALL, 2 * SMALL])
    def test_midpoint_ties(self, n):
        """Points exactly midway between the two seeds (equal squared
        distances): each stays with the first centroid."""
        for seed in range(8):
            pts = np.zeros((n, 2))
            pts[:, 0] = np.tile([-1.0, 0.0, 1.0], n)[:n]
            pts[:, 1] = np.tile([0.0, 0.0, 0.0, 2.0, -2.0], n)[:n]
            self._check(pts, seed)
            self._check(pts * 1e-4 + np.array([116.3, 39.9]), seed)

    def test_negative_zero(self):
        g = np.random.default_rng(13)
        for n in (2, 3, SMALL):
            pts = np.where(g.random((n, 2)) < 0.6, -0.0, g.integers(1, 3, (n, 2)) * 1.0)
            self._check(pts, n)

    @pytest.mark.parametrize("spread", [1e-6, 1e-4, 1e-2])
    def test_lon_lat_scale(self, spread):
        """Degree coordinates with small spreads, as the index and the
        partitioner see."""
        g = np.random.default_rng(11)
        for seed in range(6):
            n = int(g.integers(2, 601))
            self._check(np.array([116.3, 39.9]) + g.normal(0, spread, (n, 2)), seed)
            self._check(-8.61 + g.normal(0, spread, (n, 1)), seed)


def _kmeans_3d(pts, k, *, seed=0, iters=10):
    """The earlier kmeans: Lloyd distances from an (n, k, d) temporary,
    centroids by ``.mean(axis=0)``."""
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = len(pts)
    k = max(1, min(k, n))
    if k == 1:
        return np.zeros(n, dtype=np.int64), pts.mean(axis=0, keepdims=True)
    g = np.random.default_rng(seed)
    centroids = np.empty((k, pts.shape[1]))
    centroids[0] = pts[g.integers(0, n)]
    d2 = ((pts - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        centroids[j] = pts[int(np.argmax(d2))]
        d2 = np.minimum(d2, ((pts - centroids[j]) ** 2).sum(axis=1))
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(iters):
        dists = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = dists.argmin(axis=1)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for j in range(k):
            m = labels == j
            if m.any():
                centroids[j] = pts[m].mean(axis=0)
    return labels, centroids


class TestKMeansMatches3D:
    """Per-coordinate distances and add.reduce centroids give bit-identical
    labels and centroids."""

    @staticmethod
    def _check(pts, k, seed=0):
        got, want = kmeans(pts, k, seed=seed), _kmeans_3d(pts, k, seed=seed)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 5, 16])
    def test_random(self, seed, dim, k):
        g = np.random.default_rng(seed)
        self._check(g.normal(0, 1, (int(g.integers(1, 300)), dim)), k, seed=seed)

    def test_1d_input(self):
        self._check(np.random.default_rng(1).normal(0, 1, 120), 3)

    @pytest.mark.parametrize("k", [2, 4, 9])
    def test_duplicate_points(self, k):
        """Duplicate points make equal centroids: argmin ties keep the first."""
        g = np.random.default_rng(2)
        base = np.round(g.normal(0, 1, (5, 2)), 1)
        pts = np.repeat(base, g.integers(1, 12, 5), axis=0)
        self._check(pts[g.permutation(len(pts))], k)
        self._check(np.ones((20, 2)), k)

    def test_lon_lat_scale(self):
        g = np.random.default_rng(3)
        pts = np.array([116.3, 39.9]) + g.normal(0, 1e-3, (200, 2))
        self._check(pts, 6, seed=4)


class TestKernels:
    @pytest.mark.parametrize("dim", range(1, 8))
    def test_sq_dists_matches_3d_sum(self, dim):
        """Exact below eight coordinates, which numpy sums left to right."""
        g = np.random.default_rng(dim)
        a = g.normal(0, 1, (70, dim)) * 10.0 ** g.uniform(-4, 3, dim)
        b = g.normal(0, 1, (13, dim))
        want = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(sq_dists(a, b), want)

    @pytest.mark.parametrize("dim", [1, 2, 3, 9])
    def test_centroid_matches_mean(self, dim):
        g = np.random.default_rng(dim)
        for n in (1, 2, 7, 8, 9, 500):
            pts = np.array([116.3] * dim) + g.normal(0, 1e-3, (n, dim))
            assert np.array_equal(centroid(pts), pts.mean(axis=0))


def _labels(pts, cents):
    d = ((pts[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    return d.argmin(axis=1)


class TestMaxDist:
    def test_zero_for_single(self):
        assert max_dist_to_centroid(np.array([[1.0, 1.0]]), np.array([1.0, 1.0])) == 0

    def test_known_value(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert max_dist_to_centroid(pts, np.array([0.0, 0.0])) == pytest.approx(5.0)


#: Draw bounds of the ``first_draw`` oracle: the splits' cluster sizes,
#: ``SMALL`` and one past it, and 32-bit extremes. Numpy rejects the first
#: word for about half the seeds at 2**31 + 1, so it drives the fallback.
_NS = (1, 2, 3, 14, 48, 49, 600, 2**31 + 1, 2**32 - 1)


def _rng_draws(seed):
    """``np.random.default_rng(seed).integers(0, n)`` for each n of ``_NS``:
    one fresh generator, its state restored before each draw."""
    g = np.random.default_rng(seed)
    fresh = g.bit_generator.state
    out = []
    for n in _NS:
        g.bit_generator.state = fresh
        out.append(int(g.integers(0, n)))
    return out


class TestFirstDraw:
    def test_matches_the_generator_for_seeds_up_to_50k(self):
        bad = [s for s in range(50_001) if [first_draw(s, n) for n in _NS] != _rng_draws(s)]
        assert bad == []

    def test_matches_the_generator_for_32_bit_seeds(self):
        """The partitioner's and quantizers' seeds reach millions."""
        g = np.random.default_rng(5)
        seeds = [2_600_000, 2**31, 2**32 - 1, *g.integers(50_001, 2**32, 3000).tolist()]
        bad = [s for s in seeds if [first_draw(s, n) for n in _NS] != _rng_draws(s)]
        assert bad == []

    @pytest.mark.parametrize("kind", [np.int32, np.int64, np.uint32, np.uint64])
    def test_numpy_integer_seeds(self, kind):
        for s in (0, 1, 47, 296, 65_535, 2_147_483_647):
            assert [first_draw(kind(s), n) for n in _NS] == _rng_draws(s)

    def test_rejected_words_are_drawn_again(self):
        n = 2**31 + 1
        rejected = [
            s for s in range(400)
            if kmeans_mod._first_word(s) % 2**32 * n % 2**32 < 2**32 % n
        ]
        assert 100 < len(rejected) < 300
        for s in rejected:
            assert first_draw(s, n) == np.random.default_rng(s).integers(0, n)

    def test_bounds_outside_32_bits_use_the_generator(self):
        for n in (2**32, 2**32 + 1, 2**40):
            for s in range(50):
                assert first_draw(s, n) == np.random.default_rng(s).integers(0, n)

    def test_invalid_input_raises_as_the_generator_does(self):
        for seed, n in ((-1, 5), (3, 0), (3.0, 5)):
            with pytest.raises((ValueError, TypeError)) as want:
                np.random.default_rng(seed).integers(0, n)
            with pytest.raises(want.type, match=re.escape(str(want.value))):
                first_draw(seed, n)
