"""Tests for the error-bounded / fixed / online quantizers (Eq. 3)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kmeans import farthest_first, grow_partition, kmeans
from repro.core.quantizer import IncrementalQuantizer, nearest


class TestNearest:
    def test_exact_match(self):
        cb = np.array([[0.0, 0.0], [1.0, 1.0]])
        codes, dists = nearest(cb, np.array([[1.0, 1.0]]))
        assert codes[0] == 1
        assert dists[0] == pytest.approx(0.0)

    def test_distances(self):
        cb = np.array([[0.0, 0.0]])
        codes, dists = nearest(cb, np.array([[3.0, 4.0]]))
        assert dists[0] == pytest.approx(5.0)

    def test_batch(self):
        g = np.random.default_rng(0)
        cb = g.random((10, 2))
        pts = g.random((500, 2))
        codes, dists = nearest(cb, pts)
        d2 = ((pts[:, None, :] - cb[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(codes, d2.argmin(axis=1))


class TestIncrementalQuantizer:
    @pytest.mark.parametrize("eps", [1.0, 0.3, 0.1, 0.02])
    def test_error_bound_holds(self, eps):
        g = np.random.default_rng(1)
        q = IncrementalQuantizer(eps, seed=0)
        pts = g.random((400, 2)) * 3
        codes = q.quantize(pts)
        err = np.sqrt(((pts - q.codebook[codes]) ** 2).sum(axis=1))
        assert err.max() <= eps + 1e-12

    def test_bound_holds_across_batches(self):
        g = np.random.default_rng(2)
        q = IncrementalQuantizer(0.2, seed=0)
        for _ in range(5):
            pts = g.random((100, 2)) * 2
            codes = q.quantize(pts)
            err = np.sqrt(((pts - q.codebook[codes]) ** 2).sum(axis=1))
            assert err.max() <= 0.2 + 1e-12

    def test_codebook_grows_monotonically(self):
        g = np.random.default_rng(3)
        q = IncrementalQuantizer(0.1, seed=0)
        sizes = []
        for _ in range(4):
            q.quantize(g.random((50, 2)))
            sizes.append(len(q))
        assert sizes == sorted(sizes)

    def test_reuse_no_growth_for_same_data(self):
        g = np.random.default_rng(4)
        pts = g.random((100, 2))
        q = IncrementalQuantizer(0.1, seed=0)
        q.quantize(pts)
        v1 = len(q)
        q.quantize(pts)  # same points: existing codewords suffice
        assert len(q) == v1

    def test_tighter_eps_bigger_codebook(self):
        g = np.random.default_rng(5)
        pts = g.random((300, 2))
        qa = IncrementalQuantizer(0.3, seed=0)
        qa.quantize(pts.copy())
        qb = IncrementalQuantizer(0.03, seed=0)
        qb.quantize(pts.copy())
        assert len(qb) > len(qa)

    def test_codes_valid_indices(self):
        q = IncrementalQuantizer(0.1, seed=0)
        codes = q.quantize(np.random.default_rng(6).random((50, 2)))
        assert codes.min() >= 0
        assert codes.max() < len(q)

    def test_single_point(self):
        q = IncrementalQuantizer(0.5, seed=0)
        codes = q.quantize(np.array([[2.0, 3.0]]))
        assert np.allclose(q.codebook[codes], [[2.0, 3.0]])

    def test_empty_codebook_property(self):
        q = IncrementalQuantizer(0.5)
        assert q.codebook.shape == (0, 2)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-10, 10, allow_nan=False),
                st.floats(-10, 10, allow_nan=False),
            ),
            min_size=1,
            max_size=60,
        ),
        st.floats(0.01, 2.0),
    )
    def test_property_bound(self, pts, eps):
        pts = np.array(pts)
        q = IncrementalQuantizer(eps, seed=0)
        codes = q.quantize(pts)
        err = np.sqrt(((pts - q.codebook[codes]) ** 2).sum(axis=1))
        assert err.max() <= eps + 1e-9


def _nearest_3d(codebook, pts):
    """The earlier nearest: reduces an (n, V, d) temporary over its last axis."""
    pts = np.atleast_2d(pts)
    codes = np.empty(len(pts), dtype=np.int64)
    dists = np.empty(len(pts))
    step = max(1, 4_000_000 // max(1, len(codebook)))
    for s in range(0, len(pts), step):
        block = pts[s : s + step]
        d2 = ((block[:, None, :] - codebook[None, :, :]) ** 2).sum(axis=2)
        codes[s : s + step] = d2.argmin(axis=1)
        dists[s : s + step] = np.sqrt(d2[np.arange(len(block)), codes[s : s + step]])
    return codes, dists


class TestNearestMatches3D:
    """Summing one coordinate at a time gives the same codes and
    bit-identical distances as the 3-D reduction."""

    @staticmethod
    def _check(codebook, pts):
        got, want = nearest(codebook, pts), _nearest_3d(codebook, pts)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_random(self, seed, dim):
        g = np.random.default_rng(seed)
        cb = g.normal(0, 1, (int(g.integers(1, 60)), dim))
        pts = g.normal(0, 1.5, (int(g.integers(1, 400)), dim))
        self._check(cb, pts)

    def test_duplicate_codewords_keep_first(self):
        """Ties in argmin go to the first of equal codewords."""
        g = np.random.default_rng(4)
        base = np.round(g.normal(0, 1, (6, 2)), 1)
        cb = np.vstack([base, base[::-1], base])
        pts = np.vstack([base, np.round(g.normal(0, 1, (200, 2)), 1)])
        self._check(cb, pts)
        codes, _ = nearest(cb, base)
        assert np.array_equal(codes, np.arange(6))

    def test_several_chunks(self):
        """A codebook large enough that the points are taken in chunks."""
        g = np.random.default_rng(5)
        cb = g.normal(0, 1, (40_000, 2))
        pts = g.normal(0, 1, (350, 2))
        assert 4_000_000 // len(cb) < len(pts)
        self._check(cb, pts)

    def test_lon_lat_scale(self):
        """Points at degree coordinates with sub-metre offsets."""
        g = np.random.default_rng(6)
        centre = np.array([116.3, 39.9])
        cb = centre + g.normal(0, 1e-3, (80, 2))
        pts = centre + g.normal(0, 1e-3, (500, 2))
        self._check(cb, pts)
        self._check(cb - centre, pts - centre)


class _ListQuantizer:
    """The earlier IncrementalQuantizer: a list of codewords re-stacked after
    each growth, new codes assigned through a label -> code map."""

    def __init__(self, eps, *, seed=0):
        self.eps, self.seed, self._codewords = float(eps), seed, []

    @property
    def codebook(self):
        return np.vstack(self._codewords) if self._codewords else np.zeros((0, 2))

    def quantize(self, errs):
        errs = np.atleast_2d(np.asarray(errs, dtype=np.float64))
        codes = np.full(len(errs), -1, dtype=np.int64)
        if self._codewords:
            codes[:], dists = _nearest_3d(self.codebook, errs)
            bad = dists > self.eps
        else:
            bad = np.ones(len(errs), dtype=bool)
        if bad.any():
            labels, cents, _ = grow_partition(
                errs[bad], self.eps, seed=self.seed + len(self._codewords)
            )
            remap = {}
            for j in np.unique(labels):
                remap[int(j)] = len(self._codewords)
                self._codewords.append(cents[int(j)])
            codes[bad] = np.array([remap[int(l)] for l in labels], dtype=np.int64)
        return codes

    def absorb(self, other):
        offset = len(self._codewords)
        self._codewords.extend(other._codewords)
        return offset


class TestIncrementalQuantizerMatchesList:
    """One growing codebook array emits the codes and codewords the
    list-backed quantizer did, across batches and merges."""

    @pytest.mark.parametrize("eps", [0.05, 0.3, 1.0])
    def test_batches_and_absorb(self, eps):
        g = np.random.default_rng(int(eps * 100))
        new, old = IncrementalQuantizer(eps, seed=3), _ListQuantizer(eps, seed=3)
        new2, old2 = IncrementalQuantizer(eps, seed=9), _ListQuantizer(eps, seed=9)
        for step in range(8):
            batch = g.normal(0, 1 + step, (int(g.integers(1, 120)), 2))
            assert np.array_equal(new.quantize(batch), old.quantize(batch))
            assert np.array_equal(new2.quantize(-batch), old2.quantize(-batch))
            if step == 4:
                assert new.absorb(new2) == old.absorb(old2)
            assert np.array_equal(new.codebook, old.codebook)
            assert len(new) == len(old._codewords)

    def test_duplicate_errors(self):
        g = np.random.default_rng(11)
        batch = np.repeat(np.round(g.normal(0, 1, (10, 2)), 1), 5, axis=0)
        new, old = IncrementalQuantizer(1e-9), _ListQuantizer(1e-9)
        assert np.array_equal(new.quantize(batch), old.quantize(batch))
        assert np.array_equal(new.codebook, old.codebook)


def _online_budget(pts: np.ndarray, v: int) -> tuple[np.ndarray, np.ndarray]:
    """Q-trajectory's budgeted codebook as fixed mode fits it: farthest-first
    picks, then nearest-codeword assignment. Returns (codes, codebook)."""
    cb = farthest_first(pts, max(1, min(v, len(pts))), 0)
    return nearest(cb, pts)[0], cb


class TestFixedQuantizer:
    """Fixed mode's budgeted codebook with prediction: one ``kmeans`` fit."""

    @pytest.mark.parametrize("v", [1, 2, 8, 32])
    def test_codebook_size(self, v):
        g = np.random.default_rng(7)
        codes, cb = kmeans(g.random((100, 2)), v, seed=0)
        assert len(cb) == v
        assert codes.max() < v

    def test_budget_clamped_to_n(self):
        _, cb = kmeans(np.random.default_rng(8).random((5, 2)), 50, seed=0)
        assert len(cb) == 5

    def test_more_codewords_less_error(self):
        g = np.random.default_rng(9)
        pts = g.random((400, 2))
        errs = []
        for v in (4, 64):
            codes, cb = kmeans(pts, v, seed=0)
            errs.append(np.sqrt(((pts - cb[codes]) ** 2).sum(axis=1)).mean())
        assert errs[1] < errs[0]


class TestOnlineBudgetQuantizer:
    """Fixed mode's budgeted codebook without prediction (Q-trajectory):
    single-pass ``farthest_first`` picks, then ``nearest``."""

    @pytest.mark.parametrize("v", [1, 4, 16])
    def test_codebook_size(self, v):
        g = np.random.default_rng(10)
        codes, cb = _online_budget(g.random((100, 2)), v)
        assert len(cb) == min(v, 100)
        assert codes.max() < len(cb)

    def test_worse_than_kmeans(self):
        """The single-pass quantizer must not beat batch k-means --
        that gap is the paper's Q-trajectory-vs-others story."""
        g = np.random.default_rng(11)
        pts = g.random((500, 2))
        co, cbo = _online_budget(pts, 16)
        ck, cbk = kmeans(pts, 16, seed=0)
        e_onl = np.sqrt(((pts - cbo[co]) ** 2).sum(axis=1)).mean()
        e_km = np.sqrt(((pts - cbk[ck]) ** 2).sum(axis=1)).mean()
        assert e_onl >= e_km * 0.9  # allow slack; typically strictly worse

    def test_codewords_are_data_points(self):
        g = np.random.default_rng(12)
        pts = g.random((50, 2))
        _, cb = _online_budget(pts, 8)
        for c in cb:
            assert ((pts == c).all(axis=1)).any()
