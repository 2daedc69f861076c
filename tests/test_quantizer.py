"""Tests for the error-bounded / fixed / online quantizers (Eq. 3)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kmeans import farthest_first, grow_partition, kmeans
from repro.core import quantizer
from repro.core.quantizer import IncrementalQuantizer, nearest, nearest_each, quantize_each


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


def _groups(sizes, counts, g, scale=1.0, dim=2):
    """Codebooks of the given sizes and points, ``counts[j]`` of them for
    codebook j, laid end to end; returns (codebooks, points, bounds)."""
    cbs = [g.normal(0, scale, (v, dim)) for v in sizes]
    pts = g.normal(0, scale, (sum(counts), dim))
    return cbs, pts, np.r_[0, np.cumsum(counts)]


class TestNearestEachMatchesOneSearchPerCodebook:
    """One blocked search over several codebooks gives, bit for bit, the
    codes and distances of one search per codebook (``_nearest_3d``, the
    earlier ``nearest``); a row of an empty codebook gets code 0 and
    distance inf."""

    @staticmethod
    def _check(cbs, pts, bounds):
        codes, dists = nearest_each(cbs, pts, bounds)
        for j, cb in enumerate(cbs):
            lo, hi = bounds[j], bounds[j + 1]
            if len(cb):
                want = _nearest_3d(cb, pts[lo:hi])
            else:
                want = (np.zeros(hi - lo, dtype=np.int64), np.full(hi - lo, np.inf))
            assert np.array_equal(codes[lo:hi], want[0])
            assert dists[lo:hi].view(np.int64).tolist() == want[1].view(np.int64).tolist()

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_random(self, seed, dim):
        g = np.random.default_rng(seed)
        m = int(g.integers(1, 12))
        sizes = g.integers(0, 90, m).tolist()
        counts = g.integers(1, 40, m).tolist()
        self._check(*_groups(sizes, counts, g, dim=dim))

    def test_ties_and_duplicate_codewords(self):
        """Points on codewords that repeat, and on midpoints between two
        codewords: the first of equal minima wins in every group."""
        g = np.random.default_rng(7)
        base = np.round(g.normal(0, 1, (5, 2)), 1)
        cbs = [np.vstack([base, base[::-1], base]), base[::-1].copy(), base[:2].copy()]
        mid = (base[0] + base[1]) / 2
        groups = [np.vstack([base, mid]), np.vstack([mid, base[3]]), np.vstack([mid, mid])]
        bounds = np.r_[0, np.cumsum([len(x) for x in groups])]
        self._check(cbs, np.vstack(groups), bounds)
        codes, _ = nearest_each(cbs, np.vstack(groups), bounds)
        assert codes[:5].tolist() == [0, 1, 2, 3, 4]

    def test_distance_exactly_eps_is_within_the_bound(self):
        """A point exactly eps from its nearest codeword keeps it; one a
        float step further grows a codeword, in either path."""
        eps = 0.25
        cbs = [np.array([[0.5, 0.0], [4.0, 4.0]]), np.array([[-1.0, 2.0]])]
        pts = np.array([[0.75, 0.0], [0.5, -0.25], [np.nextafter(0.75, 1), 0.0],
                        [-1.0, 2.25], [-1.0, np.nextafter(2.25, 3)]])
        bounds = np.array([0, 3, 5])
        self._check(cbs, pts, bounds)
        _, dists = nearest_each(cbs, pts, bounds)
        assert (dists > eps).tolist() == [False, False, True, False, True]
        new = [IncrementalQuantizer(eps, seed=1), IncrementalQuantizer(eps, seed=2)]
        old = [_ListQuantizer(eps, seed=1), _ListQuantizer(eps, seed=2)]
        for q, o, cb in zip(new, old, cbs):
            q.codebook, o._codewords = cb.copy(), list(cb)
        _check_quantize_each(new, old, pts, bounds)
        assert [len(q) for q in new] == [3, 2]

    def test_empty_codebooks_between_others(self):
        g = np.random.default_rng(8)
        self._check(*_groups([0, 12, 0, 0, 3, 0], [4, 9, 1, 7, 5, 2], g))

    def test_huge_codebook_beside_many_small_splits_blocks(self, monkeypatch):
        """One large codebook searches alone; the small ones share blocks,
        more than one of them."""
        blocks = []
        sq_dists = quantizer.sq_dists

        def spy(pts, cands):
            blocks.append((len(pts), cands.ndim))
            return sq_dists(pts, cands)

        monkeypatch.setattr(quantizer, "sq_dists", spy)
        g = np.random.default_rng(9)
        sizes = [2000] + g.integers(1, 40, 40).tolist()
        counts = [60] + g.integers(3, 30, 40).tolist()
        self._check(*_groups(sizes, counts, g))
        assert blocks[0] == (60, 2)
        assert sum(1 for _, ndim in blocks if ndim == 3) > 1
        assert len(blocks) < len(sizes)

    def test_single_point_groups(self):
        g = np.random.default_rng(10)
        self._check(*_groups([5, 1, 30, 7, 7], [1, 1, 1, 3, 1], g))

    def test_subnormals(self):
        """Subnormal points and codewords: squares underflow to zero, so
        most distances tie and the first codeword wins."""
        g = np.random.default_rng(11)
        tiny = np.finfo(np.float64).smallest_subnormal
        cbs, pts, bounds = _groups([6, 3, 9, 1], [5, 8, 2, 4], g)
        cbs = [np.round(cb * 1000) * tiny for cb in cbs]
        pts = np.round(pts * 1000) * tiny
        self._check(cbs, pts, bounds)
        cbs[1][:, 0] = 1e-160  # squares just above underflow beside zeros
        self._check(cbs, pts, bounds)

    @pytest.mark.parametrize("cells", [1, 50, 400])
    def test_chunked_blocks(self, monkeypatch, cells):
        """Blocks whose distance matrix is over the chunk bound are searched
        in row chunks, alone or padded beside others; a padded chunk holds
        only its own rows' codebooks."""
        chunks = []
        sq_dists = quantizer.sq_dists

        def spy(pts, cands):
            chunks.append((len(pts), cands.shape))
            return sq_dists(pts, cands)

        monkeypatch.setattr(quantizer, "sq_dists", spy)
        monkeypatch.setattr(quantizer, "CHUNK_CELLS", cells)
        g = np.random.default_rng(12)
        self._check(*_groups([40, 38, 36, 2, 0, 37], [30, 25, 9, 14, 3, 11], g))
        for n, shape in chunks:
            v = shape[-2]
            assert n * v <= max(cells, v)
            assert len(shape) == 2 or shape[0] == n

    def test_one_codebook_is_nearest(self):
        g = np.random.default_rng(13)
        cb, pts = g.normal(0, 1, (25, 2)), g.normal(0, 1, (70, 2))
        got, want = nearest(cb, pts), nearest_each([cb], pts, (0, 70))
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _check_quantize_each(new, old, errs, bounds):
    """``quantize_each`` over all groups against one quantize per group of
    the list-backed quantizers: codes and codebooks bit for bit."""
    codes = quantize_each(new, errs, bounds)
    for j, (q, o) in enumerate(zip(new, old)):
        lo, hi = bounds[j], bounds[j + 1]
        assert codes[lo:hi].tolist() == o.quantize(errs[lo:hi]).tolist()
        assert q.codebook.tobytes() == o.codebook.tobytes()


class TestQuantizeEachMatchesOneQuantizePerGroup:
    """Quantizing every group with one search and growing only the groups
    with a point beyond eps gives what one quantizer per group gives, over
    batches in which some codebooks start empty."""

    @pytest.mark.parametrize("seed", range(5))
    def test_batches(self, seed):
        g = np.random.default_rng(100 + seed)
        m = int(g.integers(1, 10))
        eps = float(g.choice([0.05, 0.3, 1.0]))
        new = [IncrementalQuantizer(eps, seed=7 * j) for j in range(m)]
        old = [_ListQuantizer(eps, seed=7 * j) for j in range(m)]
        for _ in range(6):
            counts = g.integers(1, 50, m)
            errs = g.normal(0, 1, (counts.sum(), 2)) * g.choice([0.1, 1, 3], (counts.sum(), 1))
            _check_quantize_each(new, old, errs, np.r_[0, np.cumsum(counts)])

    def test_duplicate_errors_and_single_points(self):
        g = np.random.default_rng(14)
        batch = np.repeat(np.round(g.normal(0, 1, (6, 2)), 1), 3, axis=0)
        errs = np.vstack([batch, batch[:1], batch[::-1], batch[2:3]])
        bounds = np.array([0, 18, 19, 37, 38])
        new = [IncrementalQuantizer(1e-9, seed=j) for j in range(4)]
        old = [_ListQuantizer(1e-9, seed=j) for j in range(4)]
        for _ in range(2):
            _check_quantize_each(new, old, errs, bounds)

    def test_quantize_is_the_one_group_case(self):
        g = np.random.default_rng(15)
        q1, q2 = IncrementalQuantizer(0.2, seed=4), IncrementalQuantizer(0.2, seed=4)
        for _ in range(4):
            errs = g.normal(0, 1, (int(g.integers(1, 60)), 2))
            assert q1.quantize(errs).tolist() == quantize_each([q2], errs, (0, len(errs))).tolist()
            assert q1.codebook.tobytes() == q2.codebook.tobytes()


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
