"""Tests for the partition-based index PI (paper Algorithm 3)."""
import numpy as np
import pytest

from repro.index.idcodec import decode_ids, encode_ids
from repro.index import pi as pi_module
from repro.index.pi import PI, build_pi, build_rects
from repro.index.rectangles import Rect


def _frame(seed=0, n=120, spread=0.3):
    g = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [2.0, 2.0], [4.0, 0.0]])
    pts = centers[g.integers(0, 3, n)] + g.normal(0, spread, (n, 2))
    return np.arange(n), pts[:, 0], pts[:, 1]


@pytest.fixture()
def pi():
    ids, xs, ys = _frame()
    return build_pi(1, ids, xs, ys, eps_s=1.0, gc=0.25, seed=0)


class TestBuild:
    def test_all_points_covered(self, pi):
        ids, xs, ys = _frame()
        assert (pi.rect_of(xs, ys) >= 0).all()

    def test_rects_disjoint(self, pi):
        for i, a in enumerate(pi.rects):
            for b in pi.rects[i + 1 :]:
                assert not a.intersects(b)

    def test_multiple_rects_for_clustered_data(self, pi):
        assert len(pi.rects) >= 3

    def test_build_time_recorded(self, pi):
        assert pi.build_seconds > 0

    def test_built_at(self, pi):
        assert pi.built_at == 1


class TestQuery:
    def test_query_returns_cell_members(self, pi):
        ids, xs, ys = _frame()
        for i in (0, 17, 55):
            got = pi.query(xs[i], ys[i], 1)
            assert ids[i] in got

    def test_query_matches_brute_force(self, pi):
        ids, xs, ys = _frame()
        ri = pi.rect_of(xs, ys)
        for i in (3, 42, 99):
            got = set(pi.query(xs[i], ys[i], 1).tolist())
            key = pi.cell_of(int(ri[i]), xs[i], ys[i])
            expect = {
                int(ids[j])
                for j in range(len(ids))
                if ri[j] == ri[i]
                and pi.cell_of(int(ri[j]), xs[j], ys[j]) == key
            }
            assert got == expect

    def test_query_missing_time_empty(self, pi):
        ids, xs, ys = _frame()
        assert len(pi.query(xs[0], ys[0], 99)) == 0

    def test_query_outside_rects_empty(self, pi):
        assert len(pi.query(100.0, 100.0, 1)) == 0

    def test_query_circle_superset_of_cell(self, pi):
        ids, xs, ys = _frame()
        plain = set(pi.query(xs[0], ys[0], 1).tolist())
        circle = set(pi.query_circle(xs[0], ys[0], 1, radius=0.5).tolist())
        assert plain <= circle

    def test_query_circle_zero_radius(self, pi):
        ids, xs, ys = _frame()
        got = set(pi.query_circle(xs[5], ys[5], 1, radius=1e-12).tolist())
        assert ids[5] in got


class TestMaintenance:
    def test_add_points_second_timestamp(self, pi):
        ids, xs, ys = _frame(seed=1)
        uncov = pi.add_points(2, ids, xs, ys)
        covered = ~uncov
        for i in np.flatnonzero(covered)[:10]:
            assert ids[i] in pi.query(xs[i], ys[i], 2)

    def test_uncovered_mask(self, pi):
        uncov = pi.add_points(3, np.array([999]), np.array([50.0]), np.array([50.0]))
        assert uncov.all()

    def test_add_rects_takes_new_rectangles(self, pi):
        xs, ys = np.array([50.0, 50.1]), np.array([50.0, 50.1])
        rects, ri = build_rects(4, xs, ys, eps_s=1.0, seed=1)
        n_before = len(pi.rects)
        pi.add_rects(rects)
        assert pi.rects[n_before:] == rects
        assert (pi.rect_of(xs, ys) == ri + n_before).all()
        assert not pi.add_points(4, np.array([1000, 1001]), xs, ys).any()
        assert 1000 in pi.query(50.0, 50.0, 4)


class TestAccounting:
    def test_counts_per_rect_sum(self, pi):
        assert pi.counts_per_rect(1).sum() == 120

    def test_counts_zero_for_missing_t(self, pi):
        assert pi.counts_per_rect(77).sum() == 0

    def test_rect_sizes_positive(self, pi):
        assert (pi.rect_sizes() >= 1).all()

    def test_size_bits_grows_with_data(self, pi):
        before = pi.size_bits()
        ids, xs, ys = _frame(seed=2)
        pi.add_points(5, ids, xs, ys)
        assert pi.size_bits() > before


def _loop_rect_of(pi, xs, ys):
    """The earlier rect_of: test the rectangles one by one."""
    out = np.full(len(xs), -1, dtype=np.int64)
    for ri, r in enumerate(pi.rects):
        m = (out == -1) & r.contains_many(xs, ys)
        out[m] = ri
    return out


def _loop_buckets(pi, ids, xs, ys):
    """The earlier add_points bucketing: one point at a time, the cell from
    the point's numpy scalars and its rectangle's Python-float corner."""
    ri = _loop_rect_of(pi, xs, ys)
    buckets = {}
    for i in np.flatnonzero(ri >= 0):
        r = pi.rects[ri[i]]
        key = (
            int(ri[i]),
            int((xs[i] - r.x0) // pi.gc),
            int((ys[i] - r.y0) // pi.gc),
        )
        buckets.setdefault(key, []).append(int(ids[i]))
    return buckets


def _edge_points(pi, g, n):
    """Points exactly on rectangle corners and edges (both half-open
    sides), on cell boundaries inside them, and some points outside."""
    b = np.array([(r.x0, r.y0, r.x1, r.y1) for r in pi.rects])
    pick = b[g.integers(0, len(b), n)]
    xs = pick[np.arange(n), g.choice([0, 2], n)]
    ys = pick[np.arange(n), g.choice([1, 3], n)]
    on_grid = g.random(n) < 0.3
    xs[on_grid] = pick[on_grid, 0] + pi.gc * g.integers(0, 4, on_grid.sum())
    mix = g.random(n) < 0.3
    ys[mix] = g.uniform(pick[mix, 1], pick[mix, 3])
    far = g.random(n) < 0.1
    xs[far] += 100.0
    return xs, ys


class TestMatchesLoop:
    """Stacked-bounds lookup and array-coded bucketing equal the loops."""

    @pytest.mark.parametrize("seed", range(5))
    def test_rect_of_random_points(self, pi, seed):
        g = np.random.default_rng(seed)
        xs, ys = g.uniform(-1.5, 5.5, 500), g.uniform(-1.5, 3.5, 500)
        got = pi.rect_of(xs, ys)
        assert np.array_equal(got, _loop_rect_of(pi, xs, ys))
        assert (got == -1).any() and (got >= 0).any()

    @pytest.mark.parametrize("seed", range(5))
    def test_rect_of_on_half_open_edges(self, pi, seed):
        xs, ys = _edge_points(pi, np.random.default_rng(seed), 400)
        got = pi.rect_of(xs, ys)
        assert np.array_equal(got, _loop_rect_of(pi, xs, ys))
        assert (got == -1).any()

    def test_rect_of_without_rects(self):
        xs = np.array([0.0, 1.0])
        assert np.array_equal(PI(gc=0.1).rect_of(xs, xs), [-1, -1])

    def test_rect_of_no_points(self, pi):
        got = pi.rect_of(np.zeros(0), np.zeros(0))
        assert got.shape == (0,) and got.dtype == np.int64

    @staticmethod
    def _check_bucketing(pi, t, ids, xs, ys):
        want = _loop_buckets(pi, ids, xs, ys)
        before = {k: dict(v) for k, v in pi.cells.items()}
        uncov = pi.add_points(t, ids, xs, ys)
        assert np.array_equal(uncov, _loop_rect_of(pi, xs, ys) < 0)
        got = {k: per_t[t] for k, per_t in pi.cells.items() if t in per_t}
        assert sorted(got) == sorted(want)
        for key, lst in want.items():
            assert got[key] == encode_ids(np.asarray(lst))
            assert np.array_equal(decode_ids(got[key]), np.sort(lst))
        for key, per_t in before.items():  # other timestamps untouched
            assert {s: e for s, e in pi.cells[key].items() if s != t} == per_t

    @pytest.mark.parametrize("seed", range(5))
    def test_add_points_random(self, pi, seed):
        g = np.random.default_rng(seed)
        ids, xs, ys = _frame(seed=seed + 10, n=300, spread=0.6)
        self._check_bucketing(pi, 2 + seed, g.permutation(ids), xs, ys)

    @pytest.mark.parametrize("seed", range(5))
    def test_add_points_on_edges(self, pi, seed):
        g = np.random.default_rng(seed)
        xs, ys = _edge_points(pi, g, 300)
        self._check_bucketing(pi, 2, g.integers(0, 50, 300), xs, ys)

    def test_add_points_duplicate_points_and_ids(self, pi):
        ids, xs, ys = _frame(seed=4, n=40)
        rep = np.repeat(np.arange(40), 3)
        self._check_bucketing(pi, 2, ids[rep] % 7, xs[rep], ys[rep])

    def test_add_points_all_uncovered(self, pi):
        n_cells = len(pi.cells)
        self._check_bucketing(pi, 2, np.arange(3), np.full(3, 50.0), np.full(3, 50.0))
        assert len(pi.cells) == n_cells

    def test_add_points_no_points(self, pi):
        uncov = pi.add_points(2, np.zeros(0, np.int64), np.zeros(0), np.zeros(0))
        assert uncov.shape == (0,)

    def test_add_points_floor_on_decimal_grid(self):
        """Decimal offsets where ``(x - x0) // gc`` and ``floor((x - x0) / gc)``
        part (1.0 // 0.1 is 9.0, 1.0 / 0.1 is 10.0)."""
        pi = PI(gc=0.1, rects=[Rect(0.0, 0.0, 5.0, 5.0), Rect(5.0, 0.0, 9.0, 5.0)])
        xs = np.round(np.arange(0, 90) * 0.1, 10)
        ys = xs[::-1] % 5.0
        assert (xs // 0.1 != np.floor(xs / 0.1)).any()
        self._check_bucketing(pi, 1, np.arange(90), xs, ys)

    def test_floor_matches_python_floats(self, pi):
        """The array ``//`` gives the cell of the same Python-float
        expression ``cell_of`` uses for queries."""
        xs, ys = _edge_points(pi, np.random.default_rng(6), 400)
        pi.add_points(2, np.arange(400), xs, ys)
        ri = pi.rect_of(xs, ys)
        for i in np.flatnonzero(ri >= 0):
            key = pi.cell_of(int(ri[i]), float(xs[i]), float(ys[i]))
            assert i in decode_ids(pi.cells[key][2])

    def test_rect_sizes_match_rects(self, pi):
        rects, _ = build_rects(
            4, np.array([50.0, 50.3]), np.array([50.0, 50.7]), eps_s=1.0, seed=1
        )
        n_before = len(pi.rects)
        pi.add_rects(rects)
        gc = pi.gc
        want = [
            max(1, int(np.ceil(r.width / gc))) * max(1, int(np.ceil(r.height / gc)))
            for r in pi.rects
        ]
        assert pi.rect_sizes().tolist() == want
        assert pi.rect_of(np.array([50.0]), np.array([50.0]))[0] == n_before


def _loop_cells(pi, batches):
    """The earlier store: ``{key: {t: encode_ids(list)}}`` filled one
    ``add_points`` batch at a time, a later list replacing an earlier one."""
    cells = {}
    for t, ids, xs, ys in batches:
        for key, lst in _loop_buckets(pi, ids, xs, ys).items():
            cells.setdefault(key, {})[t] = encode_ids(lst)
    return cells


def _old_size_bits(pi):
    """The earlier per-entry sum of ``PI.size_bits``."""
    bits = len(pi.rects) * 4 * 64
    for per_t in pi.cells.values():
        bits += 3 * 32 + sum(32 + enc.total_bits for enc in per_t.values())
    return bits


class TestColumnStore:
    """The per-timestamp columns hold what the earlier dict of
    ``{t: EncodedIds}`` per cell held; ``cells`` rebuilds that mapping."""

    @staticmethod
    def _batches(pi):
        g = np.random.default_rng(3)
        ids, xs, ys = _frame(seed=13, n=300, spread=0.6)
        exs, eys = _edge_points(pi, g, 200)
        dup = np.repeat(np.arange(40), 3)
        return [
            (2, g.permutation(ids), xs, ys),
            (3, g.integers(0, 50, 200), exs, eys),
            (4, ids[dup] % 7, xs[dup], ys[dup]),
        ]

    def _check(self, pi, want):
        got = pi.cells
        assert got == want
        assert _old_size_bits(pi) == pi.size_bits()
        for t in {t for per_t in want.values() for t in per_t}:
            at_t = {k: per_t[t] for k, per_t in want.items() if t in per_t}
            cells, counts = pi.cell_counts(t)
            assert cells == sorted(at_t)
            assert counts.tolist() == [at_t[k].n_ids for k in cells]
            per_rect = np.zeros(len(pi.rects), dtype=np.int64)
            for (ri, _, _), enc in at_t.items():
                per_rect[ri] += enc.n_ids
            assert pi.counts_per_rect(t).tolist() == per_rect.tolist()
            for key, enc in at_t.items():
                ri, cx, cy = key
                r = pi.rects[ri]
                # a point inside the cell, away from its edges
                x = max(r.x0, r.x0 + (cx + 0.5) * pi.gc - 1e-9)
                y = max(r.y0, r.y0 + (cy + 0.5) * pi.gc - 1e-9)
                if pi.cell_key(x, y) == key:
                    assert pi.query(x, y, t).tolist() == decode_ids(enc).tolist()

    def test_view_matches_loop(self, pi):
        ids, xs, ys = _frame()
        batches = [(1, ids, xs, ys)] + self._batches(pi)
        for t, b_ids, b_xs, b_ys in batches[1:]:
            pi.add_points(t, b_ids, b_xs, b_ys)
        want = _loop_cells(pi, batches)
        assert any(e.n_ids > 1 for per_t in want.values() for e in per_t.values())
        self._check(pi, want)

    def test_view_is_rebuilt_on_each_read(self, pi):
        view = pi.cells
        view.clear()
        assert pi.cells and pi.cells is not pi.cells

    def test_add_points_at_an_indexed_t_raises(self, pi):
        """A timestamp is indexed once: a second ``add_points`` at it is
        refused and the PI keeps the lists it held."""
        ids, xs, ys = _frame()
        want = _loop_cells(pi, [(1, ids, xs, ys)])
        with pytest.raises(ValueError, match="t=1 is already indexed"):
            pi.add_points(1, ids[:60] + 500, xs[:60], ys[:60])
        self._check(pi, want)

    def test_add_rects_lists_match_a_separate_pi(self, pi):
        """Lists indexed under added rectangles are the lists a separate PI
        over those rectangles holds, at keys numbered on from the earlier
        rectangles'."""
        g = np.random.default_rng(2)
        oxs, oys = g.uniform(50.0, 52.0, 80), g.uniform(50.0, 51.0, 80)
        oids = np.r_[np.arange(1000, 1040), np.arange(1000, 1040)]  # repeats
        rects, _ = build_rects(2, oxs, oys, eps_s=1.0, seed=1)
        other = PI(gc=0.25, rects=list(rects))
        batches = [(2, oids, oxs, oys), (3, oids[:30] + 1, oxs[:30], oys[:30])]
        for t, b_ids, b_xs, b_ys in batches:
            other.add_points(t, b_ids, b_xs, b_ys)
        off = len(pi.rects)
        before = pi.cells
        shifted = {(ri + off, cx, cy): per_t for (ri, cx, cy), per_t in other.cells.items()}
        assert any(e.n_ids > 1 for per_t in shifted.values() for e in per_t.values())
        pi.add_rects(rects)
        for t, b_ids, b_xs, b_ys in batches:
            assert not pi.add_points(t, b_ids, b_xs, b_ys).any()
        self._check(pi, {**before, **shifted})
        assert 1000 in pi.query(oxs[0], oys[0], 2)

    def test_keys_at_the_largest_grid(self):
        """Rectangles of 2^51 cells on one axis (the most ``//`` floors
        exactly) whose keys end at the int64 limit: their corner cells
        keep their own keys, in (ri, cx, cy) order."""
        big = 2.0**51
        small = Rect(-4.0, 0.0, -0.5, 2.5)  # 4 x 3 cells: keys 0..11
        sy = (2**63 - 1 - 12) // 2**51  # rows of 2^51 cells that fit after it
        pi = PI(gc=1.0, rects=[small, Rect(0.0, 0.0, big - 0.5, sy - 0.5)])
        # one more cell would pass the int64 range, one more row too
        room = 2**63 - 1 - 12 - sy * 2**51
        y = float(sy)
        state = (list(pi.rects), pi._bounds.tobytes(), pi._sizes.tobytes(),
                 pi._slots.tobytes(), pi._base.tobytes(), pi._n_keys)
        with pytest.raises(ValueError, match="64-bit cell key"):
            pi.add_rects([Rect(0.0, y, room + 0.5, y + 0.5)])
        assert (list(pi.rects), pi._bounds.tobytes(), pi._sizes.tobytes(),
                pi._slots.tobytes(), pi._base.tobytes(), pi._n_keys) == state
        with pytest.raises(ValueError, match="64-bit cell key"):
            PI(gc=1.0, rects=[small, Rect(0.0, 0.0, big - 0.5, sy + 0.5)])
        with pytest.raises(ValueError, match="one axis"):
            PI(gc=1.0, rects=[Rect(0.0, 0.0, big + 0.5, 1.0)])
        assert len(pi.rects) == 2
        pi.add_rects([Rect(0.0, y, room - 0.5, y + 0.5)])
        xs = np.array([-4.0, -0.6, 0.0, 0.0, big - 1.0, big - 1.0, 0.0, room - 1.0])
        ys = np.array([0.0, 2.4, 0.0, y - 1.0, 0.0, y - 1.0, 1.0, y])
        ids = np.arange(len(xs))
        assert not pi.add_points(1, ids, xs, ys).any()
        want = {pi.cell_key(x, y): {1: encode_ids([i])} for i, x, y in zip(ids, xs, ys)}
        assert len(want) == len(xs)
        assert max(k[1] for k in want) == 2**51 - 1
        assert pi._at[1].keys[-1] == 2**63 - 2  # the last key there is
        assert pi.cells == want
        assert pi.cell_counts(1)[0] == sorted(want)
        for i, x, y in zip(ids, xs, ys):
            assert pi.query(x, y, 1).tolist() == [i]
        assert pi.counts_per_rect(1).tolist() == [2, 5, 1]


class TestFirstHit:
    def test_point_in_an_overlap_belongs_to_the_lower_rectangle(self):
        """An added rectangle may overlap an earlier one; a point in both is
        indexed, counted and found under the lower-index rectangle."""
        pi = PI(gc=0.5, rects=[Rect(0.0, 0.0, 2.0, 2.0)])
        pi.add_rects([Rect(1.0, 1.0, 3.0, 3.0)])
        assert pi.rects[0].intersects(pi.rects[1])
        xs, ys = np.array([1.5, 2.5]), np.array([1.5, 2.5])
        assert pi.rect_of(xs, ys).tolist() == [0, 1]
        assert pi.cell_key(1.5, 1.5) == (0, 3, 3)
        assert not pi.add_points(1, np.array([7, 8]), xs, ys).any()
        assert pi.cell_counts(1)[0] == [(0, 3, 3), (1, 3, 3)]
        assert pi.counts_per_rect(1).tolist() == [1, 1]
        assert pi.query(1.5, 1.5, 1).tolist() == [7]
        assert pi.query(2.5, 2.5, 1).tolist() == [8]


class TestCoverageCheck:
    def test_uncovered_own_point_raises(self, monkeypatch):
        """The check is an exception, so it also holds under ``python -O``."""
        real = pi_module._first_hit

        def drop_first(bounds, xs, ys):
            out = real(bounds, xs, ys)
            out[:1] = -1
            return out

        monkeypatch.setattr(pi_module, "_first_hit", drop_first)
        ids, xs, ys = _frame()
        with pytest.raises(RuntimeError, match="t=1"):
            build_pi(1, ids, xs, ys, eps_s=1.0, gc=0.25, seed=0)

    def test_no_points_builds_empty_index(self):
        no = np.zeros(0)
        pi = build_pi(1, no.astype(np.int64), no, no, eps_s=1.0, gc=0.25)
        assert pi.rects == [] and pi.cells == {}
