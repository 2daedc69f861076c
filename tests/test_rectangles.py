"""Tests for rectangle MBR / overlap removal (Alg. 3 geometry)."""
import numpy as np
import pytest

from repro.index.rectangles import Rect, mbrs, remove_overlap, subtract_one


class TestRect:
    def test_contains_half_open(self):
        r = Rect(0, 0, 1, 1)
        assert r.contains(0, 0)
        assert not r.contains(1, 0)
        assert not r.contains(0, 1)
        assert r.contains(0.999, 0.999)

    def test_contains_many(self):
        r = Rect(0, 0, 1, 1)
        xs = np.array([0.0, 0.5, 1.0, -0.1])
        ys = np.array([0.0, 0.5, 0.5, 0.5])
        assert r.contains_many(xs, ys).tolist() == [True, True, False, False]

    def test_area(self):
        assert Rect(0, 0, 2, 3).area == 6

    def test_intersects(self):
        a = Rect(0, 0, 2, 2)
        assert a.intersects(Rect(1, 1, 3, 3))
        assert not a.intersects(Rect(2, 0, 3, 1))  # touching edges don't overlap
        assert not a.intersects(Rect(5, 5, 6, 6))

    def test_intersection(self):
        i = Rect(0, 0, 2, 2).intersection(Rect(1, 1, 3, 3))
        assert (i.x0, i.y0, i.x1, i.y1) == (1, 1, 2, 2)

    def test_is_empty(self):
        assert Rect(0, 0, 0, 1).is_empty()
        assert not Rect(0, 0, 0.1, 1).is_empty()


def _loop_mbr(pts, pad=1e-12):
    """The earlier one-label MBR: four reductions over the label's rows."""
    return Rect(
        float(pts[:, 0].min()),
        float(pts[:, 1].min()),
        float(pts[:, 0].max()) + pad,
        float(pts[:, 1].max()) + pad,
    )


class TestMBR:
    def test_covers_all_points(self):
        g = np.random.default_rng(0)
        pts = g.random((100, 2))
        (r,) = mbrs(pts, np.zeros(100, dtype=np.int64))
        assert r.contains_many(pts[:, 0], pts[:, 1]).all()

    def test_boundary_point_included(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        (r,) = mbrs(pts, np.zeros(2, dtype=np.int64))
        assert r.contains(1.0, 1.0)  # max edge padded

    def test_single_point(self):
        (r,) = mbrs(np.array([[2.0, 3.0]]), np.zeros(1, dtype=np.int64))
        assert r.contains(2.0, 3.0)
        assert r.area > 0

    def test_no_points(self):
        assert mbrs(np.zeros((0, 2)), np.zeros(0, dtype=np.int64)) == []

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_label_loop(self, seed):
        """One rectangle per label in ascending label order, each with the
        bits of that label's own masked reductions."""
        g = np.random.default_rng(seed)
        n = int(g.integers(1, 300))
        pts = np.array([116.3, 39.9]) + g.normal(0, 10.0 ** g.uniform(-6, 0), (n, 2))
        labels = g.integers(0, int(g.integers(1, 20)), n)
        labels = np.unique(labels, return_inverse=True)[1]  # 0..k-1, all used
        want = [_loop_mbr(pts[labels == j]) for j in np.unique(labels)]
        assert mbrs(pts, labels) == want

    def test_each_label_covered(self):
        g = np.random.default_rng(7)
        pts = g.random((60, 2))
        labels = np.repeat(np.arange(6), 10)[g.permutation(60)]
        for j, r in enumerate(mbrs(pts, labels)):
            assert r.contains_many(pts[labels == j, 0], pts[labels == j, 1]).all()


class TestSubtractOne:
    def test_disjoint_untouched(self):
        r = Rect(0, 0, 1, 1)
        assert subtract_one(r, Rect(5, 5, 6, 6)) == [r]

    def test_full_cover_empty(self):
        assert subtract_one(Rect(0, 0, 1, 1), Rect(-1, -1, 2, 2)) == []

    def test_pieces_disjoint_and_cover(self):
        r = Rect(0, 0, 4, 4)
        cut = Rect(1, 1, 3, 3)
        pieces = subtract_one(r, cut)
        assert sum(p.area for p in pieces) == pytest.approx(r.area - cut.area)
        for i, a in enumerate(pieces):
            assert not a.intersects(cut)
            for b in pieces[i + 1 :]:
                assert not a.intersects(b)

    def test_corner_cut(self):
        pieces = subtract_one(Rect(0, 0, 2, 2), Rect(1, 1, 3, 3))
        assert sum(p.area for p in pieces) == pytest.approx(3.0)


class TestRemoveOverlap:
    def test_no_existing(self):
        r = Rect(0, 0, 1, 1)
        assert remove_overlap(r, []) == [r]

    def test_paper_example_shape(self):
        """Fig. 5a: R2 overlapping R1 is decomposed into disjoint parts."""
        r1 = Rect(0, 0, 2, 2)
        r2 = Rect(1, 1, 3, 3)
        pieces = remove_overlap(r2, [r1])
        assert sum(p.area for p in pieces) == pytest.approx(3.0)
        for p in pieces:
            assert not p.intersects(r1)

    def test_multiple_cuts(self):
        new = Rect(0, 0, 10, 10)
        cuts = [Rect(0, 0, 5, 5), Rect(5, 5, 10, 10)]
        pieces = remove_overlap(new, cuts)
        assert sum(p.area for p in pieces) == pytest.approx(50.0)
        for p in pieces:
            for c in cuts:
                assert not p.intersects(c)
        # pieces pairwise disjoint
        for i, a in enumerate(pieces):
            for b in pieces[i + 1 :]:
                assert not a.intersects(b)

    def test_fully_covered_returns_empty(self):
        assert remove_overlap(Rect(1, 1, 2, 2), [Rect(0, 0, 3, 3)]) == []

    @pytest.mark.parametrize("seed", range(5))
    def test_random_configurations_invariant(self, seed):
        """Union of existing + pieces tiles the new rect exactly."""
        g = np.random.default_rng(seed)
        existing = []
        for _ in range(4):
            x0, y0 = g.random(2) * 5
            existing.append(Rect(x0, y0, x0 + g.random() * 3, y0 + g.random() * 3))
        x0, y0 = g.random(2) * 5
        new = Rect(x0, y0, x0 + 2, y0 + 2)
        pieces = remove_overlap(new, existing)
        # Monte-Carlo the invariant: a point in `new` is in exactly one
        # piece iff it is in no existing rect.
        samples = g.random((500, 2)) * np.array([new.width, new.height]) + np.array(
            [new.x0, new.y0]
        )
        for px, py in samples:
            in_existing = any(r.contains(px, py) for r in existing)
            n_pieces = sum(p.contains(px, py) for p in pieces)
            assert n_pieces == (0 if in_existing else 1)
