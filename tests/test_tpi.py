"""Tests for the temporal partition-based index TPI (paper Algorithm 4)."""
import dataclasses
import gc

import numpy as np
import pandas as pd
import pytest

from repro.harness.config import BENCH, QUICK
from repro.index import pi as pi_module
from repro.index.idcodec import decode_ids
from repro.index.pi import PI, _Columns, _grid_sizes, _key_ranges, build_pi
from repro.index.rectangles import Rect
from repro.index.tpi import TPI, Period, adr, build_tpi_from_points
from tests.test_golden_index import tpi_digest


class TestADR:
    def test_no_drop_zero(self):
        d = np.array([1.0, 2.0])
        assert adr(d, d, eps_c=0.5) == 0.0

    def test_full_drop_one(self):
        base = np.array([1.0, 1.0])
        now = np.array([0.0, 0.0])
        assert adr(now, base, eps_c=0.5) == 1.0

    def test_threshold_respected(self):
        base = np.array([1.0, 1.0])
        now = np.array([0.6, 0.4])  # drops of 40% and 60%
        assert adr(now, base, eps_c=0.5) == pytest.approx(0.5)

    def test_increase_not_counted(self):
        base = np.array([1.0])
        now = np.array([5.0])
        assert adr(now, base, eps_c=0.1) == 0.0

    def test_empty_rects(self):
        assert adr(np.zeros(0), np.zeros(0), 0.5) == 0.0

    def test_paper_example_rebuild(self):
        """Fig. 5b: four unit rects, densities drop so ADR = 0.75 > 0.5."""
        base = np.array([4.0, 4.0, 4.0, 4.0])
        now = np.array([1.0, 1.0, 1.0, 4.0])
        assert adr(now, base, eps_c=0.5) == pytest.approx(0.75)

    def test_paper_example_insertion(self):
        """Fig. 5c: only one of four rects drops enough -> ADR = 0.25."""
        base = np.array([4.0, 4.0, 4.0, 4.0])
        now = np.array([1.0, 4.0, 4.0, 3.0])
        assert adr(now, base, eps_c=0.5) == pytest.approx(0.25)


def _drift_points(n_traj=30, n_steps=12, jump_at=None, seed=0, drift=0.0):
    """Static trajectories; optionally drifting and/or teleporting."""
    g = np.random.default_rng(seed)
    base = g.random((n_traj, 2))
    rows = []
    for t in range(1, n_steps + 1):
        pts = base + drift * t
        if jump_at is not None and t >= jump_at:
            pts = pts + 10.0
        rows.append(
            pd.DataFrame(
                {"traj_id": np.arange(n_traj), "t": t, "x": pts[:, 0], "y": pts[:, 1]}
            )
        )
    return pd.concat(rows, ignore_index=True)


class TestTPIBehaviour:
    def test_stable_data_single_period(self):
        pts = _drift_points()
        tpi = build_tpi_from_points(pts, eps_d=0.5, eps_c=0.5, eps_s=1.0, gc=0.2)
        assert tpi.n_periods == 1
        assert tpi.n_rebuilds == 0

    def test_teleport_triggers_rebuild(self):
        pts = _drift_points(jump_at=6)
        tpi = build_tpi_from_points(pts, eps_d=0.5, eps_c=0.5, eps_s=1.0, gc=0.2)
        assert tpi.n_rebuilds >= 1
        assert tpi.n_periods >= 2

    def test_partial_move_triggers_insertion(self):
        g = np.random.default_rng(1)
        base = g.random((40, 2))
        rows = []
        for t in (1, 2):
            pts = base.copy()
            if t == 2:
                pts[:5] += 10.0  # few points leave coverage; most stay
            rows.append(
                pd.DataFrame(
                    {"traj_id": np.arange(40), "t": t, "x": pts[:, 0], "y": pts[:, 1]}
                )
            )
        tpi = build_tpi_from_points(
            pd.concat(rows, ignore_index=True), eps_d=0.9, eps_c=0.9, eps_s=1.0, gc=0.2
        )
        assert tpi.n_insertions >= 1
        assert tpi.n_periods == 1

    def test_periods_partition_the_timeline(self):
        pts = _drift_points(jump_at=6)
        tpi = build_tpi_from_points(pts, eps_d=0.5, eps_c=0.5, eps_s=1.0, gc=0.2)
        covered = []
        for p in tpi.periods:
            assert p.te is not None
            covered.extend(range(p.ts, p.te + 1))
        assert covered == list(range(1, 13))

    def test_query_finds_indexed_point(self):
        pts = _drift_points()
        tpi = build_tpi_from_points(pts, eps_d=0.5, eps_c=0.5, eps_s=1.0, gc=0.2)
        row = pts.iloc[200]
        assert int(row.traj_id) in tpi.query(row.x, row.y, int(row.t))

    def test_query_correct_after_rebuild(self):
        pts = _drift_points(jump_at=6)
        tpi = build_tpi_from_points(pts, eps_d=0.5, eps_c=0.5, eps_s=1.0, gc=0.2)
        late = pts[pts.t == 10].iloc[3]
        assert int(late.traj_id) in tpi.query(late.x, late.y, 10)

    def test_query_unknown_time_empty(self):
        pts = _drift_points()
        tpi = build_tpi_from_points(pts, eps_d=0.5, eps_c=0.5, eps_s=1.0, gc=0.2)
        assert len(tpi.query(0.5, 0.5, 999)) == 0

    def test_query_circle_superset(self):
        pts = _drift_points()
        tpi = build_tpi_from_points(pts, eps_d=0.5, eps_c=0.5, eps_s=1.0, gc=0.2)
        row = pts.iloc[100]
        a = set(tpi.query(row.x, row.y, int(row.t)).tolist())
        b = set(tpi.query_circle(row.x, row.y, int(row.t), 0.3).tolist())
        assert a <= b


class TestThresholdShapes:
    """The paper's Table 7/8 monotonicity."""

    def _periods(self, eps_d, eps_c, seed=3):
        g = np.random.default_rng(seed)
        n_traj, n_steps = 40, 20
        base = g.random((n_traj, 2))
        rows = []
        pts = base
        for t in range(1, n_steps + 1):
            pts = pts + g.normal(0, 0.08, (n_traj, 2))  # noticeable churn
            rows.append(
                pd.DataFrame(
                    {"traj_id": np.arange(n_traj), "t": t, "x": pts[:, 0], "y": pts[:, 1]}
                )
            )
        tpi = build_tpi_from_points(
            pd.concat(rows, ignore_index=True),
            eps_d=eps_d, eps_c=eps_c, eps_s=0.5, gc=0.1,
        )
        return tpi

    def test_higher_eps_d_fewer_periods(self):
        lo = self._periods(eps_d=0.1, eps_c=0.5)
        hi = self._periods(eps_d=0.9, eps_c=0.5)
        assert hi.n_periods <= lo.n_periods

    def test_higher_eps_c_fewer_periods(self):
        lo = self._periods(eps_d=0.5, eps_c=0.1)
        hi = self._periods(eps_d=0.5, eps_c=0.9)
        assert hi.n_periods <= lo.n_periods

    def test_size_accounting_positive(self):
        tpi = self._periods(0.5, 0.5)
        assert tpi.size_bits() > 0
        assert tpi.size_mb() == pytest.approx(tpi.size_bits() / 8 / 1e6)

    def test_build_seconds_recorded(self):
        tpi = self._periods(0.5, 0.5)
        assert tpi.build_seconds > 0


class TestEmptyTimestep:
    """An empty timestep is rejected with the timestamp named, whether it
    opens the index or arrives later, and leaves the index as it was."""

    def test_first_push_rejected(self):
        tpi = TPI(eps_s=1.0, gc=0.2)
        with pytest.raises(ValueError, match="t=5"):
            tpi.push(5, [], [], [])
        assert tpi.n_periods == 0

    def test_later_push_rejected(self):
        """A later empty step drops every density to zero, so before the
        check it went to a re-build over no points."""
        pts = _drift_points(n_steps=3)
        tpi = TPI(eps_d=0.5, eps_c=0.5, eps_s=1.0, gc=0.2)
        for t in (1, 2, 3):
            tpi.push(t, *_step(pts, t))

        def state():
            return tpi.n_periods, tpi.n_rebuilds, tpi.n_insertions, tpi.size_bits()

        before = state()
        with pytest.raises(ValueError, match="t=4"):
            tpi.push(4, np.zeros(0, np.int64), np.zeros(0), np.zeros(0))
        assert state() == before
        assert tpi.push(4, *_step(pts, 3)) == "append"


class TestPushValidation:
    """Malformed timesteps are rejected by name before any state changes;
    the next good push goes on as if they had never come."""

    @staticmethod
    def _index():
        pts = _drift_points(n_steps=3)
        tpi = TPI(eps_d=0.5, eps_c=0.5, eps_s=1.0, gc=0.2)
        for t in (1, 2, 3):
            tpi.push(t, *_step(pts, t))
        return pts, tpi

    @staticmethod
    def _state(tpi):
        return (
            tpi.n_periods, tpi.n_rebuilds, tpi.n_insertions, tpi.build_seconds,
            tpi.size_bits(), tpi._base_density.tobytes(),
            sorted((k, sorted(v)) for k, v in tpi.current.pi.cells.items()),
        )

    def _check_rejected(self, match, ids, xs, ys):
        pts, tpi = self._index()
        before = self._state(tpi)
        with pytest.raises(ValueError, match=match):
            tpi.push(4, ids, xs, ys)
        assert self._state(tpi) == before
        assert tpi.push(4, *_step(pts, 3)) == "append"

    def test_nan_coordinate(self):
        """Before the check a NaN x fell outside every rectangle and
        build_pi raised a RuntimeError about its own coverage."""
        ids, xs, ys = _step(_drift_points(n_steps=3), 3)
        xs = xs.copy()
        xs[3] = np.nan
        self._check_rejected("non-finite x/y for 1 points at t=4", ids, xs, ys)

    def test_duplicate_ids(self):
        """Before the check a repeated id was indexed twice, silently."""
        ids, xs, ys = _step(_drift_points(n_steps=3), 3)
        ids = ids.copy()
        ids[5] = ids[2]
        self._check_rejected("trajectory id 2 pushed twice at t=4", ids, xs, ys)

    @pytest.mark.parametrize(
        "bad_ids, message",
        [
            ([1.5, 2.7], "non-integer ids at t=4 in 2 rows"),
            ([2.5, 2.7], "non-integer ids at t=4 in 2 rows"),
            ([np.nan, 2.0], "non-finite ids at t=4 in 1 rows"),
            ([np.inf, 1.0], "non-finite ids at t=4 in 1 rows"),
        ],
    )
    def test_non_integer_ids(self, bad_ids, message):
        """Before the check a fractional id was truncated onto another
        trajectory: 1.5 was indexed as 1, and 2.5 with 2.7 as a repeated 2."""
        ids, xs, ys = _step(_drift_points(n_steps=3), 3)
        ids = ids.astype(np.float64)
        ids[[7, 8]] = bad_ids
        self._check_rejected(message, ids, xs, ys)

    def test_object_ids(self):
        ids, xs, ys = _step(_drift_points(n_steps=3), 3)
        ids = np.array([str(i) for i in ids], dtype=object)
        self._check_rejected("non-integer ids at t=4: dtype object", ids, xs, ys)

    def test_whole_float_ids_accepted(self):
        """Float ids that are whole numbers index as the integers they are."""
        pts, tpi = self._index()
        ids, xs, ys = _step(pts, 3)
        assert tpi.push(4, ids.astype(np.float64), xs, ys) == "append"
        assert tpi.query(xs[0], ys[0], 4).tolist() == tpi.query(xs[0], ys[0], 3).tolist()

    def test_time_before_the_current_period(self):
        """Before the check a re-build at an earlier t put a period out of
        time order, where ``period_for``'s bisection cannot find it."""
        pts, tpi = self._index()
        before = self._state(tpi)
        with pytest.raises(ValueError, match="t=0 is not after the previous push's t=3"):
            tpi.push(0, *_step(pts, 3))
        assert self._state(tpi) == before
        assert tpi.push(4, *_step(pts, 3)) == "append"

    @pytest.mark.parametrize("t", [3, 2])
    def test_time_already_indexed(self, t):
        """Before the check a same-t push went through as 'append'."""
        pts, tpi = self._index()
        before = self._state(tpi)
        with pytest.raises(ValueError, match=f"t={t} is not after the previous push's t=3"):
            tpi.push(t, *_step(pts, 3))
        assert self._state(tpi) == before and tpi.t == 3
        assert tpi.push(4, *_step(pts, 3)) == "append"

    def test_repush_leaves_no_stale_entry(self):
        """Before the check, pushing t=3 again with trajectory 0 moved kept
        its first t=3 entry beside the new one: the merge replaced only
        the cells the second push touched, so trajectory 0 was listed in
        two cells at t=3 and still found at its old place."""
        pts = _drift_points(n_steps=3)
        pts.loc[(pts.x < 0.25) & (pts.y < 0.25), "x"] += 0.3  # 0's cell to itself
        pts.loc[pts.traj_id == 0, ["x", "y"]] = 0.05
        tpi = TPI(eps_d=0.9, eps_c=0.9, eps_s=1.0, gc=0.2)
        for t in (1, 2, 3):
            tpi.push(t, *_step(pts, t))
        ids, xs, ys = _step(pts, 3)
        xs, ys = xs.copy(), ys.copy()
        xs[ids == 0], ys[ids == 0] = 0.5, 0.5
        with pytest.raises(ValueError, match="t=3 is not after"):
            tpi.push(3, ids, xs, ys)
        cells_of_0 = [
            key for key, per_t in tpi.current.pi.cells.items()
            if 3 in per_t and 0 in decode_ids(per_t[3])
        ]
        assert len(cells_of_0) == 1
        assert 0 in tpi.query(0.05, 0.05, 3)
        assert 0 not in tpi.query(0.5, 0.5, 3)

    def test_length_mismatch(self):
        """Before the check numpy raised from a concatenate deep inside."""
        ids, xs, ys = _step(_drift_points(n_steps=3), 3)
        self._check_rejected(
            r"x/y at t=4 do not give one position per id: ids of shape \(30,\), "
            r"coordinates of shapes \[\(29,\), \(30,\)\]", ids, xs[:-1], ys
        )


def _step(pts, t):
    f = pts[pts.t == t]
    return f.traj_id.to_numpy(), f.x.to_numpy(), f.y.to_numpy()


def _linear_period_for(tpi, t):
    """The earlier ``period_for``: scan the periods in order."""
    for p in tpi.periods:
        if p.ts <= t and (p.te is None or t <= p.te):
            return p
    return None


class TestPeriodFor:
    def test_matches_scan_on_pushed_periods(self):
        pts = _drift_points(n_steps=30, jump_at=6)
        pts.loc[pts.t >= 15, ["x", "y"]] -= 20.0
        pts.loc[pts.t >= 21, ["x", "y"]] += 40.0
        tpi = TPI(eps_d=0.5, eps_c=0.5, eps_s=1.0, gc=0.2)
        for t in range(1, 31):
            tpi.push(t, *_step(pts, t))
        assert tpi.n_periods >= 4
        for closed in (False, True):
            if closed:
                tpi.current.te = 30
            for t in range(-2, 35):
                assert tpi.period_for(t) is _linear_period_for(tpi, t)

    def test_matches_scan_with_gaps(self):
        pi = PI(gc=0.1)
        tpi = TPI(periods=[
            Period(1, 3, pi), Period(4, 4, pi), Period(5, 4, pi), Period(5, 6, pi),
            Period(9, 11, pi), Period(15, None, pi),
        ])
        got = [tpi.period_for(t) for t in range(-1, 25)]
        assert got == [_linear_period_for(tpi, t) for t in range(-1, 25)]
        assert [p.ts if p else None for p in got[6:12]] == [5, 5, None, None, 9, 9]
        assert TPI().period_for(3) is None


class TestWritePath:
    def test_append_finds_each_rectangle_once(self, monkeypatch):
        """``push`` hands the rectangles it found to ``add_points``."""
        pts = _drift_points(n_steps=3)
        tpi = TPI(eps_d=0.5, eps_c=0.5, eps_s=1.0, gc=0.2)
        tpi.push(1, *_step(pts, 1))
        calls = []
        real = PI.rect_of

        def counted(self, xs, ys):
            calls.append(len(xs))
            return real(self, xs, ys)

        monkeypatch.setattr(PI, "rect_of", counted)
        assert tpi.push(2, *_step(pts, 2)) == "append"
        assert calls == [30]
        ids, xs, ys = _step(pts, 2)
        assert ids[4] in tpi.query(xs[4], ys[4], 2)

    @pytest.mark.parametrize("dataset", ["porto", "geolife"])
    def test_size_bits_is_the_per_entry_sum(self, dataset):
        tpi = build_tpi_from_points(
            QUICK.dataset(dataset).load(), eps_d=0.8, eps_c=0.5,
            eps_s=QUICK.eps_s, gc=QUICK.gc, seed=QUICK.seed,
        )
        want = tpi.n_periods * 2 * 32
        for p in tpi.periods:
            want += len(p.pi.rects) * 4 * 64
            for per_t in p.pi.cells.values():
                want += 3 * 32 + sum(32 + enc.total_bits for enc in per_t.values())
        assert tpi.size_bits() == want


def _tracked_reachable(root):
    """GC-tracked objects reachable from ``root``, by type name. Types are
    not followed (they lead to every module) and ``Rect``s are left out."""
    seen, kinds, todo = set(), {}, [root]
    while todo:
        o = todo.pop()
        if id(o) in seen or isinstance(o, (type, Rect)):
            continue
        seen.add(id(o))
        if gc.is_tracked(o):
            kinds[type(o).__name__] = kinds.get(type(o).__name__, 0) + 1
        todo.extend(gc.get_referents(o))
    return kinds


def test_no_object_per_stored_list():
    """The bench index (geolife, generator seed 16) holds a few GC-tracked
    objects per (PI, timestamp), not one per (cell, t) list: the earlier
    store kept an ``EncodedIds`` per list and a dict per cell, 50,458
    objects here."""
    tpi = build_tpi_from_points(
        dataclasses.replace(BENCH.dataset("geolife"), seed=16).load(),
        eps_d=0.8, eps_c=0.5, eps_s=BENCH.eps_s, gc=BENCH.gc, seed=BENCH.seed,
    )
    views = [p.pi.cells for p in tpi.periods]
    pairs = sum(len({t for per_t in v.values() for t in per_t}) for v in views)
    lists = sum(len(per_t) for v in views for per_t in v.values())
    del views
    tracked = sum(_tracked_reachable(tpi).values())
    assert lists > 30 * pairs
    assert tracked <= 3 * pairs


def _extend(pi, other):
    """The earlier ``PI.extend``: absorb another PI's rectangles and cells,
    its keys shifted past the host's."""
    shift = pi._n_keys
    slots, base, pi._n_keys = _key_ranges(other._bounds, pi.gc, shift)
    pi.rects.extend(other.rects)
    pi._bounds = np.concatenate([pi._bounds, other._bounds])
    pi._sizes = np.concatenate([pi._sizes, _grid_sizes(other._bounds, pi.gc)])
    pi._slots = np.concatenate([pi._slots, slots])
    pi._base = np.concatenate([pi._base, base])
    for t, at in other._at.items():
        moved = _Columns(
            at.keys + shift, at.offs, at.ids, {k + shift: e for k, e in at.encs.items()}
        )
        old = pi._at.get(t)
        pi._at[t] = moved if old is None else _merge(old, moved)


def _merge(a, b):
    """The earlier ``PI`` merge of two timestamps' columns: ``a``'s cells
    with ``b``'s added, ``b``'s list replacing ``a``'s in a cell both hold."""
    at = np.minimum(np.searchsorted(b.keys, a.keys), len(b.keys) - 1)
    keep = b.keys[at] != a.keys
    keys = np.concatenate([a.keys[keep], b.keys])
    starts = np.concatenate([a.offs[:-1][keep], b.offs[:-1] + len(a.ids)])
    counts = np.concatenate([np.diff(a.offs)[keep], np.diff(b.offs)])
    order = np.argsort(keys, kind="stable")
    keys, starts, counts = keys[order], starts[order], counts[order]
    offs = np.zeros(len(keys) + 1, dtype=np.int64)
    np.cumsum(counts, out=offs[1:])
    src = np.repeat(starts - offs[:-1], counts) + np.arange(offs[-1])
    ids = np.concatenate([a.ids, b.ids])[src]
    replaced = set(a.keys[~keep].tolist())
    encs = {k: e for k, e in a.encs.items() if k not in replaced}
    encs.update(b.encs)
    return _Columns(keys, offs, ids, encs)


class _ExtendTPI(TPI):
    """``TPI.push`` as it was before Insertion grafted rectangles onto the
    current PI: the covered points are indexed first, then a throwaway PI
    is built over the uncovered ones and absorbed with ``_extend``."""

    def push(self, t, ids, xs, ys):
        ids = np.asarray(ids).astype(np.int64)
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if self.current is None:
            self._open_period(t, ids, xs, ys)
            return "initial"
        pi = self.current.pi
        ri = pi.rect_of(xs, ys)
        covered = ri >= 0
        counts = np.bincount(ri[covered], minlength=len(pi.rects))
        if adr(counts / pi.rect_sizes(), self._base_density, self.eps_c) > self.eps_d:
            self.current.te = t - 1
            self.n_rebuilds += 1
            self._open_period(t, ids, xs, ys)
            return "re-build"
        pi.add_points(t, ids[covered], xs[covered], ys[covered], ri=ri[covered])
        if covered.all():
            return "append"
        extra = build_pi(
            t, ids[~covered], xs[~covered], ys[~covered],
            eps_s=self.eps_s, gc=self.gc, seed=self.seed + t,
        )
        _extend(pi, extra)
        self._base_density = np.concatenate(
            [self._base_density, extra.counts_per_rect(t) / extra.rect_sizes()]
        )
        self.n_insertions += 1
        return "insertion"


def _replay(tpi, points):
    """Push every timestep of ``points`` in order; the actions taken."""
    return [
        tpi.push(int(t), f.traj_id.to_numpy(), f.x.to_numpy(), f.y.to_numpy())
        for t, f in points.groupby("t", sort=True)
    ]


def _index_state(tpi):
    return (
        tpi_digest(tpi, lengths=True), tpi.size_bits(), tpi.n_rebuilds,
        tpi.n_insertions, tpi._base_density.tobytes(),
        [p.pi._bounds.tobytes() for p in tpi.periods],
        [p.pi.rect_sizes().tobytes() for p in tpi.periods],
    )


def _random_stream(seed, n_traj=60, n_steps=25):
    """Random walks whose steps now and then jump a few trajectories away,
    so both insertions and re-builds happen."""
    g = np.random.default_rng(seed)
    pos = g.random((n_traj, 2))
    rows = []
    for t in range(1, n_steps + 1):
        pos = pos + g.normal(0.0, 0.03, pos.shape)
        jump = g.random(n_traj) < 0.1
        pos[jump] += g.uniform(-2.0, 2.0, (int(jump.sum()), 2))
        live = np.flatnonzero(g.random(n_traj) < 0.9)
        rows.append(pd.DataFrame(
            {"traj_id": live, "t": t, "x": pos[live, 0], "y": pos[live, 1]}
        ))
    return pd.concat(rows, ignore_index=True)


class TestInsertionMatchesExtend:
    """Grafting the insertion's rectangles onto the current PI and indexing
    the timestep once gives the index the throwaway-PI path gave: the same
    digest (Huffman tables included), size, counts, baseline densities and
    rectangle bounds."""

    @staticmethod
    def _both(points, **kw):
        new, ref = TPI(**kw), _ExtendTPI(**kw)
        actions = _replay(new, points)
        assert actions == _replay(ref, points)
        assert _index_state(new) == _index_state(ref)
        return actions

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_streams(self, seed):
        actions = self._both(
            _random_stream(seed), eps_d=0.9, eps_c=0.5, eps_s=0.3, gc=0.2, seed=seed
        )
        assert "insertion" in actions

    @pytest.mark.parametrize("dataset", ["porto", "geolife"])
    @pytest.mark.parametrize("eps_d, eps_c", [(0.8, 0.5), (0.5, 0.3), (0.95, 0.8)])
    def test_quick_datasets(self, dataset, eps_d, eps_c):
        actions = self._both(
            QUICK.dataset(dataset).load(), eps_d=eps_d, eps_c=eps_c,
            eps_s=QUICK.eps_s, gc=QUICK.gc, seed=QUICK.seed,
        )
        assert "insertion" in actions

    def test_uncovered_point_raises_before_the_graft(self, monkeypatch):
        """An insertion whose rectangles leave one of its points outside
        raises ``RuntimeError`` before anything is grafted; once the
        rectangles cover again, the index goes on as if the failed push had
        never come."""
        _check_failed_push_leaves_index(monkeypatch, "insertion")

    def test_uncovered_point_raises_before_the_rebuild(self, monkeypatch):
        """Likewise for a re-build: before, the failed push had already
        closed the current period and counted a re-build, and its retry
        counted a second one."""
        _check_failed_push_leaves_index(monkeypatch, "re-build")


def _check_failed_push_leaves_index(monkeypatch, action):
    """The first push of ``_random_stream(0)`` that takes ``action`` raises
    when its rectangles leave a point uncovered, leaving the index as it
    was, and its retry matches an index that never saw it."""
    points = _random_stream(0)
    kw = dict(eps_d=0.9, eps_c=0.5, eps_s=0.3, gc=0.2, seed=0)
    t = 1 + _replay(TPI(**kw), points).index(action)
    tpi, ref = TPI(**kw), TPI(**kw)
    _replay(tpi, points[points.t < t])
    _replay(ref, points[points.t < t])
    f = points[points.t == t]
    step = (t, f.traj_id.to_numpy(), f.x.to_numpy(), f.y.to_numpy())
    real = pi_module.mbrs
    monkeypatch.setattr(pi_module, "mbrs", lambda xy, labels: real(xy, labels)[:-1])
    before = _index_state(tpi)
    with pytest.raises(RuntimeError, match=f"t={t}"):
        tpi.push(*step)
    assert _index_state(tpi) == before and tpi.t == t - 1
    monkeypatch.setattr(pi_module, "mbrs", real)
    assert tpi.push(*step) == ref.push(*step) == action
    assert _index_state(tpi) == _index_state(ref)


def test_point_in_an_insertion_overlap_is_found_under_the_host_rectangle():
    """An insertion's rectangle may overlap the host PI's (they are built
    from different points); a later point inside both is indexed under the
    host rectangle, which comes first, and ``TPI.query`` finds it there."""
    tpi = TPI(eps_d=1.0, eps_c=0.5, eps_s=10.0, gc=0.25)  # never re-builds
    assert tpi.push(1, np.array([0, 1]), np.array([0.0, 0.9]), np.array([0.0, 0.9])) == "initial"
    assert tpi.push(
        2, np.array([0, 1, 2, 3]), np.array([0.0, 0.9, -1.0, 2.0]),
        np.array([0.0, 0.9, 0.2, 0.8]),
    ) == "insertion"
    host, inserted = tpi.current.pi.rects
    assert host.intersects(inserted)
    assert host.contains(0.5, 0.5) and inserted.contains(0.5, 0.5)
    assert tpi.push(
        3, np.array([0, 1, 4]), np.array([0.0, 0.9, 0.5]), np.array([0.0, 0.9, 0.5])
    ) == "append"
    pi = tpi.current.pi
    assert pi.cell_key(0.5, 0.5)[0] == 0
    assert pi.counts_per_rect(3).tolist() == [3, 0]
    assert tpi.query(0.5, 0.5, 3).tolist() == [4]
    assert tpi.query(2.0, 0.8, 2).tolist() == [3]
