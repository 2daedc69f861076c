"""Tests for the temporal partition-based index TPI (paper Algorithm 4)."""
import numpy as np
import pandas as pd
import pytest

from repro.index.tpi import TPI, adr, build_tpi_from_points


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
        self._check_rejected(r"duplicate ids at t=4: \[2\]", ids, xs, ys)

    @pytest.mark.parametrize(
        "bad_ids, message",
        [
            ([1.5, 2.7], "non-integer ids for 2 points at t=4"),
            ([2.5, 2.7], "non-integer ids for 2 points at t=4"),
            ([np.nan, 2.0], "non-integer ids for 1 points at t=4"),
            ([np.inf, 1.0], "non-integer ids for 1 points at t=4"),
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

    def test_length_mismatch(self):
        """Before the check numpy raised from a concatenate deep inside."""
        ids, xs, ys = _step(_drift_points(n_steps=3), 3)
        self._check_rejected(
            "differ in length at t=4: 30, 29, 30", ids, xs[:-1], ys
        )


def _step(pts, t):
    f = pts[pts.t == t]
    return f.traj_id.to_numpy(), f.x.to_numpy(), f.y.to_numpy()
