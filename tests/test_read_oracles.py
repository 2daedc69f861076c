"""The positional serve reads against the pandas-mask code they replaced.

``Summary.path`` slices one (traj_id, t)-sorted cache and ``strq_answer``
verifies its candidate rows only. The oracles below are the earlier
implementations: a dict of one t-indexed frame per trajectory read with a
boolean ``.loc``, and an STRQ answer that intersects the dilated-cell IDs
with the true-cell IDs of the whole frame. The new reads must return equal
frames (values, dtypes, columns and index) and equal ID sets.
"""
import functools
import math

import numpy as np
import pandas as pd
import pytest

from repro.core.ppq import run_ppq
from repro.harness.config import QUICK
from repro.queries.strq import cell_of, strq_answer

GC = QUICK.gc
RADIUS = (math.sqrt(2) / 2) * QUICK.gs  # Lemma 3


# ---------------------------------------------------------------- oracles
def _old_path_index(coded: pd.DataFrame) -> dict[int, pd.DataFrame]:
    return {
        int(tid): g.sort_values("t").set_index("t")
        for tid, g in coded.groupby("traj_id")
    }


def _old_path(index: dict[int, pd.DataFrame], traj_id, t0, l) -> pd.DataFrame:
    g = index.get(int(traj_id))
    if g is None:
        return pd.DataFrame(columns=["x", "y", "xrec", "yrec"])
    return g.loc[(g.index >= t0) & (g.index <= t0 + l)]


def _old_strq_truth(frame_t, x, y, gc) -> set[int]:
    cx, cy = int(np.floor(x / gc)), int(np.floor(y / gc))
    tx, ty = cell_of(frame_t.x.to_numpy(), frame_t.y.to_numpy(), gc)
    return set(frame_t.traj_id.to_numpy()[(tx == cx) & (ty == cy)].tolist())


def _old_strq_answer(frame_t, x, y, gc, *, dilate=0.0, verify=False) -> set[int]:
    cx, cy = int(np.floor(x / gc)), int(np.floor(y / gc))
    x0, x1 = cx * gc - dilate, (cx + 1) * gc + dilate
    y0, y1 = cy * gc - dilate, (cy + 1) * gc + dilate
    rx = frame_t.xrec.to_numpy()
    ry = frame_t.yrec.to_numpy()
    m = (rx >= x0) & (rx < x1) & (ry >= y0) & (ry < y1)
    ids = set(frame_t.traj_id.to_numpy()[m].tolist())
    if verify:
        ids &= _old_strq_truth(frame_t, x, y, gc) | set()
    return ids


# ---------------------------------------------------------------- summaries
def _gapped(points: pd.DataFrame) -> pd.DataFrame:
    """Every other trajectory loses the points at t = 3, 4, 9 and every
    seventh step, so its t run has gaps of one and two steps."""
    t, tid = points.t.to_numpy(), points.traj_id.to_numpy()
    drop = (tid % 2 == 0) & (np.isin(t, (3, 4, 9)) | (t % 7 == 0))
    return points[~drop].reset_index(drop=True)


SUMMARIES = [
    ("porto", "A", False), ("porto", "S", False),
    ("geolife", "A", False), ("geolife", "S", False),
    ("geolife", "S", True),
]


@functools.cache
def _summary(name: str, mode: str, gaps: bool):
    ds = QUICK.dataset(name)
    pts = _gapped(ds.load()) if gaps else ds.load()
    eps_p = ds.eps_p_auto if mode == "A" else ds.eps_p_spatial
    return run_ppq(pts, mode=mode, use_cqc=True, eps1=QUICK.eps1, gs=QUICK.gs,
                   eps_p=eps_p, seed=QUICK.seed)


@pytest.fixture(params=SUMMARIES, ids=lambda p: "-".join(map(str, p)))
def summary(request):
    return _summary(*request.param)


def _assert_same_frame(new: pd.DataFrame, old: pd.DataFrame) -> None:
    assert new.equals(old)
    assert new.columns.equals(old.columns)
    assert new.index.equals(old.index)
    pd.testing.assert_frame_equal(new, old, check_exact=True)


# ---------------------------------------------------------------- path
class TestPathMatchesOracle:
    def test_every_trajectory_and_window(self, summary):
        old = _old_path_index(summary.coded)
        n_nonempty = n_calls = 0
        for tid, g in old.items():
            ts = g.index.to_numpy()
            mid = int(ts[len(ts) // 2])
            starts = {int(ts[0]) - 3, int(ts[0]), mid, mid + 1, int(ts[-1]),
                      int(ts[-1]) + 2}
            for t0 in sorted(starts):
                for l in (0, 1, 5, 1000):
                    new = summary.path(tid, t0, l)
                    _assert_same_frame(new, _old_path(old, tid, t0, l))
                    n_calls += 1
                    n_nonempty += len(new) > 0
        assert n_nonempty > n_calls // 2  # most windows hold points

    def test_window_over_a_gap(self):
        summary = _summary("geolife", "S", True)
        old = _old_path_index(summary.coded)
        gapped = [(tid, g) for tid, g in old.items()
                  if (np.diff(g.index.to_numpy()) > 1).any()]
        assert len(gapped) == 12
        for tid, g in gapped:
            ts = g.index.to_numpy()
            for k in np.flatnonzero(np.diff(ts) > 1):
                # start inside the gap, and windows that end inside it
                for t0, l in ((int(ts[k]) + 1, 0), (int(ts[k]) + 1, 3),
                              (int(ts[k]) - 1, 2), (int(ts[k]), 1)):
                    _assert_same_frame(summary.path(tid, t0, l),
                                       _old_path(old, tid, t0, l))

    def test_whole_number_float_id(self, summary):
        tid = int(summary.coded.traj_id.iloc[0])
        _assert_same_frame(summary.path(float(tid), 5, 4), summary.path(tid, 5, 4))
        _assert_same_frame(summary.path(np.int32(tid), 5, 4), summary.path(tid, 5, 4))

    def test_unknown_trajectory_is_the_empty_slice(self, summary):
        found = summary.path(int(summary.coded.traj_id.iloc[0]), 1, 5)
        for tid in (-1, 10**9, 10**20):
            empty = summary.path(tid, 1, 5)
            assert len(empty) == 0
            assert empty.columns.equals(found.columns)
            assert (empty.dtypes == found.dtypes).all()
            assert empty.index.name == "t" and empty.index.dtype == found.index.dtype

    def test_write_into_a_path_leaves_the_cache(self, summary):
        tid = int(summary.coded.traj_id.iloc[-1])
        before = summary.path(tid, 1, 1000).copy()
        p = summary.path(tid, 1, 1000)
        with pytest.raises(ValueError, match="read-only"):
            p.iloc[0, p.columns.get_loc("xrec")] = 1e9
        with pytest.raises(ValueError, match="read-only"):
            p.loc[p.index[0], "traj_id"] = -5
        _assert_same_frame(summary.path(tid, 1, 1000), before)


# ---------------------------------------------------------------- strq
def _queries(frame: pd.DataFrame, rng) -> list[tuple[float, float]]:
    """True points of the frame, corners of their grid cells (on the cell
    edges), and a point far from every row (empty candidate set)."""
    rows = frame.iloc[rng.choice(len(frame), size=min(4, len(frame)), replace=False)]
    qs = [(float(r.x), float(r.y)) for r in rows.itertuples(index=False)]
    qs += [(math.floor(x / GC) * GC, math.floor(y / GC) * GC) for x, y in qs[:2]]
    qs.append((qs[0][0] + 50.0, qs[0][1] - 50.0))
    return qs


class TestStrqMatchesOracle:
    @pytest.mark.parametrize("dilate", [0.0, RADIUS, 1.0])
    @pytest.mark.parametrize("verify", [False, True])
    def test_groupby_frames(self, summary, dilate, verify):
        rng = np.random.default_rng(3)
        n = n_empty = 0
        for _, frame in summary.coded.groupby("t", sort=True):
            assert not isinstance(frame.index, pd.RangeIndex)
            for x, y in _queries(frame, rng):
                new = strq_answer(frame, x, y, GC, dilate=dilate, verify=verify)
                assert new == _old_strq_answer(frame, x, y, GC, dilate=dilate,
                                               verify=verify)
                n += 1
                n_empty += not new
        assert 0 < n_empty < n

    @pytest.mark.parametrize("dilate", [0.0, RADIUS, 1.0])
    @pytest.mark.parametrize("verify", [False, True])
    def test_rows_on_cell_edges(self, dilate, verify):
        """Reconstructions and true points exactly on the (dilated) cell's
        edges, on both sides of each half-open bound, in a frame whose
        index is neither sorted nor a RangeIndex."""
        cx, cy = 1234, -567
        x0, x1 = cx * GC - dilate, (cx + 1) * GC + dilate
        y0, y1 = cy * GC - dilate, (cy + 1) * GC + dilate
        xs = [x0, np.nextafter(x0, -np.inf), x1, np.nextafter(x1, -np.inf),
              (x0 + x1) / 2, (x0 + x1) / 2]
        ys = [(y0 + y1) / 2, (y0 + y1) / 2, (y0 + y1) / 2, y0,
              np.nextafter(y1, -np.inf), y1]
        truth_x = [cx * GC, (cx + 1) * GC, (cx + 0.5) * GC, cx * GC,
                   np.nextafter((cx + 1) * GC, -np.inf), (cx - 0.5) * GC]
        truth_y = [cy * GC, (cy + 0.5) * GC, (cy + 1) * GC, cy * GC,
                   (cy + 0.5) * GC, cy * GC]
        frame = pd.DataFrame(
            {"traj_id": [9, 3, 7, 1, 5, 8], "x": truth_x, "y": truth_y,
             "xrec": xs, "yrec": ys},
            index=[40, 11, 25, 3, 19, 7],
        )
        for qx, qy in [(cx * GC, cy * GC), ((cx + 0.5) * GC, (cy + 0.5) * GC),
                       (np.nextafter((cx + 1) * GC, -np.inf), cy * GC)]:
            new = strq_answer(frame, qx, qy, GC, dilate=dilate, verify=verify)
            assert new == _old_strq_answer(frame, qx, qy, GC, dilate=dilate,
                                           verify=verify)

    @pytest.mark.parametrize("verify", [False, True])
    def test_empty_frame(self, verify):
        frame = pd.DataFrame({c: np.array([], dtype=float)
                              for c in ("x", "y", "xrec", "yrec")})
        frame["traj_id"] = np.array([], dtype=np.int64)
        assert strq_answer(frame, 1.0, 2.0, GC, dilate=1.0, verify=verify) == set()
