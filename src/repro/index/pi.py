"""PI: the partition-based spatial index at one timestamp (paper Alg. 3).

Construction: partition T^t with the grow-until-eps_s routine (Eq. 7 with
eps_s), take each partition's minimum bounding rectangle, remove overlaps
so rectangles are disjoint, and grid every rectangle into cells of size
``g_c``. Each (rect, cell) stores, per timestamp, the delta+Huffman
compressed list of trajectory IDs whose point falls in the cell.

The same PI object indexes later timestamps of its period (``add_points``)
-- that is how TPI reuses structure -- and can absorb extra rectangles for
uncovered points ("Insertion", ``extend``).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.kmeans import grow_partition
from repro.index.idcodec import EncodedIds, decode_ids, encode_ids
from repro.index.rectangles import Rect, mbrs, remove_overlap

CellKey = tuple[int, int, int]  # (rect_idx, cx, cy)


@dataclass
class PI:
    """Disjoint rectangles + per-rectangle grid of compressed ID lists.

    ``rects`` only grows through ``extend``, which keeps the stacked
    rectangle bounds and sizes the array code reads in step with it.
    """

    gc: float
    rects: list[Rect] = field(default_factory=list)
    cells: dict[CellKey, dict[int, EncodedIds]] = field(default_factory=dict)
    built_at: int = 0
    build_seconds: float = 0.0
    _bounds: np.ndarray = field(init=False, repr=False, compare=False)  # (R, 4)
    _sizes: np.ndarray = field(init=False, repr=False, compare=False)  # (R,)

    def __post_init__(self) -> None:
        self._bounds = np.array(
            [(r.x0, r.y0, r.x1, r.y1) for r in self.rects], dtype=np.float64
        ).reshape(-1, 4)
        self._sizes = _grid_sizes(self._bounds, self.gc)

    # ---------------- geometry ----------------
    def rect_of(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Rect index per point, -1 when uncovered. Rects are disjoint, so
        the first hit is the only hit."""
        xs = np.asarray(xs, dtype=np.float64)[:, None]
        ys = np.asarray(ys, dtype=np.float64)[:, None]
        b = self._bounds
        if not len(b):
            return np.full(len(xs), -1, dtype=np.int64)
        inside = (xs >= b[:, 0]) & (xs < b[:, 2]) & (ys >= b[:, 1]) & (ys < b[:, 3])
        return np.where(inside.any(axis=1), inside.argmax(axis=1), -1)

    def cell_of(self, ri: int, x: float, y: float) -> CellKey:
        r = self.rects[ri]
        return (ri, int((x - r.x0) // self.gc), int((y - r.y0) // self.gc))

    def cell_key(self, x: float, y: float) -> CellKey | None:
        """Key of the grid cell containing (x, y), None when no rectangle
        covers it. A scalar scan: one query point costs less this way than
        the array setup of ``rect_of``."""
        for ri, r in enumerate(self.rects):
            if r.contains(x, y):
                return self.cell_of(ri, x, y)
        return None

    # ---------------- maintenance ----------------
    def add_points(
        self, t: int, ids: np.ndarray, xs: np.ndarray, ys: np.ndarray
    ) -> np.ndarray:
        """Index covered points at time ``t``; returns mask of uncovered."""
        start = time.perf_counter()
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        ri = self.rect_of(xs, ys)
        covered = ri >= 0
        sel = np.flatnonzero(covered)
        ri = ri[sel]
        cx = ((xs[sel] - self._bounds[ri, 0]) // self.gc).astype(np.int64)
        cy = ((ys[sel] - self._bounds[ri, 1]) // self.gc).astype(np.int64)
        # group the points by cell: sort by key, one ID list per run of keys
        order = np.lexsort((cy, cx, ri))
        ri, cx, cy = ri[order], cx[order], cy[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (ri[1:] != ri[:-1]) | (cx[1:] != cx[:-1]) | (cy[1:] != cy[:-1])
        firsts = np.flatnonzero(first)
        cell_ids = np.asarray(ids)[sel[order]].tolist()
        ends = firsts[1:].tolist() + [len(order)]
        keys = zip(ri[firsts].tolist(), cx[firsts].tolist(), cy[firsts].tolist())
        cells = self.cells
        for key, lo, hi in zip(keys, firsts.tolist(), ends):
            enc = encode_ids(cell_ids[lo:hi])
            per_t = cells.get(key)
            if per_t is None:
                cells[key] = {t: enc}
            else:
                per_t[t] = enc
        self.build_seconds += time.perf_counter() - start
        return ~covered

    def extend(self, other: "PI") -> None:
        """Absorb another PI's rectangles and cells (TPI "Insertion")."""
        off = len(self.rects)
        self.rects.extend(other.rects)
        self._bounds = np.concatenate([self._bounds, other._bounds])
        self._sizes = np.concatenate([self._sizes, _grid_sizes(other._bounds, self.gc)])
        self._sizes.flags.writeable = False
        for (ri, cx, cy), per_t in other.cells.items():
            self.cells[(ri + off, cx, cy)] = per_t
        self.build_seconds += other.build_seconds

    # ---------------- queries ----------------
    def query(self, x: float, y: float, t: int) -> np.ndarray:
        """IDs in the grid cell containing (x, y) at time t (STRQ core)."""
        enc = self.cells.get(self.cell_key(x, y), {}).get(t)
        return decode_ids(enc) if enc else np.zeros(0, dtype=np.int64)

    def query_circle(self, x: float, y: float, t: int, radius: float) -> np.ndarray:
        """IDs in every cell overlapping the circle (local search, §5.2)."""
        out: list[np.ndarray] = []
        for ri, r in enumerate(self.rects):
            if (
                x + radius <= r.x0
                or x - radius >= r.x1
                or y + radius <= r.y0
                or y - radius >= r.y1
            ):
                continue
            cx0 = int((max(x - radius, r.x0) - r.x0) // self.gc)
            cx1 = int((min(x + radius, r.x1 - 1e-15) - r.x0) // self.gc)
            cy0 = int((max(y - radius, r.y0) - r.y0) // self.gc)
            cy1 = int((min(y + radius, r.y1 - 1e-15) - r.y0) // self.gc)
            for cx in range(cx0, cx1 + 1):
                for cy in range(cy0, cy1 + 1):
                    enc = self.cells.get((ri, cx, cy), {}).get(t)
                    if enc:
                        out.append(decode_ids(enc))
        return (
            np.unique(np.concatenate(out)) if out else np.zeros(0, dtype=np.int64)
        )

    # ---------------- accounting ----------------
    def counts_per_rect(self, t: int) -> np.ndarray:
        """N_{R_i, t}: indexed trajectories per rectangle at time t."""
        out = np.zeros(len(self.rects), dtype=np.int64)
        for (ri, _, _), per_t in self.cells.items():
            enc = per_t.get(t)
            if enc:
                out[ri] += enc.n_ids
        return out

    def rect_sizes(self) -> np.ndarray:
        """|R_i| in grid cells (Definition 5.1's rectangle size), read-only."""
        return self._sizes

    def size_bits(self) -> int:
        """Index size: rect metadata + cell keys + compressed ID lists."""
        bits = len(self.rects) * 4 * 64
        for per_t in self.cells.values():
            bits += 3 * 32  # cell key
            for enc in per_t.values():
                bits += 32 + enc.total_bits  # timestamp + payload
        return bits


def _grid_sizes(bounds: np.ndarray, gc: float) -> np.ndarray:
    """Read-only grid-cell count per rectangle, at least one per axis."""
    per_axis = np.ceil((bounds[:, 2:] - bounds[:, :2]) / gc).astype(np.int64)
    sizes = np.maximum(1, per_axis).prod(axis=1)
    sizes.flags.writeable = False
    return sizes


def build_pi(
    t: int,
    ids: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    *,
    eps_s: float,
    gc: float,
    seed: int = 0,
) -> PI:
    """Algorithm 3: build the PI over the points at time ``t``."""
    start = time.perf_counter()
    xy = np.column_stack([xs, ys]).astype(np.float64)
    labels, _, _ = grow_partition(xy, eps_s, seed=seed)
    region_list: list[Rect] = []
    for r in mbrs(xy, labels):
        region_list.extend(remove_overlap(r, region_list))
    pi = PI(gc=gc, rects=region_list, built_at=t)
    pi.build_seconds = time.perf_counter() - start
    uncov = pi.add_points(t, ids, xs, ys)
    if uncov.any():
        raise RuntimeError(
            f"build_pi left {int(uncov.sum())} of its own points at t={t} "
            "outside every rectangle"
        )
    return pi
