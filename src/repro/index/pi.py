"""PI: the partition-based spatial index at one timestamp (paper Alg. 3).

Construction (``build_rects``, Alg. 3 lines 1-3): partition T^t with the
grow-until-eps_s routine (Eq. 7 with eps_s), take each partition's minimum
bounding rectangle and remove overlaps, so the rectangles of one build are
disjoint. ``build_pi`` then grids every rectangle into cells of size
``g_c``. Each (rect, cell) stores, per timestamp, the delta+Huffman
compressed list of trajectory IDs whose point falls in the cell.

A point belongs to the first rectangle, in index order, that holds it.
Rectangles added later (TPI's "Insertion", ``add_rects``) are disjoint
among themselves but may overlap the PI's earlier ones; a point in such an
overlap is indexed, and found, under the lower-index rectangle, and a
later rectangle only takes the points outside every earlier one.

Storage is one set of columns per timestamp (``_Columns``): the occupied
cells' packed keys in ascending order, CSR offsets into the IDs of every
cell, and the ``encode_ids`` output of each list with two or more IDs. A
one-ID list (nearly every cell) is stored as its ID alone: its encoding is
fixed by that ID (one 0 bit and a one-symbol table), so the stored
information and the counted bits are those of the encoded list, with no
Python object per (cell, t) entry. ``PI.cells`` rebuilds the
``{(ri, cx, cy): {t: EncodedIds}}`` mapping from the columns on each read.

A cell's key packs ``(ri, cx, cy)`` into one int64: rectangle ``ri`` owns
the keys ``[base[ri], base[ri] + sx * sy)``, where ``sx = (x1 - x0) // g_c
+ 1`` is the number of ``cx`` values a point in ``[x0, x1)`` can get
(likewise ``sy``), and the key is ``base[ri] + cx * sy + cy``. Keys
therefore sort as ``(ri, cx, cy)`` tuples do and never collide. ``//``
gives the exact floor below 2^51, so ``cx < sx`` holds for every covered
point while ``sx`` and ``sy`` are at most 2^51; a PI whose grid is finer
than that, or whose rectangles need more than 2^63 - 1 keys, is refused
with ``ValueError``.

The same PI object indexes later timestamps of its period (``add_points``,
once per timestamp) -- that is how TPI reuses structure -- and takes extra
rectangles for uncovered points (``add_rects``), whose keys are numbered on
from the last.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.kmeans import grow_partition
from repro.core.partitioning import group_rows
from repro.index.idcodec import EncodedIds, decode_ids, encode_ids
from repro.index.rectangles import Rect, mbrs, remove_overlap

CellKey = tuple[int, int, int]  # (rect_idx, cx, cy)

#: Counted bits of any one-ID list: one code bit and one table entry.
_ONE_ID_BITS = encode_ids([0]).total_bits

_KEY_LIMIT = int(np.iinfo(np.int64).max)
_AXIS_LIMIT = 2**51  # cells per axis where float // is still the exact floor


class _Columns(NamedTuple):
    """The ID lists of one timestamp, as columns over its occupied cells."""

    keys: np.ndarray  # (n,) packed cell keys, ascending
    offs: np.ndarray  # (n + 1,) cell i's IDs are ids[offs[i]:offs[i + 1]]
    ids: np.ndarray  # every cell's IDs, cell after cell
    encs: dict[int, EncodedIds]  # packed key -> encoding, lists of >= 2 IDs


def _columns(keys: np.ndarray, ids: np.ndarray) -> _Columns:
    """Group points by packed cell key; encode the lists of two or more."""
    cell_keys, order, offs = group_rows(keys)
    ids = ids[order]
    encs = {}
    for i in np.flatnonzero(np.diff(offs) > 1).tolist():
        encs[int(cell_keys[i])] = encode_ids(ids[offs[i] : offs[i + 1]])
    return _Columns(cell_keys, offs, ids, encs)


def _read(at: _Columns, lo: int, hi: int) -> np.ndarray:
    """IDs of the cells at positions ``lo .. hi - 1``: a one-ID list is its
    ID, a longer one is decoded."""
    a, b = at.offs[lo], at.offs[hi]
    if b - a == hi - lo:  # one ID per cell
        return at.ids[a:b].copy()
    parts = [
        at.ids[at.offs[i] : at.offs[i + 1]]
        if at.offs[i + 1] - at.offs[i] == 1
        else decode_ids(at.encs[int(at.keys[i])])
        for i in range(lo, hi)
    ]
    return np.concatenate(parts)


@dataclass(eq=False)
class PI:
    """Rectangles + per-rectangle grid of compressed ID lists; a point
    belongs to the first rectangle holding it.

    ``rects`` only grows through ``add_rects``, which keeps the stacked
    rectangle bounds, sizes and key ranges the array code reads in step
    with it. Two PIs are equal only when they are the same object.
    """

    gc: float
    rects: list[Rect] = field(default_factory=list)
    built_at: int = 0
    build_seconds: float = 0.0  # build_pi's rectangles and every add_points
    _at: dict[int, _Columns] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _bounds: np.ndarray = field(init=False, repr=False, compare=False)  # (R, 4)
    _sizes: np.ndarray = field(init=False, repr=False, compare=False)  # (R,)
    _slots: np.ndarray = field(init=False, repr=False, compare=False)  # (R, 2)
    _base: np.ndarray = field(init=False, repr=False, compare=False)  # (R,)
    _n_keys: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._bounds = _stack(self.rects)
        self._sizes = _grid_sizes(self._bounds, self.gc)
        self._slots, self._base, self._n_keys = _key_ranges(self._bounds, self.gc, 0)

    # ---------------- geometry ----------------
    def rect_of(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Index of the first rectangle holding each point, -1 when none
        does."""
        return _first_hit(self._bounds, xs, ys)

    def cell_of(self, ri: int, x: float, y: float) -> CellKey:
        r = self.rects[ri]
        return (ri, int((x - r.x0) // self.gc), int((y - r.y0) // self.gc))

    def cell_key(self, x: float, y: float) -> CellKey | None:
        """Key of the grid cell containing (x, y) in the first rectangle
        holding it, None when no rectangle does. A scalar scan: one query
        point costs less this way than the array setup of ``rect_of``."""
        for ri, r in enumerate(self.rects):
            if r.contains(x, y):
                return self.cell_of(ri, x, y)
        return None

    def _unpack(self, keys: np.ndarray) -> list[CellKey]:
        """``(ri, cx, cy)`` of each packed key."""
        ri = np.searchsorted(self._base, keys, side="right") - 1
        cx, cy = np.divmod(keys - self._base[ri], self._slots[ri, 1])
        return list(zip(ri.tolist(), cx.tolist(), cy.tolist()))

    # ---------------- maintenance ----------------
    def add_points(
        self,
        t: int,
        ids: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        *,
        ri: np.ndarray | None = None,
    ) -> np.ndarray:
        """Index covered points at time ``t``; returns mask of uncovered.

        ``ri`` is ``rect_of(xs, ys)`` when the caller has it already. A
        timestamp is indexed once: raises ``ValueError``, leaving the PI
        as it was, for a ``t`` that already holds lists."""
        if t in self._at:
            raise ValueError(f"t={t} is already indexed")
        start = time.perf_counter()
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if ri is None:
            ri = self.rect_of(xs, ys)
        covered = ri >= 0
        sel = np.flatnonzero(covered)
        if len(sel):
            ri = ri[sel]
            cx = ((xs[sel] - self._bounds[ri, 0]) // self.gc).astype(np.int64)
            cy = ((ys[sel] - self._bounds[ri, 1]) // self.gc).astype(np.int64)
            keys = self._base[ri] + cx * self._slots[ri, 1] + cy
            self._at[t] = _columns(keys, np.asarray(ids)[sel].astype(np.int64))
        self.build_seconds += time.perf_counter() - start
        return ~covered

    def add_rects(self, rects: list[Rect]) -> None:
        """Append ``rects``, numbering their cell keys on from the last key
        (TPI "Insertion"). Raises ``ValueError``, leaving the PI as it was,
        for a grid the keys cannot number."""
        bounds = _stack(rects)
        slots, base, self._n_keys = _key_ranges(bounds, self.gc, self._n_keys)
        self.rects.extend(rects)
        self._bounds = np.concatenate([self._bounds, bounds])
        self._sizes = np.concatenate([self._sizes, _grid_sizes(bounds, self.gc)])
        self._sizes.flags.writeable = False
        self._slots = np.concatenate([self._slots, slots])
        self._base = np.concatenate([self._base, base])

    # ---------------- queries ----------------
    def query(self, x: float, y: float, t: int) -> np.ndarray:
        """IDs in the grid cell containing (x, y) at time t (STRQ core)."""
        at = self._at.get(t)
        cell = self.cell_key(x, y)
        if at is None or cell is None:
            return np.zeros(0, dtype=np.int64)
        ri, cx, cy = cell
        key = self._base[ri] + cx * self._slots[ri, 1] + cy
        i = int(np.searchsorted(at.keys, key))
        return _read(at, i, i + int(i < len(at.keys) and at.keys[i] == key))

    def query_circle(self, x: float, y: float, t: int, radius: float) -> np.ndarray:
        """IDs in every cell overlapping the circle (local search, §5.2)."""
        at = self._at.get(t)
        out: list[np.ndarray] = []
        for ri, r in enumerate(self.rects if at is not None else ()):
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
            # each column cx of the rectangle is one run of keys
            col = self._base[ri] + np.arange(cx0, cx1 + 1) * self._slots[ri, 1]
            los = np.searchsorted(at.keys, col + cy0).tolist()
            his = np.searchsorted(at.keys, col + cy1, side="right").tolist()
            out.extend(_read(at, lo, hi) for lo, hi in zip(los, his) if hi > lo)
        return (
            np.unique(np.concatenate(out)) if out else np.zeros(0, dtype=np.int64)
        )

    # ---------------- views ----------------
    @property
    def cells(self) -> dict[CellKey, dict[int, EncodedIds]]:
        """``{(ri, cx, cy): {t: EncodedIds}}`` of every stored list, a new
        mapping built from the columns on each read; the index never reads
        it back."""
        out: dict[CellKey, dict[int, EncodedIds]] = {}
        for t, at in self._at.items():
            firsts = at.ids[at.offs[:-1]].tolist()
            for cell, key, first in zip(self._unpack(at.keys), at.keys.tolist(), firsts):
                enc = at.encs.get(key)
                out.setdefault(cell, {})[t] = enc if enc is not None else encode_ids([first])
        return out

    def cell_counts(self, t: int | None = None) -> tuple[list[CellKey], np.ndarray]:
        """Occupied cells in ``(ri, cx, cy)`` order and their ID counts, at
        ``t`` or, when ``t`` is None, summed over every timestamp."""
        if t is None:
            ats = list(self._at.values())
        else:
            ats = [self._at[t]] if t in self._at else []
        if not ats:
            return [], np.zeros(0, dtype=np.int64)
        keys, order, bounds = group_rows(np.concatenate([a.keys for a in ats]))
        counts = np.concatenate([np.diff(a.offs) for a in ats])[order]
        return self._unpack(keys), np.add.reduceat(counts, bounds[:-1])

    # ---------------- accounting ----------------
    def counts_per_rect(self, t: int) -> np.ndarray:
        """N_{R_i, t}: indexed trajectories per rectangle at time t."""
        at = self._at.get(t)
        if at is None:
            return np.zeros(len(self.rects), dtype=np.int64)
        # keys sort by rectangle: rectangle i's cells start at its base
        firsts = np.append(np.searchsorted(at.keys, self._base), len(at.keys))
        return np.diff(at.offs[firsts])

    def rect_sizes(self) -> np.ndarray:
        """|R_i| in grid cells (Definition 5.1's rectangle size), read-only."""
        return self._sizes

    def size_bits(self) -> int:
        """Index size: rect metadata + cell keys + compressed ID lists."""
        bits = len(self.rects) * 4 * 64
        if not self._at:
            return bits
        keys = np.concatenate([at.keys for at in self._at.values()])
        bits += 3 * 32 * len(np.unique(keys))  # cell key
        for at in self._at.values():
            n_one = len(at.keys) - len(at.encs)
            bits += 32 * len(at.keys)  # timestamp per list
            bits += _ONE_ID_BITS * n_one + sum(e.total_bits for e in at.encs.values())
        return bits


def _key_ranges(
    bounds: np.ndarray, gc: float, base: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Per rectangle, its ``(sx, sy)`` cell-index counts and the first of
    its ``sx * sy`` packed keys, numbered on from ``base``; and the key
    after the last. Raises ``ValueError`` for a grid the keys cannot
    number exactly."""
    spans = ((bounds[:, 2:] - bounds[:, :2]) // gc).tolist()
    slots = [(int(w) + 1, int(h) + 1) for w, h in spans]
    bases = []
    for sx, sy in slots:
        if max(sx, sy) > _AXIS_LIMIT:
            raise ValueError(
                f"a rectangle spans {max(sx, sy)} cells of g_c={gc} on one "
                f"axis, more than {_AXIS_LIMIT}"
            )
        bases.append(base)
        base += sx * sy
    if base > _KEY_LIMIT:
        raise ValueError(
            f"the rectangles hold {base} cells of g_c={gc}, more than the "
            f"{_KEY_LIMIT} a 64-bit cell key can number"
        )
    return (
        np.array(slots, dtype=np.int64).reshape(-1, 2),
        np.array(bases, dtype=np.int64),
        base,
    )


def _stack(rects: list[Rect]) -> np.ndarray:
    """(R, 4) array of the rectangles' ``(x0, y0, x1, y1)``."""
    return np.array(
        [(r.x0, r.y0, r.x1, r.y1) for r in rects], dtype=np.float64
    ).reshape(-1, 4)


def _first_hit(b: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Index of the first row of the (R, 4) bounds ``b`` holding each
    point, -1 when none does."""
    xs = np.asarray(xs, dtype=np.float64)[:, None]
    ys = np.asarray(ys, dtype=np.float64)[:, None]
    if not len(b):
        return np.full(len(xs), -1, dtype=np.int64)
    inside = (xs >= b[:, 0]) & (xs < b[:, 2]) & (ys >= b[:, 1]) & (ys < b[:, 3])
    return np.where(inside.any(axis=1), inside.argmax(axis=1), -1)


def _grid_sizes(bounds: np.ndarray, gc: float) -> np.ndarray:
    """Read-only grid-cell count per rectangle, at least one per axis."""
    per_axis = np.ceil((bounds[:, 2:] - bounds[:, :2]) / gc).astype(np.int64)
    sizes = np.maximum(1, per_axis).prod(axis=1)
    sizes.flags.writeable = False
    return sizes


def build_rects(
    t: int, xs: np.ndarray, ys: np.ndarray, *, eps_s: float, seed: int = 0
) -> tuple[list[Rect], np.ndarray]:
    """Algorithm 3, lines 1-3: disjoint rectangles over the points at time
    ``t`` (grow-until-eps_s partitions, their MBRs, overlap removal), and
    the index of the rectangle holding each point. Raises ``RuntimeError``
    when a point is left outside every rectangle."""
    xy = np.column_stack([xs, ys]).astype(np.float64)
    labels, _, _ = grow_partition(xy, eps_s, seed=seed)
    rects: list[Rect] = []
    for r in mbrs(xy, labels):
        rects.extend(remove_overlap(r, rects))
    ri = _first_hit(_stack(rects), xy[:, 0], xy[:, 1])
    uncov = ri < 0
    if uncov.any():
        raise RuntimeError(
            f"the rectangles left {int(uncov.sum())} of their own points at "
            f"t={t} outside every rectangle"
        )
    return rects, ri


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
    rects, ri = build_rects(t, xs, ys, eps_s=eps_s, seed=seed)
    pi = PI(gc=gc, rects=rects, built_at=t)
    pi.build_seconds = time.perf_counter() - start
    pi.add_points(t, ids, xs, ys, ri=ri)
    return pi
