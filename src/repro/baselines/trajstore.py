"""TrajStore baseline (Cudre-Mauroux et al., ICDE 2010), adapted per paper.

TrajStore maintains an adaptive quadtree over space: sub-trajectory points
stream into leaf cells, and a leaf splits when it holds too many points
(the paper's "recursively updates the index by merging, splitting or
appending"; we implement split+append -- merging never triggers on
append-only streams). Summarization clusters the points *per leaf cell*,
either error-bounded or with a codeword budget allocated proportionally to
cell population (the fairness rule in the paper's Section 6.2.1).

The quadtree is shared by all timestamps: a cell holds points from the
whole time range, which is exactly what makes TrajStore's Table 9 I/O
count explode -- the disk layout here preserves that (points are appended
to a cell's pages in arrival order, so one cell spans many pages/times).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.kmeans import kmeans
from repro.core.quantizer import IncrementalQuantizer


@dataclass
class _Leaf:
    x0: float
    y0: float
    x1: float
    y1: float
    depth: int
    ids: list[int] = field(default_factory=list)
    ts: list[int] = field(default_factory=list)
    pts: list[np.ndarray] = field(default_factory=list)
    children: list["_Leaf"] | None = None

    def _append(self, i: int, t: int, p: np.ndarray) -> None:
        self.ids.append(i)
        self.ts.append(t)
        self.pts.append(p)


class TrajStore:
    """Streaming adaptive quadtree storage + per-cell quantization."""

    def __init__(
        self,
        bounds: tuple[float, float, float, float],
        *,
        cell_capacity: int = 512,
        max_depth: int = 12,
        seed: int = 0,
    ):
        x0, y0, x1, y1 = bounds
        self.root = _Leaf(x0, y0, x1, y1, 0)
        self.cell_capacity = cell_capacity
        self.max_depth = max_depth
        self.seed = seed
        self.n_splits = 0
        self.build_seconds = 0.0

    # ---------------- index maintenance ----------------
    def insert_batch(self, ids: np.ndarray, ts: np.ndarray, pts: np.ndarray) -> None:
        """Append one timestep's points, splitting overfull leaves."""
        start = time.perf_counter()
        for i, t, p in zip(ids, ts, pts):
            self._insert(self.root, int(i), int(t), np.asarray(p, dtype=np.float64))
        self.build_seconds += time.perf_counter() - start

    def _insert(self, node: _Leaf, i: int, t: int, p: np.ndarray) -> None:
        while node.children is not None:
            node = self._child_for(node, p)
        node._append(i, t, p)
        if len(node.ids) > self.cell_capacity and node.depth < self.max_depth:
            self._split(node)

    def _child_for(self, node: _Leaf, p: np.ndarray) -> _Leaf:
        mx = (node.x0 + node.x1) / 2
        my = (node.y0 + node.y1) / 2
        ix = int(p[0] > mx)
        iy = int(p[1] > my)
        return node.children[iy * 2 + ix]

    def _split(self, node: _Leaf) -> None:
        self.n_splits += 1
        mx = (node.x0 + node.x1) / 2
        my = (node.y0 + node.y1) / 2
        node.children = [
            _Leaf(node.x0, node.y0, mx, my, node.depth + 1),
            _Leaf(mx, node.y0, node.x1, my, node.depth + 1),
            _Leaf(node.x0, my, mx, node.y1, node.depth + 1),
            _Leaf(mx, my, node.x1, node.y1, node.depth + 1),
        ]
        ids, ts, pts = node.ids, node.ts, node.pts
        node.ids, node.ts, node.pts = [], [], []
        for i, t, p in zip(ids, ts, pts):
            self._child_for(node, p)._append(i, t, p)

    def leaves(self) -> list[_Leaf]:
        """All leaf cells, depth-first."""
        out: list[_Leaf] = []
        stack = [self.root]
        while stack:
            n = stack.pop()
            if n.children is None:
                out.append(n)
            else:
                stack.extend(n.children)
        return out

    def leaf_for(self, x: float, y: float) -> _Leaf:
        """Leaf cell containing (x, y)."""
        node = self.root
        while node.children is not None:
            node = self._child_for(node, np.array([x, y]))
        return node

    # ---------------- summarization ----------------
    def summarize(
        self, *, eps: float | None = None, total_codewords: int | None = None
    ) -> "TrajStoreSummary":
        """Quantize every cell's points. One of eps / total_codewords."""
        start = time.perf_counter()
        if (eps is None) == (total_codewords is None):
            raise ValueError("pass exactly one of eps / total_codewords")
        leaves = [lf for lf in self.leaves() if lf.ids]
        n_total = sum(len(lf.ids) for lf in leaves)
        recs: dict[tuple[int, int], np.ndarray] = {}
        n_codewords = 0
        cell_stats: list[tuple[int, int]] = []
        for li, lf in enumerate(leaves):
            pts = np.vstack(lf.pts)
            if eps is not None:
                # one fresh error-bounded codebook per cell
                q = IncrementalQuantizer(eps, seed=self.seed + li)
                labels = q.quantize(pts)
                cents, v = q.codebook, len(q)
            else:
                v = max(1, int(round(total_codewords * len(lf.ids) / n_total)))
                labels, cents = kmeans(pts, v, seed=self.seed + li)
                v = len(cents)
            n_codewords += v
            cell_stats.append((len(lf.ids), v))
            rec = cents[labels]
            for j, (i, t) in enumerate(zip(lf.ids, lf.ts)):
                recs[(i, t)] = rec[j]
        self.build_seconds += time.perf_counter() - start
        return TrajStoreSummary(
            recs=recs, n_codewords=n_codewords, cell_stats=cell_stats
        )


@dataclass
class TrajStoreSummary:
    """Per-point reconstructions keyed by (traj_id, t) + codebook size."""

    recs: dict[tuple[int, int], np.ndarray]
    n_codewords: int
    cell_stats: list[tuple[int, int]] = field(default_factory=list)

    def reconstruct(self, ids: np.ndarray, ts: np.ndarray) -> np.ndarray:
        return np.vstack([self.recs[(int(i), int(t))] for i, t in zip(ids, ts)])

    def summary_bits(self) -> int:
        """Codewords (2 x float32) + per-point codeword indexes per cell."""
        bits = self.n_codewords * 2 * 32
        for n_pts, v in self.cell_stats:
            bits += n_pts * max(1, int(np.ceil(np.log2(max(2, v)))))
        return bits


def bounds_of(pts: np.ndarray, margin: float = 1e-9) -> tuple[float, float, float, float]:
    """Bounding box of (n, 2) points, slightly inflated."""
    return (
        float(pts[:, 0].min()) - margin,
        float(pts[:, 1].min()) - margin,
        float(pts[:, 0].max()) + margin,
        float(pts[:, 1].max()) + margin,
    )
