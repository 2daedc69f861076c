"""REST baseline (Zhao et al., KDD 2018): reference-based trajectory
compression.

A reference set of sub-trajectories is built offline from reference
trajectories. A target trajectory is compressed greedily: starting at each
position, find the reference sub-trajectory that matches the longest run
of upcoming points within the deviation threshold, and emit a
``(ref_id, ref_offset, length)`` triple; points with no sufficiently long
match are stored raw. This is the paper's "trajectory redundancy
reduction" variant (the one they found best) in its essential form.

A uniform grid over reference points accelerates match-candidate lookup.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

MIN_MATCH = 4  # shortest run worth a reference triple
_MATCH_BITS = 3 * 32  # (ref_id, offset, length)
_RAW_BITS = 2 * 64  # raw (x, y)


@dataclass
class ReferenceSet:
    """Reference trajectories + a grid over their points for lookup."""

    trajs: list[np.ndarray]
    cell: float
    _grid: dict[tuple[int, int], list[tuple[int, int]]]

    @classmethod
    def build(cls, trajs: list[np.ndarray], *, cell: float) -> "ReferenceSet":
        grid: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
        for rid, tr in enumerate(trajs):
            for off, p in enumerate(tr):
                grid[(int(p[0] // cell), int(p[1] // cell))].append((rid, off))
        return cls(trajs=trajs, cell=cell, _grid=dict(grid))

    def candidates(self, p: np.ndarray) -> list[tuple[int, int]]:
        """(ref_id, offset) pairs whose point is in p's 3x3 neighborhood."""
        cx, cy = int(p[0] // self.cell), int(p[1] // self.cell)
        out: list[tuple[int, int]] = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                out.extend(self._grid.get((cx + dx, cy + dy), ()))
        return out


@dataclass
class RESTResult:
    """Compression outcome for one trajectory."""

    n_points: int
    n_matched: int
    n_raw: int
    n_triples: int
    recon: np.ndarray

    @property
    def compressed_bits(self) -> int:
        return self.n_triples * _MATCH_BITS + self.n_raw * _RAW_BITS

    @property
    def raw_bits(self) -> int:
        return self.n_points * _RAW_BITS


def rest_compress(
    traj: np.ndarray, refset: ReferenceSet, eps: float, *, max_candidates: int = 64
) -> RESTResult:
    """Greedy longest-match compression of one trajectory (n, 2)."""
    traj = np.atleast_2d(np.asarray(traj, dtype=np.float64))
    n = len(traj)
    recon = np.empty_like(traj)
    i = 0
    n_matched = n_raw = n_triples = 0
    while i < n:
        best_len = 0
        best: tuple[int, int] | None = None
        for rid, off in refset.candidates(traj[i])[:max_candidates]:
            ref = refset.trajs[rid]
            run = _match_run(traj, i, ref, off, eps)
            if run > best_len:
                best_len = run
                best = (rid, off)
        if best is not None and best_len >= MIN_MATCH:
            rid, off = best
            recon[i : i + best_len] = refset.trajs[rid][off : off + best_len]
            i += best_len
            n_matched += best_len
            n_triples += 1
        else:
            recon[i] = traj[i]
            i += 1
            n_raw += 1
    return RESTResult(
        n_points=n, n_matched=n_matched, n_raw=n_raw, n_triples=n_triples, recon=recon
    )


def _match_run(
    traj: np.ndarray, i: int, ref: np.ndarray, off: int, eps: float
) -> int:
    """Length of the pointwise match of traj[i:] against ref[off:] under eps."""
    limit = min(len(traj) - i, len(ref) - off)
    run = 0
    for j in range(limit):
        d = traj[i + j] - ref[off + j]
        if d[0] * d[0] + d[1] * d[1] > eps * eps:
            break
        run += 1
    return run
