"""Error-bounded vector quantizer (paper Eq. 3).

``IncrementalQuantizer`` maintains a codebook C so that every quantized
vector e satisfies ``||e - C(b)||_2 <= eps`` -- when new vectors violate
the bound with the existing codewords, additional codewords are grown from
the violators (the paper's "additional codewords are added to update C").

``EPQEngine`` keeps one per partition in the global codebook mode, where
a merged-away partition's is ``absorb``-ed into its target's, and makes a
fresh one per partition and timestep in the per-t mode. It quantizes a
timestep's partitions together with ``quantize_each``, one codeword search
(``nearest_each``) over all of them; ``IncrementalQuantizer.quantize`` and
``nearest`` are its one-codebook case. The fixed-size codebooks of Tables
2/4 (every method gets the *same number* of codewords) are no quantizer's:
``EPQEngine.step`` fits them once per partition and timestep with
``kmeans``, or ``farthest_first`` without prediction.

The search pads codebooks with ``+inf`` codewords, so that groups of rows
with codebooks of different sizes share one distance matrix. A codeword
at infinity is never nearest while a finite one exists (its distance is
``inf``), and argmin keeps the first of equal minima, so padding changes
no code, and each cell is ``sq_dists``' arithmetic on the same two rows:
the codes and distances are those of one search per codebook.
"""
from __future__ import annotations

import numpy as np

from repro.core.kmeans import grow_partition, sq_dists

#: Most ``+inf`` padding cells (rows times padded codewords) that one block
#: of ``nearest_each`` may hold. Groups are packed into a block in
#: descending codebook size until the next would take the block's padding
#: past this. A padding cell costs the distance arithmetic of a real one
#: and a block about 15-20 us of numpy calls, so the budget trades the two.
#: Replaying the searches of recorded E-PQ steps (bench geolife and porto,
#: PPQ-S and PPQ-A, 25 alternating rounds) against one search per group:
#: 1,024 cells x1.09-1.35, 2,048 x1.13-1.31, 4,096 x1.06-1.45, 8,192
#: x1.03-1.46 and 16,384 x0.82-1.49; 4,096 had the best geometric mean.
BLOCK_PAD_CELLS = 4096

#: Most cells of one distance matrix; a block's rows are searched in
#: chunks that keep under it.
CHUNK_CELLS = 4_000_000


def nearest(codebook: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest codeword per point. Returns (codes, distances)."""
    pts = np.atleast_2d(pts)
    return nearest_each([codebook], pts, (0, len(pts)))


def nearest_each(
    codebooks: list[np.ndarray], pts: np.ndarray, bounds
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest codeword per point, each group of rows against its own
    codebook: rows ``bounds[j]:bounds[j + 1]`` of the 2-D ``pts`` against
    ``codebooks[j]``. Returns (codes, distances); a row whose codebook is
    empty gets code 0 and distance ``inf``.

    The groups with codewords are taken in descending codebook size (ties
    in group order) and packed into blocks of consecutive groups while the
    block's padding stays within ``BLOCK_PAD_CELLS``. A block of one group
    is searched against its codebook; a larger one pads every codebook to
    its first's size with ``+inf`` codewords and gives each row its own
    group's. A block's rows are searched in chunks of at most
    ``CHUNK_CELLS`` distances.
    """
    n = len(pts)
    codes = np.zeros(n, dtype=np.int64)
    dists = np.full(n, np.inf)
    bounds = np.asarray(bounds).tolist()
    lo, hi = bounds[:-1], bounds[1:]
    sizes = [len(cb) for cb in codebooks]
    order = sorted((j for j, v in enumerate(sizes) if v), key=lambda j: -sizes[j])
    i = 0
    while i < len(order):
        v, pad, end = sizes[order[i]], 0, i + 1
        while end < len(order):
            j = order[end]
            pad += (hi[j] - lo[j]) * (v - sizes[j])
            if pad > BLOCK_PAD_CELLS:
                break
            end += 1
        block, i = order[i:end], end
        # the candidates are views of contiguous coordinate planes, which
        # the distance arithmetic reads faster than interleaved codewords
        if len(block) == 1:
            (j,) = block
            rows = slice(lo[j], hi[j])
            cands = codebooks[j].T.copy().T
        else:
            rows = np.concatenate([np.arange(lo[j], hi[j]) for j in block])
            padded = np.full((pts.shape[1], len(block), v), np.inf)
            for b, j in enumerate(block):
                padded[:, b, : sizes[j]] = codebooks[j].T
            counts = [hi[j] - lo[j] for j in block]
        sub = pts[rows]
        step = max(1, CHUNK_CELLS // v)
        if len(sub) <= step:
            if len(block) > 1:
                # each row gets its own group's padded codebook
                cands = np.repeat(padded, counts, axis=1).transpose(1, 2, 0)
            codes[rows], dists[rows] = _nearest_rows(sub, cands)
            continue
        # a block over the chunk bound is searched chunk by chunk, each
        # chunk gathering only its own rows' padded codebooks
        if len(block) > 1:
            owner = np.repeat(np.arange(len(block)), counts)
        c, d = np.empty(len(sub), dtype=np.int64), np.empty(len(sub))
        for s in range(0, len(sub), step):
            if len(block) > 1:
                cands = padded[:, owner[s : s + step]].transpose(1, 2, 0)
            c[s : s + step], d[s : s + step] = _nearest_rows(sub[s : s + step], cands)
        codes[rows], dists[rows] = c, d
    return codes, dists


def _nearest_rows(pts: np.ndarray, cands: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest of ``cands`` per row of ``pts``: of one (m, d) codebook, or
    of an (len(pts), m, d) array of each row's own. Returns (codes,
    distances), argmin keeping the first of equal minima."""
    d2 = sq_dists(pts, cands)
    c = d2.argmin(axis=1)
    return c, np.sqrt(d2[np.arange(len(c)), c])


def quantize_each(
    quantizers: list["IncrementalQuantizer"], errs: np.ndarray, bounds
) -> np.ndarray:
    """Assign codes to rows ``bounds[j]:bounds[j + 1]`` of ``errs`` (n, 2,
    float) with ``quantizers[j]``, growing each codebook to keep its bound.

    One ``nearest_each`` search covers every group; a group with a row
    beyond its quantizer's ``eps`` grows its codebook from those rows, with
    the seed ``seed + len(codebook)``, just as a quantizer of its own would.
    """
    bounds = np.asarray(bounds)
    codes, dists = nearest_each([q.codebook for q in quantizers], errs, bounds)
    eps = np.repeat([q.eps for q in quantizers], bounds[1:] - bounds[:-1])
    bad = np.flatnonzero(dists > eps)
    if not len(bad):
        return codes
    # group j's rows beyond its bound are bad[gb[j]:gb[j + 1]]
    gb = np.searchsorted(bad, bounds)
    for j in np.flatnonzero(gb[1:] > gb[:-1]).tolist():
        q, r = quantizers[j], bad[gb[j] : gb[j + 1]]
        offset = len(q.codebook)
        # every label of grow_partition is a non-empty cluster, so the
        # new codes are the labels shifted past the existing codewords
        labels, cents, _ = grow_partition(errs[r], q.eps, seed=q.seed + offset)
        q.codebook = np.concatenate([q.codebook, cents])
        codes[r] = offset + labels
    return codes


class IncrementalQuantizer:
    """Online codebook with a hard per-vector error bound ``eps``."""

    def __init__(self, eps: float, *, seed: int = 0):
        self.eps = float(eps)
        self.seed = seed
        # codeword array (V, 2); growth replaces it, never writes into it
        self.codebook = np.zeros((0, 2))

    def __len__(self) -> int:
        return len(self.codebook)

    def quantize(self, errs: np.ndarray) -> np.ndarray:
        """Assign codes to ``errs`` (n, 2), growing C to keep the bound."""
        errs = np.atleast_2d(np.asarray(errs, dtype=np.float64))
        return quantize_each([self], errs, (0, len(errs)))

    def absorb(self, other: "IncrementalQuantizer") -> int:
        """Append another quantizer's codewords (partition merge,
        Section 3.2.2). Returns the offset the other's codes shift by."""
        offset = len(self.codebook)
        self.codebook = np.concatenate([self.codebook, other.codebook])
        return offset
