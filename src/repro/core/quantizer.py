"""Error-bounded vector quantizer (paper Eq. 3).

``IncrementalQuantizer`` maintains a codebook C so that every quantized
vector e satisfies ``||e - C(b)||_2 <= eps`` -- when new vectors violate
the bound with the existing codewords, additional codewords are grown from
the violators (the paper's "additional codewords are added to update C").

``EPQEngine`` keeps one per partition in the global codebook mode, where
a merged-away partition's is ``absorb``-ed into its target's, and makes a
fresh one per partition and timestep in the per-t mode. The
fixed-size codebooks of Tables 2/4 (every method gets the *same number*
of codewords) are no quantizer's: ``EPQEngine.step`` fits them once per
partition and timestep with ``kmeans``, or ``farthest_first`` without
prediction.
"""
from __future__ import annotations

import numpy as np

from repro.core.kmeans import grow_partition, sq_dists


def nearest(codebook: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest codeword per point. Returns (codes, distances)."""
    pts = np.atleast_2d(pts)
    # chunk so the (n, V) distance matrix stays small
    codes = np.empty(len(pts), dtype=np.int64)
    dists = np.empty(len(pts))
    step = max(1, 4_000_000 // max(1, len(codebook)))
    for s in range(0, len(pts), step):
        d2 = sq_dists(pts[s : s + step], codebook)
        c = d2.argmin(axis=1)
        codes[s : s + step] = c
        dists[s : s + step] = np.sqrt(d2[np.arange(len(c)), c])
    return codes, dists


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
        n = len(errs)
        codes = np.full(n, -1, dtype=np.int64)
        offset = len(self.codebook)
        if offset:
            codes[:], dists = nearest(self.codebook, errs)
            bad = dists > self.eps
        else:
            bad = np.ones(n, dtype=bool)
        if bad.any():
            # every label of grow_partition is a non-empty cluster, so the
            # new codes are the labels shifted past the existing codewords
            labels, cents, _ = grow_partition(
                errs[bad], self.eps, seed=self.seed + offset
            )
            self.codebook = np.concatenate([self.codebook, cents])
            codes[bad] = offset + labels
        return codes

    def absorb(self, other: "IncrementalQuantizer") -> int:
        """Append another quantizer's codewords (partition merge,
        Section 3.2.2). Returns the offset the other's codes shift by."""
        offset = len(self.codebook)
        self.codebook = np.concatenate([self.codebook, other.codebook])
        return offset

