"""Error-bounded and fixed-size vector quantizers (paper Eq. 3).

``IncrementalQuantizer`` maintains a codebook C so that every quantized
vector e satisfies ``||e - C(b)||_2 <= eps`` -- when new vectors violate
the bound with the existing codewords, additional codewords are grown from
the violators (the paper's "additional codewords are added to update C").

``FixedQuantizer`` is the budgeted variant used by the Table 2/4
experiments, where every method is given the *same number* of codewords.
"""
from __future__ import annotations

import numpy as np

from repro.core.kmeans import farthest_first, grow_partition, kmeans, sq_dists


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

    def reconstruct(self, codes: np.ndarray) -> np.ndarray:
        """Codeword vectors for ``codes``."""
        return self.codebook[np.asarray(codes, dtype=np.int64)]

    def absorb(self, other: "IncrementalQuantizer") -> int:
        """Append another quantizer's codewords (partition merge,
        Section 3.2.2). Returns the offset the other's codes shift by."""
        offset = len(self.codebook)
        self.codebook = np.concatenate([self.codebook, other.codebook])
        return offset


class OnlineBudgetQuantizer:
    """Single-pass budgeted codebook (no Lloyd refinement).

    Codewords are chosen greedily farthest-first (k-center maxmin) from
    the batch, then points are assigned to their nearest codeword. This
    models an *online* quantizer that cannot iterate over the data --
    the regime the paper's Q-trajectory operates in when it is given a
    fixed codeword budget instead of an error bound.
    """

    def __init__(self, n_codewords: int, *, seed: int = 0):
        self.n_codewords = int(n_codewords)
        self.seed = seed
        self.codebook = np.zeros((0, 2))

    def fit_quantize(self, errs: np.ndarray) -> np.ndarray:
        errs = np.atleast_2d(np.asarray(errs, dtype=np.float64))
        k = max(1, min(self.n_codewords, len(errs)))
        self.codebook = farthest_first(errs, k, self.seed)
        codes, _ = nearest(self.codebook, errs)
        return codes

    def reconstruct(self, codes: np.ndarray) -> np.ndarray:
        return self.codebook[np.asarray(codes, dtype=np.int64)]


class FixedQuantizer:
    """Batch k-means codebook with exactly ``n_codewords`` entries."""

    def __init__(self, n_codewords: int, *, seed: int = 0):
        self.n_codewords = int(n_codewords)
        self.seed = seed
        self.codebook = np.zeros((0, 2))

    def fit_quantize(self, errs: np.ndarray) -> np.ndarray:
        """Fit the codebook on ``errs`` and return their codes."""
        errs = np.atleast_2d(np.asarray(errs, dtype=np.float64))
        labels, cents = kmeans(errs, self.n_codewords, seed=self.seed)
        self.codebook = cents
        return labels

    def reconstruct(self, codes: np.ndarray) -> np.ndarray:
        return self.codebook[np.asarray(codes, dtype=np.int64)]
