"""Linear AR(k) prediction for trajectory points (paper Eq. 1-2).

At each timestep a single coefficient vector ``P[t] in R^k`` is fit per
partition by least squares so that ``T_i^t ~= sum_j P_j[t] * That_i^{t-j}``
over all active trajectories i in the partition, where ``That`` are the
*reconstructed* previous points (Eq. 2 -- prediction must use what the
decoder has, otherwise encoder and decoder drift apart).

``History`` keeps, per trajectory, the last k reconstructed points.
"""
from __future__ import annotations

import numpy as np

from repro.core.idindex import insert, lookup

DEFAULT_K = 2
"""AR order. The paper does not state its k; AR(2) captures the
constant-velocity regime dominant in vehicle data (see DESIGN.md)."""


def fit_coeffs(hist: np.ndarray, cur: np.ndarray, *, ridge: float = 1e-10) -> np.ndarray:
    """Least-squares fit of P[t] (shape (k,)) from history to current points.

    ``hist`` has shape (n, k, 2) with hist[:, j-1] the reconstruction at
    t-j; ``cur`` has shape (n, 2). The x and y equations share the same
    coefficients (the paper's f is one function per partition), so both
    axes are stacked into one regression. A tiny ridge keeps the solve
    stable when histories are collinear (e.g. stationary objects).
    """
    n, k, _ = hist.shape
    a = np.concatenate([hist[:, :, 0], hist[:, :, 1]], axis=0)  # (2n, k)
    b = np.concatenate([cur[:, 0], cur[:, 1]], axis=0)  # (2n,)
    ata = a.T @ a + ridge * np.eye(k) * max(1.0, np.abs(a).max() ** 2)
    atb = a.T @ b
    try:
        return np.linalg.solve(ata, atb)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(a, b, rcond=None)[0]


def predict(hist: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Apply P[t]: (n, k, 2) x (k,) -> (n, 2) predictions (Eq. 2)."""
    return np.einsum("nkd,k->nd", hist, coeffs)


class History:
    """Per-trajectory buffers of the last k reconstructed points.

    Row r of ``_buf`` (shape (n, k, 2), newest first) and ``_count``
    belongs to the r-th id of the sorted array ``_ids``; an id is merged
    in the first time it is pushed. Each call takes a batch of distinct
    ids.
    """

    def __init__(self, k: int = DEFAULT_K):
        self.k = k
        self._ids = np.empty(0, dtype=np.int64)
        self._buf = np.zeros((0, k, 2))
        self._count = np.zeros(0, dtype=np.int64)

    def counts(self, ids: np.ndarray) -> np.ndarray:
        """Reconstructions pushed so far per id (0 for unknown ids)."""
        rows, found = lookup(self._ids, ids)
        out = np.zeros(len(rows), dtype=np.int64)
        out[found] = self._count[rows[found]]
        return out

    def warm_ids(self, ids: np.ndarray) -> np.ndarray:
        """Boolean mask over ``ids``: has a full k-length history."""
        return self.counts(ids) >= self.k

    def matrix(self, ids: np.ndarray) -> np.ndarray:
        """History tensor (n, k, 2); hist[:, j-1] is the point at t-j.

        All ids must have been pushed; rows of ids with fewer than k
        pushes are zero beyond their count (hist[:, 0] is the last
        reconstruction of every id).
        """
        rows, _ = lookup(self._ids, ids)
        return self._buf[rows]

    def push(self, ids: np.ndarray, recon: np.ndarray) -> None:
        """Record reconstructed points for this timestep."""
        rows, found = lookup(self._ids, ids)
        if not found.all():
            self._ids, (self._buf, self._count) = insert(
                self._ids, ids, self._buf, self._count
            )
            rows, _ = lookup(self._ids, ids)
        self._buf[rows, 1:] = self._buf[rows, :-1]
        self._buf[rows, 0] = recon
        self._count[rows] += 1
