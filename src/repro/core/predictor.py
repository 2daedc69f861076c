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

DEFAULT_K = 2
"""AR order. The paper does not state its k; AR(2) captures the
constant-velocity regime dominant in vehicle data (see DESIGN.md)."""


def normal_equations(
    hist: np.ndarray, cur: np.ndarray, bounds: np.ndarray, *, ridge: float = 1e-10
) -> tuple[np.ndarray, np.ndarray]:
    """Ridged normal equations of one P[t] regression per group of rows.

    Group g is rows ``bounds[g]:bounds[g + 1]`` (non-empty) of ``hist``
    (n, k, 2) and ``cur`` (n, 2). Its design matrix A is one contiguous
    block: the x equations of its rows, then their y equations. Its system
    is ``AᵀA + ridge·I·max(1, max|A|²)`` and ``Aᵀb``, returned stacked as
    (G, k, k) and (G, k). Each group's products are the BLAS calls a fit
    of that group alone makes, so a system does not depend on the other
    groups.
    """
    bounds = np.asarray(bounds)
    n, k, _ = hist.shape
    sizes = np.diff(bounds)
    # group g's x rows are a[2 * lo : lo + hi], its y rows a[lo + hi : 2 * hi]
    x_rows = np.arange(n) + np.repeat(bounds[:-1], sizes)
    y_rows = x_rows + np.repeat(sizes, sizes)
    a = np.empty((2 * n, k))
    a[x_rows], a[y_rows] = hist[:, :, 0], hist[:, :, 1]
    b = np.empty(2 * n)
    b[x_rows], b[y_rows] = cur[:, 0], cur[:, 1]
    ata = np.empty((len(sizes), k, k))
    atb = np.empty((len(sizes), k))
    rows = (2 * bounds).tolist()
    for g, (lo, hi) in enumerate(zip(rows[:-1], rows[1:])):
        ag = a[lo:hi]
        ata[g] = ag.T @ ag
        atb[g] = ag.T @ b[lo:hi]
    # the scale squares each group's max|A| as a float64 scalar, as a fit of
    # that group alone does
    top = np.maximum.reduceat(np.abs(a), 2 * bounds[:-1]).max(axis=1)
    scale = np.array([max(1.0, m ** 2) for m in top])
    return ata + ridge * np.eye(k) * scale[:, None, None], atb


def fit_coeffs(hist: np.ndarray, cur: np.ndarray, *, ridge: float = 1e-10) -> np.ndarray:
    """Least-squares fit of P[t] (shape (k,)) from history to current points.

    ``hist`` has shape (n, k, 2) with hist[:, j-1] the reconstruction at
    t-j; ``cur`` has shape (n, 2). The x and y equations share the same
    coefficients (the paper's f is one function per partition), so both
    axes are stacked into one regression. A tiny ridge keeps the solve
    stable when histories are collinear (e.g. stationary objects); a
    singular system falls back to least squares.
    """
    ata, atb = normal_equations(hist, cur, [0, len(hist)], ridge=ridge)
    try:
        return np.linalg.solve(ata[0], atb[0])
    except np.linalg.LinAlgError:
        a = np.concatenate([hist[:, :, 0], hist[:, :, 1]], axis=0)
        b = np.concatenate([cur[:, 0], cur[:, 1]], axis=0)
        return np.linalg.lstsq(a, b, rcond=None)[0]


def predict(hist: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Apply P[t] (Eq. 2): (n, k, 2) x (n, k) -> (n, 2) predictions, where
    ``coeffs[i]`` are the coefficients of row i's partition; a single (k,)
    vector applies to every row."""
    return np.einsum("nkd,nk->nd", hist, np.broadcast_to(coeffs, hist.shape[:2]))


class History:
    """Per-trajectory buffers of the last k reconstructed points.

    Row r of ``_buf`` (shape (n, k, 2), newest first) and ``_count`` is
    the state of one trajectory of the build. The rows are the caller's:
    ``Encoder.push`` maps trajectory ids to them. Each call takes a batch of
    distinct rows.
    """

    def __init__(self, k: int, n: int):
        self.k = k
        self._buf = np.zeros((n, k, 2))
        self._count = np.zeros(n, dtype=np.int64)

    def warm_ids(self, rows: np.ndarray) -> np.ndarray:
        """Boolean mask over ``rows``: has a full k-length history."""
        return self._count[rows] >= self.k

    def matrix(self, rows: np.ndarray) -> np.ndarray:
        """History tensor (n, k, 2); hist[:, j-1] is the point at t-j.

        Rows with fewer than k pushes are zero beyond their count
        (hist[:, 0] is the last reconstruction of every pushed row), and
        rows never pushed are zero.
        """
        return self._buf[rows]

    def push(self, rows: np.ndarray, recon: np.ndarray) -> None:
        """Record reconstructed points for this timestep."""
        self._buf[rows, 1:] = self._buf[rows, :-1]
        self._buf[rows, 0] = recon
        self._count[rows] += 1
