"""E-PQ: error-bounded predictive quantization (paper Algorithm 1).

``EPQEngine`` consumes one timestep batch at a time: fit the shared
prediction coefficients P[t] on the active trajectories' reconstructed
histories, quantize the prediction errors, reconstruct, and push the
reconstructions back into the history (Alg. 1 lines 3-7). It is the
per-partition engine inside PPQ; the paper's E-PQ baseline is
``run_ppq(mode=None)``, one partition. A step returns what it fitted --
the coefficients and, outside global mode, the step's codebook -- and
``run_ppq`` files them under (partition, t).

Codebook modes:
  * ``global``  -- one incremental error-bounded codebook across all time
                   (the online summarization of Sections 3, Tables 5/6);
  * ``per_t``   -- a fresh error-bounded codebook per timestamp
                   (Table 2's "learn C independently for every timestamp");
  * ``fixed``   -- a fresh fixed-size codebook per timestamp, sized by
                   the ``budget`` passed to ``step`` (Table 4's 5-9 bit
                   budgets). No error bound. With prediction it is
                   k-means; without (Q-trajectory) it is a single-pass
                   farthest-first codebook.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.kmeans import farthest_first, kmeans
from repro.core.predictor import DEFAULT_K, History, fit_coeffs, predict
from repro.core.quantizer import IncrementalQuantizer, nearest


@dataclass
class StepResult:
    """Per-timestep output of one engine step."""

    codes: np.ndarray  # codeword index per point (engine-local codebook id)
    recon: np.ndarray  # (n, 2) codebook reconstruction That
    pred: np.ndarray  # (n, 2) prediction Ttilde
    coeffs: np.ndarray  # (k,) prediction coefficients P[t] (zeros if none)
    codebook_t: np.ndarray | None = None  # per-step codebook (per_t/fixed)


class EPQEngine:
    """Sequential-in-t E-PQ over one partition's trajectories."""

    def __init__(
        self,
        eps1: float,
        *,
        k: int = DEFAULT_K,
        seed: int = 0,
        predict_enabled: bool = True,
        history: History | None = None,
        codebook_mode: str = "global",
    ):
        if codebook_mode not in ("global", "per_t", "fixed"):
            raise ValueError(f"unknown codebook_mode {codebook_mode!r}")
        self.eps1 = float(eps1)
        self.k = int(k)
        self.seed = seed
        self.predict_enabled = predict_enabled
        self.history = history if history is not None else History(k)
        self.codebook_mode = codebook_mode
        self.quantizer = IncrementalQuantizer(eps1, seed=seed)

    def step(
        self, t: int, ids: np.ndarray, pts: np.ndarray, *, budget: int | None = None
    ) -> StepResult:
        """Process the points of this partition at time ``t`` (Alg. 1 body)."""
        ids = np.asarray(ids)
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        n = len(ids)
        pred = np.zeros((n, 2))
        coeffs = np.zeros(self.k)
        if self.predict_enabled:
            warm = self.history.warm_ids(ids)
            if warm.any():
                hist = self.history.matrix(ids[warm])
                coeffs = fit_coeffs(hist, pts[warm])
                pred[warm] = predict(hist, coeffs)
            # Ramp-up: a trajectory with some but fewer than k
            # reconstructions is predicted by its last reconstruction (a
            # random-walk predictor). Only a trajectory's very first point
            # is coded against prediction zero; without this, every new
            # partition would pay full raw-coordinate codebook coverage
            # for its cold points (see DESIGN.md).
            cold = np.flatnonzero(~warm)
            ramp = cold[self.history.counts(ids[cold]) > 0]
            if len(ramp):
                pred[ramp] = self.history.matrix(ids[ramp])[:, 0]
        errs = pts - pred

        if self.codebook_mode == "global":
            codes = self.quantizer.quantize(errs)
            recon = pred + self.quantizer.reconstruct(codes)
            cb_t = None
        elif self.codebook_mode == "per_t":
            q = IncrementalQuantizer(self.eps1, seed=self.seed + t)
            codes = q.quantize(errs)
            recon = pred + q.reconstruct(codes)
            cb_t = q.codebook
        else:  # fixed
            if budget is None:
                raise ValueError("fixed mode needs a codeword budget")
            if self.predict_enabled:
                codes, cb_t = kmeans(errs, budget, seed=self.seed + t)
            else:
                # Without prediction this is Q-trajectory, an online quantizer
                # that cannot iterate over the data: single-pass codebook,
                # picked farthest-first from the batch, no Lloyd refinement.
                cb_t = farthest_first(errs, max(1, min(budget, n)), self.seed + t)
                codes, _ = nearest(cb_t, errs)
            recon = pred + cb_t[codes]

        self.history.push(ids, recon)
        return StepResult(
            codes=codes, recon=recon, pred=pred, coeffs=coeffs, codebook_t=cb_t
        )
