"""Shared method builders for the table harnesses.

A *method result* bundles the reconstruction frame produced by one
summarization method (traj_id, t, x, y, xrec, yrec, read by name; PPQ
summaries carry their whole coded frame) plus its accounting (codewords,
bits, build time) and query metadata (local-search radius for CQC
methods).

Every protocol builds its methods with one loop, :func:`_suite`, over the
method list, and passes only what differs: the ``run_ppq`` arguments of
each PPQ-family method, the RQ/PQ arguments at timestamp t and TrajStore's
``summarize`` arguments. The three protocols mirror the paper's three
experimental regimes:

* :func:`build_per_t_suite` (Tables 2/3): error-bounded per-timestamp
  codebooks for the PPQ family and E-PQ; the non-error-bounded baselines
  (Q-trajectory, RQ, PQ, TrajStore) receive the *same number of codewords
  per timestamp* as PPQ-A produced (the paper's fairness rule).
* :func:`build_fixed_bits_suite` (Table 4): every method gets 2**bits
  codewords per timestamp.
* :func:`build_bounded_suite` (Tables 5/6, Fig. 9): error-bounded
  summaries at a target spatial deviation. The PPQ family and E-PQ are
  *online*: one incrementally grown codebook over all time (for PPQ-A/S
  the paper sets eps1^M = 2*g_s with final deviation (sqrt(2)/2)*g_s).
  Q-trajectory, RQ and PQ have no temporal reuse: they quantize every
  timestamp independently to the bound -- that is what makes their
  codeword counts in the paper's Table 6 proportional to the timeline
  (all three land within a few percent of each other there) while PPQ's
  stay orders of magnitude smaller.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd

from repro import DEG_TO_M, deviation_deg
from repro.baselines.pq import product_quantize
from repro.baselines.rq import residual_quantize
from repro.baselines.trajstore import TrajStore, bounds_of
from repro.core.ppq import Summary, run_ppq
from repro.harness.config import DatasetCfg, ExpConfig

PPQ_METHODS = ["PPQ-A", "PPQ-A-basic", "PPQ-S", "PPQ-S-basic"]
ALL_METHODS = PPQ_METHODS + [
    "E-PQ",
    "Q-trajectory",
    "Residual Quantization",
    "Product Quantization",
    "TrajStore",
]
NO_TRAJSTORE = [m for m in ALL_METHODS if m != "TrajStore"]

PER_T_QUANTIZERS = {
    "Residual Quantization": residual_quantize,
    "Product Quantization": product_quantize,
}
"""The batch baselines that quantize every timestamp on its own."""


@dataclass
class MethodResult:
    """One method's summary over one dataset."""

    method: str
    recon: pd.DataFrame  # traj_id, t, x, y, xrec, yrec (at least)
    n_codewords: int
    build_seconds: float
    summary_bits: int
    local_radius_deg: float = 0.0  # >0 for CQC methods (local search)
    verified: bool = False
    summary: Summary | None = None

    def mae_m(self) -> float:
        return float((deviation_deg(self.recon) * DEG_TO_M).mean())

    def compression_ratio(self) -> float:
        return (len(self.recon) * 2 * 64) / max(1, self.summary_bits)


def _from_summary(method: str, s: Summary) -> MethodResult:
    radius = (math.sqrt(2) / 2) * s.config["gs"] if s.cqc is not None else 0.0
    return MethodResult(
        method=method,
        recon=s.coded,
        n_codewords=s.n_codewords(),
        build_seconds=s.build_seconds,
        summary_bits=s.summary_bits(),
        local_radius_deg=radius,
        verified=s.cqc is not None,
        summary=s,
    )


def _ppq_kwargs(method: str, ds: DatasetCfg) -> dict:
    """mode / eps_p / cqc flags for each PPQ-family method name."""
    return {
        "PPQ-A": dict(mode="A", use_cqc=True, eps_p=ds.eps_p_auto),
        "PPQ-A-basic": dict(mode="A", use_cqc=False, eps_p=ds.eps_p_auto),
        "PPQ-S": dict(mode="S", use_cqc=True, eps_p=ds.eps_p_spatial),
        "PPQ-S-basic": dict(mode="S", use_cqc=False, eps_p=ds.eps_p_spatial),
        "E-PQ": dict(mode=None, use_cqc=False),
        "Q-trajectory": dict(mode=None, predict=False, use_cqc=False),
    }[method]


def _per_t_result(
    method: str, points: pd.DataFrame, cfg: ExpConfig, args: Callable[[int], dict]
) -> MethodResult:
    """Run one of :data:`PER_T_QUANTIZERS` on every timestamp's points,
    with ``args(t)`` its arguments at timestamp t."""
    quantize = PER_T_QUANTIZERS[method]
    start = time.perf_counter()
    frames = []
    total_v = 0
    total_bits = 0.0
    for t, batch in points.sort_values("t").groupby("t", sort=True):
        xy = batch[["x", "y"]].to_numpy(dtype=np.float64)
        r = quantize(xy, seed=cfg.seed + int(t), **args(int(t)))
        total_v += r.n_codewords
        total_bits += r.n_codewords * 2 * 32 + r.code_bits_per_point * len(xy)
        frames.append(
            batch[["traj_id", "t", "x", "y"]].assign(
                xrec=r.recon[:, 0], yrec=r.recon[:, 1]
            )
        )
    secs = time.perf_counter() - start
    recon = pd.concat(frames, ignore_index=True)
    return MethodResult(method, recon, total_v, secs, int(total_bits))


def load_trajstore(points: pd.DataFrame, cfg: ExpConfig) -> TrajStore:
    """A TrajStore over ``points``, streamed in one timestep at a time."""
    xy_all = points[["x", "y"]].to_numpy(dtype=np.float64)
    store = TrajStore(
        bounds_of(xy_all), cell_capacity=cfg.trajstore_capacity, seed=cfg.seed
    )
    for _t, batch in points.sort_values("t").groupby("t", sort=True):
        store.insert_batch(
            batch.traj_id.to_numpy(),
            batch.t.to_numpy(),
            batch[["x", "y"]].to_numpy(dtype=np.float64),
        )
    return store


def _trajstore_result(points: pd.DataFrame, cfg: ExpConfig, args: dict) -> MethodResult:
    store = load_trajstore(points, cfg)
    summ = store.summarize(**args)
    rec = summ.reconstruct(points.traj_id.to_numpy(), points.t.to_numpy())
    return MethodResult(
        method="TrajStore",
        recon=points[["traj_id", "t", "x", "y"]].assign(xrec=rec[:, 0], yrec=rec[:, 1]),
        n_codewords=summ.n_codewords,
        build_seconds=store.build_seconds,
        summary_bits=summ.summary_bits(),
    )


# ---------------------------------------------------------------- suites
def _suite(
    points: pd.DataFrame,
    cfg: ExpConfig,
    ds: DatasetCfg,
    methods: list[str],
    *,
    ppq: Callable[[str], dict],
    quantize: Callable[[int], dict],
    trajstore: dict | None,
) -> dict[str, MethodResult]:
    """Build every method of ``methods`` under one protocol.

    ``ppq(method)`` gives a PPQ-family method's ``run_ppq`` arguments beside
    its variant flags and the seed, ``quantize(t)`` the RQ/PQ arguments at
    timestamp t, and ``trajstore`` TrajStore's ``summarize`` arguments
    (None for a protocol without a TrajStore row).
    """
    out: dict[str, MethodResult] = {}
    for m in methods:
        if m in PER_T_QUANTIZERS:
            out[m] = _per_t_result(m, points, cfg, quantize)
        elif m == "TrajStore":
            if trajstore is not None:
                out[m] = _trajstore_result(points, cfg, trajstore)
        else:
            s = run_ppq(points, **_ppq_kwargs(m, ds), seed=cfg.seed, **ppq(m))
            out[m] = _from_summary(m, s)
    return out


def build_per_t_suite(
    points: pd.DataFrame,
    cfg: ExpConfig,
    ds: DatasetCfg,
    *,
    methods: list[str] | None = None,
) -> dict[str, MethodResult]:
    """Table 2/3 protocol (see module docstring)."""
    methods = methods or ALL_METHODS
    per_t = dict(eps1=cfg.eps1, gs=cfg.gs, codebook_mode="per_t")
    # reference run: PPQ-A error-bounded per-timestamp codebooks
    ref = run_ppq(points, **_ppq_kwargs("PPQ-A", ds), seed=cfg.seed, **per_t)
    v_t: dict[int, int] = {}  # the reference's codewords per timestamp
    for (_pid, t), cb in ref.codebooks_t.items():
        v_t[t] = v_t.get(t, 0) + len(cb)
    same_v = dict(eps1=cfg.eps1, gs=cfg.gs, codebook_mode="fixed", budget=v_t)
    out = _suite(
        points,
        cfg,
        ds,
        [m for m in methods if m != "PPQ-A"],
        ppq=lambda m: same_v if m == "Q-trajectory" else per_t,
        quantize=lambda t: dict(n_codewords=max(2, v_t.get(t, 1))),
        trajstore=dict(total_codewords=max(1, sum(v_t.values()))),
    )
    if "PPQ-A" in methods:
        out["PPQ-A"] = _from_summary("PPQ-A", ref)
    return out


def build_fixed_bits_suite(
    points: pd.DataFrame,
    cfg: ExpConfig,
    ds: DatasetCfg,
    bits: int,
    *,
    methods: list[str] | None = None,
) -> dict[str, MethodResult]:
    """Table 4 protocol: 2**bits codewords per timestamp for everyone."""
    v = 2**bits
    fixed = dict(eps1=cfg.eps1, gs=cfg.gs, codebook_mode="fixed", budget=v)
    return _suite(
        points,
        cfg,
        ds,
        methods or NO_TRAJSTORE,
        ppq=lambda m: fixed,
        quantize=lambda t: dict(n_codewords=max(2, v)),
        trajstore=None,
    )


def build_bounded_suite(
    points: pd.DataFrame,
    cfg: ExpConfig,
    ds: DatasetCfg,
    deviation_m: float,
    *,
    methods: list[str] | None = None,
) -> dict[str, MethodResult]:
    """Table 5/6 protocol: online error-bounded summaries at a target
    spatial deviation (meters)."""
    dev = deviation_m / DEG_TO_M
    # paper: eps1^M = 2*g_s, final deviation = (sqrt(2)/2) * g_s
    gs = deviation_m * math.sqrt(2) / DEG_TO_M

    def ppq(m: str) -> dict:
        if m in ("PPQ-A", "PPQ-S"):
            return dict(eps1=2 * gs, gs=gs)
        if m == "Q-trajectory":
            return dict(eps1=dev, codebook_mode="per_t")
        return dict(eps1=dev)

    return _suite(
        points,
        cfg,
        ds,
        methods or ALL_METHODS,
        ppq=ppq,
        quantize=lambda t: dict(eps=dev),
        trajstore=dict(eps=dev),
    )
