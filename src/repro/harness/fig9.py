"""Figure 9 (reported as a table): compression ratio vs spatial deviation.

Figures are out of scope for plotting, but the compression-ratio
comparison is the only experiment that exercises REST, so we reproduce
its numbers as rows: panels (a)/(b) reuse the Table 5/6 bounded sweep;
panel (c) runs PPQ-A/S-basic and REST on the sub-Porto dataset built with
the paper's recipe (base trajectories + 4 noisy copies; a random 10% are
compressed, the rest feed REST's reference set).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro import DEG_TO_M
from repro.baselines.rest import ReferenceSet, rest_compress
from repro.harness.common import build_bounded_suite
from repro.harness.config import DatasetCfg, ExpConfig
from repro.harness.sweep import DEVIATIONS_M, sweep_rows
from repro.trajgen import sub_porto


def run(cfg: ExpConfig, *, deviations=DEVIATIONS_M) -> pd.DataFrame:
    rows = sweep_rows(
        cfg, deviations, "panel", lambda mr: round(mr.compression_ratio(), 2)
    )
    rows.extend(run_sub_porto(cfg, deviations=deviations).to_dict("records"))
    return pd.DataFrame(rows)


def run_sub_porto(cfg: ExpConfig, *, deviations=DEVIATIONS_M) -> pd.DataFrame:
    """Panel (c): PPQ-basic variants vs REST on sub-Porto."""
    n_base = 20 if cfg.scale in ("tiny", "quick") else 60
    points, _base = sub_porto(n_base=n_base, n_steps=60, seed=cfg.seed + 13)
    g = np.random.default_rng(cfg.seed + 14)
    all_ids = points.traj_id.unique()
    target_ids = g.choice(all_ids, size=max(2, len(all_ids) // 10), replace=False)
    ref_ids = np.setdiff1d(all_ids, target_ids)
    targets = points[points.traj_id.isin(target_ids)]
    ref_trajs = [
        grp.sort_values("t")[["x", "y"]].to_numpy()
        for _, grp in points[points.traj_id.isin(ref_ids)].groupby("traj_id")
    ]
    ds = DatasetCfg("porto", n_base, 60, cfg.seed, 0.02, 0.05)
    rows = []
    for method in ("PPQ-A-basic", "PPQ-S-basic"):
        row = {"panel": "sub-porto", "method": method}
        for dev in deviations:
            suite = build_bounded_suite(targets, cfg, ds, dev, methods=[method])
            row[f"{int(dev)}m"] = round(suite[method].compression_ratio(), 2)
        rows.append(row)
    row = {"panel": "sub-porto", "method": "REST"}
    for dev in deviations:
        eps = dev / DEG_TO_M
        refset = ReferenceSet.build(ref_trajs, cell=max(eps, 1e-6))
        raw_bits = comp_bits = 0
        for _, grp in targets.groupby("traj_id"):
            res = rest_compress(grp.sort_values("t")[["x", "y"]].to_numpy(), refset, eps)
            raw_bits += res.raw_bits
            comp_bits += res.compressed_bits
        row[f"{int(dev)}m"] = round(raw_bits / max(1, comp_bits), 2)
    rows.append(row)
    return pd.DataFrame(rows)
