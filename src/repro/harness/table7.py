"""Table 7: TPI statistics against the TRD dropping-rate threshold eps_c.

For each eps_c the temporal index is streamed over the raw points and we
report index size, build time, number of time periods (re-builds + 1 per
gap) and number of insertions. Higher eps_c tolerates more density drop
before a re-build, so periods get longer (fewer of them) and more
structure is reused via insertions -- the paper's Table 7 shape.
"""
from __future__ import annotations

import pandas as pd

from repro.harness.config import ExpConfig
from repro.index.tpi import build_tpi_from_points

EPS_C_VALUES = (0.2, 0.4, 0.6, 0.8)


def run(cfg: ExpConfig, *, eps_c_values=EPS_C_VALUES) -> pd.DataFrame:
    return tpi_sweep(cfg, "eps_c", eps_c_values)


def tpi_sweep(cfg: ExpConfig, param: str, values) -> pd.DataFrame:
    """One row per value of ``param`` ('eps_c' or 'eps_d'; the other
    threshold keeps its config value) with each dataset's TPI stats."""
    rows = []
    points = {ds.name: ds.load() for ds in cfg.datasets}
    for value in values:
        row = {param: value}
        thresholds = {"eps_c": cfg.eps_c, "eps_d": cfg.eps_d, param: value}
        for ds in cfg.datasets:
            tpi = build_tpi_from_points(
                points[ds.name],
                **thresholds,
                eps_s=cfg.eps_s,
                gc=cfg.gc,
                seed=cfg.seed,
            )
            row[f"size_mb_{ds.name}"] = round(tpi.size_mb(), 4)
            row[f"time_s_{ds.name}"] = round(tpi.build_seconds, 3)
            row[f"periods_{ds.name}"] = tpi.n_periods
            row[f"insertions_{ds.name}"] = tpi.n_insertions
        rows.append(row)
    return pd.DataFrame(rows)
