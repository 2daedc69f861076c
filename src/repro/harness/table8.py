"""Table 8: TPI statistics against the ADR threshold eps_d.

Same measurements as Table 7 with eps_c fixed and eps_d swept: a higher
eps_d lets one PI serve more timestamps before a re-build (fewer, longer
periods; smaller index; more insertions absorb drift instead).
"""
from __future__ import annotations

import pandas as pd

from repro.harness.config import ExpConfig
from repro.harness.table7 import tpi_sweep

EPS_D_VALUES = (0.2, 0.4, 0.6, 0.8)


def run(cfg: ExpConfig, *, eps_d_values=EPS_D_VALUES) -> pd.DataFrame:
    return tpi_sweep(cfg, "eps_d", eps_d_values)
