"""Table 6: number of codewords in C vs target spatial deviation."""
from __future__ import annotations

import pandas as pd

from repro.harness.config import ExpConfig
from repro.harness.sweep import DEVIATIONS_M, sweep_rows


def run(cfg: ExpConfig, *, deviations=DEVIATIONS_M) -> pd.DataFrame:
    return pd.DataFrame(sweep_rows(cfg, deviations, "dataset", lambda mr: mr.n_codewords))
