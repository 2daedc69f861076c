"""Benchmark: reproduce each of the paper's evaluation tables (prints the
rows it measures).

Tables 5, 6 and Fig. 9 share the memoized deviation sweep -- the first of
the three to run pays the build cost.
"""
import pytest
from benchmarks._util import run_once

from repro.harness import TABLES


@pytest.mark.parametrize("name", list(TABLES))
def test_table(benchmark, bench_cfg, name):
    run_once(benchmark, TABLES[name], bench_cfg, name=name)
