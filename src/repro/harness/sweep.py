"""Shared (memoized) deviation sweep used by Tables 5/6 and Fig. 9.

Building every method's error-bounded summary at five deviations is the
expensive part of the evaluation; Tables 5 (time), 6 (codewords) and the
Fig.-9 compression-ratio harness all read from one sweep, each turning
it into rows with :func:`sweep_rows`.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable

from repro.harness.common import ALL_METHODS, MethodResult, build_bounded_suite
from repro.harness.config import ExpConfig

DEVIATIONS_M = (200.0, 400.0, 600.0, 800.0, 1000.0)


@lru_cache(maxsize=4)
def bounded_sweep(
    cfg: ExpConfig, deviations: tuple[float, ...] = DEVIATIONS_M
) -> dict[tuple[str, float], dict[str, MethodResult]]:
    """{(dataset, deviation_m): {method: MethodResult}} for the config."""
    out: dict[tuple[str, float], dict[str, MethodResult]] = {}
    for ds in cfg.datasets:
        points = ds.load()
        for dev in deviations:
            out[(ds.name, dev)] = build_bounded_suite(
                points, cfg, ds, dev, methods=ALL_METHODS
            )
    return out


def sweep_rows(
    cfg: ExpConfig,
    deviations,
    key: str,
    value: Callable[[MethodResult], object],
) -> list[dict]:
    """One row per (dataset, method) -- the dataset name under ``key`` --
    with ``value(result)`` in one column per deviation."""
    sweep = bounded_sweep(cfg, tuple(deviations))
    return [
        {
            key: ds.name,
            "method": name,
            **{f"{int(dev)}m": value(sweep[(ds.name, dev)][name]) for dev in deviations},
        }
        for ds in cfg.datasets
        for name in ALL_METHODS
    ]
