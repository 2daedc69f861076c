"""Benchmark helper: run a harness once under the timer, persist its table."""
from __future__ import annotations

import pathlib

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


def run_once(benchmark, fn, *args, name: str, **kwargs):
    """Run ``fn`` exactly once under the benchmark timer.

    The resulting table is printed (visible with ``pytest -s``) and
    written to ``benchmarks/results/<name>.txt`` so the reproduced rows
    survive pytest's stdout capture -- EXPERIMENTS.md quotes these files.
    """
    result = benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
    if result is not None:
        text = result.to_string(index=False)
        print()
        print(text)
        RESULTS_DIR.mkdir(exist_ok=True)
        out = RESULTS_DIR / f"{name}.txt"
        out.write_text(text + "\n")
    return result
