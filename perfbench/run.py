"""Benchmark of the PPQ build, index and query paths.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (see README.md) in this process against the sources in
``src/`` of the checkout this file sits in. Human-readable figures go to
standard output first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Times are given at
a nominal machine speed measured in the same run (README.md). A traced run
also writes its spans to ``.perfbench_out/`` at the root of the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# spark_porto_S is not in BENCHMARK.json: too few operations fit in a run
# to be steady (README.md); it runs by name, and report.py runs it
WORKLOADS = ("ingest_porto_A", "ingest_geolife_S", "serve_geolife", "spark_porto_S")

END_TO_END = {
    "setup_s": "s",
    "write_pts_per_s": "points/s",
    "request_ms": "ms",
    "bits_per_pt": "bits",
    "mae_m": "m",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{n}.self_s": "s" for n in (
        "core.ppq.run_ppq", "core.partitioning.ar_features",
        "core.partitioning.update", "core.epq.step",
        "core.predictor.fit_coeffs", "core.predictor.history",
        "core.quantizer.quantize", "core.cqc",
        "index.tpi.push", "index.pi.build_pi", "index.pi.grow_partition",
        "index.pi.add_points", "index.idcodec.encode_ids",
        "index.tpi.query", "index.idcodec.decode_ids",
        "queries.strq.strq_answer", "queries.tpq.path",
    )},
    **{f"{n}.calls": "count" for n in (
        "core.partitioning.ar_features", "core.partitioning.update",
        "core.epq.step", "core.quantizer.quantize", "index.pi.build_pi",
    )},
    "core.partitioning.splits": "count",
    "core.partitioning.merges": "count",
    "core.partitioning.q_mean": "count",
    "core.quantizer.codewords": "count",
    "index.tpi.rebuilds": "count",
    "index.tpi.insertions": "count",
    "index.tpi.periods": "count",
    "index.tpi.ids_per_query": "count",
    "queries.strq.rows_examined_per_result": "ratio",
    "trace.write_s": "s",
    "trace.write_pts_per_s": "points/s",
    "trace.request_ms": "ms",
    "trace.write_overhead_pct": "%",
    "trace.request_overhead_pct": "%",
}

SPARK_LAYER = {
    "spark.assign_partitions.s": "s",
    "spark.grow_partition.self_s": "s",
    "spark.build_summary.s": "s",
    "spark.strq.s": "s",
    "spark.partitions": "count",
    "spark.partition_skew": "ratio",
    "spark.strq.jobs": "count",
    "spark.strq.tasks": "count",
}


def environment() -> list[tuple[str, str]]:
    import numpy as np
    import pandas as pd
    import pyspark

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    mem_kb = next(
        int(line.split()[1]) for line in open("/proc/meminfo")
        if line.startswith("MemTotal:")
    )
    return [
        ("nproc", str(os.cpu_count())),
        ("mem_total_gb", f"{mem_kb / 2**20:.1f}"),
        ("python", sys.version.split()[0]),
        ("numpy", np.__version__),
        ("pandas", pd.__version__),
        ("pyspark", pyspark.__version__),
        ("blas", f"{blas.get('name')} {blas.get('version')} "
                 f"({blas.get('openblas configuration', '').split('MAX_THREADS=')[-1].strip()}"
                 " max threads)"),
        ("blas_threads", os.environ["OPENBLAS_NUM_THREADS"]),
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {src}", file=sys.stderr)
        return 2
    # everything the run writes stays inside the checkout
    OUT.mkdir(exist_ok=True)
    tmp = OUT / "tmp"
    tmp.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is imported
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(HERE)]

    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    w, seed, secs = args.workload, args.seed, args.seconds
    if w == "ingest_porto_A":
        out = workloads.ingest("porto", "A", seed, secs, tracer)
    elif w == "ingest_geolife_S":
        out = workloads.ingest("geolife", "S", seed, secs, tracer)
    elif w == "serve_geolife":
        out = workloads.serve(seed, secs, tracer)
    else:
        out = workloads.spark_porto(seed, secs, tracer, OUT / "spark", src)

    print(f"# {w} seed={seed} seconds={secs} trace={args.trace}")
    for k, v in environment():
        print(f"env.{k} = {v}")
    for name, value, unit, note in out.detail:
        print(f"{name} = {value:.6g} {unit}" if isinstance(value, float)
              else f"{name} = {value} {unit}", f"({note})" if note else "")
    print(f"failed_frac = {out.failed / max(1, out.attempted):.6g} "
          f"({out.failed} of {out.attempted} checked operations)")
    if tracer is None:
        metrics = {k: {"value": out.metrics[k], "unit": u}
                   for k, u in END_TO_END.items()}
    else:
        layers = out.layers
        units = {**PER_LAYER, **SPARK_LAYER} if w == "spark_porto_S" else PER_LAYER
        # a layer the workload never reaches reads 0
        metrics = {k: {"value": float(layers.get(k, 0.0)), "unit": u}
                   for k, u in units.items()}
        spans = OUT / f"spans-{w}-seed{seed}.jsonl"
        tracer.dump(spans)
        print(f"spans: {len(tracer.spans)} written to {spans}")
        print(f"trace.self_sum_s / trace.root_s = "
              f"{sum(tracer.self_s.values()) / tracer.root_seconds():.6f}")
    for k, m in metrics.items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
