"""Run every workload untraced and traced; print all figures and the
tracing overhead.

    python3 perfbench/report.py [--seed 1] [--seconds 30] [--workload NAME ...]

Each run is a separate ``run.py`` process, one after another. The printed
lines of every run are passed through; after them comes, per workload,
the tracing overhead measured inside the traced run (which alternates
untraced and traced operations), the sum of the write-path layers' self
times against the traced write time (they match where the write path is a
root span: run_ppq, TPI.push), and failed_frac.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402

READ_LAYERS = ("index.tpi.query.self_s", "index.idcodec.decode_ids.self_s")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--workload", nargs="*", choices=WORKLOADS, default=WORKLOADS)
    args = ap.parse_args()
    rows = []
    for w in args.workload:
        plain = run(w, args.seed, args.seconds, 0)
        traced = run(w, args.seed, args.seconds, 1)
        t = {k: m["value"] for k, m in traced["metrics"].items()}
        # layers under the write-path root spans (run_ppq, TPI.push)
        self_sum = sum(
            v for k, v in t.items()
            if k.endswith(".self_s") and k.startswith(("core", "index"))
            and k not in READ_LAYERS
        )
        failed = plain["failed"] + traced["failed"]
        attempted = plain["attempted"] + traced["attempted"]
        rows.append((w, t, self_sum, failed, attempted))
    print("\nworkload            write overhead   request overhead"
          "   write-layer self_s / trace.write_s   failed_frac")
    for w, t, self_sum, failed, attempted in rows:
        print(f"{w:<19} {t['trace.write_overhead_pct']:+13.1f}%"
              f"   {t['trace.request_overhead_pct']:+15.1f}%"
              f"   {self_sum:14.4f} / {t['trace.write_s']:.4f}"
              f"   {failed / max(1, attempted):.3g} ({failed}/{attempted})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
