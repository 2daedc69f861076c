"""spark-submit entrypoint reproducing one of the paper's evaluation tables.

Usage: ``spark-submit jobs/run_table.py --table 2 --scale bench``, where
``--table`` is 2-9 or fig9. The table is built at the requested scale and
shown through Spark (so the output paths/format match a cluster run).
"""
from __future__ import annotations

import argparse

from pyspark.sql import SparkSession

from repro.harness import TABLES, config

#: ``--table`` value -> registry name ("2" -> "table2", "fig9" -> "fig9")
CHOICES = {name.removeprefix("table"): name for name in TABLES}


def main() -> None:
    ap = argparse.ArgumentParser(description="Reproduce one evaluation table")
    ap.add_argument("--table", required=True, choices=list(CHOICES))
    ap.add_argument("--scale", default="bench", choices=["tiny", "quick", "bench"])
    args = ap.parse_args()
    name = CHOICES[args.table]

    spark = (
        SparkSession.builder.appName(f"ppq-trajectory-{name}")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    try:
        pdf = TABLES[name](config.get(args.scale))
        print(f"== {name} (scale={args.scale}) ==")
        spark.createDataFrame(pdf.astype(object).where(pdf.notna(), None)).show(
            200, truncate=False
        )
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
