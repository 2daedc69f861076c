"""Sanity tests for the spark-submit job entrypoints and the table
benchmark (they must parse and reach every registered table; full runs
happen via spark-submit and pytest-benchmark)."""
import ast
import importlib.util
import pathlib

import pytest

from repro.harness import TABLES

JOBS = pathlib.Path(__file__).resolve().parent.parent / "jobs"


@pytest.fixture(scope="module")
def run_table_job():
    spec = importlib.util.spec_from_file_location("run_table", JOBS / "run_table.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _benchmarked_tables():
    from benchmarks import bench_tables

    (mark,) = [m for m in bench_tables.test_table.pytestmark if m.name == "parametrize"]
    return mark.args[1]


@pytest.mark.parametrize("n", [name.removeprefix("table") for name in TABLES])
def test_table_job_references_its_harness(n, run_table_job):
    """``--table n`` reaches the registered harness, and the benchmark
    runs it."""
    name = run_table_job.CHOICES[n]
    assert TABLES[name].__module__ == f"repro.harness.{name}"
    assert name in _benchmarked_tables()


def test_distributed_build_job_parses():
    src = (JOBS / "distributed_build.py").read_text()
    ast.parse(src)
    assert "assign_partitions" in src
    assert "build_summary_spark" in src
    assert "strq_spark" in src


def test_runner_parses(run_table_job):
    ast.parse((JOBS / "run_table.py").read_text())
    assert sorted(run_table_job.CHOICES.values()) == sorted(TABLES)


def test_all_jobs_have_docstrings():
    for p in JOBS.glob("*.py"):
        mod = ast.parse(p.read_text())
        assert ast.get_docstring(mod), f"{p.name} missing module docstring"
