"""Shared data fixtures (session-scoped: generation + summary builds are
the expensive part of the suite, and they are deterministic in the seed)."""
from __future__ import annotations

import multiprocessing
from pathlib import Path

import pytest

from repro.core.ppq import run_ppq
from repro.trajgen import geolife_lite, porto_lite


@pytest.fixture(scope="session")
def porto_pts():
    return porto_lite(n_traj=24, n_steps=36, seed=7)


@pytest.fixture(scope="session")
def geolife_pts():
    return geolife_lite(n_traj=10, n_steps=50, seed=11)


@pytest.fixture(scope="session")
def ppqa_summary(porto_pts):
    """PPQ-A with CQC on the small porto set (global codebooks)."""
    return run_ppq(
        porto_pts, mode="A", use_cqc=True, eps1=0.001, eps_p=0.05, seed=0
    )


@pytest.fixture(scope="session")
def ppqs_summary(porto_pts):
    """PPQ-S with CQC."""
    return run_ppq(
        porto_pts, mode="S", use_cqc=True, eps1=0.001, eps_p=0.02, seed=0
    )


@pytest.fixture(scope="session")
def epq_summary(porto_pts):
    """E-PQ: single partition, no CQC."""
    return run_ppq(porto_pts, mode=None, use_cqc=False, eps1=0.001, seed=0)


def _child_pids() -> set[int]:
    """Pids of this process's children, running or exited but not reaped
    (every thread's ``children`` list under ``/proc``; where that is
    missing, the running children ``multiprocessing`` started)."""
    try:
        return {
            int(pid)
            for task in Path("/proc/self/task").iterdir()
            for pid in (task / "children").read_text().split()
        }
    except OSError:
        return {p.pid for p in multiprocessing.active_children()}


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind (``run_ppq`` forks a
    worker for large builds and must reap it, whether it returns or
    raises). Children alive before the test, such as a session's Spark
    JVM, are not its own."""
    before = _child_pids()
    yield
    left = _child_pids() - before
    if left:
        pytest.fail(f"child processes left behind: {sorted(left)}")


@pytest.fixture
def child_pids():
    """The function listing this process's unreaped children."""
    return _child_pids
