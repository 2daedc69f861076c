"""``run_ppq``'s two schedules: the assign half (features and partitioner)
in a forked worker one step ahead of the code half, or both halves in
process. Builds here are small, so tests force the worker by lowering
``PIPELINE_MIN_POINTS``; either schedule must give what an
``Encoder.push`` loop gives, bit for bit."""
import os
import numpy as np
import pandas as pd
import pytest

from repro.core import ppq
from repro.core.epq import EPQEngine
from repro.core.partitioning import IncrementalPartitioner
from repro.core.predictor import DEFAULT_K
from repro.harness.config import QUICK

FORKS = ppq._forks("S", ppq.PIPELINE_MIN_POINTS)


def _gapped(pts: pd.DataFrame, seed: int) -> pd.DataFrame:
    """``pts`` without 5 consecutive points of a fifth of its trajectories
    (those with 12 or more points), picked with ``seed``."""
    rng = np.random.default_rng(seed)
    tid = pts.traj_id.to_numpy()
    ids = np.unique(tid)
    keep = np.ones(len(pts), dtype=bool)
    for i in rng.choice(ids, size=len(ids) // 5, replace=False):
        rows = np.flatnonzero(tid == i)
        if len(rows) >= 12:
            start = rng.integers(2, len(rows) - 6)
            keep[rows[start : start + 5]] = False
    return pts[keep].reset_index(drop=True)


def _opts(ds, mode, **kw) -> dict:
    eps_p = ds.eps_p_auto if mode == "A" else ds.eps_p_spatial
    return dict(mode=mode, eps1=QUICK.eps1, gs=QUICK.gs, eps_p=eps_p, seed=QUICK.seed, **kw)


def _push_loop(pts: pd.DataFrame, opts: dict):
    """The build as one ``Encoder.push`` per timestep, in run_ppq's
    (t, traj_id) order: (per-row outputs after the merge remap, each row's
    codeword as its codebook held it right after the push, the encoder)."""
    config = dict(predict=True, use_cqc=True, eps1=0.001, eps_p=0.05, k=DEFAULT_K,
                  seed=0, codebook_mode="global", budget=None)
    config.update(opts)
    config.setdefault("gs", config["eps1"] * 0.45)
    pts = pts.sort_values(["t", "traj_id"])
    enc = ppq.Encoder(np.unique(pts.traj_id.to_numpy()), **config)
    outs, words = [], []
    for t, f in pts.groupby("t", sort=True):
        out = enc.push(int(t), f.traj_id.to_numpy(), f[["x", "y"]].to_numpy())
        pid, code = out[0], out[1]
        eng = enc.engine
        words += [
            (eng.quantizers[p].codebook if config["codebook_mode"] == "global"
             else eng.codebooks_t[(p, int(t))])[c]
            for p, c in zip(pid.tolist(), code.tolist())
        ]
        outs.append(out)
    pid, code, recon, rec, cqc = (np.concatenate(col) for col in zip(*outs))
    ppq._apply_code_remap(pid, code, enc.engine.remap)
    return (pid, code, recon, rec, cqc), np.array(words), enc


def _run(monkeypatch, pts, opts, *, forked: bool):
    """``run_ppq`` under one schedule: (summary, its encoder)."""
    made = []

    class Recorded(ppq.Encoder):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    with monkeypatch.context() as m:
        m.setattr(ppq, "Encoder", Recorded)
        m.setattr(ppq, "PIPELINE_MIN_POINTS", 0 if forked else 10**12)
        s = ppq.run_ppq(pts, **opts)
    assert s.pipelined == (forked and FORKS)
    return s, made[0]


def _stored_words(s: ppq.Summary) -> np.ndarray:
    """The codeword each row's stored (pid, code) names."""
    c = s.coded
    if s.codebooks_t:
        return np.array([s.codebooks_t[(p, t)][k] for p, t, k in
                         zip(c.pid.tolist(), c.t.tolist(), c.code.tolist())])
    return np.array([s.codebooks[p][k] for p, k in zip(c.pid.tolist(), c.code.tolist())])


def _dict_budget(pts):
    return {int(t): 3 + int(t) % 5 for t in np.unique(pts.t)}


@pytest.fixture(scope="module")
def porto():
    ds = QUICK.dataset("porto")
    return ds, ds.load()


CASES = [
    (mode, cb, cqc)
    for mode in ("S", "A")
    for cb in ("global", "per_t", "fixed-int", "fixed-dict")
    for cqc in (True, False)
]


@pytest.mark.parametrize("mode,cb,cqc", CASES)
def test_both_schedules_equal_the_push_loop(monkeypatch, porto, mode, cb, cqc):
    ds, pts = porto
    extra = dict(use_cqc=cqc, codebook_mode=cb.split("-")[0])
    if cb == "fixed-int":
        extra["budget"] = 16
    elif cb == "fixed-dict":
        extra["budget"] = _dict_budget(pts)
    opts = _opts(ds, mode, **extra)
    want, _, ref = _push_loop(pts, opts)
    for forked in (False, True):
        s, enc = _run(monkeypatch, pts, opts, forked=forked)
        c = s.coded
        got = (c.pid.to_numpy(), c.code.to_numpy(), c[["xhat", "yhat"]].to_numpy(),
               c[["xrec", "yrec"]].to_numpy(), c.cqc.to_numpy())
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        for name in ("codebooks", "codebooks_t", "coeffs"):
            a, b = getattr(s, name), getattr(ref.engine, name)
            assert a.keys() == b.keys()
            assert all(np.array_equal(a[k], b[k]) for k in a)
        assert enc.engine.remap == ref.engine.remap
        assert s.partition_stats == ref.stats


# each gap seed here crashed the build (KeyError in ``EPQEngine.merge``)
# before merge targets were carried to absent trajectories, except porto A
# seed 6, which finished with rows whose (pid, code) named another codeword
@pytest.mark.parametrize("dataset,mode,gap_seed", [
    ("porto", "S", 0), ("porto", "A", 0), ("porto", "A", 1), ("porto", "A", 6),
    ("geolife", "A", 1),
])
def test_gapped_input_codes_every_row_with_its_stored_codeword(
        monkeypatch, dataset, mode, gap_seed):
    """A trajectory that is absent while its partition merges away comes
    back into the merge target: the build finishes, and each stored
    (pid, code) names the codeword its row was coded with."""
    ds = QUICK.dataset(dataset)
    pts = _gapped(ds.load(), gap_seed)
    opts = _opts(ds, mode)
    want, words, _ = _push_loop(pts, opts)
    for forked in (False, True):
        s, _ = _run(monkeypatch, pts, opts, forked=forked)
        assert np.array_equal(s.coded.pid.to_numpy(), want[0])
        assert np.array_equal(s.coded.code.to_numpy(), want[1])
        assert np.array_equal(_stored_words(s), words)
        assert sum(st.n_merges for st in s.partition_stats) > 0


def test_stage_seconds(monkeypatch, porto):
    ds, pts = porto
    for mode in ("S", "A"):
        for forked in (False, True):
            s, _ = _run(monkeypatch, pts, _opts(ds, mode), forked=forked)
            sec = s.stage_seconds
            assert list(sec) == list(ppq.STAGES)
            assert (sec["features"] > 0) == (mode == "A")
            assert sec["partition"] > 0 and sec["code"] > 0
            assert (sec["wait"] > 0) == s.pipelined
            # the coding process's own stages fit in the build's wall time
            assert sec["code"] + sec["wait"] < s.build_seconds
    s = ppq.run_ppq(pts, mode=None)
    assert not s.pipelined
    assert s.stage_seconds["features"] == s.stage_seconds["partition"] == 0


def _open_fds() -> set[str]:
    return set(os.listdir("/proc/self/fd"))


def _fail_at_call(monkeypatch, owner, name, fail_at, exc):
    """Make ``owner.name`` raise ``exc`` at its ``fail_at``-th call."""
    orig, calls = getattr(owner, name), [0]

    def wrapped(*args, **kwargs):
        calls[0] += 1
        if calls[0] == fail_at:
            raise exc
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapped)


@pytest.mark.skipif(not FORKS, reason="this host runs every build in process")
def test_worker_exception_reraises_in_parent(monkeypatch, porto, child_pids):
    ds, pts = porto
    monkeypatch.setattr(ppq, "PIPELINE_MIN_POINTS", 0)
    _fail_at_call(monkeypatch, IncrementalPartitioner, "update", 7,
                 ZeroDivisionError("no partition at step 7"))
    fds, children = _open_fds(), child_pids()
    with pytest.raises(ZeroDivisionError) as info:
        ppq.run_ppq(pts, **_opts(ds, "S"))
    assert str(info.value) == "no partition at step 7"
    assert "partition-assignment worker" in "".join(info.value.__notes__)
    assert child_pids() == children
    assert _open_fds() == fds


@pytest.mark.skipif(not FORKS, reason="this host runs every build in process")
def test_unpicklable_worker_exception_is_named(monkeypatch, porto):
    ds, pts = porto

    class LocalError(Exception):  # a local class does not pickle
        pass

    monkeypatch.setattr(ppq, "PIPELINE_MIN_POINTS", 0)
    _fail_at_call(monkeypatch, IncrementalPartitioner, "update", 2, LocalError("bad"))
    with pytest.raises(RuntimeError) as info:
        ppq.run_ppq(pts, **_opts(ds, "A"))
    assert str(info.value) == "LocalError: bad"


@pytest.mark.skipif(not FORKS, reason="this host runs every build in process")
@pytest.mark.parametrize("fail_at", [1, 5, 40])
def test_parent_exception_closes_pipe_and_reaps_worker(monkeypatch, porto, fail_at,
                                                      child_pids):
    ds, pts = porto
    monkeypatch.setattr(ppq, "PIPELINE_MIN_POINTS", 0)
    _fail_at_call(monkeypatch, EPQEngine, "step", fail_at, KeyError("step failed"))
    fds, children = _open_fds(), child_pids()
    with pytest.raises(KeyError, match="step failed"):
        ppq.run_ppq(pts, **_opts(ds, "A"))
    assert child_pids() == children
    assert _open_fds() == fds


def test_schedule_choice(monkeypatch):
    cut = ppq.PIPELINE_MIN_POINTS
    assert not ppq._forks(None, 10 * cut)
    assert not ppq._forks("A", cut - 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert ppq._forks("A", cut) == ("fork" in ppq.multiprocessing.get_all_start_methods())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
    assert not ppq._forks("S", cut)


def test_no_fork_from_a_daemon_or_without_fork(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    mp = ppq.multiprocessing
    monkeypatch.setattr(mp, "get_all_start_methods", lambda: ["spawn"])
    assert not ppq._forks("S", ppq.PIPELINE_MIN_POINTS)
    monkeypatch.setattr(mp, "get_all_start_methods", lambda: ["fork", "spawn"])
    assert ppq._forks("S", ppq.PIPELINE_MIN_POINTS)
    monkeypatch.setattr(mp.current_process(), "daemon", True, raising=False)
    assert not ppq._forks("S", ppq.PIPELINE_MIN_POINTS)


def test_quick_builds_stay_in_process():
    """Test-scale builds, such as the traced ones the benchmark's hooks
    check, run in one process."""
    for ds in QUICK.datasets:
        assert ds.n_traj * ds.n_steps < ppq.PIPELINE_MIN_POINTS


def test_child_pids_lists_an_unreaped_child(child_pids):
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    try:
        assert pid in child_pids()
    finally:
        os.waitpid(pid, 0)
    assert pid not in child_pids()
