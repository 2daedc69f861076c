"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps layer
functions by name; these checks fail when a refactor moves one of them."""
import math
from pathlib import Path

import pytest

from repro.core import epq, ppq
from repro.core.partitioning import AR_WINDOW
from repro.harness.config import QUICK
from repro.index.tpi import TPI
from repro.queries import strq

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_every_patched_layer_is_an_attribute_of_its_owner(tracing):
    patches = tracing.layer_patches(False)
    assert patches
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, _ in patches
        if attr not in owner.__dict__
    ]
    assert not missing


def test_traced_ppqa_build_reaches_the_layers(tracing, porto_pts):
    """A PPQ-A build under the wrappers records the batched AR features
    (at most one call per timestep and window length) and the history."""
    patches = tracing.layer_patches(False)
    originals = [owner.__dict__[attr] for owner, attr, _ in patches]
    tracer = tracing.Tracer()
    with tracing.installed(tracer, patches):
        ppq.run_ppq(porto_pts, mode="A", eps1=0.001, eps_p=0.05, seed=0)
    n_steps = porto_pts.t.nunique()
    calls = tracer.calls
    assert calls["core.ppq.run_ppq"] == 1
    assert n_steps <= calls["core.partitioning.ar_features"] <= n_steps * (AR_WINDOW + 1)
    assert calls["core.predictor.history"] > 0
    assert calls["core.partitioning.update"] == n_steps
    assert [owner.__dict__[attr] for owner, attr, _ in patches] == originals


def test_traced_ppqs_build_counts_one_step_per_timestep(tracing, geolife_pts, monkeypatch):
    """Under the wrappers a PPQ-S build runs one partitioner update, one
    ``EPQEngine.step`` and three history calls (``warm_ids``, ``matrix``,
    ``push``) per timestep, so the traced counters count exactly that. Each
    step quantizes its partitions in one ``quantize_each`` call over every
    partition live at that timestep, and never through
    ``IncrementalQuantizer.quantize``, so the traced quantize layer stays
    empty."""
    groups = []
    quantize_each = epq.quantize_each

    def counted(quantizers, errs, bounds):
        groups.append(len(quantizers))
        return quantize_each(quantizers, errs, bounds)

    monkeypatch.setattr(epq, "quantize_each", counted)
    patches = tracing.layer_patches(False)
    tracer = tracing.Tracer()
    with tracing.installed(tracer, patches):
        s = ppq.run_ppq(geolife_pts, mode="S", eps1=0.001, eps_p=0.15, seed=0)
    n_steps = geolife_pts.t.nunique()
    live = sum(st.q for st in s.partition_stats)
    calls = tracer.calls
    assert len(s.partition_stats) == n_steps
    assert live > n_steps  # more than one partition at some timestep
    assert calls["core.partitioning.update"] == n_steps
    assert calls["core.epq.step"] == n_steps
    assert calls["core.predictor.history"] == 3 * n_steps
    assert groups == [st.q for st in s.partition_stats]
    assert calls.get("core.quantizer.quantize", 0) == 0


def test_traced_tpi_replay_reaches_the_index_layers(tracing, porto_pts):
    """Every push indexes its points through ``PI.add_points``, which runs
    ``encode_ids`` once per list of two or more IDs (a one-ID list is
    stored as its ID); a push that builds a PI (initial, re-build) goes
    through ``build_pi`` and ``grow_partition`` once, and an insertion
    grows its rectangles with one ``grow_partition`` and no ``build_pi``."""
    patches = tracing.layer_patches(False)
    tracer = tracing.Tracer()
    steps = [(int(t), f) for t, f in porto_pts.groupby("t", sort=True)][:12]
    # the last frame again, one step later: every point is covered -> append
    steps.append((steps[-1][0] + 1, steps[-1][1]))
    tpi = TPI(eps_d=0.8, eps_c=0.5, eps_s=QUICK.eps_s, gc=QUICK.gc)
    actions = []
    with tracing.installed(tracer, patches):
        for t, f in steps:
            before = dict(tracer.calls)
            ids, xs, ys = f.traj_id.to_numpy(), f.x.to_numpy(), f.y.to_numpy()
            action = tpi.push(t, ids, xs, ys)
            calls = {k: v - before.get(k, 0) for k, v in tracer.calls.items()}
            actions.append(action)
            assert calls.get("index.tpi.push") == 1
            assert calls.get("index.pi.add_points", 0) >= 1
            _, counts = tpi.current.pi.cell_counts(t)
            assert calls.get("index.idcodec.encode_ids", 0) == (counts >= 2).sum()
            builds = int(action in ("initial", "re-build"))
            assert calls.get("index.pi.build_pi", 0) == builds
            grows = int(action != "append")
            assert calls.get("index.pi.grow_partition", 0) == grows
    assert set(actions) == {"initial", "re-build", "insertion", "append"}
    assert tracer.calls["index.idcodec.encode_ids"] > 0


def test_traced_serve_replay_records_one_read_span_per_timestep(tracing):
    """A serve replay (push, STRQ, TPI query and TPQ path at each timestep)
    under the wrappers records exactly one span of each read layer per
    timestep."""
    ds = QUICK.dataset("geolife")
    pts = ds.load()
    s = ppq.run_ppq(pts, mode="S", use_cqc=True, eps1=QUICK.eps1, gs=QUICK.gs,
                    eps_p=ds.eps_p_spatial, seed=QUICK.seed)
    frames = [(int(t), f) for t, f in s.coded.groupby("t", sort=True)][:15]
    radius = (math.sqrt(2) / 2) * QUICK.gs
    patches = tracing.layer_patches(False)
    tracer = tracing.Tracer()
    tpi = TPI(eps_d=0.8, eps_c=0.5, eps_s=QUICK.eps_s, gc=QUICK.gc)
    per_step = ("index.tpi.push", "queries.strq.strq_answer", "index.tpi.query",
                "queries.tpq.path")
    with tracing.installed(tracer, patches):
        for t, f in frames:
            before = dict(tracer.calls)
            q = f.iloc[len(f) // 2]
            tpi.push(t, f.traj_id.to_numpy(), f.x.to_numpy(), f.y.to_numpy())
            ans = strq.strq_answer(f, q.x, q.y, QUICK.gc, dilate=radius, verify=True)
            hits = tpi.query(q.x, q.y, t)
            rows = s.path(int(q.traj_id), t, 10)
            calls = {k: v - before.get(k, 0) for k, v in tracer.calls.items()}
            assert {k: calls.get(k, 0) for k in per_step} == dict.fromkeys(per_step, 1)
            assert int(q.traj_id) in ans and int(q.traj_id) in hits
            assert len(rows) > 0
    names = [span[0] for span in tracer.spans]
    assert names.count("queries.tpq.path") == len(frames)
    assert names.count("queries.strq.strq_answer") == len(frames)
