"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps layer
functions by name; these checks fail when a refactor moves one of them."""
from pathlib import Path

import pytest

from repro.core import ppq
from repro.core.partitioning import AR_WINDOW

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
