"""In-memory span tracer and the layer wrappers of the traced run.

A span is ``(name, start, end, parent, run_id)``: ``parent`` is the index
of the enclosing span in ``Tracer.spans`` (-1 for a root) and ``run_id``
numbers the workload operation it belongs to. Self time is a span's
duration minus the durations of its direct children, accumulated per name
while the run goes, so the self times of every span under a root add up
to the root's duration.

``layer_patches`` lists the program's layer functions. Names that a module
imported with ``from ... import name`` are patched in the importing
module, where the call looks them up; methods are patched on their class.
Nothing in ``src/`` is edited: the wrappers are installed for the timed
loop of a traced run and removed afterwards.
"""
from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Collects spans in memory; ``dump`` writes them once, at the end."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.run_id = 0
        self._stack: list[list] = []  # [span index, child seconds]

    def _enter(self) -> list:
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, t0: float, t1: float) -> None:
        self._stack.pop()
        dur = t1 - t0
        parent = self._stack[-1] if self._stack else None
        self.spans[frame[0]] = (
            name, t0, t1, parent[0] if parent else -1, self.run_id
        )
        self.self_s[name] += dur - frame[1]
        self.total_s[name] += dur
        self.calls[name] += 1
        if parent is not None:
            parent[1] += dur

    @contextmanager
    def span(self, name: str):
        frame = self._enter()
        t0 = perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, t0, perf_counter())

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, frame, t0, perf_counter())

        return traced

    def root_seconds(self) -> float:
        """Summed duration of the root spans."""
        return sum(s[2] - s[1] for s in self.spans if s is not None and s[3] == -1)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                if s is not None:
                    name, t0, t1, parent, run = s
                    f.write(json.dumps(
                        {"name": name, "start": t0, "end": t1,
                         "parent": parent, "run": run}
                    ) + "\n")


def layer_patches(spark: bool) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every wrapped layer function."""
    from repro.core import cqc, epq, partitioning, ppq, predictor, quantizer
    from repro.index import pi, tpi
    from repro.queries import strq

    patches = [
        (ppq, "run_ppq", "core.ppq.run_ppq"),
        (ppq, "ar_features", "core.partitioning.ar_features"),
        (partitioning.IncrementalPartitioner, "update", "core.partitioning.update"),
        (epq.EPQEngine, "step", "core.epq.step"),
        (epq, "fit_coeffs", "core.predictor.fit_coeffs"),
        (predictor.History, "push", "core.predictor.history"),
        (predictor.History, "matrix", "core.predictor.history"),
        (predictor.History, "warm_ids", "core.predictor.history"),
        (quantizer.IncrementalQuantizer, "quantize", "core.quantizer.quantize"),
        (cqc.CQCCoder, "encode", "core.cqc"),
        (cqc.CQCCoder, "correct", "core.cqc"),
        (tpi.TPI, "push", "index.tpi.push"),
        (tpi.TPI, "query", "index.tpi.query"),
        (tpi, "build_pi", "index.pi.build_pi"),
        (pi, "grow_partition", "index.pi.grow_partition"),
        (pi.PI, "add_points", "index.pi.add_points"),
        (pi, "encode_ids", "index.idcodec.encode_ids"),
        (pi, "decode_ids", "index.idcodec.decode_ids"),
        (strq, "strq_answer", "queries.strq.strq_answer"),
        (ppq.Summary, "path", "queries.tpq.path"),
    ]
    if spark:
        # executor-side code runs in other processes; only the driver-side
        # partitioning step can be wrapped from here
        from repro.spark import pipeline

        patches.append((pipeline, "grow_partition", "spark.grow_partition"))
    return patches


@contextmanager
def installed(tracer: Tracer, patches):
    """Wrap every patch target for the duration of the block."""
    saved = []
    try:
        for owner, attr, name in patches:
            orig = owner.__dict__[attr]
            saved.append((owner, attr, orig))
            setattr(owner, attr, tracer.wrap(name, orig))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
