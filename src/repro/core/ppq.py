"""PPQ: partition-wise predictive quantization (paper Section 3.2) and the
summary object shared by every experiment harness.

``Encoder.push`` runs the online pipeline for one timestep. ``Encoder``
maps trajectory ids to state rows, the only place that does: the
history, the partition map and PPQ-A's AR windows are arrays with one row
per trajectory of the build, which the steps below index by row. A step
has two halves:

  * ``Encoder.assign``: compute partition features (spatial position for
    PPQ-S, fitted AR(k) parameters of the raw window for PPQ-A) and update
    the incremental partitioner; it returns each row's pid and the
    update's stats;
  * ``Encoder.code``: carry the update's merges into the codebooks, run one
    E-PQ step over every partition (own predictor coefficients P_j[t] and
    own codebook per partition, Eq. 5-6; the engine files the parts it
    fits, ``EPQEngine``), and optionally CQC-encode the residual of every
    point (Section 4).

The assign half reads raw points only (Eq. 7/8 and Section 3.2.2 never
look at a reconstruction), so a build's whole partition sequence is known
before any of it is coded. ``run_ppq`` pushes every timestep in
(t, traj_id) order; when the build is partitioned and has at least
``PIPELINE_MIN_POINTS`` points, on a host with two or more usable CPUs
that can ``fork``, a forked worker runs the assign half of every timestep
and streams each step's pids through a pipe, and the calling process codes
step t as soon as they arrive. Otherwise both halves run in the calling
process, step by step, as ``Encoder.push`` runs them. Either way the output
is the same. ``run_ppq`` then rewrites merged-away partitions' (pid, code)
and assembles the ``Summary``.

Variants of the paper map to arguments:

  =================  ==========================================
  PPQ-A              mode='A', use_cqc=True
  PPQ-A-basic        mode='A', use_cqc=False
  PPQ-S              mode='S', use_cqc=True
  PPQ-S-basic        mode='S', use_cqc=False
  E-PQ               mode=None (single partition), use_cqc=False
  Q-trajectory       mode=None, predict=False, use_cqc=False
  =================  ==========================================

Each variant runs in one of three codebook modes (``repro.core.epq``):

  =================  ==========================================
  online (default)   codebook_mode='global'
  per timestamp      codebook_mode='per_t'
  fixed budget       codebook_mode='fixed', budget=2**bits (Table 4)
                     or budget={t: n} (Table 2)
  =================  ==========================================
"""
from __future__ import annotations

import gc
import math
import multiprocessing
import os
import pickle
import time
import traceback
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro import DEG_TO_M, deviation_deg, traj_runs
from repro.core.cqc import CQCCoder
from repro.core.epq import EPQEngine
from repro.core.partitioning import (
    AR_WINDOW,
    IncrementalPartitioner,
    UpdateStats,
    ar_features,
)
from repro.core.predictor import DEFAULT_K

AR_EMA = 0.3
"""Weight of the newest AR(k) fit in PPQ-A's smoothed partition features."""

#: Smallest build, in points, whose assign half ``run_ppq`` forks off.
#: Forking, exiting and reaping the worker costs a fixed 7-9 ms, and the
#: coding process runs slower beside it (copy-on-write faults on the heap
#: it shares with the worker). On bench porto and geolife cut to 3-13k
#: points (20 alternating pairs per size), forking lost or tied below
#: about 7k points for PPQ-S and porto PPQ-A, was mixed up to 10k and won
#: at 13k; geolife PPQ-A won from 3k.
PIPELINE_MIN_POINTS = 10_000

STAGES = ("features", "partition", "code", "wait")
"""``Summary.stage_seconds`` keys: PPQ-A's AR features and the partitioner
update (the assign half, timed where it runs), merges + E-PQ step + CQC (the
code half), and the time the coding process waited for a forked worker's
pids (0 in-process)."""


@dataclass
class Summary:
    """The PPQ-trajectory summary: everything needed to reproduce points.

    ``coded`` holds one row per input point with the codebook
    reconstruction (xhat, yhat) and the CQC-corrected reconstruction
    (xrec, yrec) -- identical when CQC is disabled. The summary *storage*
    is the codebooks + coefficients + per-point code indexes + CQC codes;
    the reconstruction columns are what the encoder computed, materialised
    for convenience. The engine files each coefficient vector and per-t
    codebook under the (pid, t) of the partition and step that fitted it. The
    columns are meant to be a pure function of the stored parts, but no
    test decodes them from those parts alone, and one defect remains: in
    global codebook mode ``_apply_code_remap`` rewrites the ``pid`` of a
    merged-away partition's rows to the merge target's, so a remapped
    ``pid`` no longer keys the coefficients its row was predicted with.

    ``path`` (TPQ, Def. 5.3) reads by position. Its first call caches one
    read-only copy of ``coded`` sorted by (traj_id, t) and indexed by t,
    with the sorted distinct trajectory ids and the row where each one's
    run starts. A read is a binary search for the trajectory, two in its t
    run for the window, and one positional slice of the cache.
    """

    coded: pd.DataFrame
    codebooks: dict[int, np.ndarray]
    codebooks_t: dict[tuple[int, int], np.ndarray]
    coeffs: dict[tuple[int, int], np.ndarray]
    cqc: CQCCoder | None
    config: dict
    build_seconds: float
    partition_stats: list[UpdateStats] = field(default_factory=list)
    # seconds per build stage (``STAGES``), summed over the timesteps
    stage_seconds: dict[str, float] = field(default_factory=dict)
    # whether a forked worker ran the assign half
    pipelined: bool = False
    # ``path``'s cache: the sorted frame, its distinct traj_ids, their row
    # offsets (with the row count last) and its t column
    _paths: tuple[pd.DataFrame, np.ndarray, np.ndarray, np.ndarray] | None = None

    # ---------------- quality ----------------
    def errors_m(self) -> np.ndarray:
        """Per-point deviation ||true - reconstructed||_2 in meters."""
        return deviation_deg(self.coded) * DEG_TO_M

    def mae_m(self) -> float:
        """Mean absolute (Euclidean) error of the summary, meters."""
        return float(self.errors_m().mean())

    # ---------------- size accounting ----------------
    @property
    def n_points(self) -> int:
        return len(self.coded)

    def n_codewords(self) -> int:
        """Total codewords across partitions (and timestamps, if per-t)."""
        total = sum(len(cb) for cb in self.codebooks.values())
        total += sum(len(cb) for cb in self.codebooks_t.values())
        return int(total)

    def summary_bits(self) -> int:
        """Storage cost of the summary in bits (DESIGN.md accounting):
        codewords (2 x float32), per-point codeword indexes, per-partition
        per-timestep coefficients, partition-assignment runs, CQC codes.
        """
        bits = self.n_codewords() * 2 * 32
        # per-point code index: log2 of its codebook's size
        sizes_global = {pid: max(1, len(cb)) for pid, cb in self.codebooks.items()}
        if self.codebooks_t:
            sizes_t = {key: max(1, len(cb)) for key, cb in self.codebooks_t.items()}
            pid_t = zip(self.coded.pid.to_numpy(), self.coded.t.to_numpy())
            bits += int(
                sum(max(1, math.ceil(math.log2(sizes_t.get((p, t), 1)))) for p, t in pid_t)
            )
        else:
            per_pid_bits = {
                pid: max(1, math.ceil(math.log2(v))) for pid, v in sizes_global.items()
            }
            counts = self.coded.pid.value_counts()
            bits += int(sum(per_pid_bits.get(pid, 1) * c for pid, c in counts.items()))
        bits += len(self.coeffs) * self.config.get("k", DEFAULT_K) * 32
        # partition assignment: one (traj, pid) record per contiguous run; in
        # (traj_id, t) order a run starts at each trajectory's first row and
        # wherever pid changes
        order, _, starts = traj_runs(self.coded["traj_id"].to_numpy(),
                                     self.coded["t"].to_numpy())
        pid = self.coded["pid"].to_numpy()[order]
        run_start = np.ones(len(pid), dtype=bool)
        run_start[1:] = pid[1:] != pid[:-1]
        run_start[starts[:-1]] = True
        bits += int(np.count_nonzero(run_start)) * 32
        if self.cqc is not None:
            bits += self.n_points * self.cqc.code_bits
        return int(bits)

    def compression_ratio(self) -> float:
        """raw bits (2 x float64 per point) / summary bits."""
        return (self.n_points * 2 * 64) / max(1, self.summary_bits())

    # ---------------- reconstruction access ----------------
    def _path_index(self) -> tuple[pd.DataFrame, np.ndarray, np.ndarray, np.ndarray]:
        if self._paths is None:
            c = self.coded
            t = c["t"].to_numpy()
            order, ids, starts = traj_runs(c["traj_id"].to_numpy(), t)
            frame = pd.DataFrame(
                {name: c[name].to_numpy()[order] for name in c.columns if name != "t"},
                index=pd.Index(t[order], name="t"),
            )
            # a path is a view of this frame: a write into one raises
            # ValueError instead of changing what later calls return
            for block in frame._mgr.blocks:
                block.values.flags.writeable = False
            self._paths = (frame, ids, starts, t[order].astype(np.int64))
        return self._paths

    def path(self, traj_id: int, t0: int, l: int) -> pd.DataFrame:
        """Reconstructed sub-trajectory rows for t in [t0, t0 + l], indexed
        by t; an empty frame of the same columns for an unknown trajectory.
        The result is a read-only view of a cached frame."""
        tid = _check_traj_id(traj_id)
        frame, ids, starts, ts = self._path_index()
        i = ids.searchsorted(tid)
        if i == len(ids) or ids[i] != tid:
            return frame.iloc[:0]
        lo, hi = starts[i], starts[i + 1]
        run = ts[lo:hi]
        return frame.iloc[lo + run.searchsorted(t0) : lo + run.searchsorted(t0 + l, "right")]


def run_ppq(
    points: pd.DataFrame,
    *,
    mode: str | None = "A",
    predict: bool = True,
    use_cqc: bool = True,
    eps1: float = 0.001,
    eps_p: float = 0.05,
    gs: float | None = None,
    k: int = DEFAULT_K,
    seed: int = 0,
    codebook_mode: str = "global",
    budget: int | dict[int, int] | None = None,
) -> Summary:
    """Build the PPQ-trajectory summary over ``points`` (traj_id, t, x, y).

    ``mode`` is 'A' (autocorrelation partitions), 'S' (spatial) or None
    (single partition). ``budget`` is required by, and only allowed with,
    codebook_mode='fixed': an int gives every timestamp that many
    codewords (Table 4 passes 2**bits), a ``{t: n}`` dict gives each
    timestamp its own count (Table 2's "same number of codewords at the
    same time across all methods"). Either way a timestamp's budget is
    split across partitions proportionally to their sizes.
    """
    gs = gs if gs is not None else eps1 * 0.45
    config = dict(mode=mode, predict=predict, use_cqc=use_cqc, eps1=eps1, eps_p=eps_p,
                  gs=gs, k=k, codebook_mode=codebook_mode, budget=budget)
    _validate(points, **config)
    t_start = time.perf_counter()

    # one stable sort by (t, traj_id); timesteps are runs of equal t
    traj = points["traj_id"].to_numpy().astype(np.int64)
    ts = points["t"].to_numpy().astype(np.int64)
    order = np.lexsort((traj, ts))
    traj, ts = traj[order], ts[order]
    xy_all = points[["x", "y"]].to_numpy(dtype=np.float64)[order]
    n = len(ts)
    cuts = np.flatnonzero(np.diff(ts)) + 1
    spans = list(zip(np.r_[0, cuts].tolist(), np.r_[cuts, n].tolist()))

    enc = Encoder(np.unique(traj), seed=seed, **config)
    rows = enc.rows_of(traj)
    steps = [(rows[lo:hi], xy_all[lo:hi]) for lo, hi in spans]
    # per-point outputs, in the sorted row order
    pid_out, code_out, cqc_out = (np.empty(n, dtype=np.int64) for _ in range(3))
    recon_out, rec2_out = np.empty((n, 2)), np.empty((n, 2))
    forked = _forks(mode, n)
    with _assignments(enc, steps, forked) as assigned:
        for (lo, hi), (r, xy), a in zip(spans, steps, assigned):
            (pid_out[lo:hi], code_out[lo:hi], recon_out[lo:hi], rec2_out[lo:hi],
             cqc_out[lo:hi]) = enc.code(int(ts[lo]), r, xy, a)
    _apply_code_remap(pid_out, code_out, enc.engine.remap)
    coded = pd.DataFrame({
        "traj_id": traj, "t": ts.astype(np.int32), "x": xy_all[:, 0], "y": xy_all[:, 1],
        "pid": pid_out, "code": code_out, "xhat": recon_out[:, 0], "yhat": recon_out[:, 1],
        "xrec": rec2_out[:, 0], "yrec": rec2_out[:, 1], "cqc": cqc_out,
    })
    return Summary(
        coded=coded,
        codebooks=enc.engine.codebooks,
        codebooks_t=enc.engine.codebooks_t,
        coeffs=enc.engine.coeffs,
        cqc=enc.cqc,
        config=config,
        build_seconds=time.perf_counter() - t_start,
        partition_stats=enc.stats,
        stage_seconds=enc.seconds,
        pipelined=forked,
    )


class Encoder:
    """One PPQ build (``run_ppq``'s options), pushed one timestep at a time.

    It owns the row map: trajectory ``traj_ids[r]`` (sorted, distinct: every
    trajectory the build will see) has state row r in the partitioner,
    PPQ-A's feature state and the ``EPQEngine``'s history, and only
    ``rows_of`` maps ids to rows. It also owns the CQC coder (None without
    CQC), ``stats``, one ``UpdateStats`` per partitioned step, and
    ``seconds``, the time per build stage (``STAGES``).

    A step is two halves: ``assign`` touches the partitioner and PPQ-A's
    feature state only, ``code`` everything else, so a copy of the encoder
    in another process can run the assign half of later steps while this
    one codes (``run_ppq``)."""

    def __init__(self, traj_ids: np.ndarray, *, mode, predict, use_cqc, eps1, eps_p,
                 gs, k, seed, codebook_mode, budget):
        self.traj_ids = np.asarray(traj_ids, dtype=np.int64)
        if (np.diff(self.traj_ids) <= 0).any():
            raise ValueError("traj_ids must be sorted and distinct")
        n = len(self.traj_ids)
        self.budget = budget
        self.t: int | None = None  # the last push's t
        self.partitioner = IncrementalPartitioner(eps_p, n, seed) if mode else None
        self.ar_state = _ARState(n, k) if mode == "A" else None
        self.engine = EPQEngine(
            eps1, n, k=k, seed=seed, predict_enabled=predict, codebook_mode=codebook_mode
        )
        self.cqc = CQCCoder(eps1, gs) if use_cqc else None
        self.stats: list[UpdateStats] = []
        self.seconds = dict.fromkeys(STAGES, 0.0)

    def push(self, t: int, ids: np.ndarray, xy: np.ndarray) -> tuple[np.ndarray, ...]:
        """Encode the points ``xy`` of trajectories ``ids`` at time ``t``.
        Returns per row: its pid (from before any later merge remaps it: the
        key of this step's coefficients), code, codebook reconstruction,
        final reconstruction and CQC code (-1 without CQC).

        Raises ``ValueError``, with no state changed, for an id not in
        ``traj_ids``, an id twice in ``ids`` or a ``t`` not after the
        previous push's."""
        if self.t is not None and t <= self.t:
            raise ValueError(f"t={t} is not after the previous push's t={self.t}")
        rows = self.rows_of(ids)
        srt = np.sort(rows)
        dup = srt[1:] == srt[:-1]
        if dup.any():
            raise ValueError(f"trajectory id {self.traj_ids[srt[1:][dup][0]]} pushed twice")
        self.t = t
        return self.code(t, rows, xy, self.assign(rows, xy))

    def rows_of(self, ids: np.ndarray) -> np.ndarray:
        """The state rows of trajectory ``ids``; raises ``ValueError`` for an
        id not in ``traj_ids``."""
        ids = np.asarray(ids)
        rows = np.searchsorted(self.traj_ids, ids)
        known = rows < len(self.traj_ids)
        known[known] = self.traj_ids[rows[known]] == ids[known]
        if not known.all():
            raise ValueError(f"trajectory id {ids[~known][0]} is not in traj_ids")
        return rows

    def assign(self, rows: np.ndarray, xy: np.ndarray) -> tuple:
        """The assign half of a step over the distinct ``rows``: returns
        ``(pids, stats, (features_s, partition_s))``, each row's pid, the
        partitioner's ``UpdateStats`` (None unpartitioned) and the seconds
        of the two stages."""
        if self.partitioner is None:
            return np.zeros(len(rows), dtype=np.int64), None, (0.0, 0.0)
        feats, features_s = xy, 0.0
        if self.ar_state is not None:
            t0 = time.perf_counter()
            feats = self.ar_state.features(rows)
            self.ar_state.push(rows, xy)
            features_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        pids, stats = self.partitioner.update(rows, feats)
        return pids, stats, (features_s, time.perf_counter() - t0)

    def code(self, t: int, rows: np.ndarray, xy: np.ndarray, assigned: tuple
             ) -> tuple[np.ndarray, ...]:
        """The code half of the step at ``t`` over ``rows``, given what
        ``assign`` returned for them; returns what ``push`` returns."""
        t0 = time.perf_counter()
        pids, stats, (features_s, partition_s) = assigned
        self.seconds["features"] += features_s
        self.seconds["partition"] += partition_s
        if stats is not None:
            self.stats.append(stats)
            self.engine.merge(stats.merges)
        budget = self.budget[t] if isinstance(self.budget, dict) else self.budget
        res = self.engine.step(t, rows, xy, pids, budget=budget)
        if self.cqc is None:
            cq, rec = np.full(len(rows), -1, dtype=np.int64), res.recon
        else:
            cq = self.cqc.encode(xy - res.recon)
            rec = self.cqc.correct(res.recon, cq)
        self.seconds["code"] += time.perf_counter() - t0
        return pids, res.codes, res.recon, rec, cq


def _forks(mode: str | None, n_points: int) -> bool:
    """Whether ``run_ppq`` runs the assign half in a forked worker: for a
    partitioned build of at least ``PIPELINE_MIN_POINTS`` points, on a host
    where this process may use two or more CPUs and can fork; never from a
    daemonic process, which ``multiprocessing`` keeps childless. A thread
    would not do: the interpreter lock runs the two halves in turn. The
    worker runs none of the caller's other threads, only numpy and this
    package's code on its copy of the encoder."""
    return (
        mode is not None
        and n_points >= PIPELINE_MIN_POINTS
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and "fork" in multiprocessing.get_all_start_methods()
        and not multiprocessing.current_process().daemon
    )


@contextmanager
def _assignments(enc: Encoder, steps: list[tuple[np.ndarray, np.ndarray]], forked: bool):
    """Yield an iterator of ``enc.assign``'s output for each ``(rows, xy)`` of
    ``steps``, in order. In-process it runs each step's assign half when it
    is asked for. Forked, a child process holding a copy of ``enc`` runs
    them all and sends each through a pipe; the child's exception is raised
    here in its place, and leaving the block closes the pipe and reaps the
    child, whether the caller's loop ended or raised."""
    if not forked:
        yield (enc.assign(rows, xy) for rows, xy in steps)
        return
    import fcntl  # POSIX only, as fork is

    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    # A pipe that holds a whole build's pids (Linux allows 1 MiB unprivileged)
    # lets the worker finish and exit instead of staying one buffer ahead:
    # while it lives, each heap page the coding process writes is copied
    # first. Bench builds ran 4-7% faster with it.
    if hasattr(fcntl, "F_SETPIPE_SZ"):
        with suppress(OSError):
            fcntl.fcntl(send.fileno(), fcntl.F_SETPIPE_SZ, 1 << 20)
    worker = ctx.Process(target=_assign_worker, args=(enc, steps, send), daemon=True)
    worker.start()
    send.close()
    try:
        yield _received(recv, len(steps), enc.seconds)
    finally:
        # a worker still sending fails on the closed pipe and exits
        recv.close()
        worker.join(timeout=5)
        if worker.is_alive():
            worker.kill()
            worker.join()


def _received(recv, n_steps: int, seconds: dict[str, float]):
    """The ``n_steps`` assignments a worker sends, raising its exception;
    the time spent waiting for each goes to ``seconds["wait"]``."""
    for i in range(n_steps):
        t0 = time.perf_counter()
        try:
            msg = recv.recv()
        except EOFError:
            raise RuntimeError(
                f"the partition-assignment worker ended after {i} of {n_steps} steps"
            ) from None
        seconds["wait"] += time.perf_counter() - t0
        if isinstance(msg, BaseException):
            raise msg
        yield msg


def _assign_worker(enc: Encoder, steps, send) -> None:
    """Body of the forked worker: ``enc.assign`` over every step, each
    result sent as it is made. An exception is sent in place of the next
    result, with the worker's traceback as a note (and as a ``RuntimeError``
    naming it if it does not pickle). Collection is off: the worker's own
    objects die by reference count, and a full collection would touch, and
    so copy, every page of the heap it shares with its parent."""
    gc.disable()
    try:
        for rows, xy in steps:
            send.send(enc.assign(rows, xy))
    except Exception as exc:  # raised again in the parent
        exc.add_note("in the partition-assignment worker:\n" + traceback.format_exc())
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:  # any failure to round-trip: send what does
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        with suppress(OSError):  # the parent has stopped listening
            send.send(exc)
    finally:
        send.close()


class _ARState:
    """PPQ-A's per-trajectory feature state, one row per trajectory of the
    build; ``Encoder.rows_of`` maps trajectory ids to the rows it is given.

    Features are lag-k autocorrelations (``ar_features`` over the last
    ``AR_WINDOW`` raw points), EMA-smoothed over time: the AR parameters
    of a trajectory are a slowly varying property, and smoothing keeps
    estimation noise from churning the partitions (splits immediately
    undone by merges).
    """

    def __init__(self, n: int, k: int):
        self.k = k
        self.window = np.zeros((n, AR_WINDOW, 2))  # oldest first
        self.n_raw = np.zeros(n, dtype=np.int64)  # <= AR_WINDOW
        self.ema = np.zeros((n, k))

    def features(self, rows: np.ndarray) -> np.ndarray:
        """Smoothed AR(k) features (n, k) of the distinct ``rows`` at this
        timestep, fitted on their windows before it; folds them into the EMA
        state."""
        n_raw = self.n_raw[rows]
        feats = np.empty((len(rows), self.k))
        for w in np.unique(n_raw):
            sel = n_raw == w
            feats[sel] = ar_features(self.window[rows[sel], :w], self.k)
        seen = n_raw > 0
        feats[seen] = (1 - AR_EMA) * self.ema[rows[seen]] + AR_EMA * feats[seen]
        self.ema[rows] = feats
        return feats

    def push(self, rows: np.ndarray, xy: np.ndarray) -> None:
        """Append this timestep's raw points, dropping the oldest of full windows."""
        n_raw = self.n_raw[rows]
        full = rows[n_raw == AR_WINDOW]
        self.window[full, :-1] = self.window[full, 1:]
        self.window[rows, np.minimum(n_raw, AR_WINDOW - 1)] = xy
        self.n_raw[rows] = np.minimum(n_raw + 1, AR_WINDOW)


def _validate(
    points: pd.DataFrame, *, mode, predict, use_cqc, eps1, eps_p, gs, k,
    codebook_mode, budget,
) -> None:
    """Reject inputs and ``run_ppq`` options the build would fail on or
    silently mis-handle."""
    if mode not in ("A", "S", None):
        raise ValueError(f"unknown mode {mode!r}")
    if len(points) == 0:
        raise ValueError("empty input: run_ppq needs at least one point")
    xy = points[["x", "y"]].to_numpy(dtype=np.float64)
    bad = ~np.isfinite(xy).all(axis=1)
    if bad.any():
        raise ValueError(
            f"non-finite x/y in {int(bad.sum())} rows "
            "(one NaN would poison the shared coefficient fit)"
        )
    _check_integral(points["t"], "t")
    _check_integral(points["traj_id"], "traj_id")
    dup = points.duplicated(["traj_id", "t"])
    if dup.any():
        raise ValueError(f"duplicate (traj_id, t) in {int(dup.sum())} rows")
    if not (math.isfinite(eps1) and eps1 >= 0):
        raise ValueError(f"eps1 must be finite and >= 0, not {eps1!r}")
    # CQC's grid half-width max(1, ceil(eps1/gs)) breaks Lemma 3 for gs < 0
    if use_cqc and not (math.isfinite(gs) and gs > 0):
        raise ValueError(f"gs must be finite and > 0 with CQC on, not {gs!r}")
    # eps_p < 0 puts every trajectory in a partition of its own
    if not (math.isfinite(eps_p) and eps_p >= 0):
        raise ValueError(f"eps_p must be finite and >= 0, not {eps_p!r}")
    if not _is_count(k):
        raise ValueError(f"k must be an int >= 1, not {k!r}")
    if codebook_mode != "fixed":
        if budget is not None:
            raise ValueError(
                f"budget is only used with codebook_mode='fixed', not {codebook_mode!r}"
            )
    elif budget is None:
        raise ValueError("codebook_mode='fixed' needs a budget")
    elif isinstance(budget, dict):
        ts = np.unique(points["t"].to_numpy()).astype(np.int64).tolist()
        bad = [t for t in ts if not _is_count(budget.get(t))]
        if bad:
            raise ValueError(f"budget has no int >= 1 for {len(bad)} t, first t={bad[0]}")
    elif not _is_count(budget):
        raise ValueError(f"budget must be an int >= 1 or a {{t: int}} dict, not {budget!r}")


def _is_count(v) -> bool:
    """An int >= 1; a bool is not one."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 1


def _check_integral(col: pd.Series, name: str) -> None:
    """Reject a key column that is not integer-valued: the build would drop
    rows whose t is NaN, and truncate a fractional t onto another step."""
    v = col.to_numpy()
    if v.dtype.kind in "iu":
        return
    if v.dtype.kind != "f":
        raise ValueError(f"non-integer {name}: dtype {v.dtype}")
    finite = np.isfinite(v)
    if not finite.all():
        raise ValueError(f"non-finite {name} in {int((~finite).sum())} rows")
    bad = v != np.floor(v)
    if bad.any():
        raise ValueError(f"non-integer {name} in {int(bad.sum())} rows")


def _check_traj_id(traj_id) -> int:
    """A trajectory id as an int; rejects what ``_check_integral`` rejects
    in a ``traj_id`` column (a fractional id would read another path)."""
    if isinstance(traj_id, (int, np.integer)) and not isinstance(traj_id, bool):
        return int(traj_id)
    if not isinstance(traj_id, (float, np.floating)):
        raise ValueError(f"non-integer traj_id {traj_id!r}: {type(traj_id).__name__}")
    if not math.isfinite(traj_id):
        raise ValueError(f"non-finite traj_id {traj_id!r}")
    if traj_id != math.floor(traj_id):
        raise ValueError(f"non-integer traj_id {traj_id!r}")
    return int(traj_id)


def _apply_code_remap(
    pid_arr: np.ndarray, code_arr: np.ndarray, remap: dict[int, tuple[int, int]]
) -> None:
    """Rewrite (pid, code) of merged-away partitions to their merge target
    (following chains), in place. Global-codebook mode only. Each chain is
    resolved once, to the pid at its end, which is no source, and the sum
    of its offsets; then one gather per column rewrites every row."""
    if not remap:
        return
    size = max(int(pid_arr.max(initial=0)), max(remap)) + 1
    dst_of, off_of = np.arange(size), np.zeros(size, dtype=np.int64)
    for src in remap:
        dst, off = src, 0
        while dst in remap:
            dst, o = remap[dst]
            off += o
        dst_of[src], off_of[src] = dst, off
    code_arr += off_of[pid_arr]
    pid_arr[:] = dst_of[pid_arr]
