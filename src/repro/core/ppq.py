"""PPQ: partition-wise predictive quantization (paper Section 3.2) and the
summary object shared by every experiment harness.

``Encoder.push`` runs the online pipeline for one timestep. It maps the
step's trajectory ids to state rows, the only place that does: the
history, the partition map and PPQ-A's AR windows are arrays with one row
per trajectory of the build, which the steps below index by row.

  1. compute partition features (spatial position for PPQ-S, fitted AR(k)
     parameters for PPQ-A) and update the incremental partitioner;
  2. run one E-PQ step over every partition (own predictor coefficients
     P_j[t] and own codebook per partition, Eq. 5-6); the engine files the
     parts it fits and moves merged partitions' codebooks (``EPQEngine``);
  3. optionally CQC-encode the residual of every point (Section 4).

``run_ppq`` pushes every timestep in (t, traj_id) order, then rewrites
merged-away partitions' (pid, code) and assembles the ``Summary``.

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

import math
import time
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

    enc = Encoder(np.unique(traj), seed=seed, **config)
    # per-point outputs, in the sorted row order
    pid_out, code_out, cqc_out = (np.empty(n, dtype=np.int64) for _ in range(3))
    recon_out, rec2_out = np.empty((n, 2)), np.empty((n, 2))
    for lo, hi in zip(np.r_[0, cuts].tolist(), np.r_[cuts, n].tolist()):
        (pid_out[lo:hi], code_out[lo:hi], recon_out[lo:hi], rec2_out[lo:hi],
         cqc_out[lo:hi]) = enc.push(int(ts[lo]), traj[lo:hi], xy_all[lo:hi])
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
    )


class Encoder:
    """One PPQ build (``run_ppq``'s options), pushed one timestep at a time.

    It owns the row map: trajectory ``traj_ids[r]`` (sorted, distinct: every
    trajectory the build will see) has state row r in the partitioner,
    PPQ-A's feature state and the ``EPQEngine``'s history, and only ``push``
    maps ids to rows. It also owns the CQC coder (None without CQC) and
    ``stats``, one ``UpdateStats`` per partitioned push."""

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
        ids = np.asarray(ids)
        rows = np.searchsorted(self.traj_ids, ids)
        known = rows < len(self.traj_ids)
        known[known] = self.traj_ids[rows[known]] == ids[known]
        if not known.all():
            raise ValueError(f"trajectory id {ids[~known][0]} is not in traj_ids")
        srt = np.sort(rows)
        dup = srt[1:] == srt[:-1]
        if dup.any():
            raise ValueError(f"trajectory id {self.traj_ids[srt[1:][dup][0]]} pushed twice")
        self.t = t
        if self.partitioner is None:
            pids = np.zeros(len(ids), dtype=np.int64)
        else:
            feats = xy if self.ar_state is None else self.ar_state.features(rows)
            pids, stats = self.partitioner.update(rows, feats)
            self.stats.append(stats)
            self.engine.merge(stats.merges)
        budget = self.budget[t] if isinstance(self.budget, dict) else self.budget
        res = self.engine.step(t, rows, xy, pids, budget=budget)
        if self.cqc is None:
            cq, rec = np.full(len(ids), -1, dtype=np.int64), res.recon
        else:
            cq = self.cqc.encode(xy - res.recon)
            rec = self.cqc.correct(res.recon, cq)
        if self.ar_state is not None:
            self.ar_state.push(rows, xy)
        return pids, res.codes, res.recon, rec, cq


class _ARState:
    """PPQ-A's per-trajectory feature state, one row per trajectory of the
    build; ``Encoder.push`` maps trajectory ids to the rows it is given.

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
    (following chains), in place. Global-codebook mode only. A chain ends
    at a pid that is no source, so no rewritten row is matched again."""
    for src in remap:
        dst, off = src, 0
        while dst in remap:
            dst, o = remap[dst]
            off += o
        m = pid_arr == src
        code_arr[m] += off
        pid_arr[m] = dst
