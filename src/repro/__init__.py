"""PPQ-Trajectory reproduction (VLDB 2020, Wang & Ferhatosmanoglu).

Subpackages:
  core      -- E-PQ / PPQ quantizers, CQC coding, incremental partitioning.
  baselines -- product/residual quantization, Q-trajectory helper modes,
               TrajStore, REST.
  index     -- PI / TPI spatio-temporal indexes, ID-list codec, disk sim.
  queries   -- STRQ / TPQ / exact-match filtering.
  spark     -- distributed dataflow build + query execution.
  harness   -- one experiment harness per evaluation table (Tables 2-9).
"""
import numpy as np

DEG_TO_M = 111_000.0
"""Meters per degree (the paper's eps_1 = 0.001 deg ~= 111 m conversion)."""


def deviation_deg(frame) -> np.ndarray:
    """Per-row spatial deviation ||(x, y) - (xrec, yrec)||_2 of a frame with
    those columns, in degrees."""
    dx = frame["x"].to_numpy() - frame["xrec"].to_numpy()
    dy = frame["y"].to_numpy() - frame["yrec"].to_numpy()
    return np.sqrt(dx * dx + dy * dy)


def check_integral(v: np.ndarray, name: str) -> None:
    """Reject keys ``v`` that are not whole numbers: a NaN t or id would be
    dropped or mis-read, and a fractional one truncated onto another."""
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


def check_step(t: int, last_t: int | None, ids, *pos) -> tuple[np.ndarray, ...]:
    """One pushed timestep, checked before any state changes: ``ids`` as
    int64 and the position columns ``pos`` (x, y) as float64, after a push
    at ``last_t`` (None before the first). Raises ``ValueError`` naming t
    for a t not after ``last_t``, an empty step, ids that are not whole
    numbers, positions other than one finite (x, y) per id, or an id given
    twice. ``Encoder.push`` and ``TPI.push`` both check with it, so a t is
    encoded or indexed at most once."""
    if last_t is not None and t <= last_t:
        raise ValueError(f"t={t} is not after the previous push's t={last_t}")
    ids = np.asarray(ids)
    if ids.size == 0:
        raise ValueError(f"empty timestep at t={t}")
    pos = [np.asarray(c, dtype=np.float64) for c in pos]
    if ids.ndim != 1 or len(pos) != 2 or any(c.shape != ids.shape for c in pos):
        raise ValueError(
            f"x/y at t={t} do not give one position per id: ids of shape "
            f"{ids.shape}, coordinates of shapes {[c.shape for c in pos]}"
        )
    check_integral(ids, f"ids at t={t}")
    bad = ~(np.isfinite(pos[0]) & np.isfinite(pos[1]))
    if bad.any():
        raise ValueError(f"non-finite x/y for {int(bad.sum())} points at t={t}")
    ids = ids.astype(np.int64, copy=False)
    srt = np.sort(ids)
    dup = srt[1:] == srt[:-1]
    if dup.any():
        raise ValueError(f"trajectory id {srt[1:][dup][0]} pushed twice at t={t}")
    return (ids, *pos)


def traj_runs(traj: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, ids, starts): ``order`` sorts rows by (traj, t), ``ids`` are
    the sorted distinct trajectories, and in that order the rows of
    ``ids[i]`` are ``starts[i]:starts[i + 1]``."""
    order = np.lexsort((t, traj))
    ids, starts = np.unique(traj[order], return_index=True)
    return order, ids, np.append(starts, len(order))
