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


def traj_runs(traj: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, ids, starts): ``order`` sorts rows by (traj, t), ``ids`` are
    the sorted distinct trajectories, and in that order the rows of
    ``ids[i]`` are ``starts[i]:starts[i + 1]``."""
    order = np.lexsort((t, traj))
    ids, starts = np.unique(traj[order], return_index=True)
    return order, ids, np.append(starts, len(order))
