"""Sorted trajectory-id index behind the build's per-trajectory state arrays.

State that the online build keeps per trajectory (reconstruction history,
partition assignment) lives in dense arrays whose row r belongs to the
r-th id of a sorted id array. ``lookup`` finds the rows of a batch of ids;
``insert`` merges ids seen for the first time, growing every state array
with zero rows.
"""
from __future__ import annotations

import numpy as np


def lookup(known: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``ids`` in the sorted array ``known``, and which were found.

    Rows of ids that are not in ``known`` are arbitrary: some row of
    ``known`` when it is non-empty, and 0 when it is empty, which is no
    row at all. Mask them with the second result before indexing.
    """
    ids = np.asarray(ids)
    if len(known) == 0:
        return np.zeros(len(ids), dtype=np.intp), np.zeros(len(ids), dtype=bool)
    rows = np.minimum(np.searchsorted(known, ids), len(known) - 1)
    return rows, known[rows] == ids


def insert(
    known: np.ndarray, ids: np.ndarray, *state: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Merge ``ids`` into ``known``; returns the new sorted ids and ``state``
    arrays re-aligned to them, with zero rows for the new ids."""
    merged = np.union1d(known, np.asarray(ids, dtype=known.dtype))
    old_rows = np.searchsorted(merged, known)
    grown = []
    for arr in state:
        g = np.zeros((len(merged),) + arr.shape[1:], dtype=arr.dtype)
        g[old_rows] = arr
        grown.append(g)
    return merged, grown
