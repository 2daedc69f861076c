"""Disk/page simulation for the Table 9 experiments (paper Section 6.5).

The paper bounds data on disk with 1 MB pages and counts I/Os per query.
Our SF-scaled data is ~100x smaller, so the page size is configurable
(default 16 KB -- see DESIGN.md substitutions); what matters for the
reproduced shape is *how each index scatters a query's data across pages*:

* **PI** (per-timestamp index): points are laid out grouped by
  (t, rect, cell) -- a query touches exactly its cell-at-t run, the
  fewest pages.
* **TPI**: points grouped by (period, rect, cell), all timestamps of the
  period's cell contiguous -- a query touches that cell's run.
* **TrajStore**: the quadtree cell is shared by all timestamps and its
  points are appended in arrival order; a query for (x, y, t) cannot
  filter pages by t, so it reads every page the cell occupies.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BYTES_PER_POINT = 16  # traj_id (8) + quantized position/time payload (8)


@dataclass
class PageStore:
    """Sequential page allocator: stream (key, nbytes) records, remember
    which pages each key's bytes landed on."""

    page_bytes: int = 16_384
    _pos: int = 0
    key_pages: dict[object, set[int]] = field(default_factory=dict)

    def write(self, key: object, nbytes: int) -> None:
        if nbytes <= 0:
            return
        first = self._pos // self.page_bytes
        self._pos += nbytes
        last = (self._pos - 1) // self.page_bytes
        self.key_pages.setdefault(key, set()).update(range(first, last + 1))

    def pages_of(self, key: object) -> set[int]:
        return self.key_pages.get(key, set())


def layout_tpi(tpi, store: PageStore) -> None:
    """Write a TPI to pages grouped by (period, rect, cell).

    Within a period the cell's timestamps are one contiguous compressed
    run -- a query for any t in the period fetches the whole run, which
    is what puts TPI between PI (exact-t runs) and TrajStore (all-time
    cells) in the Table 9 I/O ordering.
    """
    for pidx, period in enumerate(tpi.periods):
        cells, counts = period.pi.cell_counts()
        for cell, n in zip(cells, counts.tolist()):
            store.write(("tpi", pidx, *cell), n * BYTES_PER_POINT)


def layout_pis(pis: dict[int, object], store: PageStore) -> None:
    """Write per-timestamp PIs grouped by (t, rect, cell)."""
    for t in sorted(pis):
        cells, counts = pis[t].cell_counts(t)
        for cell, n in zip(cells, counts.tolist()):
            store.write(("pi", t, *cell), n * BYTES_PER_POINT)


def layout_trajstore(ts, store: PageStore) -> None:
    """Write TrajStore leaves in arrival order; the key is the leaf alone
    (time cannot be used to narrow page reads)."""
    for li, leaf in enumerate(ts.leaves()):
        if leaf.ids:
            store.write(("cell", li), len(leaf.ids) * BYTES_PER_POINT)


@dataclass
class IOCount:
    """I/O statistics over a query batch.

    ``total_ios`` counts *distinct* pages fetched across the whole batch
    (an unbounded buffer pool, matching the paper's Table 9 where the
    I/O count can be far below the query count).
    """

    total_ios: int = 0
    n_queries: int = 0


def tpi_query_ios(tpi, store: PageStore, queries: np.ndarray) -> IOCount:
    """I/Os for (x, y, t) queries against the TPI layout."""
    pages: set[int] = set()
    for x, y, t in queries:
        p = tpi.period_for(int(t))
        if p is None:
            continue
        key = p.pi.cell_key(x, y)
        if key is not None:
            pages |= store.pages_of(("tpi", tpi.periods.index(p), *key))
    return IOCount(total_ios=len(pages), n_queries=len(queries))


def pi_query_ios(pis: dict[int, object], store: PageStore, queries: np.ndarray) -> IOCount:
    """I/Os for (x, y, t) queries against the per-timestamp PI layout."""
    pages: set[int] = set()
    for x, y, t in queries:
        pi = pis.get(int(t))
        if pi is None:
            continue
        key = pi.cell_key(x, y)
        if key is not None:
            pages |= store.pages_of(("pi", int(t), *key))
    return IOCount(total_ios=len(pages), n_queries=len(queries))


def trajstore_query_ios(ts, store: PageStore, queries: np.ndarray) -> IOCount:
    """I/Os against TrajStore: every page of the target cell is read (the
    cell spans the full time range, so pages cannot be skipped by t)."""
    pages: set[int] = set()
    leaves = ts.leaves()
    leaf_idx = {id(lf): i for i, lf in enumerate(leaves)}
    for x, y, _t in queries:
        lf = ts.leaf_for(float(x), float(y))
        pages |= store.pages_of(("cell", leaf_idx[id(lf)]))
    return IOCount(total_ios=len(pages), n_queries=len(queries))
