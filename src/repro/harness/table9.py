"""Table 9: disk-based index performance -- TPI vs PI vs TrajStore.

All three indexes are built over the *raw* trajectory points (the paper
aligns TPI with TrajStore this way). Points are laid out on fixed-size
pages per each index's natural clustering (see ``repro.index.disk``), a
batch of spatio-temporal queries sorted by start time is executed, and we
report index size, total page I/Os, in-memory response time and build
time. TPI uses the paper's eps_d = 0.8, eps_c = 0.5.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from repro.harness.common import load_trajstore
from repro.harness.config import ExpConfig
from repro.index.disk import (
    PageStore,
    layout_pis,
    layout_tpi,
    layout_trajstore,
    pi_query_ios,
    tpi_query_ios,
    trajstore_query_ios,
)
from repro.index.pi import build_pi
from repro.index.tpi import build_tpi_from_points
from repro.queries.strq import sample_queries


def _build_pis(points: pd.DataFrame, cfg: ExpConfig) -> tuple[dict, float]:
    pis = {}
    start = time.perf_counter()
    for t, batch in points.sort_values("t").groupby("t", sort=True):
        pis[int(t)] = build_pi(
            int(t),
            batch.traj_id.to_numpy(),
            batch.x.to_numpy(),
            batch.y.to_numpy(),
            eps_s=cfg.eps_s,
            gc=cfg.gc,
            seed=cfg.seed + int(t),
        )
    return pis, time.perf_counter() - start


def run(cfg: ExpConfig, *, page_bytes: int = 1024) -> pd.DataFrame:
    """``page_bytes`` defaults to 1 KB: the paper uses 1 MB pages with
    ~65k-point TrajStore cells (cells span many pages); at our ~100x
    smaller scale a 1 KB page keeps the cell-to-page ratio comparable
    (256-point cells -> 4 pages), which is what drives the I/O ordering."""
    rows = []
    for ds in cfg.datasets:
        points = ds.load()
        queries = sample_queries(points, cfg.n_queries, seed=cfg.seed + 4)
        queries = queries.sort_values("t")  # paper: sorted by start time
        qarr = queries[["x", "y", "t"]].to_numpy()

        # --- TPI (eps_d = 0.8, eps_c = 0.5, per paper Section 6.5)
        tpi = build_tpi_from_points(
            points, eps_d=0.8, eps_c=0.5, eps_s=cfg.eps_s, gc=cfg.gc, seed=cfg.seed
        )
        st = PageStore(page_bytes=page_bytes)
        layout_tpi(tpi, st)
        t0 = time.perf_counter()
        for x, y, t in qarr:
            tpi.query(float(x), float(y), int(t))
        tpi_resp = time.perf_counter() - t0
        tpi_ios = tpi_query_ios(tpi, st, qarr).total_ios
        rows.append(
            _row(ds.name, "TPI", tpi.size_mb(), tpi_ios, tpi_resp, tpi.build_seconds)
        )

        # --- PI built per timestamp
        pis, pi_build = _build_pis(points, cfg)
        st = PageStore(page_bytes=page_bytes)
        layout_pis(pis, st)
        t0 = time.perf_counter()
        for x, y, t in qarr:
            pi = pis.get(int(t))
            if pi is not None:
                pi.query(float(x), float(y), int(t))
        pi_resp = time.perf_counter() - t0
        pi_ios = pi_query_ios(pis, st, qarr).total_ios
        pi_mb = sum(p.size_bits() for p in pis.values()) / 8 / 1e6
        rows.append(_row(ds.name, "PI", pi_mb, pi_ios, pi_resp, pi_build))

        # --- TrajStore
        store = load_trajstore(points, cfg)
        st = PageStore(page_bytes=page_bytes)
        layout_trajstore(store, st)
        t0 = time.perf_counter()
        for x, y, t in qarr:
            leaf = store.leaf_for(float(x), float(y))
            ts_arr = np.asarray(leaf.ts)
            _ids = np.asarray(leaf.ids)[ts_arr == int(t)]
        ts_resp = time.perf_counter() - t0
        ts_ios = trajstore_query_ios(store, st, qarr).total_ios
        # TrajStore index size: leaf bboxes + stored points metadata
        n_pts = sum(len(lf.ids) for lf in store.leaves())
        ts_mb = (len(store.leaves()) * 4 * 64 + n_pts * 16 * 8) / 8 / 1e6
        rows.append(
            _row(ds.name, "TrajStore", ts_mb, ts_ios, ts_resp, store.build_seconds)
        )
    return pd.DataFrame(rows)


def _row(dataset, method, size_mb, ios, resp_s, build_s):
    return {
        "dataset": dataset,
        "method": method,
        "index_size_mb": round(size_mb, 4),
        "n_ios": int(ios),
        "response_s": round(resp_s, 4),
        "building_s": round(build_s, 3),
    }
