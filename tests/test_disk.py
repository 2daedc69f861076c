"""Tests for the page-store disk simulation (Table 9 substrate)."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.trajstore import TrajStore
from repro.index.disk import (
    BYTES_PER_POINT,
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


class TestPageStore:
    def test_single_small_write_one_page(self):
        st = PageStore(page_bytes=100)
        st.write("a", 10)
        assert st.key_pages == {"a": {0}}

    def test_large_write_spans_pages(self):
        st = PageStore(page_bytes=100)
        st.write("a", 250)
        assert st.pages_of("a") == {0, 1, 2}

    def test_sequential_writes_share_page(self):
        st = PageStore(page_bytes=100)
        st.write("a", 40)
        st.write("b", 40)
        assert st.pages_of("a") == st.pages_of("b") == {0}

    def test_boundary_straddle(self):
        st = PageStore(page_bytes=100)
        st.write("a", 90)
        st.write("b", 20)
        assert st.pages_of("b") == {0, 1}

    def test_zero_bytes_no_pages(self):
        st = PageStore(page_bytes=100)
        st.write("a", 0)
        assert st.pages_of("a") == set()

    def test_same_key_accumulates(self):
        st = PageStore(page_bytes=100)
        st.write("a", 90)
        st.write("x", 90)
        st.write("a", 90)
        assert 0 in st.pages_of("a") and 2 in st.pages_of("a")


def _pages_written(st: PageStore) -> int:
    return len(set().union(*st.key_pages.values()))


def _points(n_traj=40, n_steps=8, seed=0):
    g = np.random.default_rng(seed)
    base = g.random((n_traj, 2))
    rows = []
    for t in range(1, n_steps + 1):
        pts = base + g.normal(0, 0.01, (n_traj, 2))
        rows.append(
            pd.DataFrame(
                {"traj_id": np.arange(n_traj), "t": t, "x": pts[:, 0], "y": pts[:, 1]}
            )
        )
    return pd.concat(rows, ignore_index=True)


class TestLayouts:
    def test_tpi_layout_and_query(self):
        pts = _points()
        tpi = build_tpi_from_points(pts, eps_d=0.5, eps_c=0.5, eps_s=1.0, gc=0.2)
        st = PageStore(page_bytes=256)
        layout_tpi(tpi, st)
        q = pts[["x", "y", "t"]].to_numpy()[:30]
        io = tpi_query_ios(tpi, st, q)
        assert io.n_queries == 30
        assert io.total_ios >= 1
        assert io.total_ios <= _pages_written(st)

    def test_pi_layout_and_query(self):
        pts = _points()
        pis = {}
        for t, batch in pts.groupby("t"):
            pis[int(t)] = build_pi(
                int(t), batch.traj_id.to_numpy(), batch.x.to_numpy(),
                batch.y.to_numpy(), eps_s=1.0, gc=0.2,
            )
        st = PageStore(page_bytes=256)
        layout_pis(pis, st)
        q = pts[["x", "y", "t"]].to_numpy()[:30]
        io = pi_query_ios(pis, st, q)
        assert 1 <= io.total_ios <= _pages_written(st)

    def test_trajstore_reads_whole_cell(self):
        pts = _points()
        store = TrajStore((-1, -1, 2, 2), cell_capacity=10_000)  # one big cell
        for t, batch in pts.groupby("t"):
            store.insert_batch(
                batch.traj_id.to_numpy(), batch.t.to_numpy(),
                batch[["x", "y"]].to_numpy(),
            )
        st = PageStore(page_bytes=256)
        layout_trajstore(store, st)
        q = pts[["x", "y", "t"]].to_numpy()[:1]
        io = trajstore_query_ios(store, st, q)
        # one query touches every page of the (single) cell
        expected = (len(pts) * BYTES_PER_POINT + 255) // 256
        assert io.total_ios == expected

    def test_trajstore_more_ios_than_pi(self):
        """The Table 9 headline: time-agnostic cells read more pages."""
        pts = _points(n_traj=60, n_steps=15, seed=1)
        store = TrajStore((-1, -1, 2, 2), cell_capacity=100)
        pis = {}
        for t, batch in pts.groupby("t"):
            store.insert_batch(
                batch.traj_id.to_numpy(), batch.t.to_numpy(),
                batch[["x", "y"]].to_numpy(),
            )
            pis[int(t)] = build_pi(
                int(t), batch.traj_id.to_numpy(), batch.x.to_numpy(),
                batch.y.to_numpy(), eps_s=1.0, gc=0.2,
            )
        st1 = PageStore(page_bytes=256)
        layout_trajstore(store, st1)
        st2 = PageStore(page_bytes=256)
        layout_pis(pis, st2)
        q = pts[["x", "y", "t"]].to_numpy()[::7]
        ios_ts = trajstore_query_ios(store, st1, q).total_ios
        ios_pi = pi_query_ios(pis, st2, q).total_ios
        assert ios_ts > ios_pi
