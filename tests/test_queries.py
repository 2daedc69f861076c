"""Tests for STRQ / TPQ / exact-match query evaluation (Section 5.2)."""
import math

import numpy as np
import pandas as pd
import pytest

from repro import DEG_TO_M
from repro.core.ppq import run_ppq
from repro.queries.exact import max_error_radius_deg, visited_ratio
from repro.queries.strq import (
    cell_of,
    evaluate_strq,
    precision_recall,
    sample_queries,
    strq_answer,
    strq_truth,
)
from repro.queries.tpq import sample_path_queries, tpq_mae_km


@pytest.fixture(scope="module")
def recon_exact(porto_pts_mod):
    """A perfect summary: xrec = x."""
    r = porto_pts_mod.copy()
    r["xrec"] = r.x
    r["yrec"] = r.y
    return r


@pytest.fixture(scope="module")
def porto_pts_mod():
    from repro.trajgen import porto_lite

    return porto_lite(n_traj=24, n_steps=36, seed=7)


class TestCells:
    def test_cell_of_floor(self):
        cx, cy = cell_of(np.array([0.25]), np.array([-0.25]), 0.1)
        assert cx[0] == 2
        assert cy[0] == -3

    def test_truth_contains_query_trajectory(self, porto_pts_mod):
        frame = porto_pts_mod[porto_pts_mod.t == 5]
        row = frame.iloc[0]
        truth = strq_truth(frame, row.x, row.y, 0.0009)
        assert int(row.traj_id) in truth


class TestPrecisionRecall:
    def test_perfect(self):
        assert precision_recall({1, 2}, {1, 2}) == (1.0, 1.0)

    def test_half_recall(self):
        p, r = precision_recall({1, 2}, {1})
        assert (p, r) == (1.0, 0.5)

    def test_half_precision(self):
        p, r = precision_recall({1}, {1, 2})
        assert (p, r) == (0.5, 1.0)

    def test_empty_conventions(self):
        assert precision_recall(set(), set()) == (1.0, 1.0)
        assert precision_recall({1}, set()) == (1.0, 0.0)
        assert precision_recall(set(), {1}) == (0.0, 1.0)


class TestSTRQ:
    def test_perfect_summary_perfect_scores(self, recon_exact):
        qs = sample_queries(recon_exact, 20, seed=1)
        p, r = evaluate_strq(recon_exact, qs, gc=0.0009)
        assert p == 1.0 and r == 1.0

    def test_local_search_recall_one_for_cqc(self, porto_pts_mod):
        s = run_ppq(porto_pts_mod, mode="S", use_cqc=True, eps1=0.001, eps_p=0.02)
        recon = s.coded[["traj_id", "t", "x", "y", "xrec", "yrec"]]
        qs = sample_queries(porto_pts_mod, 30, seed=2)
        radius = (math.sqrt(2) / 2) * s.config["gs"]
        p, r = evaluate_strq(
            recon, qs, gc=0.0009, local_search_radius=radius, verify=True
        )
        assert r == 1.0
        assert p == 1.0

    def test_no_local_search_can_miss(self, porto_pts_mod):
        """A degraded summary answers with recall < 1 without local search."""
        r = porto_pts_mod.copy()
        g = np.random.default_rng(3)
        r["xrec"] = r.x + g.normal(0, 150 / DEG_TO_M, len(r))
        r["yrec"] = r.y + g.normal(0, 150 / DEG_TO_M, len(r))
        qs = sample_queries(porto_pts_mod, 40, seed=4)
        _, rec = evaluate_strq(r, qs, gc=0.0009)
        assert rec < 1.0

    def test_answer_dilation_superset(self, porto_pts_mod):
        frame = porto_pts_mod[porto_pts_mod.t == 3].copy()
        frame["xrec"] = frame.x
        frame["yrec"] = frame.y
        row = frame.iloc[0]
        plain = strq_answer(frame, row.x, row.y, 0.0009)
        dilated = strq_answer(frame, row.x, row.y, 0.0009, dilate=0.001)
        assert plain <= dilated

    def test_verify_filters_false_positives(self, porto_pts_mod):
        frame = porto_pts_mod[porto_pts_mod.t == 3].copy()
        frame["xrec"] = frame.x
        frame["yrec"] = frame.y
        row = frame.iloc[0]
        huge = strq_answer(frame, row.x, row.y, 0.0009, dilate=1.0)
        verified = strq_answer(frame, row.x, row.y, 0.0009, dilate=1.0, verify=True)
        assert verified == strq_truth(frame, row.x, row.y, 0.0009)
        assert verified <= huge

    def test_sample_queries_deterministic(self, porto_pts_mod):
        a = sample_queries(porto_pts_mod, 10, seed=5)
        b = sample_queries(porto_pts_mod, 10, seed=5)
        pd.testing.assert_frame_equal(a, b)


class TestTPQ:
    def test_zero_error_for_perfect_summary(self, recon_exact):
        qs = sample_path_queries(recon_exact, 10, max_l=10, seed=1)
        assert tpq_mae_km(recon_exact, qs, 10) == 0.0

    def test_grows_with_length(self, porto_pts_mod):
        s = run_ppq(porto_pts_mod, mode="S", use_cqc=False, eps1=0.001, eps_p=0.02)
        recon = s.coded[["traj_id", "t", "x", "y", "xrec", "yrec"]]
        qs = sample_path_queries(porto_pts_mod, 15, max_l=15, seed=2)
        m5 = tpq_mae_km(recon, qs, 5)
        m15 = tpq_mae_km(recon, qs, 15)
        assert m15 > m5

    def test_query_starts_leave_room(self, porto_pts_mod):
        qs = sample_path_queries(porto_pts_mod, 50, max_l=12, seed=3)
        last = porto_pts_mod.groupby("traj_id").t.max()
        for q in qs.itertuples(index=False):
            assert q.t + 12 <= last[q.traj_id]

    def test_max_l_too_long_raises(self, porto_pts_mod):
        with pytest.raises(ValueError):
            sample_path_queries(porto_pts_mod, 5, max_l=10_000, seed=0)

    def test_units_are_km(self, porto_pts_mod):
        """A constant 100 m error summed over l=10 points is 1.0 (10^3 m)."""
        r = porto_pts_mod.copy()
        r["xrec"] = r.x + 100.0 / DEG_TO_M
        r["yrec"] = r.y
        qs = sample_path_queries(r, 10, max_l=10, seed=4)
        assert tpq_mae_km(r, qs, 10) == pytest.approx(1.0, rel=1e-6)


class TestExact:
    def test_perfect_summary_zero_radius(self, recon_exact):
        assert max_error_radius_deg(recon_exact) == 0.0

    def test_ratio_bounded(self, recon_exact):
        qs = sample_queries(recon_exact, 20, seed=6)
        ratio = visited_ratio(recon_exact, qs)
        assert 0.0 < ratio <= 1.0

    def test_bigger_radius_bigger_ratio(self, recon_exact):
        qs = sample_queries(recon_exact, 20, seed=7)
        small = visited_ratio(recon_exact, qs, radius_deg=1e-6)
        big = visited_ratio(recon_exact, qs, radius_deg=0.01)
        assert big >= small

    def test_radius_covers_true_match(self, porto_pts_mod):
        """With the default (max-error) radius, the query trajectory itself
        is always in the candidate set -> no false negatives."""
        s = run_ppq(porto_pts_mod, mode="S", use_cqc=False, eps1=0.001, eps_p=0.02)
        recon = s.coded[["traj_id", "t", "x", "y", "xrec", "yrec"]]
        rad = max_error_radius_deg(recon)
        by_t = dict(tuple(recon.groupby("t")))
        qs = sample_queries(porto_pts_mod, 30, seed=8)
        for q in qs.itertuples(index=False):
            frame = by_t[q.t]
            dx = frame.xrec.to_numpy() - q.x
            dy = frame.yrec.to_numpy() - q.y
            cand = frame.traj_id.to_numpy()[dx * dx + dy * dy <= rad * rad]
            assert q.traj_id in cand
