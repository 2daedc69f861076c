"""Tests for the REST baseline (reference-based compression)."""
import numpy as np
import pytest

from repro import DEG_TO_M
from repro.baselines.rest import MIN_MATCH, ReferenceSet, RESTResult, rest_compress


def _traj(seed=0, n=40, start=(0.0, 0.0)):
    g = np.random.default_rng(seed)
    steps = g.normal(0, 0.001, (n, 2))
    return np.asarray(start) + np.cumsum(steps, axis=0)


class TestReferenceSet:
    def test_grid_lookup_finds_points(self):
        tr = _traj(1)
        rs = ReferenceSet.build([tr], cell=0.01)
        cands = rs.candidates(tr[5])
        assert (0, 5) in cands

    def test_candidates_empty_far_away(self):
        rs = ReferenceSet.build([_traj(2)], cell=0.001)
        assert rs.candidates(np.array([100.0, 100.0])) == []

    def test_multiple_refs(self):
        rs = ReferenceSet.build([_traj(3), _traj(4, start=(1, 1))], cell=0.01)
        assert any(rid == 1 for rid, _ in rs.candidates(np.array([1.0, 1.0])))


class TestCompress:
    def test_identical_trajectory_fully_matched(self):
        tr = _traj(5)
        rs = ReferenceSet.build([tr], cell=0.01)
        res = rest_compress(tr, rs, eps=1e-9)
        assert res.n_matched == len(tr)
        assert res.n_raw == 0
        assert res.n_triples >= 1
        assert np.allclose(res.recon, tr)

    def test_no_reference_all_raw(self):
        tr = _traj(6)
        rs = ReferenceSet.build([_traj(7, start=(10, 10))], cell=0.01)
        res = rest_compress(tr, rs, eps=1e-6)
        assert res.n_raw == len(tr)
        assert res.compressed_bits >= res.raw_bits
        assert np.allclose(res.recon, tr)

    def test_noisy_copy_matches_within_eps(self):
        g = np.random.default_rng(8)
        tr = _traj(9)
        noisy = tr + g.normal(0, 10.0 / DEG_TO_M, tr.shape)
        rs = ReferenceSet.build([tr], cell=100.0 / DEG_TO_M)
        res = rest_compress(noisy, rs, eps=100.0 / DEG_TO_M)
        assert res.n_matched > len(tr) * 0.8
        err = np.sqrt(((res.recon - noisy) ** 2).sum(axis=1)) * DEG_TO_M
        assert err.max() <= 100.0 + 1e-6

    def test_short_matches_stay_raw(self):
        """Runs below MIN_MATCH are not worth a triple."""
        tr = _traj(10)
        ref = tr[: MIN_MATCH - 1]  # too short to ever give MIN_MATCH
        rs = ReferenceSet.build([ref], cell=0.01)
        res = rest_compress(tr, rs, eps=1e-9)
        assert res.n_triples == 0

    def test_compression_ratio_better_with_matches(self):
        tr = _traj(11, n=60)
        rs_good = ReferenceSet.build([tr], cell=0.01)
        rs_bad = ReferenceSet.build([_traj(12, start=(5, 5))], cell=0.01)
        good = rest_compress(tr, rs_good, eps=1e-9)
        bad = rest_compress(tr, rs_bad, eps=1e-9)
        assert good.raw_bits == bad.raw_bits
        assert good.compressed_bits < bad.compressed_bits

    def test_counts_add_up(self):
        tr = _traj(13)
        rs = ReferenceSet.build([tr[:20]], cell=0.01)
        res = rest_compress(tr, rs, eps=1e-9)
        assert res.n_matched + res.n_raw == res.n_points == len(tr)

    def test_bits_accounting(self):
        res = RESTResult(n_points=10, n_matched=8, n_raw=2, n_triples=2,
                         recon=np.zeros((10, 2)))
        assert res.compressed_bits == 2 * 96 + 2 * 128
        assert res.raw_bits == 10 * 128
