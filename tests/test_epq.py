"""Tests for the E-PQ engine (paper Algorithm 1)."""
import numpy as np
import pytest

from repro.core.epq import EPQEngine


def _smooth_batch(g, n, t, v=0.001):
    """n points moving with constant per-trajectory velocity."""
    base = g.random((n, 2))
    vel = g.normal(0, v, (n, 2))
    return base, vel


class TestEPQEngine:
    def test_error_bound_every_step(self):
        g = np.random.default_rng(0)
        eng = EPQEngine(0.01, k=2, seed=0)
        ids = np.arange(20)
        base, vel = _smooth_batch(g, 20, 0)
        for t in range(1, 15):
            pts = base + vel * t + g.normal(0, 1e-4, (20, 2))
            res = eng.step(t, ids, pts)
            err = np.sqrt(((pts - res.recon) ** 2).sum(axis=1))
            assert err.max() <= 0.01 + 1e-12

    def test_cold_start_prediction_zero(self):
        eng = EPQEngine(0.5, k=2, seed=0)
        res = eng.step(1, np.array([0]), np.array([[3.0, 4.0]]))
        assert np.allclose(res.pred, 0.0)

    def test_warm_prediction_nonzero(self):
        eng = EPQEngine(0.5, k=2, seed=0)
        ids = np.arange(10)
        g = np.random.default_rng(1)
        pts = g.random((10, 2))
        eng.step(1, ids, pts)
        eng.step(2, ids, pts + 0.01)
        res = eng.step(3, ids, pts + 0.02)
        assert np.abs(res.pred).max() > 0

    def test_prediction_shrinks_error_range(self):
        """After warm-up, prediction errors are much smaller than raw
        coordinates -- the core claim of predictive quantization."""
        g = np.random.default_rng(2)
        eng = EPQEngine(10.0, k=2, seed=0)  # loose bound: codebook tiny
        ids = np.arange(30)
        base = g.random((30, 2)) * 100
        vel = g.normal(0, 0.01, (30, 2))
        errs = []
        for t in range(1, 12):
            pts = base + vel * t
            res = eng.step(t, ids, pts)
            errs.append(np.abs(pts - res.pred).mean())
        assert errs[-1] < errs[0] / 10

    def test_no_predict_mode(self):
        eng = EPQEngine(0.5, k=2, seed=0, predict_enabled=False)
        ids = np.arange(5)
        pts = np.random.default_rng(3).random((5, 2))
        eng.step(1, ids, pts)
        eng.step(2, ids, pts)
        res = eng.step(3, ids, pts)
        assert np.allclose(res.pred, 0.0)
        assert np.allclose(res.coeffs, 0.0)

    def test_coeffs_recorded_per_t(self):
        """Every step returns the P[t] it fitted, for run_ppq to file."""
        eng = EPQEngine(0.5, k=2, seed=0)
        ids = np.arange(5)
        pts = np.random.default_rng(4).random((5, 2))
        got = [eng.step(t, ids, pts + 0.001 * t).coeffs for t in (1, 2, 3)]
        assert [c.shape for c in got] == [(2,)] * 3
        assert np.allclose(got[0], 0.0)  # no history yet: nothing to fit
        assert np.abs(got[2]).max() > 0

    def test_global_codebook_shared_across_time(self):
        g = np.random.default_rng(5)
        eng = EPQEngine(0.05, k=2, seed=0)
        ids = np.arange(10)
        pts = g.random((10, 2))
        eng.step(1, ids, pts)
        v1 = len(eng.quantizer)
        eng.step(2, ids, pts)  # same raw points, warm predictions differ
        assert len(eng.quantizer) >= v1

    def test_per_t_mode_records_codebooks(self):
        """Each per_t step returns its own fresh codebook, which its codes
        index; the global codebook stays empty."""
        eng = EPQEngine(0.1, k=2, seed=0, codebook_mode="per_t")
        ids = np.arange(8)
        g = np.random.default_rng(6)
        cbs = []
        for t in (1, 2):
            res = eng.step(t, ids, g.random((8, 2)))
            assert res.codes.max() < len(res.codebook_t)
            cbs.append(res.codebook_t)
        assert cbs[0] is not cbs[1]
        assert len(eng.quantizer) == 0

    def test_per_t_error_bound(self):
        eng = EPQEngine(0.05, k=2, seed=0, codebook_mode="per_t")
        ids = np.arange(15)
        g = np.random.default_rng(7)
        for t in range(1, 6):
            pts = g.random((15, 2))
            res = eng.step(t, ids, pts)
            err = np.sqrt(((pts - res.recon) ** 2).sum(axis=1))
            assert err.max() <= 0.05 + 1e-12

    def test_fixed_mode_budget(self):
        eng = EPQEngine(0.05, k=2, seed=0, codebook_mode="fixed")
        ids = np.arange(30)
        res = eng.step(1, ids, np.random.default_rng(8).random((30, 2)), budget=4)
        assert len(res.codebook_t) == 4

    def test_fixed_mode_budget_override(self):
        """Each step's budget sizes that step's codebook."""
        eng = EPQEngine(0.05, k=2, seed=0, codebook_mode="fixed")
        ids = np.arange(30)
        g = np.random.default_rng(9)
        for t, v in ((1, 4), (2, 7)):
            res = eng.step(t, ids, g.random((30, 2)), budget=v)
            assert len(res.codebook_t) == v

    def test_fixed_mode_without_budget_raises(self):
        eng = EPQEngine(0.05, codebook_mode="fixed")
        with pytest.raises(ValueError):
            eng.step(1, np.array([0]), np.array([[0.0, 0.0]]))

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            EPQEngine(0.1, codebook_mode="nope")

    def test_online_style_fixed_mode(self):
        """Without prediction (Q-trajectory) the budgeted codebook is the
        single-pass k-center one: every codeword is one of the batch's
        error vectors, here the raw points themselves."""
        eng = EPQEngine(0.05, seed=0, codebook_mode="fixed", predict_enabled=False)
        ids = np.arange(40)
        pts = np.random.default_rng(10).random((40, 2))
        res = eng.step(1, ids, pts, budget=8)
        assert len(res.codebook_t) == 8
        assert (res.codebook_t[:, None, :] == pts[None, :, :]).all(axis=2).any(axis=1).all()

    def test_variable_membership(self):
        """Trajectories may appear/disappear across timesteps."""
        eng = EPQEngine(0.1, k=2, seed=0)
        g = np.random.default_rng(11)
        eng.step(1, np.array([1, 2, 3]), g.random((3, 2)))
        eng.step(2, np.array([2, 3]), g.random((2, 2)))
        res = eng.step(3, np.array([1, 2, 4]), g.random((3, 2)))
        assert len(res.codes) == 3
