"""Tests for the AR(k) predictor (paper Eq. 1-2)."""
import numpy as np
import pytest

from repro.core.epq import EPQEngine
from repro.core.predictor import History, fit_coeffs, normal_equations, predict


class TestFitCoeffs:
    def test_recovers_constant_velocity(self):
        """Constant-velocity motion is exactly AR(2) with P = [2, -1]."""
        g = np.random.default_rng(0)
        pos0 = g.random((50, 2))
        vel = g.random((50, 2)) * 0.01
        p_t2 = pos0
        p_t1 = pos0 + vel
        cur = pos0 + 2 * vel
        hist = np.stack([p_t1, p_t2], axis=1)  # hist[:,0] = t-1
        coeffs = fit_coeffs(hist, cur)
        assert np.allclose(coeffs, [2.0, -1.0], atol=1e-5)

    def test_recovers_stationary(self):
        pos = np.random.default_rng(1).random((40, 2))
        hist = np.stack([pos, pos], axis=1)
        coeffs = fit_coeffs(hist, pos)
        pred = predict(hist, coeffs)
        assert np.allclose(pred, pos, atol=1e-6)

    def test_shape(self):
        hist = np.random.default_rng(2).random((10, 3, 2))
        cur = np.random.default_rng(3).random((10, 2))
        assert fit_coeffs(hist, cur).shape == (3,)

    def test_collinear_history_stable(self):
        """Identical lag columns must not blow up (ridge regularisation)."""
        pos = np.full((20, 2), 5.0)
        hist = np.stack([pos, pos], axis=1)
        coeffs = fit_coeffs(hist, pos)
        assert np.all(np.isfinite(coeffs))
        assert np.allclose(predict(hist, coeffs), pos, atol=1e-4)

    def test_prediction_reduces_error_on_smooth_motion(self):
        g = np.random.default_rng(4)
        v = g.normal(0, 0.001, (100, 2))
        p0 = g.random((100, 2))
        hist = np.stack([p0 + v, p0], axis=1)
        cur = p0 + 2 * v + g.normal(0, 1e-5, (100, 2))
        coeffs = fit_coeffs(hist, cur)
        pred_err = np.abs(cur - predict(hist, coeffs)).mean()
        naive_err = np.abs(cur - hist[:, 0]).mean()  # last-value predictor
        assert pred_err < naive_err


class TestNormalEquations:
    def test_each_group_as_if_fitted_alone(self):
        """Every group's system is, bit for bit, what one fit of that group
        alone builds: its x rows over its y rows as one design matrix A,
        and the ridge scaled by its own max|A|²."""
        g = np.random.default_rng(12)
        bounds = np.array([0, 1, 8, 11, 31, 33])
        n = bounds[-1]
        hist = np.array([116.3, 39.9]) + g.random((n, 2, 2))
        cur = hist[:, 0] + g.normal(0, 1e-3, (n, 2))
        ata, atb = normal_equations(hist, cur, bounds)
        assert ata.shape == (5, 2, 2) and atb.shape == (5, 2)
        for j, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            a = np.concatenate([hist[lo:hi, :, 0], hist[lo:hi, :, 1]], axis=0)
            b = np.concatenate([cur[lo:hi, 0], cur[lo:hi, 1]], axis=0)
            want = a.T @ a + 1e-10 * np.eye(2) * max(1.0, np.abs(a).max() ** 2)
            assert ata[j].tobytes() == want.tobytes()
            assert atb[j].tobytes() == (a.T @ b).tobytes()


class TestPredict:
    def test_linear_combination(self):
        hist = np.array([[[1.0, 2.0], [3.0, 4.0]]])  # (1, 2, 2)
        coeffs = np.array([0.5, 0.25])
        pred = predict(hist, coeffs)
        assert np.allclose(pred, [[0.5 * 1 + 0.25 * 3, 0.5 * 2 + 0.25 * 4]])

    def test_zero_coeffs_zero_pred(self):
        hist = np.random.default_rng(5).random((7, 2, 2))
        assert np.allclose(predict(hist, np.zeros(2)), 0.0)


class TestHistory:
    def test_cold_start(self):
        h = History(2, 1)
        assert not h.warm_ids(np.array([0])).any()
        assert not h.matrix(np.array([0])).any()

    def test_warm_after_k_pushes(self):
        h = History(2, 1)
        h.push(np.array([0]), np.array([[1.0, 1.0]]))
        assert not h.warm_ids(np.array([0])).any()
        h.push(np.array([0]), np.array([[2.0, 2.0]]))
        assert h.warm_ids(np.array([0])).all()

    def test_matrix_order_latest_first(self):
        h = History(3, 8)
        for v in (1.0, 2.0, 3.0):
            h.push(np.array([7]), np.array([[v, v]]))
        m = h.matrix(np.array([7]))
        assert m.shape == (1, 3, 2)
        assert m[0, 0, 0] == 3.0  # t-1
        assert m[0, 2, 0] == 1.0  # t-3

    def test_ring_buffer_overwrites(self):
        h = History(2, 2)
        for v in (1.0, 2.0, 3.0, 4.0):
            h.push(np.array([1]), np.array([[v, v]]))
        m = h.matrix(np.array([1]))
        assert m[0, 0, 0] == 4.0
        assert m[0, 1, 0] == 3.0

    def test_independent_trajectories(self):
        h = History(1, 3)
        h.push(np.array([1, 2]), np.array([[1.0, 1.0], [2.0, 2.0]]))
        assert h.matrix(np.array([1, 2]))[:, 0, 0].tolist() == [1.0, 2.0]

    def test_mixed_warm_mask(self):
        h = History(1, 3)
        h.push(np.array([1]), np.array([[1.0, 1.0]]))
        mask = h.warm_ids(np.array([1, 2]))
        assert mask.tolist() == [True, False]

    def test_id_inserted_between_known_ids_keeps_buffers(self):
        """A row first pushed after the rows on either side of it leaves
        their buffers as they were."""
        h = History(2, 3)
        h.push(np.array([0, 2]), np.array([[1.0, 1.0], [3.0, 3.0]]))
        h.push(np.array([0, 2]), np.array([[1.5, 1.5], [3.5, 3.5]]))
        h.push(np.array([1]), np.array([[2.0, 2.0]]))
        m = h.matrix(np.array([0, 2]))
        assert m[:, :, 0].tolist() == [[1.5, 1.0], [3.5, 3.0]]
        assert h.warm_ids(np.array([0, 1, 2])).tolist() == [True, False, True]
        assert h.matrix(np.array([1]))[0].tolist() == [[2.0, 2.0], [0.0, 0.0]]

    def test_matrix_of_fresh_history_is_zero(self):
        """Rows never pushed read zero, also before the first push."""
        m = History(2, 6).matrix(np.array([5, 0, 3]))
        assert m.shape == (3, 2, 2)
        assert not m.any()
        assert History(3, 6).matrix(np.array([], dtype=np.int64)).shape == (0, 3, 2)

    def test_matrix_mixes_known_and_unknown_ids(self):
        """Rows never pushed read zero beside pushed ones."""
        h = History(2, 11)
        h.push(np.array([5, 9]), np.array([[1.0, 2.0], [3.0, 4.0]]))
        h.push(np.array([9]), np.array([[5.0, 6.0]]))
        m = h.matrix(np.array([0, 9, 7, 5, 10]))
        assert m.tolist() == [
            [[0.0, 0.0], [0.0, 0.0]],
            [[5.0, 6.0], [3.0, 4.0]],
            [[0.0, 0.0], [0.0, 0.0]],
            [[1.0, 2.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0]],
        ]

    def test_matrix_rows_follow_id_order(self):
        h = History(1, 4)
        h.push(np.array([1, 2, 3]), np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
        m = h.matrix(np.array([3, 1, 2, 1]))
        assert m[:, 0, 0].tolist() == [3.0, 1.0, 2.0, 1.0]


class TestEPQStepHistory:
    def test_cold_ramping_warm_predictions(self):
        """One step over a cold, a ramping and a warm row predicts zero,
        the last reconstruction and the AR fit respectively."""
        eng = EPQEngine(0.5, 3, k=2, seed=0)
        warm, ramping, cold = 2, 0, 1
        eng.step(1, np.array([warm]), np.array([[1.0, 1.0]]), np.zeros(1, int))
        eng.step(2, np.array([warm, ramping]), np.array([[2.0, 2.0], [7.0, 8.0]]),
                 np.zeros(2, int))
        hist = eng.history.matrix(np.array([warm, ramping]))
        last_ramping = hist[1, 0].copy()
        rows = np.array([cold, ramping, warm])
        pts = np.array([[5.0, 5.0], [7.5, 8.5], [3.0, 3.0]])
        res = eng.step(3, rows, pts, np.zeros(3, int))
        assert res.pred[0].tolist() == [0.0, 0.0]
        assert np.array_equal(res.pred[1], last_ramping)
        coeffs = fit_coeffs(hist[:1], pts[2:])
        assert np.array_equal(res.pred[2], predict(hist[:1], coeffs)[0])
        assert np.array_equal(eng.coeffs[(0, 3)], coeffs)
