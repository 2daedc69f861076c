"""Tests for the E-PQ engine (paper Algorithm 1)."""
import numpy as np
import pytest

from repro.core.epq import EPQEngine, _split_budget
from repro.core.kmeans import farthest_first, kmeans
from repro.core.predictor import History, fit_coeffs
from repro.core.quantizer import IncrementalQuantizer, nearest


def _p0(rows):
    """Every row in partition 0."""
    return np.zeros(len(rows), dtype=np.int64)


def _smooth_batch(g, n, t, v=0.001):
    """n points moving with constant per-trajectory velocity."""
    base = g.random((n, 2))
    vel = g.normal(0, v, (n, 2))
    return base, vel


class TestEPQEngine:
    def test_error_bound_every_step(self):
        g = np.random.default_rng(0)
        eng = EPQEngine(0.01, 20, k=2, seed=0)
        rows = np.arange(20)
        base, vel = _smooth_batch(g, 20, 0)
        for t in range(1, 15):
            pts = base + vel * t + g.normal(0, 1e-4, (20, 2))
            res = eng.step(t, rows, pts, _p0(rows))
            err = np.sqrt(((pts - res.recon) ** 2).sum(axis=1))
            assert err.max() <= 0.01 + 1e-12

    def test_cold_start_prediction_zero(self):
        eng = EPQEngine(0.5, 1, k=2, seed=0)
        res = eng.step(1, np.array([0]), np.array([[3.0, 4.0]]), _p0([0]))
        assert np.allclose(res.pred, 0.0)

    def test_warm_prediction_nonzero(self):
        eng = EPQEngine(0.5, 10, k=2, seed=0)
        rows = np.arange(10)
        g = np.random.default_rng(1)
        pts = g.random((10, 2))
        eng.step(1, rows, pts, _p0(rows))
        eng.step(2, rows, pts + 0.01, _p0(rows))
        res = eng.step(3, rows, pts + 0.02, _p0(rows))
        assert np.abs(res.pred).max() > 0

    def test_prediction_shrinks_error_range(self):
        """After warm-up, prediction errors are much smaller than raw
        coordinates -- the core claim of predictive quantization."""
        g = np.random.default_rng(2)
        eng = EPQEngine(10.0, 30, k=2, seed=0)  # loose bound: codebook tiny
        rows = np.arange(30)
        base = g.random((30, 2)) * 100
        vel = g.normal(0, 0.01, (30, 2))
        errs = []
        for t in range(1, 12):
            pts = base + vel * t
            res = eng.step(t, rows, pts, _p0(rows))
            errs.append(np.abs(pts - res.pred).mean())
        assert errs[-1] < errs[0] / 10

    def test_no_predict_mode(self):
        eng = EPQEngine(0.5, 5, k=2, seed=0, predict_enabled=False)
        rows = np.arange(5)
        pts = np.random.default_rng(3).random((5, 2))
        eng.step(1, rows, pts, _p0(rows))
        eng.step(2, rows, pts, _p0(rows))
        res = eng.step(3, rows, pts, _p0(rows))
        assert np.allclose(res.pred, 0.0)
        assert np.allclose(eng.coeffs[(0, 3)], 0.0)

    def test_coeffs_recorded_per_t(self):
        """Every step files the P[t] it fitted under (pid, t)."""
        eng = EPQEngine(0.5, 5, k=2, seed=0)
        rows = np.arange(5)
        pts = np.random.default_rng(4).random((5, 2))
        for t in (1, 2, 3):
            eng.step(t, rows, pts + 0.001 * t, _p0(rows))
        assert list(eng.coeffs) == [(0, 1), (0, 2), (0, 3)]
        got = list(eng.coeffs.values())
        assert [c.shape for c in got] == [(2,)] * 3
        assert np.allclose(got[0], 0.0)  # no history yet: nothing to fit
        assert np.abs(got[2]).max() > 0

    def test_global_codebook_shared_across_time(self):
        g = np.random.default_rng(5)
        eng = EPQEngine(0.05, 10, k=2, seed=0)
        rows = np.arange(10)
        pts = g.random((10, 2))
        eng.step(1, rows, pts, _p0(rows))
        v1 = len(eng.quantizers[0])
        eng.step(2, rows, pts, _p0(rows))  # same raw points, warm predictions differ
        assert len(eng.quantizers[0]) >= v1

    def test_per_t_mode_records_codebooks(self):
        """Each per_t step files its own fresh codebook, which its codes
        index; no global codebook is made."""
        eng = EPQEngine(0.1, 8, k=2, seed=0, codebook_mode="per_t")
        rows = np.arange(8)
        g = np.random.default_rng(6)
        for t in (1, 2):
            res = eng.step(t, rows, g.random((8, 2)), _p0(rows))
            assert res.codes.max() < len(eng.codebooks_t[(0, t)])
        assert list(eng.codebooks_t) == [(0, 1), (0, 2)]
        assert eng.codebooks_t[(0, 1)] is not eng.codebooks_t[(0, 2)]
        assert eng.quantizers == {}

    def test_per_t_error_bound(self):
        eng = EPQEngine(0.05, 15, k=2, seed=0, codebook_mode="per_t")
        rows = np.arange(15)
        g = np.random.default_rng(7)
        for t in range(1, 6):
            pts = g.random((15, 2))
            res = eng.step(t, rows, pts, _p0(rows))
            err = np.sqrt(((pts - res.recon) ** 2).sum(axis=1))
            assert err.max() <= 0.05 + 1e-12

    def test_fixed_mode_budget(self):
        eng = EPQEngine(0.05, 30, k=2, seed=0, codebook_mode="fixed")
        rows = np.arange(30)
        eng.step(1, rows, np.random.default_rng(8).random((30, 2)), _p0(rows), budget=4)
        assert len(eng.codebooks_t[(0, 1)]) == 4

    def test_fixed_mode_budget_override(self):
        """Each step's budget sizes that step's codebook."""
        eng = EPQEngine(0.05, 30, k=2, seed=0, codebook_mode="fixed")
        rows = np.arange(30)
        g = np.random.default_rng(9)
        for t, v in ((1, 4), (2, 7)):
            eng.step(t, rows, g.random((30, 2)), _p0(rows), budget=v)
            assert len(eng.codebooks_t[(0, t)]) == v

    def test_fixed_mode_without_budget_raises(self):
        eng = EPQEngine(0.05, 1, codebook_mode="fixed")
        with pytest.raises(ValueError):
            eng.step(1, np.array([0]), np.array([[0.0, 0.0]]), _p0([0]))

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            EPQEngine(0.1, 1, codebook_mode="nope")

    def test_online_style_fixed_mode(self):
        """Without prediction (Q-trajectory) the budgeted codebook is the
        single-pass k-center one: every codeword is one of the batch's
        error vectors, here the raw points themselves."""
        eng = EPQEngine(0.05, 40, seed=0, codebook_mode="fixed", predict_enabled=False)
        rows = np.arange(40)
        pts = np.random.default_rng(10).random((40, 2))
        eng.step(1, rows, pts, _p0(rows), budget=8)
        cb = eng.codebooks_t[(0, 1)]
        assert len(cb) == 8
        assert (cb[:, None, :] == pts[None, :, :]).all(axis=2).any(axis=1).all()

    def test_variable_membership(self):
        """Trajectories may appear/disappear across timesteps."""
        eng = EPQEngine(0.1, 5, k=2, seed=0)
        g = np.random.default_rng(11)
        for t, rows in ((1, [1, 2, 3]), (2, [2, 3]), (3, [1, 2, 4])):
            res = eng.step(t, np.array(rows), g.random((len(rows), 2)), _p0(rows))
        assert len(res.codes) == 3


# ------------------------------------------------ one step over every partition
def _fit_one(hist, cur, ridge=1e-10):
    """One partition's P[t] fit, written out as a per-partition step made it:
    the ridged normal equations, solved alone, least squares if singular."""
    k = hist.shape[1]
    a = np.concatenate([hist[:, :, 0], hist[:, :, 1]], axis=0)
    b = np.concatenate([cur[:, 0], cur[:, 1]], axis=0)
    ata = a.T @ a + ridge * np.eye(k) * max(1.0, np.abs(a).max() ** 2)
    try:
        return np.linalg.solve(ata, a.T @ b)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(a, b, rcond=None)[0]


class _PerPartitionSteps:
    """Reference semantics of the multi-partition step: one single-partition
    E-PQ step per pid, in ascending pid order, on one shared ``History``.
    Partition ``pid`` seeds its codebooks from ``seed + 7919 * (pid + 1)``.
    It counts each row's pushes itself to tell ramping rows from cold ones."""

    def __init__(self, eps1, n, *, k, seed, predict_enabled, codebook_mode):
        self.eps1, self.k, self.seed = eps1, k, seed
        self.predict_enabled = predict_enabled
        self.codebook_mode = codebook_mode
        self.history = History(k, n)
        self.pushes = np.zeros(n, dtype=np.int64)
        self.quantizers = {}

    def step(self, t, rows_in, pts, pids, budget=None):
        n = len(rows_in)
        codes = np.empty(n, dtype=np.int64)
        recon, pred = np.empty((n, 2)), np.empty((n, 2))
        coeffs, codebooks_t = {}, {}
        uniq, counts = np.unique(pids, return_counts=True)
        shares = _split_budget(budget, uniq, counts)
        for pid in uniq.tolist():
            rows = np.flatnonzero(pids == pid)
            i, x = rows_in[rows], pts[rows]
            p, c = np.zeros((len(rows), 2)), np.zeros(self.k)
            if self.predict_enabled:
                warm = self.history.warm_ids(i)
                if warm.any():
                    hist = self.history.matrix(i[warm])
                    c = _fit_one(hist, x[warm])
                    p[warm] = np.einsum("nkd,k->nd", hist, c)
                cold = np.flatnonzero(~warm)
                ramp = cold[self.pushes[i[cold]] > 0]
                if len(ramp):
                    p[ramp] = self.history.matrix(i[ramp])[:, 0]
            e = x - p
            seed = self.seed + 7919 * (pid + 1)
            if self.codebook_mode == "global":
                q = self.quantizers.setdefault(pid, IncrementalQuantizer(self.eps1, seed=seed))
                cd = q.quantize(e)
                r = p + q.codebook[cd]
            elif self.codebook_mode == "per_t":
                q = IncrementalQuantizer(self.eps1, seed=seed + t)
                cd = q.quantize(e)
                r = p + q.codebook[cd]
                codebooks_t[pid] = q.codebook
            else:
                if self.predict_enabled:
                    cd, cb = kmeans(e, shares[pid], seed=seed + t)
                else:
                    cb = farthest_first(e, max(1, min(shares[pid], len(e))), seed + t)
                    cd, _ = nearest(cb, e)
                r = p + cb[cd]
                codebooks_t[pid] = cb
            self.history.push(i, r)
            self.pushes[i] += 1
            codes[rows], recon[rows], pred[rows], coeffs[pid] = cd, r, p, c
        return codes, recon, pred, coeffs, codebooks_t


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64).tolist()


N_ROWS = 40  # trajectory rows of the schedule below


def _schedule(seed=21, steps=9):
    """Timesteps of (rows, points, pids): trajectories join and leave, so
    some rows are cold (never pushed), some ramp up (1 of k = 2 pushes) and
    some are warm. The rows come in shuffled order. Partition 9 holds only
    trajectories that join at that step, so it has no warm rows. The first
    step runs on an empty history. Points are in degrees around Beijing, so
    the fit's ridge scale max|A|² differs per partition and is above 1."""
    g = np.random.default_rng(seed)
    base = np.array([116.3, 39.9]) + g.random((40, 2))
    vel = g.normal(0, 0.002, (40, 2))
    out = []
    for t in range(1, steps + 1):
        alive = np.flatnonzero(g.random(32) < 0.85)
        ids = np.r_[alive, 30 + t] if t >= 2 else alive
        pids = g.integers(0, 4, len(ids))
        pids[ids == 30 + t] = 9
        pts = base[ids % 40] + vel[ids % 40] * t + g.normal(0, 2e-4, (len(ids), 2))
        perm = g.permutation(len(ids))
        out.append((t, ids[perm], pts[perm], pids[perm]))
    return out


def _assert_same_steps(eng, ref, schedule, budget=None):
    for t, rows, pts, pids in schedule:
        res = eng.step(t, rows, pts, pids, budget=budget)
        codes, recon, pred, coeffs, codebooks_t = ref.step(t, rows, pts, pids, budget)
        assert res.codes.tolist() == codes.tolist()
        assert _bits(res.recon) == _bits(recon)
        assert _bits(res.pred) == _bits(pred)
        # the engine files this step's parts under (pid, t), pids ascending
        assert [p for p, s in eng.coeffs if s == t] == sorted(coeffs)
        assert {p: _bits(c) for (p, s), c in eng.coeffs.items() if s == t} == {
            p: _bits(c) for p, c in coeffs.items()
        }
        assert {p: _bits(c) for (p, s), c in eng.codebooks_t.items() if s == t} == {
            p: _bits(c) for p, c in codebooks_t.items()
        }
    assert {p: _bits(q.codebook) for p, q in eng.quantizers.items()} == {
        p: _bits(q.codebook) for p, q in ref.quantizers.items()
    }
    every = np.arange(N_ROWS)
    assert _bits(eng.history.matrix(every)) == _bits(ref.history.matrix(every))
    assert eng.history.warm_ids(every).tolist() == (ref.pushes >= ref.k).tolist()


MODES = [(m, p) for m in ("global", "per_t", "fixed") for p in (True, False)]


class TestMultiPartitionStep:
    """One step over several partitions gives, bit for bit, what one
    single-partition step per partition on a shared history gives."""

    @pytest.mark.parametrize("codebook_mode,predict_enabled", MODES)
    def test_equals_one_step_per_partition(self, codebook_mode, predict_enabled):
        opts = dict(k=2, seed=3, predict_enabled=predict_enabled,
                    codebook_mode=codebook_mode)
        budget = 11 if codebook_mode == "fixed" else None
        _assert_same_steps(EPQEngine(0.002, N_ROWS, **opts),
                           _PerPartitionSteps(0.002, N_ROWS, **opts), _schedule(), budget)

    def test_schedule_covers_cold_ramp_and_warm_rows(self):
        """The schedule above reaches every prediction case."""
        pushes = np.zeros(N_ROWS, dtype=np.int64)
        seen = set()
        for _, rows, _, pids in _schedule():
            counts = pushes[rows]
            seen |= {"cold" if c == 0 else "ramp" if c == 1 else "warm" for c in counts}
            assert (counts[pids == 9] == 0).all()
            pushes[rows] += 1
        assert seen == {"cold", "ramp", "warm"}

    def test_partition_without_warm_rows_has_zero_coefficients(self):
        eng = EPQEngine(0.002, N_ROWS, k=2, seed=3)
        for t, rows, pts, pids in _schedule():
            eng.step(t, rows, pts, pids)
            if t >= 2:
                assert eng.coeffs[(9, t)].tolist() == [0.0, 0.0]
            if t >= 3:
                assert np.abs(eng.coeffs[(0, t)]).max() > 0

    def test_first_step_on_empty_history(self):
        t, rows, pts, pids = _schedule()[0]
        eng = EPQEngine(0.002, N_ROWS, k=2, seed=3)
        res = eng.step(t, rows, pts, pids)
        assert _bits(res.pred) == _bits(np.zeros_like(pts))
        assert all(c.tolist() == [0.0, 0.0] for c in eng.coeffs.values())

    @pytest.mark.parametrize("codebook_mode", ["global", "per_t", "fixed"])
    def test_singular_stacked_solve_falls_back_per_partition(
        self, monkeypatch, codebook_mode
    ):
        """When the stacked solve raises ``LinAlgError``, each partition is
        fitted alone with ``fit_coeffs``: the same bits as before."""
        solve = np.linalg.solve
        stacked = []

        def singular_when_stacked(a, b):
            if np.ndim(a) == 3:
                stacked.append(len(a))
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular_when_stacked)
        opts = dict(k=2, seed=3, predict_enabled=True, codebook_mode=codebook_mode)
        budget = 11 if codebook_mode == "fixed" else None
        _assert_same_steps(EPQEngine(0.002, N_ROWS, **opts),
                           _PerPartitionSteps(0.002, N_ROWS, **opts), _schedule(), budget)
        assert len(stacked) == len(_schedule()) - 2  # every step with warm rows
        assert max(stacked) > 1

    def test_fallback_coefficients_are_fit_coeffs(self, monkeypatch):
        solve = np.linalg.solve

        def singular_when_stacked(a, b):
            if np.ndim(a) == 3:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        schedule = _schedule()
        ref = EPQEngine(0.002, N_ROWS, k=2, seed=3)
        for t, rows, pts, pids in schedule[:-1]:
            ref.step(t, rows, pts, pids)
        t, rows, pts, pids = schedule[-1]
        expect = {}
        for pid in np.unique(pids).tolist():
            sel = pids == pid
            warm = ref.history.warm_ids(rows[sel])
            if warm.any():
                hist = ref.history.matrix(rows[sel][warm])
                expect[pid] = fit_coeffs(hist, pts[sel][warm])
        monkeypatch.setattr(np.linalg, "solve", singular_when_stacked)
        ref.step(t, rows, pts, pids)
        assert len(expect) > 1
        for pid, c in expect.items():
            assert _bits(ref.coeffs[(pid, t)]) == _bits(c)


class TestMerge:
    """``EPQEngine.merge`` carries merged partitions' codebooks along."""

    def test_global_merge_absorbs_and_skips_a_source_without_quantizer(self):
        """Partition 3, split off in the same update, has coded nothing and
        no quantizer: its merge is skipped. Partition 1's codewords go after
        partition 0's, and its codes shift by partition 0's codebook size."""
        eng = EPQEngine(0.01, 12, k=2, seed=0)
        rows = np.arange(12)
        eng.step(1, rows, np.random.default_rng(12).random((12, 2)), rows % 2)
        cb0, cb1 = eng.codebooks[0], eng.codebooks[1]
        eng.merge([(3, 0), (1, 0)])
        assert list(eng.quantizers) == [0]
        assert _bits(eng.codebooks[0]) == _bits(np.concatenate([cb0, cb1]))
        assert eng.remap == {1: (0, len(cb0))}

    @pytest.mark.parametrize("codebook_mode", ["per_t", "fixed"])
    def test_per_step_codebooks_stay_as_they_are(self, codebook_mode):
        eng = EPQEngine(0.01, 12, k=2, seed=0, codebook_mode=codebook_mode)
        rows = np.arange(12)
        budget = 4 if codebook_mode == "fixed" else None
        eng.step(1, rows, np.random.default_rng(13).random((12, 2)), rows % 2, budget=budget)
        before = dict(eng.codebooks_t)
        eng.merge([(1, 0)])
        assert list(eng.codebooks_t) == [(0, 1), (1, 1)]
        assert all(eng.codebooks_t[key] is cb for key, cb in before.items())
        assert eng.remap == {} and eng.quantizers == {}
