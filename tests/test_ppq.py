"""Tests for run_ppq and the Summary object (paper Section 3.2)."""
import math

import numpy as np
import pandas as pd
import pytest

from repro import DEG_TO_M
from repro.core.ppq import Encoder, _apply_code_remap, run_ppq


class TestBounds:
    def test_ppqa_cqc_bound(self, ppqa_summary):
        """With CQC the final error obeys Lemma 3."""
        bound = (math.sqrt(2) / 2) * ppqa_summary.config["gs"] * DEG_TO_M
        assert ppqa_summary.errors_m().max() <= bound + 1e-6

    def test_ppqs_cqc_bound(self, ppqs_summary):
        bound = (math.sqrt(2) / 2) * ppqs_summary.config["gs"] * DEG_TO_M
        assert ppqs_summary.errors_m().max() <= bound + 1e-6

    def test_epq_eps1_bound(self, epq_summary):
        bound = epq_summary.config["eps1"] * DEG_TO_M
        assert epq_summary.errors_m().max() <= bound + 1e-6

    def test_basic_eps1_bound(self, porto_pts):
        s = run_ppq(porto_pts, mode="S", use_cqc=False, eps1=0.002, eps_p=0.02, seed=1)
        assert s.errors_m().max() <= 0.002 * DEG_TO_M + 1e-6

    def test_qtrajectory_bound(self, porto_pts):
        s = run_ppq(
            porto_pts, mode=None, predict=False, use_cqc=False, eps1=0.001, seed=1
        )
        assert s.errors_m().max() <= 0.001 * DEG_TO_M + 1e-6

    def test_cqc_improves_over_basic(self, porto_pts):
        basic = run_ppq(porto_pts, mode="A", use_cqc=False, eps1=0.001, eps_p=0.05)
        cqc = run_ppq(porto_pts, mode="A", use_cqc=True, eps1=0.001, eps_p=0.05)
        assert cqc.mae_m() < basic.mae_m()

    def test_prediction_improves_over_qtrajectory_codebook(self, porto_pts):
        """Same bound -> predictive codebook is smaller (the paper's
        compression story)."""
        epq = run_ppq(porto_pts, mode=None, use_cqc=False, eps1=0.001)
        qtr = run_ppq(porto_pts, mode=None, predict=False, use_cqc=False, eps1=0.001)
        assert epq.n_codewords() < qtr.n_codewords()


class TestCodedFrame:
    def test_one_row_per_point(self, ppqa_summary, porto_pts):
        assert len(ppqa_summary.coded) == len(porto_pts)

    @pytest.mark.parametrize(
        "col",
        ["traj_id", "t", "x", "y", "pid", "code", "xhat", "yhat", "xrec", "yrec", "cqc"],
    )
    def test_columns(self, ppqa_summary, col):
        assert col in ppqa_summary.coded.columns

    def test_cqc_codes_present_when_enabled(self, ppqa_summary):
        assert (ppqa_summary.coded.cqc >= 0).all()

    def test_cqc_codes_absent_when_disabled(self, epq_summary):
        assert (epq_summary.coded.cqc == -1).all()
        assert np.allclose(epq_summary.coded.xrec, epq_summary.coded.xhat)

    def test_codes_decode_via_codebooks(self, ppqa_summary):
        """Self-describing summary: xhat = prediction + codeword, so
        xhat - codeword must be finite and codes index into the pid's
        codebook."""
        for pid, grp in ppqa_summary.coded.groupby("pid"):
            cb = ppqa_summary.codebooks[pid]
            assert grp.code.max() < len(cb)

    def test_multiple_partitions_used(self, ppqs_summary):
        assert ppqs_summary.coded.pid.nunique() > 1

    def test_single_partition_for_epq(self, epq_summary):
        assert epq_summary.coded.pid.nunique() == 1


class TestReconstructionIsStoredFunction:
    def test_recon_equals_pred_plus_codeword_plus_cqc(self, ppqa_summary):
        """Rebuild xrec/yrec from the stored summary parts for a sample of
        rows and compare to the materialised columns."""
        s = ppqa_summary
        sample = s.coded.sample(n=min(200, len(s.coded)), random_state=0)
        for row in sample.itertuples(index=False):
            cw = s.codebooks[row.pid][row.code]
            d = s.cqc.decode(np.array([row.cqc]))[0]
            # xhat = pred + codeword  =>  pred = xhat - codeword
            assert np.isfinite(cw).all()
            assert row.xrec == pytest.approx(row.xhat + d[0], abs=1e-12)
            assert row.yrec == pytest.approx(row.yhat + d[1], abs=1e-12)


class TestModes:
    def test_bad_mode_raises(self, porto_pts):
        with pytest.raises(ValueError):
            run_ppq(porto_pts, mode="X")

    def test_per_t_codebooks(self, porto_pts):
        s = run_ppq(
            porto_pts, mode="A", use_cqc=False, eps1=0.001, eps_p=0.05,
            codebook_mode="per_t",
        )
        assert len(s.codebooks_t) > 0
        assert len(s.codebooks) == 0
        assert s.errors_m().max() <= 0.001 * DEG_TO_M + 1e-6

    @pytest.mark.parametrize("per_t", [False, True], ids=["int", "dict"])
    def test_fixed_budget_respected(self, porto_pts, per_t):
        """An int budget is codewords per timestamp (Table 4 passes
        2**bits); a {t: n} dict sets each timestamp's (Table 2)."""
        cap = 3 if per_t else 16
        budget = {int(t): cap for t in porto_pts.t.unique()} if per_t else cap
        s = run_ppq(
            porto_pts, mode=None, use_cqc=False, eps1=0.001,
            codebook_mode="fixed", budget=budget,
        )
        for (_pid, t), cb in s.codebooks_t.items():
            assert len(cb) <= cap

    @pytest.mark.parametrize("mode,eps_p", [("S", 0.02), ("A", 0.05)])
    def test_fixed_budget_split_adds_up(self, porto_pts, mode, eps_p):
        """Partitions split a timestamp's budget: wherever there are no more
        partitions than codewords and no fewer points, their codebooks hold
        exactly the budget between them (the paper's same number of
        codewords)."""
        s = run_ppq(
            porto_pts, mode=mode, use_cqc=False, eps1=0.001, eps_p=eps_p,
            codebook_mode="fixed", budget=16,
        )
        sizes = pd.Series({key: len(cb) for key, cb in s.codebooks_t.items()})
        per_t = sizes.groupby(level=1).sum()
        by_t = s.coded.groupby("t")
        q_t = by_t.pid.nunique()
        fits = (q_t <= 16) & (by_t.size() >= 16)
        assert (q_t[fits] > 1).any()
        assert (per_t[fits] == 16).all()

    def test_partition_stats_collected(self, ppqa_summary, porto_pts):
        assert len(ppqa_summary.partition_stats) == porto_pts.t.nunique()

    def test_partition_count_stabilizes(self, ppqs_summary):
        """Fig. 8's shape: q stops growing after the early timesteps."""
        qs = [st.q for st in ppqs_summary.partition_stats]
        early_growth = qs[len(qs) // 2] - qs[0]
        late_growth = qs[-1] - qs[len(qs) // 2]
        assert late_growth <= max(2, early_growth)


class TestStoredPartsKeyedByPartition:
    """Coefficients and per-t codebooks are filed under the (pid, t) of the
    partition step that fitted them."""

    @pytest.mark.parametrize("codebook_mode", ["global", "per_t", "fixed"])
    @pytest.mark.parametrize("mode", ["A", "S", None])
    def test_keys(self, porto_pts, mode, codebook_mode):
        s = run_ppq(
            porto_pts, mode=mode, use_cqc=False, eps1=0.001,
            eps_p=0.05 if mode == "A" else 0.02, codebook_mode=codebook_mode,
            budget=16 if codebook_mode == "fixed" else None,
        )
        coded_keys = set(zip(s.coded.pid.tolist(), s.coded.t.tolist()))
        if codebook_mode != "global":
            assert set(s.codebooks_t) == coded_keys
            assert set(s.coeffs) == coded_keys
        if mode is None:
            assert set(s.coeffs) == {(0, t) for t in s.coded.t.unique().tolist()}
        else:
            assert len(s.coeffs) == sum(st.q for st in s.partition_stats)


class TestMergeRemap:
    """In global codebook mode a merged-away partition's rows are rewritten
    to the merge target at the end of the build."""

    def test_chain_offsets_add(self):
        """After 3 -> 2 at offset 5 and then 2 -> 1 at offset 7, the rows of
        3 and 2 move to 1; pid 4 is left alone."""
        pid = np.array([1, 2, 3, 4, 2, 3])
        code = np.array([0, 1, 2, 3, 4, 5])
        _apply_code_remap(pid, code, {3: (2, 5), 2: (1, 7)})
        assert pid.tolist() == [1, 1, 1, 4, 1, 1]
        assert code.tolist() == [0, 1 + 7, 2 + 12, 3, 4 + 7, 5 + 12]

    @staticmethod
    def _remap_per_source(pid_arr, code_arr, remap):
        """The remap as one scan of all rows per merged-away pid."""
        for src in remap:
            dst, off = src, 0
            while dst in remap:
                dst, o = remap[dst]
                off += o
            m = pid_arr == src
            code_arr[m] += off
            pid_arr[m] = dst

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_one_scan_per_source(self, seed):
        """Random merge sequences, each into a lower live pid, so targets
        are often merged away later; some rows hold pids no merge touched,
        some sources hold no rows, and some pids lie past every source."""
        g = np.random.default_rng(seed)
        n_pids = int(g.integers(2, 60))
        live, remap = list(range(n_pids)), {}
        for _ in range(int(g.integers(0, len(live)))):
            src = live[int(g.integers(1, len(live)))]
            dst = live[int(g.integers(0, live.index(src)))]
            remap[src] = (dst, int(g.integers(0, 500)))
            live.remove(src)
        pid = g.integers(0, n_pids + int(g.integers(0, 5)), int(g.integers(0, 400)))
        code = g.integers(0, 1000, len(pid))
        want_pid, want_code = pid.copy(), code.copy()
        self._remap_per_source(want_pid, want_code, remap)
        _apply_code_remap(pid, code, remap)
        assert pid.tolist() == want_pid.tolist()
        assert code.tolist() == want_code.tolist()
        assert not set(pid.tolist()) & set(remap)

    def test_push_returns_the_pid_that_keys_its_coefficients(self, porto_pts):
        """``Encoder.push`` returns each row's pid from before the remap:
        the set of a step's pids is the set of its coefficient keys, and the
        rows whose pid the build rewrote are those of merged-away pids."""
        s = run_ppq(porto_pts, mode="A", use_cqc=False, eps1=0.001, eps_p=0.05)
        enc = Encoder(np.unique(porto_pts.traj_id), seed=0, **s.config)
        pushed = []
        for t, f in porto_pts.sort_values(["t", "traj_id"]).groupby("t"):
            pids = enc.push(int(t), f.traj_id.to_numpy(), f[["x", "y"]].to_numpy())[0]
            assert {(p, t) for p in pids.tolist()} == {
                key for key in enc.engine.coeffs if key[1] == t
            }
            pushed.append(pids)
        pushed = np.concatenate(pushed)
        moved = pushed != s.coded.pid.to_numpy()
        assert moved.any()
        assert set(pushed[moved].tolist()) == set(enc.engine.remap) & set(pushed.tolist())


def _encoder(mode, codebook_mode="global", traj_ids=(1, 3, 8)):
    """An encoder over ``traj_ids``, CQC on."""
    return Encoder(np.array(traj_ids), mode=mode, predict=True, use_cqc=True,
                   eps1=0.001, eps_p=0.02, gs=0.00045, k=2, seed=0,
                   codebook_mode=codebook_mode, budget=None)


def _step_xy(t, ids):
    """Points of ``ids`` at ``t``, each moving on its own line."""
    ids = np.asarray(ids, dtype=np.float64)
    return np.stack([0.01 * ids + 0.003 * t, 0.02 * ids - 0.001 * t * ids], axis=1)


def _warm_encoders(mode):
    """Two encoders after the same three pushes of every trajectory."""
    a, b = _encoder(mode), _encoder(mode)
    for t in (0, 1, 2):
        for enc in (a, b):
            enc.push(t, [1, 3, 8], _step_xy(t, [1, 3, 8]))
    return a, b


def _same_encoders(a, b):
    """Both encoders code one more step alike and hold the same stored parts."""
    ids = np.array([1, 3, 8])
    t = a.t + 1
    for x, y in zip(a.push(t, ids, _step_xy(t, ids)), b.push(t, ids, _step_xy(t, ids))):
        assert np.array_equal(x, y)
    for name in ("coeffs", "codebooks", "codebooks_t"):
        got, want = getattr(a.engine, name), getattr(b.engine, name)
        assert got.keys() == want.keys()
        assert all(np.array_equal(got[key], want[key]) for key in got)
    assert len(a.stats) == len(b.stats)


class TestEncoderPush:
    """``Encoder.push`` maps trajectory ids to state rows. It rejects a push
    it cannot map, or one out of time order, with a ValueError naming the
    case, and changes no state."""

    @pytest.mark.parametrize("mode", ["A", "S", None])
    @pytest.mark.parametrize("ids,bad", [([1, 9], 9), ([2, 3], 2), ([0], 0)])
    def test_id_not_in_traj_ids_rejected(self, mode, ids, bad):
        a, b = _warm_encoders(mode)
        with pytest.raises(ValueError, match=f"trajectory id {bad} is not in traj_ids"):
            a.push(3, np.array(ids), _step_xy(3, ids))
        _same_encoders(a, b)

    @pytest.mark.parametrize("mode", ["A", "S", None])
    def test_duplicate_id_rejected(self, mode):
        a, b = _warm_encoders(mode)
        with pytest.raises(ValueError, match="trajectory id 3 pushed twice"):
            a.push(3, np.array([3, 1, 3]), _step_xy(3, [3, 1, 3]))
        _same_encoders(a, b)

    @pytest.mark.parametrize("mode", ["A", "S", None])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_xy_rejected(self, mode, bad):
        """Before the check a NaN x raised ``IndexError`` in CQC coding after
        the partitioner, the history and ``t`` had moved on, and every later
        push raised it again."""
        a, b = _warm_encoders(mode)
        xy = _step_xy(3, [1, 3, 8])
        xy[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite x/y for 1 points at t=3"):
            a.push(3, np.array([1, 3, 8]), xy)
        _same_encoders(a, b)

    @pytest.mark.parametrize("mode", ["A", "S", None])
    @pytest.mark.parametrize(
        "ids,xy",
        [
            ([1], _step_xy(3, [1, 3, 8])),  # was coded: 1 pid, 3 reconstructions
            ([1, 3, 8], _step_xy(3, [1, 3])),
            ([1, 3, 8], np.ones((3, 3))),
            ([1, 3, 8], np.ones(3)),
            ([1, 3], np.ones(2)),
            ([1], np.float64(0.5)),
            ([1, 3, 8], _step_xy(3, [1, 3, 8]).T),
        ],
    )
    def test_xy_not_one_row_per_id_rejected(self, mode, ids, xy):
        a, b = _warm_encoders(mode)
        with pytest.raises(ValueError, match="x/y at t=3 do not give one position per id"):
            a.push(3, np.array(ids), xy)
        _same_encoders(a, b)

    @pytest.mark.parametrize("mode", ["A", "S", None])
    def test_empty_step_rejected(self, mode):
        a, b = _warm_encoders(mode)
        with pytest.raises(ValueError, match="empty timestep at t=3"):
            a.push(3, np.zeros(0, dtype=np.int64), np.zeros((0, 2)))
        _same_encoders(a, b)

    @pytest.mark.parametrize("mode", ["A", "S", None])
    def test_whole_float_ids_accepted(self, mode):
        a, b = _warm_encoders(mode)
        ids = np.array([1, 3, 8])
        for x, y in zip(a.push(3, ids.astype(np.float64), _step_xy(3, ids)),
                        b.push(3, ids, _step_xy(3, ids))):
            assert np.array_equal(x, y)
        with pytest.raises(ValueError, match="non-integer ids at t=4 in 1 rows"):
            a.push(4, np.array([1.0, 3.5]), _step_xy(4, [1, 3]))
        _same_encoders(a, b)

    @pytest.mark.parametrize("codebook_mode", ["global", "per_t"])
    @pytest.mark.parametrize("t", [5, 4])
    def test_t_not_after_previous_push_rejected(self, codebook_mode, t):
        a, b = _encoder("S", codebook_mode), _encoder("S", codebook_mode)
        for enc in (a, b):
            enc.push(5, [1, 3], _step_xy(5, [1, 3]))
        stored = dict(a.engine.codebooks_t)
        with pytest.raises(ValueError, match=f"t={t} is not after the previous push's t=5"):
            a.push(t, np.array([1, 3, 8]), _step_xy(t, [1, 3, 8]))
        assert a.engine.codebooks_t.keys() == stored.keys()
        assert all(a.engine.codebooks_t[key] is cb for key, cb in stored.items())
        _same_encoders(a, b)

    @pytest.mark.parametrize("traj_ids", [[3, 1, 8], [1, 3, 3]])
    def test_unsorted_traj_ids_rejected(self, traj_ids):
        with pytest.raises(ValueError, match="traj_ids must be sorted and distinct"):
            _encoder("S", traj_ids=traj_ids)

    @pytest.mark.parametrize("mode,eps_p", [("A", 0.05), ("S", 0.02), (None, 0.05)])
    def test_sparse_large_ids_code_alike(self, porto_pts, mode, eps_p):
        """Ids relabelled by a strictly increasing map to sparse large values
        give the same partitions, codes and reconstructions."""
        relabelled = porto_pts.assign(traj_id=porto_pts.traj_id.astype(np.int64) * 2**33 + 5)
        a = run_ppq(porto_pts, mode=mode, eps_p=eps_p)
        b = run_ppq(relabelled, mode=mode, eps_p=eps_p)
        assert np.array_equal(b.coded.traj_id, a.coded.traj_id * 2**33 + 5)
        cols = ["t", "pid", "code", "cqc", "xhat", "yhat", "xrec", "yrec"]
        pd.testing.assert_frame_equal(b.coded[cols], a.coded[cols], check_exact=True)


class TestInputValidation:
    """run_ppq rejects, with a ValueError naming the case, inputs it would
    otherwise fail on deep inside the build or mis-handle silently."""

    def test_empty_frame_rejected(self, porto_pts):
        with pytest.raises(ValueError, match="empty input"):
            run_ppq(porto_pts.iloc[:0])

    def test_non_finite_xy_rejected(self, porto_pts):
        pts = porto_pts.copy()
        pts.loc[pts.index[5], "x"] = np.nan
        with pytest.raises(ValueError, match="non-finite x/y in 1 rows"):
            run_ppq(pts, mode="S", eps_p=0.02)

    def test_duplicate_rows_rejected(self, porto_pts):
        pts = pd.concat([porto_pts, porto_pts.iloc[:2]], ignore_index=True)
        with pytest.raises(ValueError, match=r"duplicate \(traj_id, t\) in 2 rows"):
            run_ppq(pts, mode="S", eps_p=0.02)

    def test_budget_without_fixed_rejected(self, porto_pts):
        with pytest.raises(ValueError, match="budget is only used with codebook_mode='fixed'"):
            run_ppq(porto_pts, mode=None, budget=16)

    def test_fixed_without_budget_rejected(self, porto_pts):
        with pytest.raises(ValueError, match="codebook_mode='fixed' needs a budget"):
            run_ppq(porto_pts, mode=None, codebook_mode="fixed")

    @pytest.mark.parametrize(
        "opts,msg",
        [
            (dict(eps1=-0.001), "eps1 must be finite and >= 0"),
            (dict(eps1=np.nan), "eps1 must be finite and >= 0"),
            (dict(gs=-0.00045), "gs must be finite and > 0 with CQC on"),
            (dict(gs=0.0), "gs must be finite and > 0 with CQC on"),
            (dict(gs=np.inf), "gs must be finite and > 0 with CQC on"),
            (dict(eps1=0.0), "gs must be finite and > 0 with CQC on"),  # gs = 0.45 eps1
            (dict(eps_p=-1.0), "eps_p must be finite and >= 0"),
            (dict(eps_p=np.nan), "eps_p must be finite and >= 0"),
            (dict(k=0), "k must be an int >= 1"),
            (dict(k=2.0), "k must be an int >= 1"),
            (dict(k=True), "k must be an int >= 1"),
        ],
        ids=["eps1-negative", "eps1-nan", "gs-negative", "gs-zero", "gs-inf",
             "gs-default-zero", "eps_p-negative", "eps_p-nan", "k-zero", "k-float",
             "k-bool"],
    )
    def test_bad_build_parameter_rejected(self, porto_pts, opts, msg):
        """gs < 0 used to build and break Lemma 3, gs = 0 to raise
        ZeroDivisionError, eps_p < 0 to give every trajectory a partition of
        its own, and k = 0 to raise IndexError."""
        with pytest.raises(ValueError, match=msg):
            run_ppq(porto_pts, **{"mode": "S", "eps_p": 0.02, **opts})

    def test_gs_unchecked_without_cqc(self, porto_pts):
        s = run_ppq(porto_pts, mode=None, use_cqc=False, gs=-1.0)
        assert s.cqc is None

    @pytest.mark.parametrize("budget", [0, -3, 2.5, True, np.float64(4.0), "4"])
    def test_bad_fixed_budget_rejected(self, porto_pts, budget):
        """budget 0 and -3 used to build with one codeword per partition and
        step, and 2.5 to raise TypeError from a slice."""
        with pytest.raises(ValueError, match="budget must be an int >= 1 or a"):
            run_ppq(porto_pts, mode=None, codebook_mode="fixed", budget=budget)

    def test_budget_dict_missing_a_t_rejected(self, porto_pts):
        """A dict without the second step's t used to fail at that step,
        with "fixed mode needs a codeword budget"."""
        ts = sorted(porto_pts.t.unique().tolist())
        with pytest.raises(
            ValueError, match=f"budget has no int >= 1 for {len(ts) - 1} t, first t={ts[1]}"
        ):
            run_ppq(porto_pts, mode=None, codebook_mode="fixed", budget={ts[0]: 4})

    @pytest.mark.parametrize("bad", [0, 2.5, None])
    def test_budget_dict_bad_count_rejected(self, porto_pts, bad):
        ts = sorted(porto_pts.t.unique().tolist())
        budget = {t: 4 for t in ts} | {ts[-1]: bad}
        with pytest.raises(ValueError, match=f"budget has no int >= 1 for 1 t, first t={ts[-1]}"):
            run_ppq(porto_pts, mode=None, codebook_mode="fixed", budget=budget)

    def test_numpy_int_budget_accepted(self, porto_pts):
        ts = porto_pts.t.unique().tolist()
        want = run_ppq(porto_pts, mode=None, codebook_mode="fixed", budget=4).coded
        for budget in (np.int64(4), {t: np.int32(4) for t in ts}):
            got = run_ppq(porto_pts, mode=None, codebook_mode="fixed", budget=budget).coded
            pd.testing.assert_frame_equal(got, want, check_exact=True)

    def test_nan_t_rejected(self, porto_pts):
        """NaN timestamps on three trajectories used to be dropped silently."""
        pts = porto_pts.astype({"t": np.float64})
        rows = pts.drop_duplicates("traj_id").index[:3]
        pts.loc[rows, "t"] = np.nan
        with pytest.raises(ValueError, match="non-finite t in 3 rows"):
            run_ppq(pts, mode="S", eps_p=0.02)

    def test_infinite_t_rejected(self, porto_pts):
        pts = porto_pts.astype({"t": np.float64})
        pts.loc[pts.index[0], "t"] = np.inf
        with pytest.raises(ValueError, match="non-finite t in 1 rows"):
            run_ppq(pts, mode=None)

    def test_fractional_t_rejected(self, porto_pts):
        """t = 1.5 used to be truncated onto t = 1's coefficient key."""
        pts = porto_pts.astype({"t": np.float64})
        pts.loc[pts.index[0], "t"] = 1.5
        with pytest.raises(ValueError, match="non-integer t in 1 rows"):
            run_ppq(pts, mode=None)

    @pytest.mark.parametrize(
        "bad,case",
        [(0.5, "non-integer"), (np.nan, "non-finite"), (np.inf, "non-finite")],
    )
    def test_bad_traj_id_rejected(self, porto_pts, bad, case):
        pts = porto_pts.astype({"traj_id": np.float64})
        pts.loc[pts.index[:2], "traj_id"] = bad
        with pytest.raises(ValueError, match=f"{case} traj_id in 2 rows"):
            run_ppq(pts, mode=None)

    def test_non_numeric_t_rejected(self, porto_pts):
        pts = porto_pts.astype({"t": str})
        with pytest.raises(ValueError, match="non-integer t: dtype object"):
            run_ppq(pts, mode=None)

    def test_integral_float_keys_accepted(self, porto_pts):
        """Whole-number float t / traj_id build exactly what ints build."""
        pts = porto_pts.astype({"t": np.float64, "traj_id": np.float64})
        got = run_ppq(pts, mode="S", eps_p=0.02).coded
        want = run_ppq(porto_pts, mode="S", eps_p=0.02).coded
        pd.testing.assert_frame_equal(got, want, check_exact=True)


class TestSizeAccounting:
    def test_summary_bits_positive(self, ppqa_summary):
        assert ppqa_summary.summary_bits() > 0

    def test_cqc_costs_bits(self, porto_pts):
        basic = run_ppq(porto_pts, mode="S", use_cqc=False, eps1=0.001, eps_p=0.02)
        cqc = run_ppq(porto_pts, mode="S", use_cqc=True, eps1=0.001, eps_p=0.02)
        # identical quantization, CQC adds code bits
        assert cqc.summary_bits() > basic.summary_bits()

    def test_looser_bound_fewer_codewords(self, porto_pts):
        tight = run_ppq(porto_pts, mode=None, use_cqc=False, eps1=0.0005)
        loose = run_ppq(porto_pts, mode=None, use_cqc=False, eps1=0.004)
        assert loose.n_codewords() < tight.n_codewords()


class TestPathAccess:
    def test_path_returns_window(self, ppqa_summary, porto_pts):
        tid = int(porto_pts.traj_id.iloc[0])
        p = ppqa_summary.path(tid, 1, 5)
        assert len(p) == 6  # t in [1, 6]
        assert "xrec" in p.columns

    def test_path_missing_traj_empty(self, ppqa_summary, porto_pts):
        """An unknown trajectory gives an empty path with the schema of a
        found one: the same columns and dtypes, and a ``t`` index."""
        found = ppqa_summary.path(int(porto_pts.traj_id.iloc[0]), 1, 5)
        empty = ppqa_summary.path(10**9, 1, 5)
        assert len(empty) == 0
        assert list(empty.columns) == list(found.columns)
        assert len(found.columns) == 10
        assert empty.dtypes.equals(found.dtypes)
        assert empty.index.name == found.index.name == "t"
        assert empty.index.dtype == found.index.dtype

    def test_path_whole_number_float_id(self, ppqa_summary, porto_pts):
        tid = int(porto_pts.traj_id.iloc[0])
        assert ppqa_summary.path(float(tid), 1, 5).equals(ppqa_summary.path(tid, 1, 5))

    def test_path_rejects_nan_id(self, ppqa_summary):
        with pytest.raises(ValueError, match="non-finite traj_id"):
            ppqa_summary.path(float("nan"), 1, 5)

    def test_path_rejects_inf_id(self, ppqa_summary):
        with pytest.raises(ValueError, match="non-finite traj_id"):
            ppqa_summary.path(np.float64("inf"), 1, 5)

    def test_path_rejects_fractional_id(self, ppqa_summary, porto_pts):
        # 1.5 would otherwise read trajectory 1's path
        assert len(ppqa_summary.path(1, 1, 5)) > 0
        with pytest.raises(ValueError, match="non-integer traj_id"):
            ppqa_summary.path(1.5, 1, 5)

    def test_path_rejects_non_numeric_id(self, ppqa_summary):
        for tid in ("1", None, True):
            with pytest.raises(ValueError, match="non-integer traj_id"):
                ppqa_summary.path(tid, 1, 5)

    def test_build_seconds_recorded(self, ppqa_summary):
        assert ppqa_summary.build_seconds > 0
