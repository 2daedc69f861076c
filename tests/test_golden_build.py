"""Golden outputs of the PPQ build: a performance change to the build must
leave every code it emits, and the summary's size, exactly as they are.

``GOLDEN`` digests are sha256 over the int64 ``(traj_id, t, pid, code,
cqc)`` columns of the coded frame (row order as built), recorded for PPQ-A
and PPQ-S (global codebook, CQC on) on both QUICK-scale datasets.

``GOLDEN_FRAME`` widens this to the whole frame and to every codebook
mode: per variant it records the int digest above, a digest of the float
columns ``x y xhat yhat xrec yrec`` together with the column names, dtypes
and index, ``summary_bits()`` and ``n_codewords()``.
"""
import hashlib

import numpy as np
import pandas as pd
import pytest

from repro.core.ppq import run_ppq
from repro.harness.config import QUICK

GOLDEN = {
    ("porto", "A"): (
        "82ad950938f67b466e21baca61d289e0c03c04f8369ac36ac03caea4befd58e4", 47144, 133
    ),
    ("porto", "S"): (
        "bf03620caa36363ddcee5454ff366e86713bab167e7754efe9b0fca1749314c9", 52188, 121
    ),
    ("geolife", "A"): (
        "53af1fe31a8ac2d0eb88ad0efd2a7e410a050814ff473fca8bbfa01e5a760f93", 40682, 93
    ),
    ("geolife", "S"): (
        "3094255c421e7186c0c1616004a4696227cb9c332f4c6a66f80c42f61486e087", 50307, 92
    ),
}


@pytest.mark.parametrize("dataset,mode", sorted(GOLDEN))
def test_build_matches_golden(dataset, mode):
    ds = QUICK.dataset(dataset)
    s = run_ppq(
        ds.load(),
        mode=mode,
        use_cqc=True,
        eps1=QUICK.eps1,
        eps_p=ds.eps_p_auto if mode == "A" else ds.eps_p_spatial,
        gs=QUICK.gs,
        seed=QUICK.seed,
        codebook_mode="global",
    )
    cols = s.coded[["traj_id", "t", "pid", "code", "cqc"]].to_numpy(np.int64)
    digest = hashlib.sha256(np.ascontiguousarray(cols).tobytes()).hexdigest()
    assert (digest, s.summary_bits(), s.n_codewords()) == GOLDEN[(dataset, mode)]


INT_COLS = ["traj_id", "t", "pid", "code", "cqc"]
FLOAT_COLS = ["x", "y", "xhat", "yhat", "xrec", "yrec"]


def _dict_budget(pts: pd.DataFrame) -> dict[int, int]:
    """A different codeword budget per timestamp, as Table 2 passes."""
    return {int(t): 4 + (int(t) * 7) % 29 for t in np.unique(pts.t)}


# variant -> run_ppq options (``budget="dict"`` stands for ``_dict_budget``)
VARIANTS = {
    "A-global": dict(mode="A"),
    "S-global": dict(mode="S"),
    "A-per_t": dict(mode="A", codebook_mode="per_t"),
    "S-fixed-int": dict(mode="S", use_cqc=False, codebook_mode="fixed", budget=16),
    "A-fixed-dict": dict(mode="A", codebook_mode="fixed", budget="dict"),
    "E-PQ": dict(mode=None, use_cqc=False),
    "Q-trajectory": dict(mode=None, predict=False, use_cqc=False),
    "Q-trajectory-fixed": dict(
        mode=None, predict=False, use_cqc=False, codebook_mode="fixed", budget=8
    ),
}

GOLDEN_FRAME = {
    ("porto", "A-fixed-dict"): (
        "8755232500d72eb4cc4d67daafc467df23cb6eba5420818efa9ebee4606e6170",
        "7ecbb370675545871c0fc1767ecf3e8ba29edec34b5e90a13ba05067a125f0ef",
        87917,
        724,
    ),
    ("porto", "A-global"): (
        "82ad950938f67b466e21baca61d289e0c03c04f8369ac36ac03caea4befd58e4",
        "3f310c043bb5669fe691296354624f608389adedc93a17fa59302ec101ecec87",
        47144,
        133,
    ),
    ("porto", "A-per_t"): (
        "34fd323c47a001fc0253b4f0eef4501913db6b7a0214bc63ad59746a53b04809",
        "669cf61458d7f3f094ee2c972a5ecc11dd76d1919f81cb0707acbf01f1209de0",
        66367,
        418,
    ),
    ("porto", "E-PQ"): (
        "1fd428763c4a9dcdbdc61fa767f03a2575b7ef75dc829a40089b5d1698a47592",
        "c755d99e7675d2b4e0760fde73aa908ce6f8e2228344e6e5aa7a394fac0c7db8",
        23488,
        66,
    ),
    ("porto", "Q-trajectory"): (
        "8c400c08ce9a14093fc19f9b563ec782ea6249d95e205974b7f14eb0fea299fc",
        "e667ee7c1a8ea0ac954df3dcb5770a83fe048a858b178e4b6d5a9a0ca008c3e6",
        67584,
        656,
    ),
    ("porto", "Q-trajectory-fixed"): (
        "b65b276a72ac24b07aa2ace846f3ad63cdc1ea880b8868152f48adab611e49b0",
        "d29428ca4d80926a487ba53361bd5f8197f814403ce489bf2c04eb9e54130a42",
        31296,
        320,
    ),
    ("porto", "S-fixed-int"): (
        "dd62240322a8dc2cf4bd59168c1709ea169346141ce141a8edd2c28a13951701",
        "288e8c7c0b6f6151e85c003b493e79598239b53f2b90e282feec8157866f113f",
        69082,
        680,
    ),
    ("porto", "S-global"): (
        "bf03620caa36363ddcee5454ff366e86713bab167e7754efe9b0fca1749314c9",
        "ad6e8f3241562643259bf87cb8d73aa7062393caf8520596e050719b9492650d",
        52188,
        121,
    ),
    ("geolife", "A-fixed-dict"): (
        "47e952deade1d6856c746feabc58f4d7d59ff6bee3748c28eb7ef2b27f752c5d",
        "05c09c67af90539def5513607451e57f68dce575c481ff4a0dbf60ca7b85f90b",
        102031,
        1094,
    ),
    ("geolife", "A-global"): (
        "53af1fe31a8ac2d0eb88ad0efd2a7e410a050814ff473fca8bbfa01e5a760f93",
        "76fbb572f25e8b61abb8123688bee74582af8ee6943d845282ce396253d0ef05",
        40682,
        93,
    ),
    ("geolife", "A-per_t"): (
        "25aafcb692a65f12cf2a8c32b2efa20a67916760f41d3cb7ce0c5bcdd4870b25",
        "4946290bd0a4ba479362b98b6e42c3dc370c186acfea16f2cc36fd23056e92e7",
        60594,
        478,
    ),
    ("geolife", "E-PQ"): (
        "c810837201b08aee952c4f28585f70a4788962e41ca6b740412a315c9b0a9c47",
        "47bb9753ed9ca62d5d5ac77a259052a7dfbb3722d889c1c8ee05fe1ef65ac4e1",
        17570,
        48,
    ),
    ("geolife", "Q-trajectory"): (
        "0c4209015714dcb0254950645c20f588b4beba19ca73fd1be438ea366ed71a19",
        "26597480b50ba399b1907e3af862bd9b91b591f8eca928bf7d9244f46b125356",
        50163,
        490,
    ),
    ("geolife", "Q-trajectory-fixed"): (
        "48bed6c8875a76dce417866b7c578e7b4a41b6907cf181800290ef8774de53e4",
        "0c730b4514c22203b6d52543850f4325f6f6fe654a5fe4e8e9d18b67150e733c",
        48581,
        600,
    ),
    ("geolife", "S-fixed-int"): (
        "093874cd87c8fe9317136eb272a14740278e0b07986f149af522773ec8f9e094",
        "af9eaa1d3f4e42bcd5cc4d20f3fa79c1b280ba7eb1d27f7d5941a8bbc775396f",
        99108,
        1060,
    ),
    ("geolife", "S-global"): (
        "3094255c421e7186c0c1616004a4696227cb9c332f4c6a66f80c42f61486e087",
        "11dafc3ba7c6823f35c45e6aae3ef9d6af919fc498be7c1958ad14d8724ebf74",
        50307,
        92,
    ),
}


def _frame_digests(coded: pd.DataFrame) -> tuple[str, str]:
    ints = np.ascontiguousarray(coded[INT_COLS].to_numpy(np.int64))
    h = hashlib.sha256()
    h.update(repr([(c, str(coded[c].dtype)) for c in coded.columns]).encode())
    idx = coded.index
    if isinstance(idx, pd.RangeIndex):
        h.update(repr(("RangeIndex", idx.start, idx.stop, idx.step)).encode())
    else:
        h.update(repr((type(idx).__name__, idx.tolist())).encode())
    h.update(np.ascontiguousarray(coded[FLOAT_COLS].to_numpy(np.float64)).tobytes())
    return hashlib.sha256(ints.tobytes()).hexdigest(), h.hexdigest()


def _build(dataset: str, variant: str):
    ds = QUICK.dataset(dataset)
    pts = ds.load()
    opts = dict(VARIANTS[variant])
    if opts.get("budget") == "dict":
        opts["budget"] = _dict_budget(pts)
    return run_ppq(
        pts,
        eps1=QUICK.eps1,
        eps_p=ds.eps_p_auto if opts["mode"] == "A" else ds.eps_p_spatial,
        gs=QUICK.gs,
        seed=QUICK.seed,
        **opts,
    )


@pytest.mark.parametrize("dataset", ["porto", "geolife"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_frame_matches_golden(dataset, variant):
    s = _build(dataset, variant)
    got = (*_frame_digests(s.coded), s.summary_bits(), s.n_codewords())
    assert got == GOLDEN_FRAME[(dataset, variant)]
