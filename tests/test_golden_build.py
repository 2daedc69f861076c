"""Golden outputs of the PPQ build: a performance change to the build must
leave every code it emits, and the summary's size, exactly as they are.

``GOLDEN`` digests are sha256 over the int64 ``(traj_id, t, pid, code,
cqc)`` columns of the coded frame (row order as built), recorded for PPQ-A
and PPQ-S (global codebook, CQC on) on both QUICK-scale datasets.

``GOLDEN_FRAME`` widens this to the whole frame and to every codebook
mode: per variant it records the int digest above, a digest of the float
columns ``x y xhat yhat xrec yrec`` together with the column names, dtypes
and index, ``summary_bits()`` and ``n_codewords()``.

``GOLDEN_PARTS`` records, per variant, one sha256 over the summary's
other stored parts: ``codebooks``, ``codebooks_t`` and ``coeffs``, each
over its sorted keys.

``GOLDEN_BENCH`` records all of the above for the builds the benchmark
times: porto PPQ-A and geolife PPQ-S at BENCH scale on the datasets of
generator seed 16, the first dataset of a benchmark run with seed 1.
These builds keep 5-6 partitions live per timestep, where the QUICK ones
keep fewer.
"""
import dataclasses
import hashlib

import numpy as np
import pandas as pd
import pytest

from repro.core.ppq import run_ppq
from repro.harness.config import BENCH, QUICK

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
        "1f09f05d004c54e2b3b32c9f34f4235f0093c4223bb173dfe704f3b892106183",
        "a92f96da84499293ca00bf16cff180906e2f6f85e4030444f590889df88e218f",
        87255,
        714,
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
        "b1ee7424206187fe40ebd677316d385088a421056b45d5172d94e53704ff28aa",
        "061f167ea2f0a683c20c999a32be21f285ca8da71c7a8c191a774d98c53c20d6",
        65674,
        629,
    ),
    ("porto", "S-global"): (
        "bf03620caa36363ddcee5454ff366e86713bab167e7754efe9b0fca1749314c9",
        "ad6e8f3241562643259bf87cb8d73aa7062393caf8520596e050719b9492650d",
        52188,
        121,
    ),
    ("geolife", "A-fixed-dict"): (
        "b632c5714d8033b7ace9a9a8686885d73b9767797e8781c60fdadfd082043c03",
        "ffb08f79265e80b25fa75cdebdd777a55a12a6fefb785fc9823cca05b59fcdab",
        101241,
        1082,
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
        "c8b438f003e2408ff3cb7d78001fd357735801a5edfe3e6118cc1cefc8a46778",
        "d83674a2fcc5c1b7be364c198b01bd18cdf75d898e27a26cf8fbe562fcb28532",
        99118,
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


def _parts_digest(s) -> str:
    h = hashlib.sha256()
    for name, parts in (
        ("codebooks", s.codebooks),
        ("codebooks_t", s.codebooks_t),
        ("coeffs", s.coeffs),
    ):
        h.update(name.encode())
        for key in sorted(parts):
            v = np.ascontiguousarray(parts[key], dtype=np.float64)
            h.update(repr((np.asarray(key, dtype=np.int64).tolist(), v.shape)).encode())
            h.update(v.tobytes())
    return h.hexdigest()


GOLDEN_PARTS = {
    ("porto", "A-fixed-dict"): (
        "a4088e9e21ee30501588105e25cc6913fca7d6442436c4ab4289e969c38363b1"
    ),
    ("porto", "A-global"): (
        "9058c6628e0c9f58d3ebbc949e22af187e6712dd4bc066a0b1c49c386ad5f64b"
    ),
    ("porto", "A-per_t"): (
        "0029450dddd6ca40f45f4ad95155051ee84afd7e10d70b3e0ea149ebb4f45298"
    ),
    ("porto", "E-PQ"): (
        "3e8397e537bd1e0571943aa511b3bc902ae34b1cd2a8f10e811bc920fe1f2d92"
    ),
    ("porto", "Q-trajectory"): (
        "b498172ad5496cfe5a0aefc180a115f2e97d47b59dd526abc711993804e50ba9"
    ),
    ("porto", "Q-trajectory-fixed"): (
        "5cd48a81cff2938e8288d4a3fd399cf92db409cb762b5f6270f37e8a7d498151"
    ),
    ("porto", "S-fixed-int"): (
        "bafd0fdad6e807391f98f9e078b229c309e5f2f88186b089c58310236ab339b2"
    ),
    ("porto", "S-global"): (
        "d2940e2680788b4371d800092f179844b5476e4c04791bca7caa80a9cdd8fb29"
    ),
    ("geolife", "A-fixed-dict"): (
        "0cfb5dd4ee11e6421b38930304277a2cc7c5cde29245983797f46454b2d759d4"
    ),
    ("geolife", "A-global"): (
        "836ace22471a06325ca2eff4e525d56218e371654e7b98a1708a5c13c34710cc"
    ),
    ("geolife", "A-per_t"): (
        "7d8eca827248e22f90199ddb55876b1ff2d8d0d09c4b01b9e87737f418675e84"
    ),
    ("geolife", "E-PQ"): (
        "02c3dc434abde85316dcd3a9208d660b61f25cde3ff9c559c7c19e45c206df34"
    ),
    ("geolife", "Q-trajectory"): (
        "4f57272aea28ab2cf3cb505c565e0c7ec46a148935ff2bdd148be1a214f80d76"
    ),
    ("geolife", "Q-trajectory-fixed"): (
        "94d0fbfc50002842b858539960562ddb03bb4d410ad231acc9f102e9b2e510b9"
    ),
    ("geolife", "S-fixed-int"): (
        "7dcca5d6fd36bcd836d0ca1afc8a1a7ec54c787cbce0999cc0cf18a02f7c4275"
    ),
    ("geolife", "S-global"): (
        "6426d8dd6ec687069bd76d6044c10b858a066d7ca77e046e756003fc4d233e60"
    ),
}


@pytest.mark.parametrize("dataset", ["porto", "geolife"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_stored_parts_match_golden(dataset, variant):
    assert _parts_digest(_build(dataset, variant)) == GOLDEN_PARTS[(dataset, variant)]


GOLDEN_BENCH = {
    ("porto", "A"): (
        "29fef890c895fc50b62f0e9d9c012540c08cc4e2c0441b528bec25ba8d7fc5f8",
        "4124222cc71416265956ac8d82345d91b49e13b358e4854f8386493e5f6873bf",
        "a58554cda97eb9b0dc77d64d0215cbe933498f176900800f502fac2c9784fb09",
        831980,
        1011,
    ),
    ("geolife", "S"): (
        "ed483419f16f42ddac4bfe0035f9079a378114f137d88b25ceecc413eb84a600",
        "f9f2b6a348a6588497abcd45f5b054798c17d4c3f18e6915e0fc017e4bb3fba6",
        "e796a325fc47cea08da03a5bd0d98c83c8e958d78d6a11037da0254dfd93bac0",
        588404,
        367,
    ),
}


@pytest.mark.parametrize("dataset,mode", sorted(GOLDEN_BENCH))
def test_bench_build_matches_golden(dataset, mode):
    ds = dataclasses.replace(BENCH.dataset(dataset), seed=16)
    s = run_ppq(
        ds.load(),
        mode=mode,
        use_cqc=True,
        eps1=BENCH.eps1,
        eps_p=ds.eps_p_auto if mode == "A" else ds.eps_p_spatial,
        gs=BENCH.gs,
        seed=BENCH.seed,
    )
    got = (*_frame_digests(s.coded), _parts_digest(s), s.summary_bits(), s.n_codewords())
    assert got == GOLDEN_BENCH[(dataset, mode)]
