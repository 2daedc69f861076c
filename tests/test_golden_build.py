"""Golden outputs of the PPQ build: a performance change to the build must
leave every code it emits, and the summary's size, exactly as they are.

The digests are sha256 over the int64 ``(traj_id, t, pid, code, cqc)``
columns of the coded frame (row order as built), recorded for PPQ-A and
PPQ-S (global codebook, CQC on) on both QUICK-scale datasets.
"""
import hashlib

import numpy as np
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
