"""Golden outputs of the table harnesses: a change to how the harness builds
its method suites must leave every table row exactly as it is.

``GOLDEN`` digests are sha256 over ``TABLES[name](TINY).to_csv(index=False)``
with the wall-clock columns dropped, since they differ run to run: all of
Table 5's deviation columns, ``time_s_*`` in Tables 7/8 and
``response_s``/``building_s`` in Table 9.
"""
import hashlib

import pandas as pd
import pytest

from repro.harness import TABLES
from repro.harness.config import TINY

GOLDEN = {
    "table2": "677dcafefa4213d89510ff0d81e8404e95d45032c701a35972cb286d9e6b1334",
    "table3": "80eac3212f2868cc8333fcd8a112cb6d3e7274a9f52be099cccc94ed855ede43",
    "table4": "1f533c42134872a8d7fa5ae5b023b8653a86d6408c417896241d95cd33053932",
    "table5": "c0dcd87760d96641d14f85cc962b741bf3e709ec87a0897a24eb055f474df403",
    "table6": "482a04b3b318e2eea6866fa374409e8db24f020a581cf500b1431e6fea23e24f",
    "table7": "bf2528792b2511e60c18e9db3e7984307bcb06ab63bb853fa14d60e0aed54727",
    "table8": "1184b8bafcd965cb7ff375080f2cee37881edacba09b74be46d57cd3b0a6e699",
    "table9": "4bf83566f7b1a20c1a280b54c5c6a5ad193a91940280b6d00deb28713415389a",
    "fig9": "fecea7dbdc7245abd4cc4da4e278c7a2a42809d898b49d393f3b2581a2449d2f",
}


def without_wall_clock(name: str, df: pd.DataFrame) -> pd.DataFrame:
    if name == "table5":
        return df[["dataset", "method"]]
    if name in ("table7", "table8"):
        return df.drop(columns=[c for c in df.columns if c.startswith("time_s_")])
    if name == "table9":
        return df.drop(columns=["response_s", "building_s"])
    return df


def test_every_table_is_covered():
    assert set(GOLDEN) == set(TABLES)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_table_matches_golden(name):
    df = without_wall_clock(name, TABLES[name](TINY))
    digest = hashlib.sha256(df.to_csv(index=False).encode()).hexdigest()
    assert digest == GOLDEN[name]
