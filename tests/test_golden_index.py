"""Golden outputs of the TPI write path: a performance change to PI/TPI
must leave every period, rectangle, cell key and compressed ID list, and
the index size, exactly as they are.

The digest is sha256 over, per period in order, its ``(ts, te)`` and its
rectangle bounds, then its cells' entries sorted by ``(cell key, t)``, each
hashed as ``(rx, cx, cy, t, n_ids, encoded_bits)`` and the payload bytes.
Inputs: ``build_tpi_from_points`` on both QUICK-scale datasets with
Table 9's eps_d = 0.8 and eps_c = 0.5.

``GOLDEN_BENCH`` records the same for the index the serve benchmark
replays: geolife at BENCH scale on generator seed 16 (the first dataset of
a benchmark run with seed 1), with the same eps_d and eps_c. Its digest
also hashes each list's Huffman ``lengths`` table, as sorted
``(symbol, length)`` pairs after the payload.
"""
import dataclasses
import hashlib
import struct

import pytest

from repro.harness.config import BENCH, QUICK
from repro.index.tpi import build_tpi_from_points

GOLDEN = {
    "porto": (
        "6030c343d37aff8f345b556f910ff2da96c22a2570c0c8f44081c97d7b047832",
        289952, 6, 33,
    ),
    "geolife": (
        "98402527318e1c6eea77da2a858c9dd8054524718347d85b50130211a6b9537e",
        320189, 25, 54,
    ),
}


def tpi_digest(tpi, *, lengths: bool = False) -> str:
    h = hashlib.sha256()
    for p in tpi.periods:
        h.update(struct.pack("<qq", p.ts, -1 if p.te is None else p.te))
        h.update(struct.pack("<q", len(p.pi.rects)))
        for r in p.pi.rects:
            h.update(struct.pack("<dddd", r.x0, r.y0, r.x1, r.y1))
        entries = sorted(
            (key, t, enc)
            for key, per_t in p.pi.cells.items()
            for t, enc in per_t.items()
        )
        h.update(struct.pack("<q", len(entries)))
        for (ri, cx, cy), t, enc in entries:
            h.update(struct.pack("<qqqqqq", ri, cx, cy, t, enc.n_ids, enc.encoded_bits))
            h.update(struct.pack("<q", len(enc.data)) + enc.data)
            if lengths:
                h.update(struct.pack("<q", len(enc.lengths)))
                for sym, ln in sorted(enc.lengths.items()):
                    h.update(struct.pack("<qq", sym, ln))
    return h.hexdigest()


@pytest.mark.parametrize("dataset", sorted(GOLDEN))
def test_tpi_matches_golden(dataset):
    tpi = build_tpi_from_points(
        QUICK.dataset(dataset).load(),
        eps_d=0.8,
        eps_c=0.5,
        eps_s=QUICK.eps_s,
        gc=QUICK.gc,
        seed=QUICK.seed,
    )
    got = (tpi_digest(tpi), tpi.size_bits(), tpi.n_rebuilds, tpi.n_insertions)
    assert got == GOLDEN[dataset]


GOLDEN_BENCH = (
    "6ce8e7b91570067d8affc63aeab6f220319a25eb11542d4a310d2ded488070cb", 4531061, 40, 258
)


def test_bench_tpi_matches_golden():
    tpi = build_tpi_from_points(
        dataclasses.replace(BENCH.dataset("geolife"), seed=16).load(),
        eps_d=0.8,
        eps_c=0.5,
        eps_s=BENCH.eps_s,
        gc=BENCH.gc,
        seed=BENCH.seed,
    )
    got = (
        tpi_digest(tpi, lengths=True), tpi.size_bits(), tpi.n_rebuilds, tpi.n_insertions
    )
    assert got == GOLDEN_BENCH
