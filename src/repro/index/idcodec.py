"""Trajectory-ID list compression: delta encoding + canonical Huffman.

The paper compresses the trajectory IDs stored in each grid cell "by delta
encoding and Huffman codes" ([19, 22, 42]). We implement both for real:
sorted IDs are delta-encoded, the delta alphabet gets a Huffman code, and
``encode`` returns a real bitstring (as ``bytes``) plus the codebook needed
to invert it. Index-size accounting uses ``encoded_bits``.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np


def _huffman_lengths(freqs: dict[int, int]) -> dict[int, int]:
    """Code length per symbol via the standard heap construction, for two
    or more symbols (``encode_ids`` codes a lone symbol with one bit)."""
    heap = [(f, i, (s,)) for i, (s, f) in enumerate(sorted(freqs.items()))]
    heapq.heapify(heap)
    lengths = {s: 0 for s in freqs}
    counter = len(heap)
    while len(heap) > 1:
        fa, _, sa = heapq.heappop(heap)
        fb, _, sb = heapq.heappop(heap)
        for s in sa + sb:
            lengths[s] += 1
        heapq.heappush(heap, (fa + fb, counter, sa + sb))
        counter += 1
    return lengths


def _canonical_codes(lengths: dict[int, int]) -> dict[int, tuple[int, int]]:
    """Canonical Huffman: symbol -> (code, nbits), assigned in
    (length, symbol) order so the decoder can rebuild codes from lengths."""
    code = 0
    prev_len = 0
    out: dict[int, tuple[int, int]] = {}
    for ln, s in sorted((ln, s) for s, ln in lengths.items()):
        code <<= ln - prev_len
        out[s] = (code, ln)
        code += 1
        prev_len = ln
    return out


@dataclass
class EncodedIds:
    """A compressed sorted ID list."""

    data: bytes
    n_ids: int
    lengths: dict[int, int]  # delta symbol -> code length (the codebook)
    encoded_bits: int

    @property
    def total_bits(self) -> int:
        """Payload plus a (symbol, length) table entry per alphabet symbol."""
        return self.encoded_bits + len(self.lengths) * (32 + 6)


def encode_ids(ids) -> EncodedIds:
    """Delta + Huffman encode a list of trajectory IDs (an int array or a
    sequence of ints). Cell lists are mostly one or two IDs long, so the
    sort, delta code and symbol count run on plain Python ints, a list with
    one distinct delta skips the Huffman construction, and a one-ID list
    (most cells) returns its encoding at once: the ID is its only delta,
    coded as one 0 bit."""
    if isinstance(ids, np.ndarray):
        ids = ids.astype(np.int64, copy=False).tolist()
    if len(ids) == 1:  # positional: passing keywords costs more than the rest
        return EncodedIds(b"\x00", 1, {int(ids[0]): 1}, 1)
    ids = sorted(map(int, ids))
    if not ids:
        return EncodedIds(data=b"", n_ids=0, lengths={}, encoded_bits=0)
    deltas = []
    freqs: dict[int, int] = {}  # in order of first occurrence
    prev = 0
    for v in ids:
        d = v - prev
        prev = v
        deltas.append(d)
        freqs[d] = freqs.get(d, 0) + 1
    n = len(ids)
    if len(freqs) == 1:
        # one delta symbol (every one-ID list): its canonical code is one 0
        # bit, so the payload is n zero bits padded to whole bytes
        return EncodedIds(
            data=bytes((n + 7) // 8), n_ids=n, lengths={d: 1}, encoded_bits=n
        )
    lengths = _huffman_lengths(freqs)
    codes = _canonical_codes(lengths)
    acc = 0
    nbits = 0
    for d in deltas:
        c, ln = codes[d]
        acc = (acc << ln) | c
        nbits += ln
    pad = (-nbits) % 8
    acc <<= pad
    data = acc.to_bytes((nbits + pad) // 8, "big") if nbits else b""
    return EncodedIds(data=data, n_ids=n, lengths=lengths, encoded_bits=nbits)


def decode_ids(enc: EncodedIds) -> np.ndarray:
    """Invert :func:`encode_ids`."""
    if enc.n_ids == 0:
        return np.zeros(0, dtype=np.int64)
    codes = _canonical_codes(enc.lengths)
    # decode table: (nbits, code) -> symbol
    table = {(ln, c): s for s, (c, ln) in codes.items()}
    bits = int.from_bytes(enc.data, "big")
    total = len(enc.data) * 8
    pos = 0  # bits consumed
    out = np.empty(enc.n_ids, dtype=np.int64)
    acc = 0
    ln = 0
    got = 0
    while got < enc.n_ids:
        pos += 1
        bit = (bits >> (total - pos)) & 1
        acc = (acc << 1) | bit
        ln += 1
        sym = table.get((ln, acc))
        if sym is not None:
            out[got] = sym
            got += 1
            acc = 0
            ln = 0
    return np.cumsum(out)
