"""Tests for the delta + Huffman trajectory-ID codec."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.idcodec import decode_ids, encode_ids


class TestRoundtrip:
    @pytest.mark.parametrize(
        "ids",
        [
            [1],
            [0],
            [5, 5, 5],
            [1, 2, 3, 4, 5],
            [10, 1000, 999999],
            list(range(100)),
            [7] * 50,
            [2, 4, 8, 16, 1024],
        ],
    )
    def test_roundtrip(self, ids):
        enc = encode_ids(np.array(ids))
        assert decode_ids(enc).tolist() == sorted(ids)

    def test_empty(self):
        enc = encode_ids(np.array([], dtype=np.int64))
        assert enc.n_ids == 0
        assert decode_ids(enc).tolist() == []

    def test_unsorted_input_sorted_output(self):
        enc = encode_ids(np.array([9, 1, 5]))
        assert decode_ids(enc).tolist() == [1, 5, 9]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=200))
    def test_property_roundtrip(self, ids):
        enc = encode_ids(np.array(ids, dtype=np.int64))
        assert decode_ids(enc).tolist() == sorted(ids)


class TestCompression:
    def test_dense_runs_compress_well(self):
        """Consecutive IDs have a single delta symbol -> ~1 bit each."""
        ids = np.arange(1000, 2000)
        enc = encode_ids(ids)
        assert enc.encoded_bits <= 2 * len(ids)

    def test_beats_raw_for_clustered_ids(self):
        ids = np.arange(5000, 5500)
        enc = encode_ids(ids)
        assert enc.total_bits < len(ids) * 64

    def test_skewed_deltas_short_codes(self):
        """Frequent deltas get shorter codes than rare ones."""
        ids = np.cumsum([1] * 200 + [997] + [500])
        enc = encode_ids(ids)
        assert enc.lengths[1] < enc.lengths[997]
        assert enc.lengths[1] < enc.lengths[500]

    def test_encoded_bits_matches_lengths(self):
        ids = np.array([3, 7, 8, 20])
        enc = encode_ids(ids)
        deltas = [3, 4, 1, 12]
        expect = sum(enc.lengths[d] for d in deltas)
        assert enc.encoded_bits == expect

    def test_data_is_bytes(self):
        enc = encode_ids(np.array([1, 2, 3]))
        assert isinstance(enc.data, bytes)
        assert len(enc.data) == (enc.encoded_bits + 7) // 8

    def test_total_bits_includes_table(self):
        enc = encode_ids(np.array([1, 100]))
        assert enc.total_bits > enc.encoded_bits


def _numpy_encode_ids(ids):
    """The earlier encoder: numpy sort and delta, ``Counter`` of deltas."""
    from collections import Counter

    from repro.index.idcodec import EncodedIds, _canonical_codes, _huffman_lengths

    ids = np.sort(np.asarray(ids, dtype=np.int64))
    if len(ids) == 0:
        return EncodedIds(data=b"", n_ids=0, lengths={}, encoded_bits=0)
    deltas = np.diff(ids, prepend=np.int64(0))
    freqs = dict(Counter(int(d) for d in deltas))
    lengths = _huffman_lengths(freqs) if len(freqs) > 1 else {int(deltas[0]): 1}
    codes = _canonical_codes(lengths)
    acc = 0
    nbits = 0
    for d in deltas:
        c, ln = codes[int(d)]
        acc = (acc << ln) | c
        nbits += ln
    pad = (-nbits) % 8
    acc <<= pad
    data = acc.to_bytes((nbits + pad) // 8, "big") if nbits else b""
    return EncodedIds(data=data, n_ids=len(ids), lengths=lengths, encoded_bits=nbits)


class TestEncoderInputs:
    """One encoder, the same bytes whatever form the IDs come in."""

    @pytest.mark.parametrize(
        "ids",
        [[], [0], [5], [41, 3], [3, 41], [9, 1, 5], [7, 7, 7], [2, 9, 2, 9, 4],
         list(range(100)), [10, 1000, 999999], [2, 4, 8, 16, 1024]],
    )
    def test_same_encoding_for_arrays_and_lists(self, ids):
        want = _numpy_encode_ids(np.array(ids, dtype=np.int64))
        assert encode_ids(np.array(ids, dtype=np.int64)) == want
        assert encode_ids(list(ids)) == want
        assert encode_ids(list(reversed(ids))) == want
        assert encode_ids(tuple(ids)) == want
        assert encode_ids(np.array(ids, dtype=np.int32)) == want

    def test_empty(self):
        empty = encode_ids([])
        assert empty == encode_ids(np.zeros(0, dtype=np.int64))
        assert (empty.data, empty.n_ids, empty.lengths, empty.encoded_bits) == (
            b"", 0, {}, 0
        )

    def test_duplicates_counted(self):
        enc = encode_ids([4, 4, 1])
        assert enc.n_ids == 3
        assert decode_ids(enc).tolist() == [1, 4, 4]

    def test_symbol_table_order_kept(self):
        """The codebook lists delta symbols in order of first occurrence."""
        ids = [30, 1, 2, 3, 10, 20]
        assert list(encode_ids(ids).lengths) == list(_numpy_encode_ids(ids).lengths)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 2**40), max_size=60))
    def test_property_matches_numpy_encoder(self, ids):
        want = _numpy_encode_ids(ids)
        assert encode_ids(ids) == want
        assert encode_ids(np.array(ids, dtype=np.int64)) == want


class TestOneSymbolLists:
    """A list whose deltas are one value (every one-ID list, and the
    progressions step, 2*step, ...) is encoded without building a Huffman
    code: one 0 bit per ID, the bytes the earlier encoder gave."""

    @pytest.mark.parametrize(
        "ids",
        [[0], [1], [17], [2**40], [0, 0, 0], [5, 10, 15], [9, 3, 6],
         list(range(7, 57, 7)), list(range(7, 64, 7)), list(range(3, 300, 3))],
    )
    def test_matches_general_path(self, ids):
        enc = encode_ids(ids)
        assert enc == _numpy_encode_ids(ids)
        assert enc == encode_ids(np.array(ids, dtype=np.int64))
        assert len(enc.lengths) == 1 and enc.encoded_bits == len(ids)
        assert decode_ids(enc).tolist() == sorted(ids)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**40), st.integers(1, 70))
    def test_property_progressions(self, step, n):
        ids = [step * (i + 1) for i in range(n)]
        enc = encode_ids(ids)
        assert enc == _numpy_encode_ids(ids)
        assert decode_ids(enc).tolist() == ids
