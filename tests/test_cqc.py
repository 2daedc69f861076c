"""Tests for Coordinate Quadtree Coding (paper Section 4, Lemma 3)."""
import math

import numpy as np
import pytest

from repro import DEG_TO_M
from repro.core.cqc import CoordinateQuadtree, CQCCoder


class TestCoordinateQuadtree:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 16])
    def test_roundtrip_exhaustive(self, n):
        tree = CoordinateQuadtree(n)
        seen = {}
        for iy in range(n):
            for ix in range(n):
                code = tree.encode(ix, iy)
                assert code not in seen, f"code collision at {(ix, iy)}"
                seen[code] = (ix, iy)
                assert tree.decode(code) == (ix, iy)

    @pytest.mark.parametrize("nx,ny", [(3, 5), (5, 3), (2, 7), (8, 1)])
    def test_roundtrip_rectangular(self, nx, ny):
        tree = CoordinateQuadtree(nx, ny)
        for iy in range(ny):
            for ix in range(nx):
                assert tree.decode(tree.encode(ix, iy)) == (ix, iy)

    def test_paper_5x5_code_length(self):
        """The paper's Fig. 4 example: a 5x5 grid yields 6-bit codes."""
        tree = CoordinateQuadtree(5)
        assert tree.code_bits == 6
        assert tree.depth == 3

    @pytest.mark.parametrize(
        "n,bits", [(1, 0), (2, 2), (3, 4), (4, 4), (5, 6), (8, 6), (9, 8)]
    )
    def test_code_bits_formula(self, n, bits):
        assert CoordinateQuadtree(n).code_bits == bits

    def test_out_of_grid_raises(self):
        tree = CoordinateQuadtree(4)
        with pytest.raises(ValueError):
            tree.encode(4, 0)
        with pytest.raises(ValueError):
            tree.encode(0, -1)

    def test_invalid_grid_raises(self):
        with pytest.raises(ValueError):
            CoordinateQuadtree(0)

    def test_template_is_deterministic(self):
        a = CoordinateQuadtree(5)
        b = CoordinateQuadtree(5)
        for iy in range(5):
            for ix in range(5):
                assert a.encode(ix, iy) == b.encode(ix, iy)


class TestCQCCoder:
    @pytest.mark.parametrize(
        "eps1,gs",
        [
            (0.001, 0.00045),  # paper defaults: 111 m / 50 m
            (0.001, 0.0002),
            (0.01, 0.002),
            (0.5, 0.3),
        ],
    )
    def test_lemma3_bound(self, eps1, gs):
        """Corrected reconstruction error <= (sqrt(2)/2) * gs for any
        residual within the eps1 circle."""
        g = np.random.default_rng(0)
        coder = CQCCoder(eps1, gs)
        # residuals uniformly inside the eps1 circle
        theta = g.random(500) * 2 * math.pi
        r = np.sqrt(g.random(500)) * eps1
        d = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        codes = coder.encode(d)
        dd = coder.decode(codes)
        err = np.sqrt(((d - dd) ** 2).sum(axis=1))
        assert err.max() <= (math.sqrt(2) / 2) * gs + 1e-12

    def test_zero_residual_decodes_zero(self):
        coder = CQCCoder(0.001, 0.00045)
        codes = coder.encode(np.array([[0.0, 0.0]]))
        assert np.allclose(coder.decode(codes), 0.0)

    def test_correct_applies_displacement(self):
        coder = CQCCoder(0.001, 0.00045)
        recon = np.array([[10.0, 20.0]])
        true = recon + np.array([[0.0008, -0.0006]])
        codes = coder.encode(true - recon)
        fixed = coder.correct(recon, codes)
        err = np.sqrt(((true - fixed) ** 2).sum(axis=1))
        assert err.max() <= (math.sqrt(2) / 2) * coder.gs + 1e-12

    def test_grid_is_odd_and_centered(self):
        coder = CQCCoder(0.001, 0.00045)
        assert coder.n % 2 == 1
        assert coder.n == 2 * coder.m + 1

    def test_paper_defaults_grid(self):
        """eps1 = 111 m, gs = 50 m -> m = ceil(111/50) = 3 -> 7x7 grid."""
        coder = CQCCoder(0.001, 50.0 / DEG_TO_M)
        assert coder.m == 3
        assert coder.n == 7
        assert coder.code_bits == 2 * 3  # depth ceil(log2 7) = 3

    def test_codes_fit_bit_budget(self):
        coder = CQCCoder(0.001, 0.00045)
        g = np.random.default_rng(1)
        d = (g.random((200, 2)) - 0.5) * 2 * 0.001
        codes = coder.encode(d)
        assert codes.max() < 4**coder.tree.depth

    def test_decode_multiple(self):
        coder = CQCCoder(0.01, 0.004)
        g = np.random.default_rng(2)
        d = (g.random((100, 2)) - 0.5) * 2 * 0.01 / math.sqrt(2)
        round1 = coder.decode(coder.encode(d))
        round2 = coder.decode(coder.encode(round1))
        # decoding is idempotent on already-quantized residuals
        assert np.allclose(round1, round2)

    def test_out_of_circle_clipped_not_crashed(self):
        coder = CQCCoder(0.001, 0.00045)
        codes = coder.encode(np.array([[0.005, -0.005]]))  # way outside
        dd = coder.decode(codes)
        assert np.all(np.abs(dd) <= coder.m * coder.gs + 1e-15)

    def test_encode_deterministic(self):
        coder = CQCCoder(0.001, 0.00045)
        d = np.array([[0.0004, -0.0007], [0.0, 0.0009]])
        assert np.array_equal(coder.encode(d), coder.encode(d))

    @pytest.mark.parametrize("scale", [1e-4, 1e-2, 1.0, 100.0])
    def test_scale_invariance_of_bound(self, scale):
        coder = CQCCoder(0.001 * scale, 0.00045 * scale)
        g = np.random.default_rng(3)
        theta = g.random(200) * 2 * math.pi
        r = np.sqrt(g.random(200)) * 0.001 * scale
        d = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        dd = coder.decode(coder.encode(d))
        err = np.sqrt(((d - dd) ** 2).sum(axis=1))
        assert err.max() <= (math.sqrt(2) / 2) * coder.gs * (1 + 1e-9)


def _per_axis_coder(coder):
    """Encode and correct as the coder computed them before its tables
    were merged: each axis rounded, cast and clipped on its own, and each
    decoded displacement multiplied out per call. Tables from ``tree``."""
    m, n = coder.m, coder.n
    enc = np.empty((n, n), dtype=np.int64)
    dec_x = np.zeros(4**coder.tree.depth, dtype=np.int64)
    dec_y = np.zeros(4**coder.tree.depth, dtype=np.int64)
    for iy in range(n):
        for ix in range(n):
            c = coder.tree.encode(ix, iy)
            enc[iy, ix], dec_x[c], dec_y[c] = c, ix - m, iy - m

    def encode(d):
        jx = np.clip(np.rint(d[:, 0] / coder.gs).astype(np.int64), -m, m)
        jy = np.clip(np.rint(d[:, 1] / coder.gs).astype(np.int64), -m, m)
        return enc[jy + m, jx + m]

    def correct(recon, codes):
        return recon + np.column_stack([dec_x[codes] * coder.gs, dec_y[codes] * coder.gs])

    return encode, correct


class TestCQCMatchesPerAxisCoding:
    """``encode`` and ``correct`` give the codes and corrected points of
    the per-axis coder bit for bit, for residuals whose cell index fits an
    int64 (past it, a per-axis cast wrapped around)."""

    @staticmethod
    def _check(coder, d, recon):
        encode, correct = _per_axis_coder(coder)
        codes = coder.encode(d)
        assert codes.tolist() == encode(d).tolist()
        got, want = coder.correct(recon, codes), correct(recon, codes)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    @pytest.mark.parametrize("eps1,gs", [(0.001, 0.00045), (0.6, 0.25), (0.01, 0.004)])
    def test_random_residuals_and_recon(self, eps1, gs):
        g = np.random.default_rng(4)
        d = g.normal(0, eps1, (400, 2))
        recon = np.array([116.3, 39.9]) + g.normal(0, 0.01, (400, 2))
        self._check(CQCCoder(eps1, gs), d, recon)

    def test_half_cell_boundaries_round_half_even(self):
        """With gs a power of two, d / gs is exactly k + 0.5: both round
        to the even neighbour."""
        coder = CQCCoder(0.6, 0.25)
        k = np.arange(-4, 4) + 0.5
        d = np.column_stack([k, k[::-1]]) * coder.gs
        assert (np.rint(d / coder.gs) % 2 == 0).all()
        self._check(coder, d, np.zeros_like(d))

    def test_past_the_clip_range(self):
        coder = CQCCoder(0.001, 0.00045)
        far = np.array([coder.m + 1, 10.0, 1e6, 1e15, 2.0**62])
        d = np.column_stack([np.r_[far, -far], np.r_[-far, far]]) * coder.gs
        self._check(coder, d, np.full_like(d, 3.0))
        cells = {coder._enc[0, 0], coder._enc[0, -1], coder._enc[-1, 0], coder._enc[-1, -1]}
        assert set(coder.encode(d).tolist()) <= cells

    def test_negative_zero(self):
        coder = CQCCoder(0.001, 0.00045)
        d = np.array([[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [-1e-300, 1e-300]])
        recon = np.array([[-0.0, -0.0], [1.0, -0.0], [-0.0, 2.0], [-0.0, -0.0]])
        self._check(coder, d, recon)
        assert set(coder.encode(d).tolist()) == {coder._enc[coder.m, coder.m]}
