"""Coordinate Quadtree Coding (paper Section 4, Algorithm 2, Eq. 9-11).

The quantizer guarantees the codebook reconstruction (xh, yh) is within
eps1 of the true point (x, y) (Fig. 2's circle c1). CQC encodes the
*residual* d = (x - xh, y - yh) on a grid of cell size ``gs`` covering the
error circle, as the quadtree path of the residual's grid cell. Decoding
the path recovers the cell-center displacement, so the corrected
reconstruction (x', y') = (xh, yh) + decode(code) satisfies Lemma 3:
``||(x, y) - (x', y')||_2 <= (sqrt(2)/2) * gs``.

The grid has n = 2*ceil(eps1/gs) + 1 cells per side (odd, with the zero
cell at the center, matching the paper's "(x, y) is fixed at the center
cell"). Odd regions are padded toward the outward corner of their quadrant
before each 4-way split (paper Fig. 3: quadrant 00 pads upper-left, 01
upper-right, 10 bottom-left, 11 bottom-right; the root pads upper-left).
Every code therefore has exactly 2*ceil(log2(n)) bits -- 6 bits for the
paper's 5x5 example.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: quadrant label -> (pad_left, pad_top) for odd-size padding.
#: first bit selects the vertical half (0 = top), second the horizontal
#: (0 = left); padding extends toward the quadrant's outward corner.
_PAD = {
    None: (True, True),  # root: upper-left, per Fig. 3a reading
    0b00: (True, True),
    0b01: (False, True),
    0b10: (True, False),
    0b11: (False, False),
}


class CoordinateQuadtree:
    """Template quadtree over an ``nx`` x ``ny`` grid of cells.

    ``encode`` maps a cell (ix, iy) -- column/row indices, row 0 at the
    top -- to its quadrant path; ``decode`` inverts it. The tree depends
    only on (nx, ny), so it is built once per (eps1, gs) setting and
    shared across all points, exactly as the paper stores a single
    "template" quadtree.
    """

    def __init__(self, nx: int, ny: int | None = None):
        if nx < 1:
            raise ValueError("grid must have at least one cell")
        self.nx = int(nx)
        self.ny = int(ny if ny is not None else nx)
        self.depth = max(
            math.ceil(math.log2(self.nx)) if self.nx > 1 else 0,
            math.ceil(math.log2(self.ny)) if self.ny > 1 else 0,
        )

    @property
    def code_bits(self) -> int:
        """Bits per code: two per level."""
        return 2 * self.depth

    def encode(self, ix: int, iy: int) -> int:
        """Quadrant path of cell (ix, iy), packed MSB-first into an int."""
        if not (0 <= ix < self.nx and 0 <= iy < self.ny):
            raise ValueError(f"cell ({ix}, {iy}) outside {self.nx}x{self.ny} grid")
        x0, y0, w, h = 0, 0, self.nx, self.ny
        quad = None
        code = 0
        for _ in range(self.depth):
            x0, y0, w, h = _pad_region(x0, y0, w, h, quad)
            hw, hh = w // 2, h // 2
            bit_y = 0 if iy < y0 + hh else 1
            bit_x = 0 if ix < x0 + hw else 1
            quad = (bit_y << 1) | bit_x
            code = (code << 2) | quad
            x0 = x0 + (hw if bit_x else 0)
            y0 = y0 + (hh if bit_y else 0)
            w, h = hw, hh
        return code

    def decode(self, code: int) -> tuple[int, int]:
        """Invert :meth:`encode` -> (ix, iy)."""
        x0, y0, w, h = 0, 0, self.nx, self.ny
        quad = None
        for level in range(self.depth - 1, -1, -1):
            x0, y0, w, h = _pad_region(x0, y0, w, h, quad)
            quad = (code >> (2 * level)) & 0b11
            hw, hh = w // 2, h // 2
            x0 = x0 + (hw if quad & 0b01 else 0)
            y0 = y0 + (hh if quad & 0b10 else 0)
            w, h = hw, hh
        return x0, y0


def _pad_region(
    x0: int, y0: int, w: int, h: int, quad: int | None
) -> tuple[int, int, int, int]:
    """Grow an odd-sized region by one padding cell toward its outward
    corner so it splits into four equal subspaces (Alg. 2 partition_padding)."""
    pad_left, pad_top = _PAD[quad]
    if w % 2:
        if pad_left:
            x0 -= 1
        w += 1
    if h % 2:
        if pad_top:
            y0 -= 1
        h += 1
    return x0, y0, w, h


@dataclass(frozen=True)
class CQCCoder:
    """Residual coder for a given (eps1, gs): d -> quadtree code -> d~.

    ``m = ceil(eps1/gs)`` so residual cell indices round(d/gs) lie in
    [-m, m]; the grid is (2m+1) x (2m+1) with cell (m, m) at displacement
    zero. Encode/decode tables are precomputed (the grid is tiny:
    eps1/gs ~ 2-3 in the paper's settings).
    """

    eps1: float
    gs: float

    def __post_init__(self):
        m = max(1, math.ceil(self.eps1 / self.gs))
        n = 2 * m + 1
        tree = CoordinateQuadtree(n, n)
        enc = np.empty((n, n), dtype=np.int64)
        # code -> grid offset (dx, dy) of its cell; padding codes decode to 0
        dec = np.zeros((4**tree.depth, 2), dtype=np.int64)
        for iy in range(n):
            for ix in range(n):
                c = tree.encode(ix, iy)
                enc[iy, ix] = c
                dec[c] = ix - m, iy - m
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "_enc", enc)
        # code -> decoded residual (dx, dy), multiples of gs
        object.__setattr__(self, "_dec", dec * self.gs)

    @property
    def code_bits(self) -> int:
        """Storage cost per point, in bits."""
        return self.tree.code_bits

    def encode(self, d: np.ndarray) -> np.ndarray:
        """Encode residuals d (n, 2) -> packed quadtree codes (n,).

        Residuals are guaranteed within eps1 by the quantizer; indices
        are clipped defensively so a borderline float never escapes the
        grid.
        """
        d = np.atleast_2d(np.asarray(d, dtype=np.float64))
        # grid cell (column, row) of each residual, offset to [0, 2m]
        j = np.rint(d / self.gs)
        j += self.m
        np.clip(j, 0, 2 * self.m, out=j)
        j = j.astype(np.int64)
        return self._enc[j[:, 1], j[:, 0]]

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Decode codes -> quantized residuals (n, 2), multiples of gs."""
        return self._dec[np.asarray(codes, dtype=np.int64)]

    def correct(self, recon: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Eq. 11: corrected reconstruction = recon + decoded residual."""
        return np.atleast_2d(recon) + self.decode(codes)
