"""Orthonormal Haar wavelet packet transform on the band mosaic.

``wpt(x, k)`` returns the level-k packet transform laid out as one
full-resolution mosaic: at each level, every tile's four sub-bands LL, LH /
HL, HH (LH = horizontal detail, HL = vertical detail) become its quadrants,
so the top-left tile is the lowest band and the bottom-right the highest
(``band_tile``).  ``iwpt`` is its exact inverse.  Each is one tape node whose
backward rule is the other.  ``split_bands`` and ``arrange_bands`` convert
between the mosaic and a ``PacketGrid`` of bands in lexicographic path
order; ``dwt2`` and ``idwt2`` are the one-level band-list view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from . import tensor as T
from .tensor import Tensor, make_node

BAND_NAMES = ("LL", "LH", "HL", "HH")

# rows of the orthonormal 2x2 block transform, applied to corners (a, b, c, d)
_HAAR_SIGNS = np.array([
    [1.0, 1.0, 1.0, 1.0],    # LL
    [1.0, -1.0, 1.0, -1.0],  # LH
    [1.0, 1.0, -1.0, -1.0],  # HL
    [1.0, -1.0, -1.0, 1.0],  # HH
]) * 0.5


@dataclass
class WaveletBands:
    ll: Tensor
    lh: Tensor
    hl: Tensor
    hh: Tensor

    def as_tuple(self):
        return (self.ll, self.lh, self.hl, self.hh)


@dataclass
class PacketGrid:
    """4**k equal-size bands in lexicographic path order."""

    bands: list[Tensor]
    level: int

    def __post_init__(self):
        if len(self.bands) != 4 ** self.level:
            raise ShapeError(f"PacketGrid level {self.level} needs {4 ** self.level} bands, got {len(self.bands)}")
        shapes = {b.data.shape for b in self.bands}
        if len(shapes) != 1:
            raise ShapeError(f"PacketGrid requires equal band shapes, got {sorted(shapes)}")

    def labels(self) -> list[str]:
        return [band_label(i, self.level) for i in range(len(self.bands))]


def band_digits(index: int, level: int) -> tuple[int, ...]:
    digits = []
    for _ in range(level):
        digits.append(index % 4)
        index //= 4
    return tuple(reversed(digits))


def band_label(index: int, level: int) -> str:
    return "".join(BAND_NAMES[d] for d in band_digits(index, level))


def band_tile(index: int, level: int) -> tuple[int, int]:
    """Tile (row, col) of a band in the mosaic, nesting quadrants by digit."""
    row = col = 0
    for d in band_digits(index, level):
        row = row * 2 + (d >> 1)
        col = col * 2 + (d & 1)
    return row, col


def _check_level(x: Tensor, k: int, what: str) -> None:
    T._check_4d(x, what)
    if k < 1:
        raise ShapeError(f"{what} requires k >= 1, got {k}")
    h, w = x.data.shape[2:]
    if h % (2 ** k) or w % (2 ** k):
        raise ShapeError(f"{what} level {k} requires H and W divisible by {2 ** k}, got {h}x{w}; "
                         "pad the input first")


def _packet(x: np.ndarray, k: int, inverse: bool = False) -> np.ndarray:
    """Level-k Haar packet transform of an NCHW array into its mosaic, or back.

    At level l the map holds 2**l x 2**l tiles.  Going forward, the 2x2 pixel
    corners of each tile become its four sub-bands, stored as the tile's
    quadrants; the inverse undoes the levels from the finest up.
    """
    n, c, h, w = x.shape
    signs = _HAAR_SIGNS.T if inverse else _HAAR_SIGNS
    for level in (reversed(range(k)) if inverse else range(k)):
        s = 2 ** level
        bh, bw = h // (2 * s), w // (2 * s)
        # (view shape, axes of the 2x2 index) of the pixel corners / sub-band quadrants
        corners = (n, c, s, bh, 2, s, bw, 2), (4, 7)
        quadrants = (n, c, s, 2, bh, s, 2, bw), (3, 6)
        (src_shape, src_axes), (dst_shape, dst_axes) = (
            (quadrants, corners) if inverse else (corners, quadrants))
        src = np.moveaxis(x.reshape(src_shape), src_axes, (0, 1))
        out = np.empty(x.shape)
        dst = np.moveaxis(out.reshape(dst_shape), dst_axes, (0, 1))
        parts = [src[i >> 1, i & 1] for i in range(4)]
        for j in range(4):
            dst[j >> 1, j & 1] = sum(si * p for si, p in zip(signs[j], parts))
        x = out
    return x


def wpt(x: Tensor, k: int) -> Tensor:
    """k-level packet transform, laid out as its band mosaic."""
    _check_level(x, k, "wpt")
    return make_node(_packet(x.data, k), (x,), lambda g: (_packet(g, k, inverse=True),), "wpt")


def iwpt(mosaic: Tensor, k: int) -> Tensor:
    """Exact inverse of wpt (the transform is orthonormal)."""
    _check_level(mosaic, k, "iwpt")
    return make_node(_packet(mosaic.data, k, inverse=True), (mosaic,),
                     lambda g: (_packet(g, k),), "iwpt")


def dwt2(x: Tensor) -> WaveletBands:
    """One-level orthonormal Haar transform on non-overlapping 2x2 blocks."""
    return WaveletBands(*split_bands(wpt(x, 1), 1).bands)


def idwt2(b: WaveletBands) -> Tensor:
    """Exact inverse of dwt2."""
    return iwpt(arrange_bands(PacketGrid(list(b.as_tuple()), 1)), 1)


def arrange_bands(g: PacketGrid) -> Tensor:
    """Tile the bands into one full-resolution mosaic, low frequency top-left."""
    side = 2 ** g.level
    n, c, bh, bw = g.bands[0].data.shape
    tiles = [band_tile(i, g.level) for i in range(len(g.bands))]
    out = np.empty((n, c, bh * side, bw * side))
    for band, (r, cpos) in zip(g.bands, tiles):
        out[:, :, r * bh:(r + 1) * bh, cpos * bw:(cpos + 1) * bw] = band.data

    def rule(grad):
        return tuple(grad[:, :, r * bh:(r + 1) * bh, cpos * bw:(cpos + 1) * bw] for r, cpos in tiles)

    return make_node(out, tuple(g.bands), rule, "arrange_bands")


def split_bands(mosaic: Tensor, k: int) -> PacketGrid:
    """Exact inverse of arrange_bands."""
    _check_level(mosaic, k, "split_bands")
    shape = mosaic.data.shape
    bh, bw = shape[2] >> k, shape[3] >> k

    def band(idx):
        r, cpos = band_tile(idx, k)

        def rule(g, r=r, cpos=cpos):
            gx = np.zeros(shape)
            gx[:, :, r * bh:(r + 1) * bh, cpos * bw:(cpos + 1) * bw] = g
            return (gx,)

        data = mosaic.data[:, :, r * bh:(r + 1) * bh, cpos * bw:(cpos + 1) * bw].copy()
        return make_node(data, (mosaic,), rule, f"split.{band_label(idx, k)}")

    return PacketGrid([band(i) for i in range(4 ** k)], k)
