import numpy as np
import pytest

from freqmamba import wavelet


def _tile_rank_map(h, w, k):
    """Recursive frequency rank of the tile containing each pixel (H, W)."""
    side = 2 ** k
    th, tw = h // side, w // side
    ranks = np.empty((h, w), dtype=np.int64)
    for band in range(4 ** k):
        r, c = wavelet.band_tile(band, k)
        ranks[r * th:(r + 1) * th, c * tw:(c + 1) * tw] = band
    return ranks


@pytest.fixture
def tile_rank_map():
    """Tile-rank oracle that `scan.order_freq_blocks` is checked against."""
    return _tile_rank_map


# rows: LL, LH, HL, HH; columns: the 2x2 corners (a, b / c, d) of a block
_HAAR = 0.5 * np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0],
                        [1.0, 1.0, -1.0, -1.0], [1.0, -1.0, -1.0, 1.0]])


def _packet_oracle(x, k, inverse=False):
    """Level-k Haar packet mosaic of an NCHW array by the per-band recursion,
    each band on tile ``band_tile(i, k)`` (or the inverse of that)."""
    n, c, h, w = x.shape
    bh, bw = h >> k, w >> k
    tiles = [wavelet.band_tile(i, k) for i in range(4 ** k)]
    if not inverse:
        bands = [x]
        for _ in range(k):
            corners = [[b[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1)] for b in bands]
            bands = [sum(s * a for s, a in zip(row, cs)) for cs in corners for row in _HAAR]
        out = np.empty((n, c, h, w))
        for band, (r, q) in zip(bands, tiles):
            out[:, :, r * bh:(r + 1) * bh, q * bw:(q + 1) * bw] = band
        return out
    bands = [x[:, :, r * bh:(r + 1) * bh, q * bw:(q + 1) * bw] for r, q in tiles]
    for _ in range(k):
        merged = []
        for g in range(0, len(bands), 4):
            quad = bands[g:g + 4]
            m, cc, th, tw = quad[0].shape
            block = np.empty((m, cc, 2 * th, 2 * tw))
            for col, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
                block[:, :, i::2, j::2] = sum(_HAAR[row, col] * b for row, b in enumerate(quad))
            merged.append(block)
        bands = merged
    return bands[0]


@pytest.fixture
def packet_oracle():
    """Per-band Haar packet oracle that `wavelet.wpt` and `wavelet.iwpt` are checked against."""
    return _packet_oracle
