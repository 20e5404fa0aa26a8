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
