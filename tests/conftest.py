import runpy
from pathlib import Path

import numpy as np
import pytest

from freqmamba import model as M
from freqmamba import wavelet
from freqmamba.fourier import ConvBlockWeights, ConvWeights, FourierBranchWeights
from freqmamba.tensor import Tensor

_ORACLES = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"))


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


def _scan_oracle(f, directions, perms, skip):
    """Plain-loop scan of an (N, C, H, W) array: direction g (an SsmDynamics)
    visits the flat pixel indices perms[g]; the readouts are summed, plus skip * f."""
    dirs = [{"A_log": d.A_log.data, "proj_B": d.proj_B.data, "proj_C": d.proj_C.data,
             "proj_delta": d.proj_delta.data, "delta_bias": d.delta_bias.data} for d in directions]
    return _ORACLES["scan2d"](f, dirs, perms, skip)


@pytest.fixture
def scan_oracle():
    """The step-by-step scan of `perfbench/oracles.py` that `scan.scan2d` is checked against."""
    return _scan_oracle


def _dft2_direct(x):
    """Brute-force double-sum DFT over the last two axes."""
    h, w = x.shape[-2:]
    u = np.arange(h)[:, None] * np.arange(h)[None, :] / h
    v = np.arange(w)[:, None] * np.arange(w)[None, :] / w
    eh = np.exp(-2j * np.pi * u)
    ew = np.exp(-2j * np.pi * v)
    return np.einsum("uh,...hw,wv->...uv", eh, x, ew)


@pytest.fixture
def dft2_direct():
    """Double-sum DFT oracle that `fourier.dft2` is checked against."""
    return _dft2_direct


def _identity_fourier_branch(channels):
    """Weights under which `fourier.fourier_branch` is a pure DFT round trip of its input."""
    def ident(k):
        w = np.zeros((channels, channels, k, k))
        for c in range(channels):
            w[c, c, k // 2, k // 2] = 1.0
        return ConvWeights(Tensor(w, requires_grad=True), Tensor(np.zeros(channels), requires_grad=True))

    def zero_block():
        zero = ConvWeights(Tensor(np.zeros((channels, channels, 1, 1)), requires_grad=True),
                           Tensor(np.zeros(channels), requires_grad=True))
        return ConvBlockWeights(ident(1), zero)

    return FourierBranchWeights(entry=ident(3), amp_pw=ident(1), pha_pw=ident(1),
                                amp_block=zero_block(), pha_block=zero_block())


@pytest.fixture
def identity_fourier_branch():
    """Builder of identity Fourier-branch weights, by channel count."""
    return _identity_fourier_branch


@pytest.fixture
def perturbed_model():
    """`build(ModelConfig(), 1)` with every parameter moved by N(0, 0.02).

    A freshly built model has a zero head, so every gradient above the head
    is 0; moved off it, a step exercises every parameter.
    """
    model = M.build(M.ModelConfig(), 1)
    rng = np.random.default_rng(0)
    for p in model.named_params().values():
        p.data = p.data + rng.normal(0, 0.02, p.data.shape)
    return model
