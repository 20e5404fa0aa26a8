"""Three-branch frequency-SSM block and the degradation prior attention.

Branch layout per block: the spatial and frequency-band branches consume the
layer-normalized features, the Fourier branch consumes the raw input; the
input joins the spatial branch output through a residual before the three
outputs are concatenated and fused by a 1x1 conv.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ShapeError
from . import tensor as T
from . import wavelet as W
from . import scan as S
from .fourier import ConvWeights, FourierBranchWeights, fourier_branch, init_conv, init_fourier_branch
from .scan import MambaPipeWeights, Scan2dParams
from .tensor import Tensor


def wpt_level_for(h: int, w: int) -> int:
    """Deepest packet level (<= 2) the resolution supports."""
    k = 2
    while k > 1 and (h % (2 ** k) or w % (2 ** k)):
        k -= 1
    if h % (2 ** k) or w % (2 ** k):
        raise ShapeError(f"frequency band branch requires H, W divisible by {2 ** k}, got {h}x{w}")
    return k


@dataclass
class FreqSsmBlockWeights:
    norm_gamma: Tensor
    norm_beta: Tensor
    spatial_pw: ConvWeights                               # entry 1x1 of the spatial branch
    spatial_mamba: Union[MambaPipeWeights, ConvWeights]   # ConvWeights when the mamba is ablated
    band: Optional[MambaPipeWeights]
    fourier: Optional[FourierBranchWeights]
    fuse: ConvWeights


def init_freqssm_block(channels: int, state_dim: int, rng: np.random.Generator,
                       use_fourier: bool = True, use_band: bool = True,
                       use_spatial_mamba: bool = True) -> FreqSsmBlockWeights:
    if use_spatial_mamba:
        spatial = S.init_mamba_pipe(channels, state_dim, 4, rng)
    else:
        spatial = init_conv(rng, channels, channels, 3)  # plain conv replacement, Table-2 style
    n_branches = 1 + int(use_band) + int(use_fourier)
    return FreqSsmBlockWeights(
        norm_gamma=Tensor(np.ones(channels), requires_grad=True),
        norm_beta=Tensor(np.zeros(channels), requires_grad=True),
        spatial_pw=init_conv(rng, channels, channels, 1),
        spatial_mamba=spatial,
        band=S.init_mamba_pipe(channels, state_dim, 2, rng) if use_band else None,
        fourier=init_fourier_branch(channels, rng) if use_fourier else None,
        fuse=init_conv(rng, channels, n_branches * channels, 1),
    )


def spatial_branch(f_ln: Tensor, gate: Tensor, w: FreqSsmBlockWeights) -> Tensor:
    """Mamba path on 1x1-projected features, times the block's gate SiLU(f_ln)."""
    x = T.pointwise_conv(f_ln, w.spatial_pw.w, w.spatial_pw.b)
    if isinstance(w.spatial_mamba, MambaPipeWeights):
        x = S.spatial_mamba(x, w.spatial_mamba)
    else:
        x = T.conv2d(x, w.spatial_mamba.w, w.spatial_mamba.b)
    return T.mul(x, gate)


def band_branch(f_ln: Tensor, gate: Tensor, w: FreqSsmBlockWeights) -> Tensor:
    """Packet-transform the features, scan the mosaic along the frequency
    order with ``scan.freq_mamba``, transform back, then multiply by the
    block's gate SiLU(f_ln)."""
    n, c, h, wd_ = f_ln.data.shape
    k = wpt_level_for(h, wd_)
    mosaic = S.freq_mamba(W.wpt(f_ln, k), w.band, k)
    return T.mul(W.iwpt(mosaic, k), gate)


def freqssm_block(f_in: Tensor, w: FreqSsmBlockWeights) -> Tensor:
    """Fuse the three branches with a 1x1 conv."""
    f_ln = T.layer_norm(f_in, w.norm_gamma, w.norm_beta)
    gate = T.silu(f_ln)
    parts = [T.add(f_in, spatial_branch(f_ln, gate, w))]
    if w.band is not None:
        parts.append(band_branch(f_ln, gate, w))
    del f_ln, gate  # not read again: the no-grad forward frees them before the Fourier branch
    if w.fourier is not None:
        parts.append(fourier_branch(f_in, w.fourier))
    fused = parts[0] if len(parts) == 1 else T.concat_channels(parts)
    return T.pointwise_conv(fused, w.fuse.w, w.fuse.b)


# ---------------------------------------------------------------------------
# degradation prior attention


@dataclass
class AttentionMapGen:
    entry: ConvWeights       # 1x1 conv, image channels -> feature channels
    scan: Scan2dParams


def init_attention_gen(channels: int, state_dim: int, rng: np.random.Generator) -> AttentionMapGen:
    entry = init_conv(rng, channels, 3, 1)
    scan = S.init_scan2d_params(channels, state_dim, 4, rng)
    # start as a no-op prior (M ~ 0): zero skip, damped readout; the map is
    # applied multiplicatively per block, so an O(1) map at init would
    # compound feature magnitudes across stages
    scan.skip.data[:] = 0.0
    for d in scan.directions:
        d.proj_C.data *= 0.1
    return AttentionMapGen(entry, scan)


def attention_map(i_scale: Tensor, g: AttentionMapGen) -> Tensor:
    """Selective 2D scan of the (resized) degraded image; no squashing."""
    n, c, h, w = i_scale.data.shape
    x = T.pointwise_conv(i_scale, g.entry.w, g.entry.b)
    return S.scan2d(x, g.scan, S.spatial_orders(h, w))


def apply_attention(f: Tensor, m: Tensor) -> Tensor:
    if f.data.shape != m.data.shape:
        raise ShapeError(f"attention map shape {m.data.shape} does not match features {f.data.shape}")
    return T.add(T.mul(f, m), f)
