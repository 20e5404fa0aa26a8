"""Gradient-check suite covering every differentiable operation.

Each check compares the analytic gradient against central finite differences
(h = 1e-5, 64-bit) through a random fixed projection to a scalar.  The CLI
``gradcheck`` command and the acceptance tests both run this registry.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from . import blocks as B
from . import fourier as F
from . import model as M
from . import scan as S
from . import tensor as T
from . import training as TR
from . import wavelet as W
from .tensor import Tensor, grad_check


class CheckResult(NamedTuple):
    name: str
    error: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.error < self.threshold


def _proj(shape, seed):
    return Tensor(np.random.default_rng(seed).normal(size=shape))


def _wsum(x, seed=999):
    return T.sum_all(T.mul(x, _proj(x.data.shape, seed)))


def _rand(shape, seed, scale=1.0):
    return Tensor(np.random.default_rng(seed).normal(0, scale, shape))


def _away_from_zero(shape, seed, lo=0.5, hi=1.5):
    """Random values with |v| in [lo, hi]: no degenerate finite-difference coords."""
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(lo, hi, shape) * rng.choice([-1.0, 1.0], shape))


def _core_checks():
    x = _rand((1, 4, 8, 8), 0, 0.8)
    k3 = _rand((4, 4, 3, 3), 1, 0.4)
    kg = _rand((4, 1, 3, 3), 2, 0.4)
    bias = _rand((4,), 3, 0.1)
    pw = _rand((4, 4, 1, 1), 4, 0.4)
    other = _away_from_zero((1, 4, 8, 8), 5)
    gam, bet = _rand((4,), 6), _rand((4,), 7)
    yield "add", 1e-6, lambda: grad_check(lambda t: _wsum(T.add(t, other), 10), x)
    yield "mul", 1e-6, lambda: grad_check(
        lambda t: T.sum_all(T.mul(T.mul(t, other), _away_from_zero(t.shape, 11))), x)
    yield "concat_channels", 1e-6, lambda: grad_check(
        lambda t: _wsum(T.concat_channels([t, other]), 12), x)
    yield "slice_channels", 1e-6, lambda: grad_check(
        lambda t: _wsum(T.slice_channels(t, 1, 3), 13), x)
    yield "conv2d.input", 1e-6, lambda: grad_check(
        lambda t: _wsum(T.conv2d(t, k3, bias, padding=1), 14), x)
    yield "conv2d.kernel", 1e-6, lambda: grad_check(
        lambda t: _wsum(T.conv2d(x, t, bias, padding=1), 15), k3)
    yield "conv2d.grouped_strided", 1e-6, lambda: grad_check(
        lambda t: _wsum(T.conv2d(t, kg, bias, stride=2, padding=1, groups=4), 16), x)
    yield "pointwise_conv", 1e-6, lambda: grad_check(
        lambda t: _wsum(T.pointwise_conv(x, t, bias), 17), pw)
    yield "silu", 1e-6, lambda: grad_check(lambda t: _wsum(T.silu(t), 18), x)
    yield "layer_norm", 1e-6, lambda: grad_check(
        lambda t: _wsum(T.layer_norm(t, gam, bet), 19), x)
    yield "down2", 1e-6, lambda: grad_check(lambda t: _wsum(T.down2(t), 20), x)
    yield "up2", 1e-6, lambda: grad_check(lambda t: _wsum(T.up2(t), 21), x)
    yield "channel_scale", 1e-6, lambda: grad_check(
        lambda t: _wsum(T.channel_scale(x, t), 22), bias)
    yield "abs", 1e-6, lambda: grad_check(
        lambda t: _wsum(T.abs_(t), 25), _away_from_zero((1, 4, 8, 8), 26))
    yield "sqrt", 1e-6, lambda: grad_check(
        lambda t: _wsum(T.sqrt_(T.add(T.mul(t, t), Tensor(np.full(t.shape, 0.3)))), 23), x)
    yield "sin_cos_atan2", 1e-6, lambda: grad_check(
        lambda t: _wsum(T.atan2_(T.sin_(t), T.cos_(t)), 24), x)


def _fourier_checks():
    x = _rand((1, 2, 8, 8), 30)
    wb = F.init_fourier_branch(2, np.random.default_rng(31))

    def roundtrip(t):
        s = F.dft2(t)
        return _wsum(F.idft2(F.Spectrum(T.silu(s.real), T.silu(s.imag))), 32)

    def amp_phase(t):
        # the phase enters only through cos and sin: smooth across the atan2
        # cut, where the DC and Nyquist terms of a real input sit at +-0j
        amp, pha = F.polar_dft2(t)
        return _wsum(F.polar_idft2(T.silu(amp), pha), 33)

    def polar(t):
        amp, pha = F.polar_dft2(t)
        return T.add(_wsum(amp, 34), _wsum(pha, 36))

    # odd sides (no Nyquist terms) and a positive mean (DC off the cut): every
    # phase is smooth where it is checked
    x7 = Tensor(_rand((1, 2, 7, 7), 37).data + 1.0)
    yield "dft2_idft2", 1e-6, lambda: grad_check(roundtrip, x)
    yield "amp_phase_roundtrip", 1e-6, lambda: grad_check(amp_phase, x)
    yield "polar_dft2", 1e-6, lambda: grad_check(polar, x7)
    yield "polar_idft2", 1e-6, lambda: grad_check(lambda t: _wsum(F.polar_idft2(t, t), 38), x)
    yield "fourier_branch", 1e-5, lambda: grad_check(
        lambda t: _wsum(F.fourier_branch(t, wb), 35), x)


def _wavelet_checks():
    x = _rand((1, 1, 8, 8), 40)

    def f_dwt(t):
        b = W.dwt2(t)
        return T.add(_wsum(b.ll, 41), T.add(_wsum(b.lh, 42),
                     T.add(_wsum(b.hl, 43), _wsum(b.hh, 44))))

    # at h=1e-5 the bound is finite-difference conditioning; the 1e-8 module
    # invariant for these linear maps is verified at h=1e-2 in the unit tests
    yield "dwt2", 1e-6, lambda: grad_check(f_dwt, x)
    yield "wpt_iwpt", 1e-6, lambda: grad_check(
        lambda t: _wsum(W.iwpt(W.wpt(t, 2), 2), 45), x)
    yield "arrange_split", 1e-6, lambda: grad_check(
        lambda t: _wsum(W.arrange_bands(W.split_bands(t, 2)), 46), x)


def _scan_checks():
    # a (1, C, 1, L) map with one raster order: each direction runs the 1-D
    # recurrence over the L positions, forward and reversed
    u = _rand((1, 3, 1, 12), 50)
    p = S.init_scan2d_params(3, 4, 2, np.random.default_rng(51))
    line = [S.order_raster(1, 12, "row_fwd")]

    def scan_loss(params, seq):
        return _wsum(S.scan2d(seq, params, line), 52)

    yield "scan2d_1xL.input", 1e-5, lambda: grad_check(lambda t: scan_loss(p, t), u)
    for field in ("A_log", "proj_B", "proj_C", "proj_delta", "delta_bias"):
        def make(field=field):
            def f(t):
                d0 = dataclasses.replace(p.directions[0], **{field: t})
                return scan_loss(dataclasses.replace(p, directions=(d0, *p.directions[1:])), u)
            return grad_check(f, getattr(p.directions[0], field))
        yield f"scan2d_1xL.{field}", 1e-5, make
    yield "scan2d_1xL.skip", 1e-5, lambda: grad_check(
        lambda t: scan_loss(dataclasses.replace(p, skip=t), u), p.skip)

    f2d = _rand((1, 2, 4, 4), 53)
    p2d = S.init_scan2d_params(2, 3, 2, np.random.default_rng(54))
    orders = [S.order_raster(4, 4, "row_fwd")]
    yield "scan2d", 1e-5, lambda: grad_check(
        lambda t: _wsum(S.scan2d(t, p2d, orders), 55), f2d)
    wsp = S.init_mamba_pipe(2, 3, 4, np.random.default_rng(56))
    wfr = S.init_mamba_pipe(2, 3, 2, np.random.default_rng(57))
    x8 = _rand((1, 2, 8, 8), 58)
    yield "spatial_mamba", 1e-5, lambda: grad_check(
        lambda t: _wsum(S.spatial_mamba(t, wsp), 59), x8)
    yield "freq_mamba", 1e-5, lambda: grad_check(
        lambda t: _wsum(S.freq_mamba(t, wfr, 2), 60), x8)


def _block_checks():
    w = B.init_freqssm_block(2, 3, np.random.default_rng(70))
    x = _rand((1, 2, 8, 8), 71)
    g = B.init_attention_gen(2, 3, np.random.default_rng(72))
    img = _rand((1, 3, 8, 8), 73, 0.5)
    yield "spatial_branch", 1e-5, lambda: grad_check(
        lambda t: _wsum(B.spatial_branch(t, T.silu(t), w), 74), x)
    yield "band_branch", 1e-5, lambda: grad_check(
        lambda t: _wsum(B.band_branch(t, T.silu(t), w), 75), x)
    yield "freqssm_block", 1e-4, lambda: grad_check(
        lambda t: _wsum(B.freqssm_block(t, w), 76), x)
    yield "degradation_attention", 1e-5, lambda: grad_check(
        lambda t: _wsum(B.degradation_attention(img, t, g), 77), x)


def _loss_checks():
    y = _rand((1, 3, 8, 8), 80, 0.5)
    x = _rand((1, 3, 8, 8), 81, 0.5)
    yield "loss_total", 1e-6, lambda: grad_check(
        lambda t: TR.loss_total(t, x, TR.LossWeights())[0], y)


def _model_check():
    model = M.build(M.ModelConfig(), seed=90)
    # move off the zero-init head so the check exercises the whole graph
    rng = np.random.default_rng(91)
    for p in model.named_params().values():
        p.data = p.data + rng.normal(0, 0.02, p.data.shape)
    x = Tensor(np.random.default_rng(92).uniform(0.2, 0.8, (1, 3, 16, 16)))
    yield "model_1block_desk", 1e-4, lambda: grad_check(
        lambda t: _wsum(model.forward(t), 93), x)


def run_all(include_model: bool = True) -> list[CheckResult]:
    groups = [_core_checks(), _fourier_checks(), _wavelet_checks(),
              _scan_checks(), _block_checks(), _loss_checks()]
    if include_model:
        groups.append(_model_check())
    results = []
    for group in groups:
        for name, threshold, fn in group:
            results.append(CheckResult(name, float(fn()), threshold))
    return results


def format_table(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = [f"{'check'.ljust(width)}  max_rel_err  threshold  status"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name.ljust(width)}  {r.error:.3e}    {r.threshold:.0e}      {status}")
    return "\n".join(lines)
