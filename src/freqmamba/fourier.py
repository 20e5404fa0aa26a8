"""2D discrete Fourier analysis: spectra, amplitude/phase views, the
spectrum-exchange experiment, and the Fourier modeling branch.

The forward transform is unnormalized (plain double sum over the image);
the inverse carries the 1/(H*W) factor and returns the real part, which is
exact for conjugate-symmetric spectra and defines the branch output for
processed (non-symmetric) spectra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from . import tensor as T
from .tensor import Tensor, make_node


@dataclass
class Spectrum:
    """Per-channel complex DFT coefficients as a (real, imag) tensor pair."""

    real: Tensor
    imag: Tensor

    @property
    def shape(self):
        return self.real.data.shape


@dataclass
class AmpPhase:
    amplitude: Tensor
    phase: Tensor


def dft2(x: Tensor) -> Spectrum:
    """Unnormalized forward DFT over the two spatial axes, per channel."""
    T._check_4d(x, "dft2")
    f = np.fft.fft2(x.data, axes=(2, 3))
    n, c, h, w = x.data.shape

    def rule_real(g):
        return (np.real(np.fft.ifft2(g, axes=(2, 3))) * (h * w),)

    def rule_imag(g):
        return (np.real(np.fft.ifft2(1j * g, axes=(2, 3))) * (h * w),)

    real = make_node(f.real.copy(), (x,), rule_real, "dft2.real")
    imag = make_node(f.imag.copy(), (x,), rule_imag, "dft2.imag")
    return Spectrum(real, imag)


def idft2(s: Spectrum) -> Tensor:
    """Inverse DFT with the 1/(H*W) factor; returns the real part."""
    if s.real.data.shape != s.imag.data.shape:
        raise ShapeError(f"spectrum real/imag shape mismatch: {s.real.data.shape} vs {s.imag.data.shape}")
    n, c, h, w = s.real.data.shape
    y = np.real(np.fft.ifft2(s.real.data + 1j * s.imag.data, axes=(2, 3)))

    def rule(g):
        gf = np.fft.fft2(g, axes=(2, 3))
        return (gf.real / (h * w), gf.imag / (h * w))

    return make_node(y, (s.real, s.imag), rule, "idft2")


def to_amp_phase(s: Spectrum) -> AmpPhase:
    """amplitude = sqrt(R^2 + I^2), phase = atan2(I, R); atan2(0, 0) is 0."""
    r, i = s.real, s.imag
    amp = T.sqrt_(T.add(T.mul(r, r), T.mul(i, i)))
    pha = T.atan2_(i, r)
    return AmpPhase(amp, pha)


def from_amp_phase(ap: AmpPhase) -> Spectrum:
    return Spectrum(T.mul(ap.amplitude, T.cos_(ap.phase)),
                    T.mul(ap.amplitude, T.sin_(ap.phase)))


def export_spectrum(s: Spectrum, prefix) -> tuple[str, str]:
    """Dump a spectrum as two FTD1 files, <prefix>_real.ftd1 and _imag.ftd1."""
    from .tensor import dump_ftd1
    real_path, imag_path = f"{prefix}_real.ftd1", f"{prefix}_imag.ftd1"
    dump_ftd1(s.real, real_path)
    dump_ftd1(s.imag, imag_path)
    return real_path, imag_path


def spectrum_swap(a: Tensor, b: Tensor) -> tuple[Tensor, Tensor]:
    """Exchange amplitude spectra: returns (amp(a) with phase(b), amp(b) with phase(a))."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"spectrum_swap shape mismatch: {a.data.shape} vs {b.data.shape}")
    apa = to_amp_phase(dft2(a))
    apb = to_amp_phase(dft2(b))
    out_a = idft2(from_amp_phase(AmpPhase(apa.amplitude, apb.phase)))
    out_b = idft2(from_amp_phase(AmpPhase(apb.amplitude, apa.phase)))
    return out_a, out_b


# ---------------------------------------------------------------------------
# Fourier modeling branch


@dataclass
class ConvWeights:
    w: Tensor
    b: Tensor


def init_conv(rng: np.random.Generator, c_out: int, c_in: int, k: int,
              gain: float = 1.0, zero: bool = False) -> ConvWeights:
    """Variance-preserving conv init; activations stay O(1) across deep stacks."""
    if zero:
        w = np.zeros((c_out, c_in, k, k))
    else:
        w = rng.normal(0, gain / np.sqrt(c_in * k * k), (c_out, c_in, k, k))
    return ConvWeights(Tensor(w, requires_grad=True), Tensor(np.zeros(c_out), requires_grad=True))


@dataclass
class ConvBlockWeights:
    """Residual pair of 1x1 convs: x + conv2(silu(conv1(x))).

    The residual form admits an exact identity configuration (conv2 = 0),
    which the identity-parameterization oracles rely on.
    """

    conv1: ConvWeights
    conv2: ConvWeights


def conv_block(x: Tensor, w: ConvBlockWeights) -> Tensor:
    inner = T.pointwise_conv(T.silu(T.pointwise_conv(x, w.conv1.w, w.conv1.b)), w.conv2.w, w.conv2.b)
    return T.add(x, inner)


@dataclass
class FourierBranchWeights:
    entry: ConvWeights          # 3x3 conv producing F0
    amp_pw: ConvWeights         # 1x1 on the amplitude path
    pha_pw: ConvWeights         # 1x1 on the phase path
    amp_block: ConvBlockWeights
    pha_block: ConvBlockWeights


def fourier_branch(f_in: Tensor, w: FourierBranchWeights) -> Tensor:
    """Refine amplitude and phase separately in the frequency domain.

    entry conv -> DFT -> (amplitude | phase) -> 1x1 conv + conv block each
    -> recombine -> inverse DFT.  Output keeps the input shape.
    """
    f0 = T.conv2d(f_in, w.entry.w, w.entry.b, padding=(w.entry.w.data.shape[2] - 1) // 2)
    ap = to_amp_phase(dft2(f0))
    amp = conv_block(T.pointwise_conv(ap.amplitude, w.amp_pw.w, w.amp_pw.b), w.amp_block)
    pha = conv_block(T.pointwise_conv(ap.phase, w.pha_pw.w, w.pha_pw.b), w.pha_block)
    return idft2(from_amp_phase(AmpPhase(amp, pha)))


def init_fourier_branch(channels: int, rng: np.random.Generator) -> FourierBranchWeights:
    def block():
        # damped inner conv: the residual block starts close to the identity
        return ConvBlockWeights(init_conv(rng, channels, channels, 1),
                                init_conv(rng, channels, channels, 1, gain=0.25))

    return FourierBranchWeights(entry=init_conv(rng, channels, channels, 3),
                                amp_pw=init_conv(rng, channels, channels, 1),
                                pha_pw=init_conv(rng, channels, channels, 1),
                                amp_block=block(), pha_block=block())
