"""2D discrete Fourier analysis: spectra, the amplitude/phase transform pair,
the spectrum-exchange experiment, and the Fourier modeling branch.

The forward transform is unnormalized (plain double sum over the image); the
inverse carries the 1/(H*W) factor and returns the real part: exact for
conjugate-symmetric spectra, the branch output for processed ones.
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


def dft2(x: Tensor) -> Spectrum:
    """Unnormalized forward DFT over the two spatial axes, per channel."""
    T._check_4d(x, "dft2")
    f = np.fft.fft2(x.data, axes=(2, 3))
    return Spectrum(make_node(f.real.copy(), (x,), lambda g: (_fft_adjoint(g).real,), "dft2.real"),
                    make_node(f.imag.copy(), (x,), lambda g: (-_fft_adjoint(g).imag,), "dft2.imag"))


def idft2(s: Spectrum) -> Tensor:
    """Inverse DFT with the 1/(H*W) factor; returns the real part."""
    if s.real.data.shape != s.imag.data.shape:
        raise ShapeError(f"spectrum real/imag shape mismatch: {s.real.data.shape} vs {s.imag.data.shape}")
    y = np.fft.ifft2(s.real.data + 1j * s.imag.data, axes=(2, 3)).real.copy()

    def rule(g):
        gf = np.fft.fft2(g, axes=(2, 3), norm="forward")
        return (gf.real, gf.imag)

    return make_node(y, (s.real, s.imag), rule, "idft2")


def _fft_adjoint(g):  # the transpose of the unnormalized fft2: H*W * ifft2(g)
    return np.fft.ifft2(g, axes=(2, 3), norm="forward")


def _over(g, d):  # g / d, and 0 where d (real) is 0
    return np.where(d > 0, g / np.where(d > 0, d, 1.0), 0.0)


def polar_dft2(x: Tensor) -> tuple[Tensor, Tensor]:
    """(sqrt(R^2 + I^2), atan2(I, R)) of F = dft2(x): two nodes on one FFT.  Each rule
    keeps only F and maps dR + i dI (g F/|F| or i g F/|F|^2, 0 at F = 0) back by one FFT."""
    T._check_4d(x, "polar_dft2")
    f = np.fft.fft2(x.data, axes=(2, 3))

    def rule_amp(g):
        return (_fft_adjoint(g * _over(f, np.abs(f))).real,)

    def rule_phase(g):  # F/|F| times g/|F|: g/|F|^2 would overflow where |F|^2 is subnormal
        m = np.abs(f)
        return (-_fft_adjoint(_over(f, m) * _over(g, m)).imag,)

    return (make_node(np.sqrt(f.real * f.real + f.imag * f.imag), (x,), rule_amp, "polar_dft2.amplitude"),
            make_node(np.arctan2(f.imag, f.real), (x,), rule_phase, "polar_dft2.phase"))


def polar_idft2(amplitude: Tensor, phase: Tensor) -> Tensor:
    """Re idft2(amplitude * e^(i phase)), one node.  With G = fft2(g) / (H*W) and
    E = G e^(-i phase), the rule gives Re E to the amplitude, amplitude * Im E to the phase."""
    a, p = amplitude.data, phase.data
    if a.shape != p.shape:
        raise ShapeError(f"polar_idft2 amplitude/phase shape mismatch: {a.shape} vs {p.shape}")
    z = np.empty(a.shape, np.complex128)
    z.real = a * np.cos(p)
    z.imag = a * np.sin(p)
    # ifft2's axis order as two 1-D inverses written back into z: no temporary complex map
    np.fft.ifft(z, axis=3, out=z)
    np.fft.ifft(z, axis=2, out=z)
    y = z.real.copy()

    def rule(g):
        gf = np.fft.fft2(g, axes=(2, 3), norm="forward")
        c, s = np.cos(p), np.sin(p)
        return (gf.real * c + gf.imag * s, a * (gf.imag * c - gf.real * s))

    return make_node(y, (amplitude, phase), rule, "polar_idft2")


def export_spectrum(s: Spectrum, prefix) -> tuple[str, str]:
    """Dump a spectrum as two FTD1 files, <prefix>_real.ftd1 and _imag.ftd1."""
    real_path, imag_path = f"{prefix}_real.ftd1", f"{prefix}_imag.ftd1"
    T.dump_ftd1(s.real, real_path)
    T.dump_ftd1(s.imag, imag_path)
    return real_path, imag_path


def spectrum_swap(a: Tensor, b: Tensor) -> tuple[Tensor, Tensor]:
    """Exchange amplitude spectra: returns (amp(a) with phase(b), amp(b) with phase(a))."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"spectrum_swap shape mismatch: {a.data.shape} vs {b.data.shape}")
    (amp_a, pha_a), (amp_b, pha_b) = polar_dft2(a), polar_dft2(b)
    return polar_idft2(amp_a, pha_b), polar_idft2(amp_b, pha_a)


# ---------------------------------------------------------------------------
# Fourier modeling branch


@dataclass
class ConvWeights:
    w: Tensor
    b: Tensor


def init_conv(rng: np.random.Generator, c_out: int, c_in: int, k: int,
              gain: float = 1.0, zero: bool = False) -> ConvWeights:
    """Variance-preserving conv init; activations stay O(1) across deep stacks."""
    shape = (c_out, c_in, k, k)
    w = np.zeros(shape) if zero else rng.normal(0, gain / np.sqrt(c_in * k * k), shape)
    return ConvWeights(Tensor(w, requires_grad=True), Tensor(np.zeros(c_out), requires_grad=True))


@dataclass
class ConvBlockWeights:
    """Residual pair of 1x1 convs, x + conv2(silu(conv1(x))): conv2 = 0 is an
    exact identity, which the identity-parameterization oracles rely on."""

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
    """Refine amplitude and phase separately in the frequency domain: entry
    conv -> polar DFT -> 1x1 conv + conv block on each of amplitude and phase
    -> polar inverse DFT.  Output keeps the input shape."""
    amp, pha = polar_dft2(T.conv2d(f_in, w.entry.w, w.entry.b))
    amp = conv_block(T.pointwise_conv(amp, w.amp_pw.w, w.amp_pw.b), w.amp_block)
    pha = conv_block(T.pointwise_conv(pha, w.pha_pw.w, w.pha_pw.b), w.pha_block)
    return polar_idft2(amp, pha)


def init_fourier_branch(channels: int, rng: np.random.Generator) -> FourierBranchWeights:
    def block():
        # damped inner conv: the residual block starts close to the identity
        return ConvBlockWeights(init_conv(rng, channels, channels, 1),
                                init_conv(rng, channels, channels, 1, gain=0.25))

    return FourierBranchWeights(entry=init_conv(rng, channels, channels, 3),
                                amp_pw=init_conv(rng, channels, channels, 1),
                                pha_pw=init_conv(rng, channels, channels, 1),
                                amp_block=block(), pha_block=block())
