import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqmamba import fourier as F
from freqmamba import tensor as T
from freqmamba.errors import ShapeError
from freqmamba.tensor import Tensor, grad_check


def rand(shape, seed=0, scale=1.0):
    return Tensor(np.random.default_rng(seed).normal(0, scale, shape))


def test_dft2_constant_image():
    c = 1.7
    x = Tensor(np.full((1, 1, 4, 6), c))
    s = F.dft2(x)
    np.testing.assert_allclose(s.real.data[0, 0, 0, 0], c * 24, atol=1e-9)
    rest = s.real.data.copy()
    rest[0, 0, 0, 0] = 0.0
    np.testing.assert_allclose(rest, 0.0, atol=1e-9)
    np.testing.assert_allclose(s.imag.data, 0.0, atol=1e-9)


def test_dft2_two_by_two_hand_values():
    x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    s = F.dft2(x)
    np.testing.assert_allclose(s.real.data[0, 0], [[10.0, -2.0], [-4.0, 0.0]], atol=1e-12)
    np.testing.assert_allclose(s.imag.data[0, 0], 0.0, atol=1e-12)


def test_idft2_inverts_dft2():
    x = rand((1, 2, 8, 8), seed=1)
    y = F.idft2(F.dft2(x))
    np.testing.assert_allclose(y.data, x.data, atol=1e-9)


@pytest.mark.parametrize("h,w", [(1, 1), (2, 3), (5, 5), (8, 4), (16, 16), (7, 16)])
def test_dft2_matches_direct_sum(h, w, dft2_direct):
    x = np.random.default_rng(h * 31 + w).normal(size=(1, 2, h, w))
    got = F.dft2(Tensor(x))
    want = dft2_direct(x)
    np.testing.assert_allclose(got.real.data, want.real, atol=1e-6)
    np.testing.assert_allclose(got.imag.data, want.imag, atol=1e-6)


def test_conjugate_symmetry():
    x = rand((1, 1, 6, 8), seed=2)
    s = F.dft2(x)
    c = s.real.data[0, 0] + 1j * s.imag.data[0, 0]
    h, w = c.shape
    for u in range(h):
        for v in range(w):
            np.testing.assert_allclose(c[u, v], np.conj(c[(h - u) % h, (w - v) % w]), atol=1e-9)


def test_parseval():
    x = rand((1, 3, 8, 8), seed=3)
    ap = F.to_amp_phase(F.dft2(x))
    lhs = np.sum(x.data ** 2)
    rhs = np.sum(ap.amplitude.data ** 2) / 64
    assert abs(lhs - rhs) / abs(lhs) < 1e-6


def test_amp_phase_hand_values():
    s = F.Spectrum(Tensor(np.full((1, 1, 1, 1), 3.0)), Tensor(np.full((1, 1, 1, 1), 4.0)))
    ap = F.to_amp_phase(s)
    np.testing.assert_allclose(ap.amplitude.data, 5.0)
    np.testing.assert_allclose(ap.phase.data, 0.9272952180016122, atol=1e-9)
    s2 = F.Spectrum(Tensor(np.zeros((1, 1, 1, 1))), Tensor(np.ones((1, 1, 1, 1))))
    ap2 = F.to_amp_phase(s2)
    np.testing.assert_allclose(ap2.amplitude.data, 1.0)
    np.testing.assert_allclose(ap2.phase.data, np.pi / 2)


def test_atan2_origin_is_zero():
    s = F.Spectrum(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 2, 2))))
    np.testing.assert_array_equal(F.to_amp_phase(s).phase.data, 0.0)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_amp_phase_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    s = F.Spectrum(Tensor(rng.normal(size=(1, 1, 4, 4))), Tensor(rng.normal(size=(1, 1, 4, 4))))
    back = F.from_amp_phase(F.to_amp_phase(s))
    np.testing.assert_allclose(back.real.data, s.real.data, atol=1e-9)
    np.testing.assert_allclose(back.imag.data, s.imag.data, atol=1e-9)


def test_amplitude_nonnegative():
    s = F.dft2(rand((1, 2, 6, 6), seed=4))
    assert (F.to_amp_phase(s).amplitude.data >= 0).all()


# ---------------------------------------------------------------------------
# spectrum swap


def test_spectrum_swap_self_identity():
    x = rand((1, 3, 8, 8), seed=5)
    a, b = F.spectrum_swap(x, x)
    np.testing.assert_allclose(a.data, x.data, atol=1e-9)
    np.testing.assert_allclose(b.data, x.data, atol=1e-9)


def test_spectrum_swap_involution():
    x, y = rand((1, 2, 8, 8), seed=6), rand((1, 2, 8, 8), seed=7)
    s1, s2 = F.spectrum_swap(x, y)
    back1, back2 = F.spectrum_swap(s1, s2)
    np.testing.assert_allclose(back1.data, x.data, atol=1e-9)
    np.testing.assert_allclose(back2.data, y.data, atol=1e-9)


def test_spectrum_swap_outputs_real():
    x, y = rand((1, 1, 8, 8), seed=8), rand((1, 1, 8, 8), seed=9)
    apx = F.to_amp_phase(F.dft2(x))
    apy = F.to_amp_phase(F.dft2(y))
    mixed = F.from_amp_phase(F.AmpPhase(apx.amplitude, apy.phase))
    z = np.fft.ifft2(mixed.real.data + 1j * mixed.imag.data, axes=(2, 3))
    assert np.abs(z.imag).max() < 1e-9


def test_spectrum_swap_shape_mismatch():
    with pytest.raises(ShapeError):
        F.spectrum_swap(rand((1, 1, 4, 4)), rand((1, 1, 4, 6)))


# ---------------------------------------------------------------------------
# fourier branch


def _reference_fourier_branch(x, w):
    """Straight-line numpy evaluation of the branch, independent of autodiff ops."""
    def conv3(x, cw):
        k = cw.w.data.shape[2]
        p = (k - 1) // 2
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
        return np.einsum("ncyxij,ocij->noyx", win, cw.w.data) + cw.b.data[None, :, None, None]

    def pw(x, cw):
        return np.einsum("nchw,oc->nohw", x, cw.w.data[:, :, 0, 0]) + cw.b.data[None, :, None, None]

    def block(x, bw):
        z = pw(x, bw.conv1)
        z = z / (1.0 + np.exp(-z))
        return x + pw(z, bw.conv2)

    f0 = conv3(x, w.entry)
    spec = np.fft.fft2(f0, axes=(2, 3))
    amp, pha = np.abs(spec), np.angle(spec)
    amp = block(pw(amp, w.amp_pw), w.amp_block)
    pha = block(pw(pha, w.pha_pw), w.pha_block)
    return np.real(np.fft.ifft2(amp * np.exp(1j * pha), axes=(2, 3)))


def test_fourier_branch_identity_parameterization(identity_fourier_branch):
    x = rand((1, 3, 8, 8), seed=10)
    w = identity_fourier_branch(3)
    out = F.fourier_branch(x, w)
    # entry conv is identity, so F0 = x and the branch is a pure round trip
    np.testing.assert_allclose(out.data, x.data, atol=1e-9)


def test_fourier_branch_zero_input():
    w = F.init_fourier_branch(2, np.random.default_rng(11))
    out = F.fourier_branch(Tensor(np.zeros((1, 2, 4, 4))), w)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_fourier_branch_matches_reference():
    x = rand((2, 3, 8, 8), seed=12)
    w = F.init_fourier_branch(3, np.random.default_rng(13))
    got = F.fourier_branch(x, w)
    want = _reference_fourier_branch(x.data, w)
    np.testing.assert_allclose(got.data, want, atol=1e-9)
    assert got.data.shape == x.data.shape


def test_fourier_branch_grad_check():
    w = F.init_fourier_branch(2, np.random.default_rng(14))
    x = rand((1, 2, 8, 8), seed=15)
    proj = np.random.default_rng(16).normal(size=(1, 2, 8, 8))
    err = grad_check(lambda t: T.sum_all(T.mul(F.fourier_branch(t, w), Tensor(proj))), x)
    assert err < 1e-5


def test_dft_idft_grad_check():
    x = rand((1, 1, 4, 4), seed=17)
    proj = np.random.default_rng(18).normal(size=(1, 1, 4, 4))

    def f(t):
        s = F.dft2(t)
        y = F.idft2(F.Spectrum(T.silu(s.real), T.silu(s.imag)))
        return T.sum_all(T.mul(y, Tensor(proj)))

    assert grad_check(f, x) < 1e-6


def test_amp_phase_grad_check():
    x = rand((1, 1, 4, 4), seed=19)
    proj1 = np.random.default_rng(20).normal(size=(1, 1, 4, 4))
    proj2 = np.random.default_rng(21).normal(size=(1, 1, 4, 4))

    def f(t):
        ap = F.to_amp_phase(F.dft2(t))
        return T.add(T.sum_all(T.mul(ap.amplitude, Tensor(proj1))),
                     T.sum_all(T.mul(ap.phase, Tensor(proj2))))

    assert grad_check(f, x) < 1e-6


def test_export_spectrum_roundtrip(tmp_path):
    from freqmamba.tensor import load_ftd1

    x = rand((1, 2, 8, 8), seed=50)
    s = F.dft2(x)
    rp, ip = F.export_spectrum(s, tmp_path / "spec")
    real = load_ftd1(rp)
    imag = load_ftd1(ip)
    np.testing.assert_allclose(real.data, s.real.data.astype(np.float32), atol=1e-6)
    np.testing.assert_allclose(imag.data, s.imag.data.astype(np.float32), atol=1e-6)
