import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqmamba import tensor as T
from freqmamba import wavelet as W
from freqmamba.errors import ShapeError
from freqmamba.tensor import Tensor, grad_check


def rand(shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape))


def test_dwt2_constant_image():
    x = Tensor(np.ones((1, 1, 4, 4)))
    b = W.dwt2(x)
    np.testing.assert_allclose(b.ll.data, 2.0)
    for band in (b.lh, b.hl, b.hh):
        np.testing.assert_allclose(band.data, 0.0)


def test_dwt2_hand_block():
    x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    b = W.dwt2(x)
    assert b.ll.data[0, 0, 0, 0] == 5.0
    assert b.lh.data[0, 0, 0, 0] == -1.0
    assert b.hl.data[0, 0, 0, 0] == -2.0
    assert b.hh.data[0, 0, 0, 0] == 0.0
    # the mosaic holds the same four numbers as its quadrants LL, LH / HL, HH
    np.testing.assert_array_equal(W.wpt(x, 1).data, [[[[5.0, -1.0], [-2.0, 0.0]]]])


def test_dwt2_roundtrip_and_energy():
    x = rand((2, 3, 8, 8), seed=1)
    b = W.dwt2(x)
    np.testing.assert_allclose(W.idwt2(b).data, x.data, atol=1e-12)
    e_bands = sum(np.sum(t.data ** 2) for t in b.as_tuple())
    np.testing.assert_allclose(e_bands, np.sum(x.data ** 2), rtol=1e-12)


def test_dwt2_odd_size_error():
    with pytest.raises(ShapeError, match="pad"):
        W.dwt2(rand((1, 1, 3, 4)))
    with pytest.raises(ShapeError, match="pad"):
        W.wpt(rand((1, 1, 4, 3)), 1)


def test_idwt2_unequal_bands_error():
    b = W.dwt2(rand((1, 1, 4, 4), seed=2))
    with pytest.raises(ShapeError, match="equal band shapes"):
        W.idwt2(W.WaveletBands(b.ll, b.lh, b.hl, rand((1, 1, 2, 4))))


def test_wpt_constant_k2():
    x = Tensor(np.ones((1, 1, 8, 8)))
    m = W.wpt(x, 2).data
    np.testing.assert_allclose(m[:, :, :2, :2], 4.0)
    m[:, :, :2, :2] = 0.0
    np.testing.assert_allclose(m, 0.0, atol=1e-12)


@pytest.mark.parametrize("k,size", [(1, 8), (2, 16), (3, 64), (2, 64)])
def test_wpt_roundtrip(k, size):
    x = rand((1, 2, size, size), seed=k * 10 + size)
    np.testing.assert_allclose(W.iwpt(W.wpt(x, k), k).data, x.data, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_wpt_energy_conservation(k):
    x = rand((1, 1, 16, 16), seed=3 + k)
    e = np.sum(W.wpt(x, k).data ** 2)
    np.testing.assert_allclose(e, np.sum(x.data ** 2), rtol=1e-12)


def test_wpt_divisibility_error():
    with pytest.raises(ShapeError, match="divisible"):
        W.wpt(rand((1, 1, 6, 6)), 2)
    with pytest.raises(ShapeError, match="divisible"):
        W.iwpt(rand((1, 1, 6, 6)), 2)
    with pytest.raises(ShapeError, match="k >= 1"):
        W.wpt(rand((1, 1, 4, 4)), 0)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("shape", [(2, 3, 16, 16), (3, 2, 8, 24), (2, 2, 32, 16)])
def test_wpt_iwpt_match_per_band_oracle(packet_oracle, k, shape):
    rng = np.random.default_rng(k)
    x, m = rng.normal(size=shape), rng.normal(size=shape)
    assert np.array_equal(W.wpt(Tensor(x), k).data, packet_oracle(x, k))
    assert np.array_equal(W.iwpt(Tensor(m), k).data, packet_oracle(m, k, inverse=True))


def test_wpt_level1_equals_dwt2():
    x = rand((1, 2, 4, 4), seed=2)
    mosaic = W.wpt(x, 1).data
    b = W.dwt2(x)
    for (r, c), band in zip(((0, 0), (0, 1), (1, 0), (1, 1)), b.as_tuple()):
        np.testing.assert_array_equal(mosaic[:, :, 2 * r:2 * r + 2, 2 * c:2 * c + 2], band.data)


def test_arrange_k1_quadrants():
    x = rand((1, 1, 4, 4), seed=4)
    g = W.split_bands(W.wpt(x, 1), 1)
    mosaic = W.arrange_bands(g)
    np.testing.assert_array_equal(mosaic.data[:, :, :2, :2], g.bands[0].data)  # LL
    np.testing.assert_array_equal(mosaic.data[:, :, :2, 2:], g.bands[1].data)  # LH
    np.testing.assert_array_equal(mosaic.data[:, :, 2:, :2], g.bands[2].data)  # HL
    np.testing.assert_array_equal(mosaic.data[:, :, 2:, 2:], g.bands[3].data)  # HH


def test_arrange_split_roundtrip_bit_exact():
    mosaic = W.wpt(rand((2, 2, 16, 16), seed=5), 2)
    g = W.split_bands(mosaic, 2)
    np.testing.assert_array_equal(W.arrange_bands(g).data, mosaic.data)
    for a, b in zip(W.split_bands(W.arrange_bands(g), 2).bands, g.bands):
        np.testing.assert_array_equal(a.data, b.data)


def test_k2_tile_enumeration():
    # 4x4 input, 1x1 tiles: the quadrant-recursive positions of the 16 labels
    tiles = [W.band_tile(i, 2) for i in range(16)]
    flat = [r * 4 + c for r, c in tiles]
    assert flat == [0, 1, 4, 5, 2, 3, 6, 7, 8, 9, 12, 13, 10, 11, 14, 15]
    assert W.band_label(0, 2) == "LLLL"
    assert W.band_label(3, 2) == "LLHH"
    assert W.band_label(15, 2) == "HHHH"
    # tiling is a partition of the mosaic
    assert sorted(flat) == list(range(16))


def test_labels_lexicographic():
    g = W.split_bands(W.wpt(rand((1, 1, 4, 4), seed=6), 2), 2)
    labels = g.labels()
    assert labels[:5] == ["LLLL", "LLLH", "LLHL", "LLHH", "LHLL"]


@given(st.integers(1, 3))
@settings(max_examples=6, deadline=None)
def test_wpt_roundtrip_property(k):
    x = rand((1, 1, 8 * 2 ** k, 8 * 2 ** k), seed=100 + k)
    m = W.wpt(x, k)
    np.testing.assert_allclose(W.iwpt(m, k).data, x.data, atol=1e-9)
    np.testing.assert_array_equal(W.arrange_bands(W.split_bands(m, k)).data, m.data)


def test_wavelet_grad_checks():
    x = rand((1, 1, 8, 8), seed=7)
    rng = np.random.default_rng(8)
    w1 = rng.normal(size=(1, 1, 4, 4))
    w2 = rng.normal(size=(1, 1, 8, 8))

    w1b = rng.normal(size=(1, 1, 4, 4))

    def f_dwt(t):
        b = W.dwt2(t)
        return T.add(T.sum_all(T.mul(b.hh, Tensor(w1))), T.sum_all(T.mul(b.ll, Tensor(w1b))))

    def f_roundtrip(t):
        return T.sum_all(T.mul(W.iwpt(W.wpt(t, 2), 2), Tensor(w2)))

    def f_mosaic(t):
        return T.sum_all(T.mul(W.wpt(t, 2), Tensor(w2)))

    def f_inverse(t):
        return T.sum_all(T.mul(W.iwpt(t, 2), Tensor(w2)))

    def f_split(t):
        b = W.WaveletBands(*W.split_bands(t, 1).bands)
        return T.sum_all(T.mul(W.idwt2(b), Tensor(w2)))

    # the maps are linear, so a large step has zero truncation error and
    # keeps cancellation noise far below the 1e-8 bound
    assert grad_check(f_dwt, x, h=1e-2) < 1e-8
    assert grad_check(f_roundtrip, x, h=1e-2) < 1e-8
    assert grad_check(f_mosaic, x, h=1e-2) < 1e-8
    assert grad_check(f_inverse, x, h=1e-2) < 1e-8
    assert grad_check(f_split, x, h=1e-2) < 1e-8
