import numpy as np
import pytest

from freqmamba import blocks as B
from freqmamba import fourier as F
from freqmamba import scan as S
from freqmamba import tensor as T
from freqmamba.errors import ShapeError
from freqmamba.tensor import Tensor, grad_check


def rand(shape, seed=0, scale=1.0):
    return Tensor(np.random.default_rng(seed).normal(0, scale, shape))


def make_block(c=2, s=3, seed=0, **kw):
    return B.init_freqssm_block(c, s, np.random.default_rng(seed), **kw)


def weighted(x, w):
    return T.sum_all(T.mul(x, Tensor(w)))


# ---------------------------------------------------------------------------
# spatial branch


def test_spatial_branch_zero_input():
    w = make_block(seed=1)
    f_ln = Tensor(np.zeros((1, 2, 8, 8)))
    out = B.spatial_branch(f_ln, T.silu(f_ln), w)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_spatial_branch_multiplicative_structure():
    w = make_block(seed=2)
    f_ln = rand((1, 2, 8, 8), seed=3)
    out = B.spatial_branch(f_ln, T.silu(f_ln), w)
    gate = T.silu(f_ln).data
    mamba_path = S.spatial_mamba(T.pointwise_conv(f_ln, w.spatial_pw.w, w.spatial_pw.b),
                                 w.spatial_mamba).data
    np.testing.assert_allclose(out.data / gate, mamba_path, atol=1e-9)


def test_spatial_branch_grad_check():
    w = make_block(seed=4)
    x = rand((1, 2, 8, 8), seed=5)
    proj = np.random.default_rng(6).normal(size=(1, 2, 8, 8))
    assert grad_check(lambda t: weighted(B.spatial_branch(t, T.silu(t), w), proj), x) < 1e-5


# ---------------------------------------------------------------------------
# band branch


def test_band_branch_zero_input():
    w = make_block(seed=7)
    f_ln = Tensor(np.zeros((1, 2, 8, 8)))
    out = B.band_branch(f_ln, T.silu(f_ln), w)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_band_branch_identity_mamba_reduces_to_gated_identity(monkeypatch):
    monkeypatch.setattr(S, "freq_mamba", lambda mosaic, w, k: mosaic)
    w = make_block(seed=8)
    f_ln = rand((1, 2, 8, 8), seed=9)
    out = B.band_branch(f_ln, T.silu(f_ln), w)
    want = T.mul(f_ln, T.silu(f_ln)).data
    np.testing.assert_allclose(out.data, want, atol=1e-9)


def test_band_branch_grad_check():
    w = make_block(seed=10)
    x = rand((1, 2, 8, 8), seed=11)
    proj = np.random.default_rng(12).normal(size=(1, 2, 8, 8))
    assert grad_check(lambda t: weighted(B.band_branch(t, T.silu(t), w), proj), x) < 1e-5


def test_band_branch_graph_has_one_node_per_transform():
    w = make_block(seed=17)
    f_ln = Tensor(np.random.default_rng(18).normal(size=(2, 2, 8, 8)), requires_grad=True)
    seen, stack, ops = set(), [B.band_branch(f_ln, T.silu(f_ln), w)], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops.append(node.op)
            stack.extend(node.parents)
    assert ops.count("wpt") == 1 and ops.count("iwpt") == 1
    assert not [op for op in ops if op.startswith(("dwt2", "idwt2", "split.", "arrange_bands"))]


def test_band_branch_uses_k1_when_quarter_not_divisible():
    # 2x2 features only admit a single packet level
    assert B.wpt_level_for(2, 2) == 1
    assert B.wpt_level_for(8, 8) == 2
    w = make_block(seed=13)
    f_ln = rand((1, 2, 2, 2), seed=14)
    out = B.band_branch(f_ln, T.silu(f_ln), w)
    assert out.data.shape == (1, 2, 2, 2)


def test_band_branch_odd_size_error():
    w = make_block(seed=15)
    with pytest.raises(ShapeError):
        f_ln = rand((1, 2, 3, 3), seed=16)
        B.band_branch(f_ln, T.silu(f_ln), w)


# ---------------------------------------------------------------------------
# full block


def test_freqssm_block_zero_input_zero_output():
    w = make_block(seed=17)
    out = B.freqssm_block(Tensor(np.zeros((1, 2, 8, 8))), w)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


@pytest.mark.parametrize("shape", [(1, 2, 8, 8), (2, 3, 4, 4), (1, 2, 8, 16)])
def test_freqssm_block_shape_preserving(shape):
    w = make_block(c=shape[1], seed=18)
    out = B.freqssm_block(rand(shape, seed=19), w)
    assert out.data.shape == shape


def test_freqssm_block_ablation_topologies():
    full = make_block(seed=20)
    assert full.fourier is not None and full.band is not None
    assert full.fuse.w.data.shape[1] == 6  # 3 branches x 2 channels

    no_fourier = make_block(seed=21, use_fourier=False)
    assert no_fourier.fourier is None
    assert no_fourier.fuse.w.data.shape[1] == 4

    no_band = make_block(seed=22, use_band=False)
    assert no_band.band is None
    assert no_band.fuse.w.data.shape[1] == 4

    no_mamba = make_block(seed=23, use_spatial_mamba=False)
    assert isinstance(no_mamba.spatial_mamba, F.ConvWeights)
    out = B.freqssm_block(rand((1, 2, 8, 8), seed=24), no_mamba)
    assert out.data.shape == (1, 2, 8, 8)


def test_freqssm_block_degenerates_to_residual_spatial_block():
    w = make_block(seed=25, use_fourier=False, use_band=False)
    # identity fuse selects the residual spatial path
    w.fuse.w.data[:] = np.eye(2)[:, :, None, None]
    w.fuse.b.data[:] = 0.0
    x = rand((1, 2, 8, 8), seed=26)
    got = B.freqssm_block(x, w)
    f_ln = T.layer_norm(x, w.norm_gamma, w.norm_beta)
    want = T.add(x, B.spatial_branch(f_ln, T.silu(f_ln), w))
    np.testing.assert_allclose(got.data, want.data, atol=1e-9)


def test_freqssm_block_grad_check():
    w = make_block(seed=27)
    x = rand((1, 2, 8, 8), seed=28)
    proj = np.random.default_rng(29).normal(size=(1, 2, 8, 8))
    assert grad_check(lambda t: weighted(B.freqssm_block(t, w), proj), x) < 1e-4


# ---------------------------------------------------------------------------
# degradation attention


def test_degradation_attention_zero_prior_is_identity():
    g = B.init_attention_gen(4, 3, np.random.default_rng(30))
    g.entry.b.data[:] = 0.0
    f = rand((1, 4, 8, 8), seed=31)
    img = Tensor(np.zeros((1, 3, 8, 8)))
    out = B.apply_attention(f, B.attention_map(img, g))
    np.testing.assert_allclose(out.data, f.data, atol=1e-12)


def test_degradation_attention_unit_map_doubles():
    f = rand((1, 4, 8, 8), seed=32)
    out = B.apply_attention(f, Tensor(np.ones_like(f.data)))
    np.testing.assert_allclose(out.data, 2.0 * f.data)


def test_degradation_attention_resolution_mismatch():
    g = B.init_attention_gen(4, 3, np.random.default_rng(33))
    m = B.attention_map(Tensor(np.zeros((1, 3, 4, 4))), g)
    with pytest.raises(ShapeError, match="does not match"):
        B.apply_attention(rand((1, 4, 8, 8)), m)


def test_degradation_attention_grad_check():
    g = B.init_attention_gen(2, 3, np.random.default_rng(34))
    f = rand((1, 2, 4, 4), seed=35)
    img = rand((1, 3, 4, 4), seed=36, scale=0.5)
    proj = np.random.default_rng(37).normal(size=(1, 2, 4, 4))
    assert grad_check(lambda t: weighted(B.apply_attention(t, B.attention_map(img, g)), proj), f) < 1e-5
    assert grad_check(lambda t: weighted(B.apply_attention(f, B.attention_map(t, g)), proj), img) < 1e-5
