import numpy as np
import pytest

from freqmamba import model as M
from freqmamba import scan as S
from freqmamba import tensor as T
from freqmamba import training as TR
from freqmamba.errors import ConfigError, ConfigMismatchError, MagicError, ShapeError, TruncatedError
from freqmamba.tensor import Tensor, no_grad


DESK = M.ModelConfig()


def rand_img(shape, seed=0):
    return Tensor(np.random.default_rng(seed).uniform(0, 1, shape))


def test_config_validation():
    with pytest.raises(ConfigError, match="7"):
        M.ModelConfig(depths=(1, 1, 1))
    with pytest.raises(ConfigError, match="at least one block"):
        M.ModelConfig(depths=(1, 1, 0, 1, 1, 1, 1))
    with pytest.raises(ConfigError, match="4 entries"):
        M.ModelConfig(channel_multipliers=(1, 2))
    for bad in ((1, 0, 2, 4), (1, 2, -1, 4)):
        with pytest.raises(ConfigError, match="channel_multipliers must be positive"):
            M.ModelConfig(channel_multipliers=bad)


def test_config_canonical_roundtrip():
    cfg = M.ModelConfig(depths=(2, 3, 3, 4, 3, 3, 2), base_channels=16, use_band=False)
    doc = M.parse_sections(cfg.canonical_text(), {"model": M.config_defaults(M.ModelConfig)}, "canonical")
    assert M.config_from(M.ModelConfig, doc["model"]) == cfg


def test_paper_depths_build_20_blocks():
    cfg = M.ModelConfig(depths=(2, 3, 3, 4, 3, 3, 2))
    m = M.build(cfg, seed=0)
    assert m.n_blocks() == 20


def test_desk_config_param_count_under_1e6():
    m = M.build(DESK, seed=0)
    assert m.param_count() < 1_000_000


def test_build_deterministic_same_seed():
    x = rand_img((1, 3, 16, 16), seed=1)
    with no_grad():
        a = M.build(DESK, seed=7).forward(x).data
        b = M.build(DESK, seed=7).forward(x).data
    assert np.array_equal(a, b)


def test_build_seed_changes_weights():
    a = M.build(DESK, seed=0).named_params()
    b = M.build(DESK, seed=1).named_params()
    assert any(not np.array_equal(a[k].data, b[k].data) for k in a)


def test_forward_identity_at_init():
    m = M.build(DESK, seed=2)
    x = rand_img((1, 3, 16, 16), seed=3)
    with no_grad():
        y = m.forward(x)
    np.testing.assert_array_equal(y.data, x.data)


@pytest.mark.parametrize("size", [64, 96])
def test_forward_shape_preserved(size):
    m = M.build(DESK, seed=4)
    x = rand_img((1, 3, size, size), seed=5)
    with no_grad():
        y = m.forward(x)
    assert y.data.shape == x.data.shape


def test_perturbed_step_does_not_depend_on_time_block(perturbed_model, monkeypatch):
    # The scans stream one time block at a time in both modes, so the no-grad
    # forward is the recorded one, bit for bit.  One-step blocks move the
    # per-block projections, the order in which the directions' readouts add
    # up at a position and the block-by-block gradient sums in the last bits.
    # Through the network those moves reach a few ill-conditioned gradients,
    # the delta_bias sums most, at up to 1.2e-11 of the array's largest entry
    # (and 2.6e-8 of some entries close to 0), hence the tolerance.
    rng = np.random.default_rng(7)
    x, gt = (rng.uniform(0, 1, (2, 3, 16, 16)) for _ in range(2))
    params = perturbed_model.named_params()

    def step():
        for p in params.values():
            p.grad = None
        out = perturbed_model.forward(Tensor(x))
        T.backward(TR.loss_total(out, Tensor(gt), TR.LossWeights())[0])
        return out.data, {k: p.grad for k, p in params.items()}

    out, grads = step()
    with no_grad():
        assert np.array_equal(perturbed_model.forward(Tensor(x)).data, out)
    monkeypatch.setattr(S, "_BLOCK_BYTES", 1)
    assert S._time_blocks(4, 8) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    out_1, grads_1 = step()
    np.testing.assert_allclose(out_1, out, rtol=1e-12, atol=1e-12)
    for k, want in grads.items():
        assert np.abs(want).max() > 0, k
        np.testing.assert_allclose(grads_1[k], want, rtol=1e-12, atol=1e-10 * np.abs(want).max(),
                                   err_msg=k)


def test_forward_divisibility_error():
    m = M.build(DESK, seed=6)
    with pytest.raises(ShapeError, match="16"):
        m.forward(rand_img((1, 3, 24, 24)))
    with pytest.raises(ShapeError, match="3 input channels"):
        m.forward(rand_img((1, 4, 16, 16)))


def test_ablation_structural_inventory():
    base = set(M.build(DESK, seed=0).named_params())
    no_fourier = set(M.build(M.ModelConfig(use_fourier=False), seed=0).named_params())
    no_band = set(M.build(M.ModelConfig(use_band=False), seed=0).named_params())
    no_mamba = set(M.build(M.ModelConfig(use_spatial_mamba=False), seed=0).named_params())
    no_map = set(M.build(M.ModelConfig(use_attention_map=False), seed=0).named_params())

    assert any(".fourier." in n for n in base)
    assert not any(".fourier." in n for n in no_fourier)
    assert no_fourier == {n for n in base if ".fourier." not in n}

    assert not any(".band." in n for n in no_band)
    assert no_band == {n for n in base if ".band." not in n}

    assert any(".spatial_mamba.scan." in n for n in base)
    assert not any(".spatial_mamba.scan." in n for n in no_mamba)
    assert any(n.endswith(".spatial_mamba.w") for n in no_mamba)  # conv replacement

    assert any(n.startswith("attn") for n in base)
    assert not any(n.startswith("attn") for n in no_map)
    assert no_map == {n for n in base if not n.startswith("attn")}


def test_checkpoint_roundtrip(tmp_path):
    m = M.build(DESK, seed=8)
    # nudge the weights away from init so the test is not vacuous, then make
    # them float32-representable: serialization must then lose nothing at all
    rng = np.random.default_rng(9)
    for p in m.named_params().values():
        p.data = (p.data + rng.normal(0, 0.01, p.data.shape)).astype(np.float32).astype(np.float64)
    m.iteration = 123
    path = tmp_path / "m.fmck"
    M.save(m, path)
    m2 = M.load(path)
    assert m2.iteration == 123
    assert m2.config == m.config
    p1, p2 = m.named_params(), m2.named_params()
    for name in p1:
        np.testing.assert_array_equal(p2[name].data, p1[name].data)
    # payload bytes are stable across save/load cycles
    path2, path3 = tmp_path / "m2.fmck", tmp_path / "m3.fmck"
    M.save(m2, path2)
    M.save(M.load(path2), path3)
    assert path2.read_bytes() == path3.read_bytes()

    x = rand_img((1, 3, 16, 16), seed=10)
    with no_grad():
        y1 = m.forward(x).data
        y2 = m2.forward(x).data
    np.testing.assert_array_equal(y1, y2)


def test_checkpoint_forward_within_cast_error(tmp_path):
    # float64 weights stored as float32: the forward drift stays at cast error.
    # The phase path of the Fourier branch is ill-conditioned near zero
    # amplitude, so this bound is checked on the fourier-free topology.
    cfg = M.ModelConfig(use_fourier=False)
    m = M.build(cfg, seed=8)
    rng = np.random.default_rng(9)
    for p in m.named_params().values():
        p.data = p.data + rng.normal(0, 0.01, p.data.shape)
    path = tmp_path / "m.fmck"
    M.save(m, path)
    m2 = M.load(path)
    x = rand_img((1, 3, 16, 16), seed=10)
    with no_grad():
        y1 = m.forward(x).data
        y2 = m2.forward(x).data
    np.testing.assert_allclose(y1, y2, atol=1e-6)


def test_checkpoint_magic_error(tmp_path):
    path = tmp_path / "bad.fmck"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(MagicError):
        M.load(path)


def test_checkpoint_truncated_error(tmp_path):
    m = M.build(DESK, seed=12)
    path = tmp_path / "m.fmck"
    M.save(m, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 100])
    with pytest.raises(TruncatedError):
        M.load(path)


def test_checkpoint_config_mismatch(tmp_path):
    m = M.build(DESK, seed=13)
    path = tmp_path / "m.fmck"
    M.save(m, path)
    other = M.ModelConfig(base_channels=16)
    with pytest.raises(ConfigMismatchError):
        M.load(path, expected_config=other)
    M.load(path, expected_config=DESK)  # matching config is fine
