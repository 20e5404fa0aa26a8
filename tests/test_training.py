import tracemalloc

import numpy as np
import pytest

from freqmamba import model as M
from freqmamba import training as TR
from freqmamba.errors import ConfigError, NumericError, ShapeError
from freqmamba.tensor import Tensor, no_grad


def rand_img(shape, seed=0, lo=0.0, hi=1.0):
    return Tensor(np.random.default_rng(seed).uniform(lo, hi, shape))


# ---------------------------------------------------------------------------
# loss


def test_loss_zero_when_equal():
    x = rand_img((1, 3, 16, 16), seed=0)
    total, comps = TR.loss_total(x, Tensor(x.data.copy()), TR.LossWeights())
    assert float(total.data) == 0.0
    assert all(float(c.data) == 0.0 for c in comps.values())


def test_loss_degenerate_weights_equal_plain_l1():
    y, x = rand_img((2, 3, 16, 16), seed=1), rand_img((2, 3, 16, 16), seed=2)
    total, comps = TR.loss_total(y, x, TR.LossWeights(0.0, 0.0))
    np.testing.assert_allclose(float(total.data), np.abs(y.data - x.data).mean(), rtol=1e-12)


def test_loss_compositional_identity():
    y, x = rand_img((1, 3, 16, 16), seed=3), rand_img((1, 3, 16, 16), seed=4)
    w = TR.LossWeights(0.05, 0.05)
    total, comps = TR.loss_total(y, x, w)
    recomposed = float(comps["spa"].data) + 0.05 * float(comps["amp"].data) + 0.05 * float(comps["pha"].data)
    assert abs(float(total.data) - recomposed) < 1e-12


def test_loss_weights_validation():
    with pytest.raises(ConfigError):
        TR.LossWeights(-0.1, 0.05)


def test_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        TR.loss_total(rand_img((1, 3, 16, 16)), rand_img((1, 3, 16, 32)), TR.LossWeights())


def test_loss_ablation_rows():
    # Table-3-style toggles: each removed term leaves the others untouched
    y, x = rand_img((1, 3, 16, 16), seed=5), rand_img((1, 3, 16, 16), seed=6)
    full, comps = TR.loss_total(y, x, TR.LossWeights(0.05, 0.05))
    no_amp, _ = TR.loss_total(y, x, TR.LossWeights(0.0, 0.05))
    no_pha, _ = TR.loss_total(y, x, TR.LossWeights(0.05, 0.0))
    no_freq, _ = TR.loss_total(y, x, TR.LossWeights(0.0, 0.0))
    np.testing.assert_allclose(float(full.data) - float(no_amp.data), 0.05 * float(comps["amp"].data), rtol=1e-9)
    np.testing.assert_allclose(float(full.data) - float(no_pha.data), 0.05 * float(comps["pha"].data), rtol=1e-9)
    np.testing.assert_allclose(float(no_freq.data), float(comps["spa"].data), rtol=1e-12)


# ---------------------------------------------------------------------------
# metrics


def test_psnr_uniform_offset_20db():
    rng = np.random.default_rng(7)
    gray = rng.uniform(0.0, 0.9, (1, 1, 16, 16))
    a = Tensor(np.repeat(gray, 3, axis=1))
    b = Tensor(a.data + 0.1)
    assert abs(TR.psnr_y(a, b) - 20.0) < 1e-9


def test_psnr_identical_returns_inf():
    a = rand_img((1, 3, 16, 16), seed=8)
    assert TR.psnr_y(a, Tensor(a.data.copy())) == float("inf")


def test_psnr_symmetric():
    a, b = rand_img((1, 3, 16, 16), seed=9), rand_img((1, 3, 16, 16), seed=10)
    assert TR.psnr_y(a, b) == TR.psnr_y(b, a)


def test_ssim_self_is_one():
    a = rand_img((1, 3, 16, 16), seed=11)
    assert abs(TR.ssim_y(a, Tensor(a.data.copy())) - 1.0) < 1e-12


def test_ssim_symmetric():
    a, b = rand_img((1, 3, 16, 16), seed=12), rand_img((1, 3, 16, 16), seed=13)
    assert abs(TR.ssim_y(a, b) - TR.ssim_y(b, a)) < 1e-9


def _ssim_reference(ya, yb):
    win = TR.gaussian_window()
    size = win.shape[0]
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    h, w = ya.shape
    vals = []
    for i in range(h - size + 1):
        for j in range(w - size + 1):
            wa = ya[i:i + size, j:j + size]
            wb = yb[i:i + size, j:j + size]
            mu_a, mu_b = (win * wa).sum(), (win * wb).sum()
            var_a = (win * wa * wa).sum() - mu_a ** 2
            var_b = (win * wb * wb).sum() - mu_b ** 2
            cov = (win * wa * wb).sum() - mu_a * mu_b
            vals.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                        / ((mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)))
    return float(np.mean(vals))


def test_ssim_matches_sliding_window_reference():
    a, b = rand_img((1, 3, 20, 24), seed=14), rand_img((1, 3, 20, 24), seed=15)
    got = TR.ssim_y(a, b)
    ya = np.einsum("chw,c->hw", a.data[0], np.array([0.299, 0.587, 0.114]))
    yb = np.einsum("chw,c->hw", b.data[0], np.array([0.299, 0.587, 0.114]))
    want = _ssim_reference(ya, yb)
    assert abs(got - want) < 1e-4


# ---------------------------------------------------------------------------
# optimizer / schedule


def test_cosine_lr_endpoints_and_midpoint():
    assert TR.cosine_lr(0, 100, 3e-4, 1e-6) == pytest.approx(3e-4)
    assert TR.cosine_lr(100, 100, 3e-4, 1e-6) == pytest.approx(1e-6)
    assert TR.cosine_lr(50, 100, 3e-4, 1e-6) == pytest.approx((3e-4 + 1e-6) / 2)


def test_adam_first_step_is_signed_lr():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    p.grad = np.array([0.5, -0.1, 2.0])
    before = p.data.copy()
    state = TR.AdamState()
    TR.adam_step({"p": p}, state, lr=1e-3)
    move = p.data - before
    np.testing.assert_allclose(move, -1e-3 * np.sign(p.grad), rtol=1e-6)
    assert state.t == 1


def test_adam_skips_gradless_params():
    p = Tensor(np.array([1.0]), requires_grad=True)
    TR.adam_step({"p": p}, TR.AdamState(), lr=1.0)
    np.testing.assert_array_equal(p.data, [1.0])


# ---------------------------------------------------------------------------
# synthetic rain


def test_synth_rain_zero_streaks():
    params = TR.RainSynthParams(streak_count=(0, 0))
    rainy, clean, mask = TR.synth_rain(params, seed=0, n=1)[0]
    np.testing.assert_array_equal(rainy, clean)
    np.testing.assert_array_equal(mask, 0.0)


def test_synth_rain_deterministic():
    params = TR.RainSynthParams()
    a = TR.synth_rain(params, seed=3, n=2)
    b = TR.synth_rain(params, seed=3, n=2)
    for (r1, c1, m1), (r2, c2, m2) in zip(a, b):
        assert np.array_equal(r1, r2) and np.array_equal(c1, c2) and np.array_equal(m1, m2)


def test_synth_rain_additive_brightening():
    for i, (rainy, clean, mask) in enumerate(TR.synth_rain(TR.RainSynthParams(), seed=4, n=4)):
        assert rainy.mean() >= clean.mean(), i
        assert (rainy >= clean - 1e-12).all()
        assert (mask >= 0).all()
        assert rainy.min() >= 0.0 and rainy.max() <= 1.0


def test_synth_rain_rain_is_visible():
    rainy, clean, mask = TR.synth_rain(TR.RainSynthParams(), seed=5, n=1)[0]
    assert TR.psnr_y(Tensor(rainy[None]), Tensor(clean[None])) < 35.0


# ---------------------------------------------------------------------------
# training loop


SMALL_MC = M.ModelConfig(base_channels=4, channel_multipliers=(1, 1, 1, 1), state_dim=4)


def small_tc(**kw):
    base = dict(total_iters=4, progressive=((16, 2),), seed=0, log_interval=2,
                n_images=4, image_size=32)
    base.update(kw)
    return TR.TrainConfig(**base)


def test_train_smoke_and_log_identity(tmp_path):
    model = M.build(SMALL_MC, seed=0)
    tc = small_tc()
    log = tmp_path / "metrics.log"
    rows = TR.train(model, tc, SMALL_MC, log_path=log)
    assert rows, "no metrics logged"
    for row in rows:
        assert np.isfinite(row["l_total"])
        recomposed = row["l_spa"] + 0.05 * row["l_amp"] + 0.05 * row["l_pha"]
        assert abs(row["l_total"] - recomposed) < 1e-9
    assert rows[0]["lr"] == pytest.approx(tc.lr_init)
    assert rows[-1]["lr"] >= 1e-6
    lines = [l for l in log.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == len(rows)
    assert model.iteration == tc.total_iters


def test_train_bit_reproducible():
    rows_a = TR.train(M.build(SMALL_MC, seed=1), small_tc(), SMALL_MC)
    rows_b = TR.train(M.build(SMALL_MC, seed=1), small_tc(), SMALL_MC)
    assert rows_a == rows_b


def test_train_divergence_guard(monkeypatch):
    model = M.build(SMALL_MC, seed=2)

    def poisoned(y, x, w):
        total, comps = TR.loss_total.__wrapped__(y, x, w) if hasattr(TR.loss_total, "__wrapped__") \
            else real(y, x, w)
        total.data = np.float64("nan")
        return total, comps

    real = TR.loss_total
    monkeypatch.setattr(TR, "loss_total", lambda y, x, w: poisoned(y, x, w))
    with pytest.raises(NumericError, match="iteration 1"):
        TR.train(model, small_tc(), SMALL_MC)


def test_train_config_validation():
    with pytest.raises(ConfigError, match="divisible"):
        small_tc(progressive=((20, 2),))
    for bad in ({"progressive": ((0, 2),)}, {"progressive": ((-16, 2),)}, {"n_images": 0}):
        with pytest.raises(ConfigError, match="positive"):
            small_tc(**bad)
    with pytest.raises(ConfigError, match="exceeds"):
        small_tc(progressive=((64, 2),), image_size=32)
    assert small_tc(total_iters=10, progressive=((16, 1), (32, 1))).stage_bounds() == [5, 5]
    assert small_tc(total_iters=7, progressive=((16, 1), (32, 1))).stage_bounds() == [3, 4]


def test_train_step_tape(monkeypatch):
    # One scan2d node per scan (its skip inside it), one SiLU gate per block,
    # and three polar nodes per Fourier branch (amplitude and phase on one
    # FFT, one inverse) plus two in the loss: the tape of a default 32x32
    # batch-8 step, before its backward.
    tapes = []
    real = TR.backward

    def count(loss):
        ops, seen, stack = [], set(), [loss]
        while stack:
            node = stack.pop()
            if id(node) not in seen and node.requires_grad:
                seen.add(id(node))
                if node.op != "leaf":
                    ops.append(node.op)
                stack.extend(node.parents)
        tapes.append(ops)
        real(loss)

    monkeypatch.setattr(TR, "backward", count)
    mc = M.ModelConfig()
    TR.train(M.build(mc, 1), small_tc(total_iters=1, progressive=((32, 8),), seed=1), mc)
    (ops,) = tapes
    assert len(ops) == 269 and len(set(ops)) == 19
    assert "channel_scale" not in ops and ops.count("scan2d") == 17 and ops.count("silu") == 35
    assert ops.count("polar_dft2.phase") == 8 and ops.count("polar_idft2") == 7
    assert not {"dft2.real", "idft2", "sqrt", "atan2", "cos", "sin"} & set(ops)


def test_eval_pairs_runs():
    model = M.build(SMALL_MC, seed=3)
    pairs = TR.synth_rain(TR.RainSynthParams(), seed=6, n=2, size=(32, 32))
    psnr, ssim = TR.eval_pairs(model, pairs)
    assert np.isfinite(psnr) and 0.0 <= ssim <= 1.0


def _restore_peak(size):
    """Traced peak of a size x size restore of the default model, over the input's nbytes."""
    x = np.random.default_rng(3).uniform(0, 1, (1, 3, size, size))
    model = M.build(M.ModelConfig(), 1)
    tracemalloc.start()
    try:
        TR.restore(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / x.nbytes


def test_restore_memory_bound_128():
    # The no-grad forward holds only the maps it will still read: the image
    # pyramid, each attention map, each skip and a block's normalized input
    # and gate are dropped after their last read, and the inverse DFT runs in
    # place.  A 128x128 restore peaks at 33.6x the input's nbytes.
    peak = _restore_peak(128)
    assert peak <= 38, peak


def test_restore_memory_bound_256():
    # 29.7x at 256x256.
    peak = _restore_peak(256)
    assert peak <= 34, peak


# ---------------------------------------------------------------------------
# behaviour lock: committed loss and output values of a small seeded run
#
# A change that must not alter results (a faster kernel, a refactor) keeps
# these values; one that reorders floating-point work may move them only
# within the tolerances below.  Those are ten times the largest relative move
# seen under pure reorderings of the arithmetic (an einsum or an elementwise
# sum for the scan readout, a reversed dA reduction, unoptimised einsum paths
# in the convolutions): 3.1e-16 on the step-2 loss and up to 3.2e-13 on the
# forward values.  Step 1 never moved (the zero-initialised head returns the
# input, so its loss depends only on the data), and gets a few ulp.

GOLDEN_LOSSES = (0.39141039081017737, 0.3566960569838575)   # l_total, steps 1 and 2
GOLDEN_LOSS_RTOL = (1e-15, 3e-15)
# residual r = forward(x) - x of the trained model: sum(r * w), sum(r * r), max |r|
GOLDEN_FORWARD = (1.6849508532062756, 1.5033774740132295, 0.06063926506379591)
GOLDEN_FORWARD_RTOL = 3e-12


def test_golden_train_losses_and_forward():
    model = M.build(SMALL_MC, seed=1)
    tc = small_tc(total_iters=2, progressive=((32, 8),), seed=1, log_interval=1)
    rows = TR.train(model, tc, SMALL_MC)
    for row, want, rtol in zip(rows, GOLDEN_LOSSES, GOLDEN_LOSS_RTOL, strict=True):
        assert row["l_total"] == pytest.approx(want, rel=rtol, abs=0), row["iter"]

    x = np.random.default_rng(1).uniform(0, 1, (1, 3, 32, 32))
    with no_grad():
        r = model.forward(Tensor(x)).data - x
    w = np.random.default_rng(2).normal(size=r.shape)
    got = (np.sum(r * w), np.sum(r * r), np.abs(r).max())
    assert got == pytest.approx(GOLDEN_FORWARD, rel=GOLDEN_FORWARD_RTOL, abs=0)


# ---------------------------------------------------------------------------
# gradient lock: committed values of one step of the perturbed model
#
# The golden lock trains from a zero head, so every gradient above the head is
# 0 at its step 1 and reaches it only through step 2's Adam update.  This lock
# reads the gradients directly: one step of `perturbed_model` at 16x16 batch 2
# (each scan is one time block, so no value depends on where blocks are cut),
# its loss, sum(r * w) and sum(r * r) of the residual r = forward(x) - x, and
# per parameter group sum(g * w) for a seeded w and the gradient norm.  The
# groups are the network's parts (stem, each stage's blocks, down and reduce
# convs, attention generators, head) and the leaf kinds (proj_delta, w, ...).
# Each tolerance is ten times the largest relative move seen under pure
# reorderings of the arithmetic: one-step time blocks; einsum or elementwise
# sums in place of the scan readout, the dwd, ddelta and skip reductions, the
# conv and 1x1-conv kernel gradients and layer-norm dgamma; a reversed time
# order in the da sum; OpenBLAS's Haswell, SandyBridge, Nehalem and Prescott
# kernels in place of its AVX-512 one (OPENBLAS_CORETYPE); numpy without its
# AVX2 and AVX-512 loops (NPY_DISABLE_CPU_FEATURES).  The largest moves were
# 2.0e-16 on the loss, 7.9e-15 on the residual sums, 9.0e-12 on a group's
# sum(g * w) and 5.7e-13 on its norm, the last three from the older BLAS
# kernels.  They were measured with numpy 2.4 and OpenBLAS 0.3.31; another
# BLAS library may sum in orders not sampled here.  A scan rule that scales
# its proj_delta gradient by (1 + 1e-9) moves the proj_delta group by 1e-9
# and fails here; the golden lock passes it.

GRADIENT_LOCK_STEP = (0.5662122556922352, 4.485586228774648, 16.68199468761116)  # loss, sum(r * w), sum(r * r)
GRADIENT_LOCK_GROUPS = {  # group: (sum(g * w), |g|)
    "stem": (0.13884893878677945, 0.21916765381214473),
    "enc0": (-0.008944005399668248, 0.3036638488225445),
    "enc1": (-0.13837261342519136, 0.2473366189021134),
    "enc2": (-0.10116384261012001, 0.14453161064163947),
    "down0": (-0.063749154207009, 0.10216424751747806),
    "down1": (-0.008506763001577121, 0.07445103412386275),
    "down2": (-0.031229409956915123, 0.0535509648986078),
    "mid": (0.045290200177184034, 0.09036207260604438),
    "reduce0": (0.043819615365712536, 0.0422733780936693),
    "reduce1": (-0.060576658613758744, 0.05452185907877498),
    "reduce2": (-0.18459845408473682, 0.07589410871166383),
    "dec0": (-0.033954781807120665, 0.04807622242587626),
    "dec1": (-0.010517727804196523, 0.09530069004229473),
    "dec2": (0.18278571142902225, 0.09914126810122104),
    "attn0": (0.003507723364280931, 0.02501503696519592),
    "attn1": (0.01632217903212585, 0.012521890925107118),
    "attn2": (-0.0005278414172878043, 0.006166837737050924),
    "head": (-0.13887301735463595, 0.288006875872037),
    "w": (-0.01676827003561006, 0.5636562736239527),
    "b": (-0.01731311339537809, 0.17022177908568178),
    "norm_gamma": (-0.03369276697460363, 0.04230855556865841),
    "norm_beta": (-0.017443364207518137, 0.03375879020314931),
    "A_log": (-0.010369780723974226, 0.005152375607465778),
    "proj_B": (-0.13257103466733033, 0.08813997278295625),
    "proj_C": (-0.07491704552441901, 0.06984778482700227),
    "proj_delta": (-0.026551175492189986, 0.02013774827927873),
    "delta_bias": (0.005333229870461351, 0.004326288992065992),
    "skip": (-0.007044067980956963, 0.028069169669790194),
    "ln_gamma": (-0.003896574248554924, 0.02382484645729081),
    "ln_beta": (-0.015205938147038554, 0.027712192699854435),
}
GRADIENT_LOCK_RTOL = {"loss": 2e-15, "residual": 8e-14, "dot": 9e-11, "norm": 5.7e-12}


def test_gradient_lock(perturbed_model):
    rng = np.random.default_rng(7)
    x, gt = (rng.uniform(0, 1, (2, 3, 16, 16)) for _ in range(2))
    out = perturbed_model.forward(Tensor(x))
    loss = TR.loss_total(out, Tensor(gt), TR.LossWeights())[0]
    TR.backward(loss)
    r = out.data - x
    loss_want, rw_want, rr_want = GRADIENT_LOCK_STEP
    assert float(loss.data) == pytest.approx(loss_want, rel=GRADIENT_LOCK_RTOL["loss"], abs=0)
    rw = np.sum(r * np.random.default_rng(2).normal(size=r.shape))
    assert (rw, np.sum(r * r)) == pytest.approx((rw_want, rr_want), rel=GRADIENT_LOCK_RTOL["residual"], abs=0)

    w_rng, groups = np.random.default_rng(3), {}
    for name, p in perturbed_model.named_params().items():
        gw = (p.grad, w_rng.normal(size=p.grad.shape))
        for group in (name.split(".")[0], name.split(".")[-1]):
            groups.setdefault(group, []).append(gw)
    assert groups.keys() == GRADIENT_LOCK_GROUPS.keys()
    for group, (dot_want, norm_want) in GRADIENT_LOCK_GROUPS.items():
        dot = sum(np.sum(g * w) for g, w in groups[group])
        norm = np.sqrt(sum(np.sum(g * g) for g, _ in groups[group]))
        assert dot == pytest.approx(dot_want, rel=GRADIENT_LOCK_RTOL["dot"], abs=0), group
        assert norm == pytest.approx(norm_want, rel=GRADIENT_LOCK_RTOL["norm"], abs=0), group
