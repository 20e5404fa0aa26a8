"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Criterion 6 runs the full 500-iteration toy training and takes the longest
(around 20 minutes on one core); everything else finishes in a few minutes.
"""

import time

import numpy as np
import pytest

from freqmamba import blocks as B
from freqmamba import checks
from freqmamba import fourier as F
from freqmamba import model as M
from freqmamba import scan as S
from freqmamba import tensor as T
from freqmamba import training as TR
from freqmamba import wavelet as W
from freqmamba.errors import ConfigMismatchError, MagicError, TruncatedError
from freqmamba.tensor import Tensor, no_grad


def report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {n}] {status} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_c1_transform_fidelity(dft2_direct):
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst_dft = 0.0
    for h in range(1, 17):
        for w in range(1, 17):
            x = rng.normal(size=(1, 1, h, w))
            got = F.dft2(Tensor(x))
            want = dft2_direct(x)
            worst_dft = max(worst_dft,
                            np.abs(got.real.data - want.real).max(),
                            np.abs(got.imag.data - want.imag).max())
    x64 = Tensor(rng.normal(size=(1, 3, 64, 64)))
    rt_f = np.abs(F.idft2(F.dft2(x64)).data - x64.data).max()
    rt_w = max(np.abs(W.iwpt(W.wpt(x64, k), k).data - x64.data).max() for k in (1, 2, 3))
    amp = F.to_amp_phase(F.dft2(x64)).amplitude.data
    parseval = abs(np.sum(x64.data ** 2) - np.sum(amp ** 2) / (64 * 64)) / np.sum(x64.data ** 2)
    dt = time.time() - t0
    ok = worst_dft < 1e-6 and rt_f < 1e-9 and rt_w < 1e-9 and parseval < 1e-6 and dt < 10
    report(1, ok, f"dft vs direct sum {worst_dft:.2e}, fourier roundtrip {rt_f:.2e}, "
                  f"wpt roundtrip {rt_w:.2e}, parseval {parseval:.2e}, {dt:.1f}s")


def test_c2_scan_correctness(tile_rank_map, scan_oracle):
    t0 = time.time()
    sizes = [(1, 1), (1, 7), (3, 5), (8, 8), (16, 8), (17, 13), (32, 32), (64, 64)]
    bijective = True
    for h, w in sizes:
        for variant in S.RASTER_VARIANTS:
            perm = S.order_raster(h, w, variant).forward
            bijective &= sorted(perm.tolist()) == list(range(h * w))
    for h, w, k in [(2, 2, 1), (8, 8, 1), (8, 8, 2), (16, 16, 2), (32, 64, 2),
                    (64, 64, 2), (64, 64, 3), (24, 32, 3)]:
        perm = S.order_freq_blocks(h, w, k).forward
        bijective &= sorted(perm.tolist()) == list(range(h * w))

    # scan2d on a 1xL map whose reverse direction reads out exactly 0 (its
    # proj_C is zero) is the 1-D recurrence of direction 0 plus the skip
    worst = 0.0
    rng = np.random.default_rng(1)
    for case in range(100):
        c = int(rng.integers(1, 5))
        s = int(rng.integers(1, 9))
        l_ = int(rng.integers(1, 257))
        p = S.init_scan2d_params(c, s, 2, np.random.default_rng(1000 + case))
        p.directions[1].proj_C.data[:] = 0.0
        f = rng.normal(size=(l_, c)).T.reshape(1, c, 1, l_)
        got = S.scan2d(Tensor(f), p, [S.order_raster(1, l_, "row_fwd")]).data
        want = scan_oracle(f, p.directions[:1], [np.arange(l_)], p.skip.data)
        worst = max(worst, np.abs(got - want).max())

    monotone = True
    for h, w, k in [(8, 8, 1), (16, 16, 2), (64, 64, 2), (64, 64, 3)]:
        ranks = tile_rank_map(h, w, k).reshape(-1)[S.order_freq_blocks(h, w, k).forward]
        monotone &= bool((np.diff(ranks) >= 0).all())
    dt = time.time() - t0
    ok = bijective and worst < 1e-12 and monotone and dt < 30
    report(2, ok, f"bijections {bijective}, oracle max err {worst:.2e}, "
                  f"rank monotone {monotone}, {dt:.1f}s")


@pytest.mark.slow
def test_c3_differentiation():
    t0 = time.time()
    results = checks.run_all(include_model=True)
    dt = time.time() - t0
    failed = [r for r in results if not r.passed or r.threshold > 1e-4]
    ok = not failed and dt < 300
    worst = max(r.error for r in results)
    report(3, ok, f"{len(results)} gradient checks, worst {worst:.2e}, "
                  f"failures {[r.name for r in failed]}, {dt:.1f}s")


def test_c4_block_semantics(monkeypatch, identity_fourier_branch):
    # fourier branch reduces to a DFT round trip under identity weights
    x = Tensor(np.random.default_rng(2).normal(size=(1, 3, 8, 8)))
    err_f = np.abs(F.fourier_branch(x, identity_fourier_branch(3)).data - x.data).max()

    # band branch reduces to the gated identity when the mosaic processor is
    # the identity (the packet round trip cancels)
    w = B.init_freqssm_block(2, 3, np.random.default_rng(3))
    f_ln = Tensor(np.random.default_rng(4).normal(size=(1, 2, 8, 8)))
    with monkeypatch.context() as patch:
        patch.setattr(S, "freq_mamba", lambda mosaic, w, k: mosaic)
        got = B.band_branch(f_ln, T.silu(f_ln), w).data
    want = T.mul(f_ln, T.silu(f_ln)).data
    err_b = np.abs(got - want).max()

    # scan2d is the identity under zero readout and unit skip
    p = S.init_scan2d_params(3, 4, 2, np.random.default_rng(5))
    for d in p.directions:
        d.proj_C.data[:] = 0.0
    p.skip.data[:] = 1.0
    f = Tensor(np.random.default_rng(6).normal(size=(2, 3, 8, 8)))
    err_s = np.abs(S.scan2d(f, p, [S.order_raster(8, 8, "row_fwd")]).data - f.data).max()

    # ablation switches reproduce the reduced topologies structurally
    base = set(M.build(M.ModelConfig(), seed=0).named_params())
    rows = {
        "fourier": set(M.build(M.ModelConfig(use_fourier=False), seed=0).named_params()),
        "band": set(M.build(M.ModelConfig(use_band=False), seed=0).named_params()),
        "map": set(M.build(M.ModelConfig(use_attention_map=False), seed=0).named_params()),
    }
    structural = (rows["fourier"] == {n for n in base if ".fourier." not in n}
                  and rows["band"] == {n for n in base if ".band." not in n}
                  and rows["map"] == {n for n in base if not n.startswith("attn")})
    no_mamba = set(M.build(M.ModelConfig(use_spatial_mamba=False), seed=0).named_params())
    structural &= not any(".spatial_mamba.scan." in n for n in no_mamba)
    structural &= any(n.endswith(".spatial_mamba.w") for n in no_mamba)

    # loss ablation rows wire exactly (handled by weights alpha/beta)
    y, gt = Tensor(np.random.default_rng(7).uniform(0, 1, (1, 3, 16, 16))), \
        Tensor(np.random.default_rng(8).uniform(0, 1, (1, 3, 16, 16)))
    full, comps = TR.loss_total(y, gt, TR.LossWeights(0.05, 0.05))
    wo_freq, _ = TR.loss_total(y, gt, TR.LossWeights(0.0, 0.0))
    loss_ok = abs(float(wo_freq.data) - float(comps["spa"].data)) < 1e-12

    ok = err_f < 1e-9 and err_b < 1e-9 and err_s < 1e-9 and structural and loss_ok
    report(4, ok, f"fourier identity {err_f:.2e}, band gated identity {err_b:.2e}, "
                  f"scan2d identity {err_s:.2e}, structural inventory {structural}, "
                  f"loss rows {loss_ok}")


def test_c5_amplitude_carries_degradation():
    t0 = time.time()
    pairs = TR.synth_rain(TR.RainSynthParams(), seed=42, n=20, size=(64, 64))
    hits = 0
    with no_grad():
        for rainy, clean, _ in pairs:
            out_rain_amp, out_clean_amp = F.spectrum_swap(Tensor(rainy[None]), Tensor(clean[None]))
            d_rain = np.linalg.norm(out_rain_amp.data - clean[None])
            d_clean = np.linalg.norm(out_clean_amp.data - clean[None])
            hits += int(d_rain > d_clean)
    dt = time.time() - t0
    ok = hits >= 18 and dt < 60
    report(5, ok, f"rainy-amplitude output farther from clean in {hits}/20 pairs, {dt:.1f}s")


@pytest.mark.slow
def test_c6_toy_training():
    t0 = time.time()
    mc = M.ModelConfig()
    tc = TR.TrainConfig(total_iters=500, progressive=((32, 8), (64, 4)), seed=0,
                        log_interval=25, n_images=16, image_size=64)
    pairs = TR.synth_rain(tc.data, tc.seed, tc.n_images, (64, 64))
    base = float(np.mean([TR.psnr_y(Tensor(r[None]), Tensor(c[None])) for r, c, _ in pairs]))

    # bit-reproducibility, checked on a short prefix of the same schedule
    short = TR.TrainConfig(total_iters=20, progressive=((32, 8),), seed=0,
                           log_interval=5, n_images=16, image_size=64)
    m_a, m_b = M.build(mc, seed=0), M.build(mc, seed=0)
    rows_a = TR.train(m_a, short, mc)
    rows_b = TR.train(m_b, short, mc)
    reproducible = rows_a == rows_b and all(
        np.array_equal(p1.data, p2.data)
        for p1, p2 in zip(m_a.named_params().values(), m_b.named_params().values()))

    model = M.build(mc, seed=0)
    rows = TR.train(model, tc, mc)
    finite = all(np.isfinite(r["l_total"]) for r in rows)
    final, _ = TR.eval_pairs(model, pairs)
    gain = final - base

    # trained degradation prior: attention maps correlate with the rain mask
    fresh = TR.synth_rain(TR.RainSynthParams(), seed=777, n=20, size=(64, 64))
    corrs = []
    with no_grad():
        for rainy, _, mask in fresh:
            m = B.attention_map(Tensor(rainy[None]), model.attn[0])
            corrs.append(np.corrcoef(m.data[0].mean(axis=0).reshape(-1),
                                     mask.reshape(-1))[0, 1])
    attn_r = float(np.mean(corrs))

    dt = time.time() - t0
    ok = gain >= 3.0 and finite and reproducible and attn_r > 0 and dt < 1800
    report(6, ok, f"PSNR {base:.2f} -> {final:.2f} dB (gain {gain:+.2f}, need +3), "
                  f"finite {finite}, reproducible {reproducible}, "
                  f"attention-mask pearson r {attn_r:+.2f}, {dt / 60:.1f} min")


def test_c7_metrics():
    rng = np.random.default_rng(9)
    gray = np.repeat(rng.uniform(0.0, 0.9, (1, 1, 16, 16)), 3, axis=1)
    a = Tensor(gray)
    b = Tensor(gray + 0.1)
    err20 = abs(TR.psnr_y(a, b) - 20.0)

    c = Tensor(rng.uniform(0, 1, (1, 3, 16, 16)))
    self_ssim = TR.ssim_y(c, Tensor(c.data.copy()))

    d = Tensor(rng.uniform(0, 1, (1, 3, 20, 20)))
    e = Tensor(np.clip(d.data + rng.normal(0, 0.1, d.data.shape), 0, 1))
    yw = np.array([0.299, 0.587, 0.114])
    win = TR.gaussian_window()
    yd = np.einsum("chw,c->hw", d.data[0], yw)
    ye = np.einsum("chw,c->hw", e.data[0], yw)
    vals = []
    for i in range(10):
        for j in range(10):
            wa, wb = yd[i:i + 11, j:j + 11], ye[i:i + 11, j:j + 11]
            mu_a, mu_b = (win * wa).sum(), (win * wb).sum()
            va = (win * wa * wa).sum() - mu_a ** 2
            vb = (win * wb * wb).sum() - mu_b ** 2
            cov = (win * wa * wb).sum() - mu_a * mu_b
            vals.append(((2 * mu_a * mu_b + 1e-4) * (2 * cov + 9e-4))
                        / ((mu_a ** 2 + mu_b ** 2 + 1e-4) * (va + vb + 9e-4)))
    ref = float(np.mean(vals))
    err_ssim = abs(TR.ssim_y(d, e) - ref)

    ok = err20 < 1e-9 and self_ssim == 1.0 and err_ssim < 1e-4
    report(7, ok, f"psnr offset err {err20:.2e}, ssim(a,a) {self_ssim}, "
                  f"ssim vs reference err {err_ssim:.2e}")


def test_c8_serialization(tmp_path):
    cfg = M.ModelConfig(base_channels=4, channel_multipliers=(1, 1, 1, 1), state_dim=2)
    model = M.build(cfg, seed=0)
    p1, p2 = tmp_path / "a.fmck", tmp_path / "b.fmck"
    M.save(model, p1)
    M.save(M.load(p1), p2)
    ck_ok = p1.read_bytes() == p2.read_bytes()

    x = Tensor(np.random.default_rng(10).normal(size=(2, 3, 4, 4)).astype(np.float32))
    f1, f2 = tmp_path / "a.ftd1", tmp_path / "b.ftd1"
    T.dump_ftd1(x, f1)
    T.dump_ftd1(T.load_ftd1(f1), f2)
    ftd_ok = f1.read_bytes() == f2.read_bytes()

    errors_ok = True
    bad = tmp_path / "bad.fmck"
    bad.write_bytes(b"XXXX" + b"\x00" * 16)
    try:
        M.load(bad)
        errors_ok = False
    except MagicError:
        pass
    trunc = tmp_path / "trunc.fmck"
    trunc.write_bytes(p1.read_bytes()[:-40])
    try:
        M.load(trunc)
        errors_ok = False
    except TruncatedError:
        pass
    try:
        M.load(p1, expected_config=M.ModelConfig())
        errors_ok = False
    except ConfigMismatchError:
        pass
    badf = tmp_path / "bad.ftd1"
    badf.write_bytes(b"YYYY" + b"\x00" * 16)
    try:
        T.load_ftd1(badf)
        errors_ok = False
    except MagicError:
        pass

    ok = ck_ok and ftd_ok and errors_ok
    report(8, ok, f"checkpoint bytes stable {ck_ok}, ftd1 bytes stable {ftd_ok}, "
                  f"documented errors {errors_ok}")
