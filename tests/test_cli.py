from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from freqmamba import cli
from freqmamba import model as M
from freqmamba import tensor as T
from freqmamba import training as TR
from freqmamba.errors import ConfigError, ConfigMismatchError, FreqMambaError, MagicError, \
    TruncatedError
from freqmamba.ppm import read_ppm, write_ppm
from freqmamba.tensor import Tensor


TINY_CONFIG = """
[model]
depths = 1,1,1,1,1,1,1
base_channels = 4
channel_multipliers = 1,1,1,1
state_dim = 2

[train]
total_iters = 2
progressive = 16x1
lr_init = 1e-3
seed = 3
log_interval = 1
n_images = 2
image_size = 32

[rain]
streak_count = 5,10

[paths]
out_dir = OUTDIR
"""


def write_image(path, seed=0, size=(16, 16)):
    rng = np.random.default_rng(seed)
    img = Tensor(rng.uniform(0, 1, (1, 3, *size)))
    write_ppm(img, path)
    return read_ppm(path)  # quantized version


# ---------------------------------------------------------------------------
# ppm round trips


def test_ppm_roundtrip_bit_exact(tmp_path):
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    rng = np.random.default_rng(1)
    write_ppm(Tensor(rng.uniform(0, 1, (1, 3, 5, 7))), p1)
    img = read_ppm(p1)
    write_ppm(img, p2)
    assert p1.read_bytes() == p2.read_bytes()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.binary(max_size=64),
                 st.binary(max_size=48).map(lambda b: b"P6\n" + b),
                 st.lists(st.sampled_from([b"1", b"2", b"255", b"-1", b"0", b"x", b"#c\n", b" ",
                                           b"\n", b"\xff"]), max_size=8)
                 .map(lambda parts: b"P6 " + b"".join(parts) + b"\n" + bytes(12))))
def test_ppm_fuzz_loads_or_raises_package_error(tmp_path, blob):
    p = tmp_path / "f.ppm"
    p.write_bytes(blob)
    try:
        img = read_ppm(p)
    except FreqMambaError:
        return
    assert img.data.ndim == 4 and img.data.shape[1] == 3


def test_ppm_reads_comments(tmp_path):
    p = tmp_path / "c.ppm"
    p.write_bytes(b"P6\n# a comment\n2 1\n255\n" + bytes([255, 0, 0, 0, 255, 0]))
    img = read_ppm(p)
    assert img.data.shape == (1, 3, 1, 2)
    assert img.data[0, 0, 0, 0] == 1.0 and img.data[0, 1, 0, 1] == 1.0


# ---------------------------------------------------------------------------
# config parsing


def test_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("[model]\nbogus = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        cli.parse_run_config(p)


def test_config_rejects_unknown_section(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("[nope]\na = 1\n")
    with pytest.raises(ConfigError, match="unknown section"):
        cli.parse_run_config(p)


def test_config_rejects_duplicates_and_orphans(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("[model]\nbase_channels = 4\nbase_channels = 8\n")
    with pytest.raises(ConfigError, match="duplicate"):
        cli.parse_run_config(p)
    p.write_text("base_channels = 4\n")
    with pytest.raises(ConfigError, match="section"):
        cli.parse_run_config(p)


def test_config_full_document(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text(TINY_CONFIG.replace("OUTDIR", str(tmp_path / "run")))
    mc, tc, out_dir = cli.build_configs(cli.parse_run_config(p))
    assert mc.base_channels == 4
    assert tc.total_iters == 2
    assert tc.progressive == ((16, 1),)
    assert tc.data.streak_count == (5, 10)
    assert out_dir == str(tmp_path / "run")


def test_readme_example_config_builds_the_defaults(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("A training config is", 1)[1].split("```\n", 2)[1]
    p = tmp_path / "c.cfg"
    p.write_text(block)
    assert cli.build_configs(cli.parse_run_config(p)) == (M.ModelConfig(), TR.TrainConfig(), "runs/toy")


# ---------------------------------------------------------------------------
# commands (in-process)


def test_cmd_scan_viz_matches_wavelet_enumeration(tmp_path):
    prefix = str(tmp_path / "viz")
    assert cli.main(["scan-viz", "4", "4", "2", prefix]) == 0
    lines = (tmp_path / "viz_order.txt").read_text().split()
    assert [int(x) for x in lines] == [0, 1, 4, 5, 2, 3, 6, 7, 8, 9, 12, 13, 10, 11, 14, 15]
    heat = T.load_ftd1(tmp_path / "viz_rank.ftd1")
    assert heat.data.shape == (1, 1, 4, 4)
    assert sorted(heat.data.reshape(-1).tolist()) == list(range(16))


def test_cmd_spectrum_swap_self_identity(tmp_path):
    src = tmp_path / "x.ppm"
    img = write_image(src, seed=2)
    prefix = str(tmp_path / "swap")
    assert cli.main(["spectrum-swap", str(src), str(src), prefix]) == 0
    for suffix in ("_ampA_phaseB.ppm", "_ampB_phaseA.ppm"):
        out = read_ppm(tmp_path / f"swap{suffix}")
        np.testing.assert_allclose(out.data, img.data, atol=1.01 / 255)


def test_cmd_infer_zero_init_identity(tmp_path):
    cfg = M.ModelConfig(base_channels=4, channel_multipliers=(1, 1, 1, 1), state_dim=2)
    ckpt = tmp_path / "m.fmck"
    M.save(M.build(cfg, seed=0), ckpt)
    src, dst = tmp_path / "in.ppm", tmp_path / "out.ppm"
    img = write_image(src, seed=3, size=(24, 20))  # forces reflect padding
    assert cli.main(["infer", str(ckpt), str(src), str(dst)]) == 0
    out = read_ppm(dst)
    np.testing.assert_array_equal(out.data, img.data)


def test_cmd_eval_runs(tmp_path, capsys):
    cfg = M.ModelConfig(base_channels=4, channel_multipliers=(1, 1, 1, 1), state_dim=2)
    ckpt = tmp_path / "m.fmck"
    M.save(M.build(cfg, seed=0), ckpt)
    (tmp_path / "rainy").mkdir()
    (tmp_path / "clean").mkdir()
    for i in range(2):
        write_image(tmp_path / "rainy" / f"{i}.ppm", seed=10 + i, size=(16, 16))
        write_image(tmp_path / "clean" / f"{i}.ppm", seed=20 + i, size=(16, 16))
    assert cli.main(["eval", str(ckpt), str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "mean PSNR" in out and "mean SSIM" in out


TINY_MC = M.ModelConfig(base_channels=4, channel_multipliers=(1, 1, 1, 1), state_dim=2)


def tiny_checkpoint(path, seed=0):
    """A small model whose head is not zero, so that it changes its input."""
    model = M.build(TINY_MC, seed=seed)
    model.head.w.data = np.random.default_rng(seed + 1).normal(0, 0.05, model.head.w.data.shape)
    M.save(model, path)
    return M.load(path)


def write_pairs(folder, n, size):
    for sub in ("rainy", "clean"):
        (folder / sub).mkdir(parents=True, exist_ok=True)
    for i in range(n):
        write_image(folder / "rainy" / f"{i}.ppm", seed=10 + i, size=size)
        write_image(folder / "clean" / f"{i}.ppm", seed=20 + i, size=size)


def test_cmd_eval_pads_like_infer(tmp_path, capsys):
    ckpt = tmp_path / "m.fmck"
    model = tiny_checkpoint(ckpt)
    write_pairs(tmp_path, 1, (20, 20))
    assert cli.main(["eval", str(ckpt), str(tmp_path)]) == 0
    (rainy, clean, _), = TR.load_paired_folder(tmp_path)
    out, gt = Tensor(TR.restore(model, rainy[None])), Tensor(clean[None])
    assert not np.array_equal(out.data, rainy[None])
    assert capsys.readouterr().out == (f"evaluated 1 pairs: mean PSNR {TR.psnr_y(out, gt):.2f} dB, "
                                       f"mean SSIM {TR.ssim_y(out, gt):.4f}\n")


def test_threaded_eval_leaves_grad_mode_on(tmp_path, monkeypatch, capsys):
    ckpt = tmp_path / "m.fmck"
    model = tiny_checkpoint(ckpt)
    write_pairs(tmp_path, 4, (16, 16))
    monkeypatch.setenv("FREQMAMBA_THREADS", "2")
    for _ in range(10):
        assert cli.main(["eval", str(ckpt), str(tmp_path)]) == 0
    assert T._grad_enabled.get()
    before = {k: p.data.copy() for k, p in model.named_params().items()}
    tc = TR.TrainConfig(total_iters=1, progressive=((16, 1),), n_images=1, image_size=16)
    TR.train(model, tc, model.config)
    assert all(not np.array_equal(p.data, before[k]) for k, p in model.named_params().items())


def _fmck_with_config_text(path, text: bytes):
    """Rewrite a checkpoint's config blob, keeping its parameter records."""
    blob = path.read_bytes()
    n = int.from_bytes(blob[8:12], "little")
    path.write_bytes(blob[:8] + len(text).to_bytes(4, "little") + text + blob[12 + n:])


def _fmck_with_first_value(path, name: str, bits: int):
    """Overwrite the first float32 of a checkpoint's ``name`` record with raw bits."""
    blob = bytearray(path.read_bytes())
    key = len(name).to_bytes(4, "little") + name.encode()
    pos = blob.index(key) + len(key) + 16  # past the four u32 dims
    blob[pos:pos + 4] = bits.to_bytes(4, "little")
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("kind,payload", [
    ("ppm", b"P6\nab 4\n255\n"),
    ("ppm", b"P6\n0 4\n255\n"),
    ("fmck", b"[model]\nbase_channels = x\n"),
    ("fmck", TINY_MC.canonical_text().encode() + b"[state]\niteration = two\n"),
    ("fmck", b"[model]\nbase_channels = \xff\xfe\n"),
    ("fmck", b"[model]\nbase_channels = 4\nchannel_multipliers = 1,0,1,1\nstate_dim = 2\n"),
    ("fmck", TINY_MC.canonical_text().encode() + b"state_dim = 2\n"),
    ("fmck", TINY_MC.canonical_text().encode() + b"[state]\niteration = 2\nfoo = 1\n"),
    ("fmck", TINY_MC.canonical_text().encode() + b"[state]\niterationx = 7\n"),
    ("value", 0x7F800001),
    ("value", 0x7F800000),
], ids=["ppm_header_not_digits", "ppm_zero_width", "fmck_config_value", "fmck_iteration", "fmck_not_utf8",
        "fmck_zero_multiplier", "fmck_duplicate_key", "fmck_unknown_state_key", "fmck_iteration_prefix",
        "fmck_signalling_nan", "fmck_inf"])
def test_bad_input_exits_2(tmp_path, capsys, kind, payload):
    ckpt, img = tmp_path / "m.fmck", tmp_path / "in.ppm"
    tiny_checkpoint(ckpt)
    write_image(img, seed=5)
    if kind == "ppm":
        img.write_bytes(payload)
    elif kind == "fmck":
        _fmck_with_config_text(ckpt, payload)
    else:
        _fmck_with_first_value(ckpt, "stem.w", payload)
    assert cli.main(["infer", str(ckpt), str(img), str(tmp_path / "out.ppm")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and str(img if kind == "ppm" else ckpt) in err
    assert len(err.splitlines()) == 1 and (kind != "value" or "stem.w" in err)


def test_cmd_train_end_to_end(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    out_dir = tmp_path / "run"
    cfg_path.write_text(TINY_CONFIG.replace("OUTDIR", str(out_dir)))
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    assert (out_dir / "model.fmck").exists()
    log = (out_dir / "metrics.log").read_text().splitlines()
    assert log[0].startswith("#")
    assert len(log) >= 2
    model = M.load(out_dir / "model.fmck")
    assert model.iteration == 2


def test_exit_codes(tmp_path):
    assert cli.main(["train", "--config", str(tmp_path / "missing.cfg")]) == 1
    bad = tmp_path / "bad.fmck"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    img = tmp_path / "img.ppm"
    write_image(img, seed=4)
    assert cli.main(["infer", str(bad), str(img), str(tmp_path / "o.ppm")]) == 2
    assert cli.main(["eval", str(bad), str(tmp_path)]) == 2
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[model]\nbogus = 1\n")
    assert cli.main(["train", "--config", str(cfg)]) == 1


def test_train_config_not_utf8_exits_1(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(b"\xff\xfe[model]\nbase_channels = 4\n")
    with pytest.raises(ConfigError, match="utf-8"):
        cli.parse_run_config(cfg)
    assert cli.main(["train", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(cfg) in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("old, new", [
    ("channel_multipliers = 1,1,1,1", "channel_multipliers = 1,0,1,1"),
    ("channel_multipliers = 1,1,1,1", "channel_multipliers = 1,1,-1,1"),
    ("n_images = 2", "n_images = 0"),
    ("progressive = 16x1", "progressive = 0x1"),
    ("streak_count = 5,10", "streak_count = 50,5"),
    ("streak_count = 5,10", "streak_count = 1,2,3"),
    ("streak_count = 5,10", "streak_count = 5,10\nwidth_px = 0,0"),
    ("streak_count = 5,10", "streak_count = 5,10\nintensity = 0,1e309"),
    ("log_interval = 1", "log_interval = 0"),
    ("seed = 3", "seed = -1"),
    ("lr_init = 1e-3", "lr_init = 1e309"),
    ("lr_init = 1e-3", "lr_init = nan"),
    ("lr_init = 1e-3", "lr_init = 1e-3\nlr_min = -1"),
], ids=["zero_multiplier", "negative_multiplier", "zero_images", "zero_patch", "reversed_streak_count",
        "three_streak_counts", "zero_width", "infinite_intensity", "zero_log_interval", "negative_seed",
        "infinite_lr_init", "nan_lr_init", "negative_lr_min"])
def test_train_config_out_of_range_exits_1(tmp_path, capsys, old, new):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TINY_CONFIG.replace("OUTDIR", str(tmp_path / "run")).replace(old, new))
    assert cli.main(["train", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


def test_train_negative_seed_option_exits_1(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TINY_CONFIG.replace("OUTDIR", str(tmp_path / "run")))
    assert cli.main(["train", "--config", str(cfg), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "seed" in err and len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("h, w", [(0, 4), (4, 0), (-2, 4)])
def test_scan_viz_empty_size_exits_1(tmp_path, capsys, h, w):
    prefix = tmp_path / "viz"
    assert cli.main(["scan-viz", str(h), str(w), "1", str(prefix)]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "viz_order.txt").exists()


def test_scan_viz_out_of_memory_exits_1(tmp_path, capsys, monkeypatch):
    # stands in for H = W = 100000, whose 74.5 GiB index array numpy refuses
    def refuse(h, w, k):
        raise MemoryError(f"Unable to allocate 74.5 GiB for an order of {h}x{w} pixels")

    monkeypatch.setattr(cli.S, "order_freq_blocks", refuse)
    assert cli.main(["scan-viz", "100000", "100000", "1", str(tmp_path / "viz")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("out of memory: Unable to allocate") and len(err.splitlines()) == 1


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("FREQMAMBA_THREADS", raising=False)
    assert cli.worker_count() == 1
    monkeypatch.setenv("FREQMAMBA_THREADS", "4")
    assert cli.worker_count() == 4
    monkeypatch.setenv("FREQMAMBA_THREADS", "zero")
    with pytest.raises(ConfigError):
        cli.worker_count()


# ---------------------------------------------------------------------------
# fuzzing the checkpoint and config readers

_IO_ERRORS = (MagicError, TruncatedError, ConfigMismatchError)


@pytest.fixture(scope="module")
def fmck_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("fmck") / "m.fmck"
    M.save(M.build(TINY_MC, seed=0), path)
    return path.read_bytes()


def _mutated(blob, edits):
    out = bytearray(blob)
    for pos, byte in edits:
        out[pos % len(out)] = byte
    return bytes(out)


# Edits land anywhere, or in the header and config text (the first 300
# bytes) where one byte changes the most; truncations cut anywhere.
_FMCK_CHANGES = st.one_of(
    st.lists(st.tuples(st.integers(0, 2 ** 20), st.integers(0, 255)), min_size=1, max_size=4)
    .map(lambda edits: ("edit", edits)),
    st.lists(st.tuples(st.integers(0, 299), st.integers(0, 255)), min_size=1, max_size=3)
    .map(lambda edits: ("edit", edits)),
    st.integers(0, 2 ** 20).map(lambda n: ("cut", n)))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_FMCK_CHANGES)
def test_fmck_fuzz_loads_or_exits_2(tmp_path, capsys, fmck_blob, change):
    kind, arg = change
    blob = _mutated(fmck_blob, arg) if kind == "edit" else fmck_blob[:arg % (len(fmck_blob) + 1)]
    ckpt = tmp_path / "m.fmck"
    ckpt.write_bytes(blob)
    try:
        model = M.load(ckpt)
    except _IO_ERRORS:
        capsys.readouterr()
        assert cli.main(["infer", str(ckpt), str(tmp_path / "in.ppm"), str(tmp_path / "out.ppm")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and len(err.splitlines()) == 1
        return
    assert model.param_count() > 0


_CONFIG_KEYS = sorted(set().union(*cli._SECTIONS.values()))
_CONFIG_VALUES = st.one_of(
    st.sampled_from(["0", "-1", "1", "2", "16", "1e309", "nan", "x", "", "true", "0,1", "1,1,1,1",
                     "0,1,1,1", "1,1,1,1,1,1,1", "16x1", "0x1", "16x0", "32x2,16x1", "16x", "procedural"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8))
_CONFIG_LINES = st.one_of(
    st.sampled_from(["[model]", "[train]", "[rain]", "[paths]", "[other]", "# comment", ""]),
    st.builds("{} = {}".format, st.sampled_from(_CONFIG_KEYS), _CONFIG_VALUES),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.lists(_CONFIG_LINES, max_size=10).map(lambda lines: "\n".join(lines).encode()),
                 st.binary(max_size=64)))
def test_run_config_fuzz_builds_or_exits_1(tmp_path, capsys, text):
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(text)
    try:
        mc, tc, out_dir = cli.build_configs(cli.parse_run_config(cfg))
    except ConfigError:
        capsys.readouterr()
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and len(err.splitlines()) == 1
        return
    # what train and build rely on
    assert min(mc.stage_channels) >= 1 and tc.n_images >= 1 and isinstance(out_dir, str)
    assert all(patch >= 16 and batch >= 1 for patch, batch in tc.progressive)
    assert tc.seed >= 0 and tc.log_interval >= 1
    assert 0 < tc.lr_init < np.inf and 0 <= tc.lr_min < np.inf
