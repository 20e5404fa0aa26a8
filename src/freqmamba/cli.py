"""Command-line entry point: train / infer / eval / gradcheck / spectrum-swap / scan-viz.

Exit codes: 0 success, 1 config error or out of memory, 2 I/O error,
3 numeric failure, 4 gradcheck failure.  FREQMAMBA_THREADS caps eval workers.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, ConfigMismatchError, FreqMambaError, MagicError, \
    NumericError, ShapeError, TruncatedError
from . import checks
from . import fourier as F
from . import model as M
from . import scan as S
from . import tensor as T
from . import training as TR
from .ppm import read_ppm, write_ppm
from .tensor import Tensor, no_grad


def worker_count() -> int:
    raw = os.environ.get("FREQMAMBA_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(f"FREQMAMBA_THREADS must be an integer, got {raw!r}")


# ---------------------------------------------------------------------------
# flat key = value config document

_MODEL_KEYS = {"depths", "base_channels", "channel_multipliers", "state_dim",
               "use_fourier", "use_band", "use_spatial_mamba", "use_attention_map"}
_TRAIN_KEYS = {"total_iters", "progressive", "lr_init", "lr_min", "seed",
               "log_interval", "n_images", "image_size"}
_RAIN_KEYS = {"streak_count", "angle_deg", "length_px", "width_px", "intensity",
              "background"}
_PATH_KEYS = {"out_dir", "data_dir"}
_SECTIONS = {"model": _MODEL_KEYS, "train": _TRAIN_KEYS, "rain": _RAIN_KEYS,
             "paths": _PATH_KEYS}


def parse_run_config(path) -> dict:
    """Parse the flat sectioned key = value document; unknown keys rejected."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    values: dict[str, dict[str, str]] = {name: {} for name in _SECTIONS}
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"{path}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SECTIONS[section]:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in [{section}]")
        if key in values[section]:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[section][key] = val
    return values


def _ints(val):
    return tuple(int(x) for x in val.split(","))


def _floats(val):
    return tuple(float(x) for x in val.split(","))


def _bool(val):
    if val in ("true", "1", "yes"):
        return True
    if val in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {val!r}")


def build_configs(doc: dict):
    try:
        mkw = {}
        for key, val in doc["model"].items():
            if key in ("depths", "channel_multipliers"):
                mkw[key] = _ints(val)
            elif key in ("base_channels", "state_dim"):
                mkw[key] = int(val)
            else:
                mkw[key] = _bool(val)
        mc = M.ModelConfig(**mkw)

        rkw = {}
        for key, val in doc["rain"].items():
            if key == "background":
                rkw[key] = val
            elif key in ("streak_count", "length_px"):
                rkw[key] = _ints(val)
            else:
                rkw[key] = _floats(val)
        rain = TR.RainSynthParams(**rkw)

        tkw = {"data": rain}
        for key, val in doc["train"].items():
            if key == "progressive":
                stages = []
                for part in val.split(","):
                    patch, _, batch = part.strip().partition("x")
                    stages.append((int(patch), int(batch)))
                tkw[key] = tuple(stages)
            elif key in ("lr_init", "lr_min"):
                tkw[key] = float(val)
            else:
                tkw[key] = int(val)
        data_dir = doc["paths"].get("data_dir", "")
        if data_dir:
            if not Path(data_dir).is_dir():
                raise ConfigError(f"data_dir {data_dir} is not a directory")
            tkw["data"] = data_dir
        tc = TR.TrainConfig(**tkw)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"bad config value: {e}")
    out_dir = doc["paths"].get("out_dir", "runs/freqmamba")
    return mc, tc, out_dir


# ---------------------------------------------------------------------------
# commands


def cmd_train(args) -> int:
    doc = parse_run_config(args.config)
    mc, tc, out_dir = build_configs(doc)
    if args.seed is not None:
        tc = dataclasses.replace(tc, seed=args.seed)
    out = Path(args.out) if args.out else Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model = M.build(mc, seed=tc.seed)
    print(f"training: {model.n_blocks()} blocks, {model.param_count()} params, "
          f"{tc.total_iters} iters, schedule {tc.progressive}")
    metrics = TR.train(model, tc, mc, log_path=out / "metrics.log")
    M.save(model, out / "model.fmck")
    last = metrics[-1]
    print(f"done: final loss {last['l_total']:.4f}, train PSNR {last['psnr']:.2f} dB")
    print(f"checkpoint: {out / 'model.fmck'}; log: {out / 'metrics.log'}")
    return 0


def cmd_infer(args) -> int:
    model = M.load(args.checkpoint)
    restored = TR.restore(model, read_ppm(args.input).data)
    write_ppm(Tensor(restored), args.output)
    print(f"restored {args.input} -> {args.output}")
    return 0


def cmd_eval(args) -> int:
    model = M.load(args.checkpoint)
    pairs = TR.load_paired_folder(args.folder)
    psnr, ssim = TR.eval_pairs(model, pairs, workers=worker_count())
    print(f"evaluated {len(pairs)} pairs: mean PSNR {psnr:.2f} dB, mean SSIM {ssim:.4f}")
    return 0


def cmd_gradcheck(args) -> int:
    results = checks.run_all(include_model=not args.fast)
    print(checks.format_table(results))
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} gradient checks FAILED")
        return 4
    print(f"all {len(results)} gradient checks passed")
    return 0


def cmd_spectrum_swap(args) -> int:
    a = read_ppm(args.image_a)
    b = read_ppm(args.image_b)
    if a.data.shape != b.data.shape:
        raise ConfigError(f"images must share a shape: {a.data.shape} vs {b.data.shape}")
    with no_grad():
        swapped_a, swapped_b = F.spectrum_swap(a, b)
        F.export_spectrum(F.dft2(a), f"{args.out_prefix}_specA")
        F.export_spectrum(F.dft2(b), f"{args.out_prefix}_specB")
    out_a = f"{args.out_prefix}_ampA_phaseB.ppm"
    out_b = f"{args.out_prefix}_ampB_phaseA.ppm"
    write_ppm(Tensor(np.clip(swapped_a.data, 0, 1)), out_a)
    write_ppm(Tensor(np.clip(swapped_b.data, 0, 1)), out_b)
    print(f"wrote {out_a} (amplitude of A, phase of B)")
    print(f"wrote {out_b} (amplitude of B, phase of A)")
    print(f"input spectra dumped as {args.out_prefix}_specA/_specB (_real/_imag .ftd1)")
    return 0


def cmd_scan_viz(args) -> int:
    order = S.order_freq_blocks(args.height, args.width, args.k)
    txt = f"{args.out_prefix}_order.txt"
    with open(txt, "w") as fh:
        for idx in order.forward:
            fh.write(f"{idx}\n")
    rank = np.empty(args.height * args.width)
    rank[order.forward] = np.arange(order.forward.size)
    heat = f"{args.out_prefix}_rank.ftd1"
    T.dump_ftd1(Tensor(rank.reshape(1, 1, args.height, args.width)), heat)
    print(f"wrote {txt} ({order.forward.size} indices) and {heat}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="freqmamba",
                                description="desk-scale frequency-aware deraining toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("train", help="train on synthetic rain or a paired folder")
    sp.add_argument("--config", required=True, help="flat key = value config document")
    sp.add_argument("--seed", type=int, default=None, help="override the config seed")
    sp.add_argument("--out", default=None, help="output directory override")
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("infer", help="restore one PPM image")
    sp.add_argument("checkpoint")
    sp.add_argument("input")
    sp.add_argument("output")
    sp.set_defaults(fn=cmd_infer)

    sp = sub.add_parser("eval", help="mean PSNR/SSIM over a paired folder (rainy/, clean/)")
    sp.add_argument("checkpoint")
    sp.add_argument("folder")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("gradcheck", help="run the gradient-check suite")
    sp.add_argument("--fast", action="store_true", help="skip the full-model check")
    sp.set_defaults(fn=cmd_gradcheck)

    sp = sub.add_parser("spectrum-swap", help="exchange amplitude spectra of two images")
    sp.add_argument("image_a")
    sp.add_argument("image_b")
    sp.add_argument("out_prefix")
    sp.set_defaults(fn=cmd_spectrum_swap)

    sp = sub.add_parser("scan-viz", help="emit the frequency-block scan order")
    sp.add_argument("height", type=int)
    sp.add_argument("width", type=int)
    sp.add_argument("k", type=int)
    sp.add_argument("out_prefix")
    sp.set_defaults(fn=cmd_scan_viz)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (MagicError, TruncatedError, ConfigMismatchError, OSError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except ShapeError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"out of memory: {e}", file=sys.stderr)
        return 1
    except FreqMambaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
