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

_SECTIONS = {"model": M.config_defaults(M.ModelConfig), "train": M.config_defaults(TR.TrainConfig),
             "rain": M.config_defaults(TR.RainSynthParams), "paths": {"out_dir", "data_dir"}}


def parse_run_config(path) -> dict:
    """Parse the flat sectioned key = value document; unknown keys rejected."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    return M.parse_sections(text, _SECTIONS, path)


def build_configs(doc: dict):
    mc = M.config_from(M.ModelConfig, doc["model"])
    data = M.config_from(TR.RainSynthParams, doc["rain"])
    data_dir = doc["paths"].get("data_dir", "")
    if data_dir:
        if not Path(data_dir).is_dir():
            raise ConfigError(f"data_dir {data_dir} is not a directory")
        data = data_dir
    tc = M.config_from(TR.TrainConfig, doc["train"], data=data)
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
