"""Toy deraining experiment: train the desk-scale model on synthetic rain,
report PSNR/SSIM against the rainy baseline, and write example restorations.

Usage: python scripts/run_toy_training.py [--iters 500] [--seed 0] [--out runs/toy]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from freqmamba import model as M
from freqmamba import training as TR
from freqmamba.ppm import write_ppm
from freqmamba.tensor import Tensor


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--iters", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="runs/toy")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mc = M.ModelConfig()
    tc = TR.TrainConfig(total_iters=args.iters, seed=args.seed)
    pairs = TR.synth_rain(tc.data, tc.seed, tc.n_images, (tc.image_size, tc.image_size))
    base = np.mean([TR.psnr_y(Tensor(r[None]), Tensor(c[None])) for r, c, _ in pairs])
    print(f"rainy baseline: {base:.2f} dB over {len(pairs)} pairs")

    model = M.build(mc, seed=tc.seed)
    print(f"model: {model.n_blocks()} blocks, {model.param_count()} parameters")
    TR.train(model, tc, mc, log_path=out / "metrics.log")
    M.save(model, out / "model.fmck")

    psnr, ssim = TR.eval_pairs(model, pairs)
    print(f"trained: {psnr:.2f} dB / SSIM {ssim:.4f} (gain {psnr - base:+.2f} dB)")

    for i, (rainy, clean, _) in enumerate(pairs[:3]):
        write_ppm(Tensor(rainy[None]), out / f"pair{i}_rainy.ppm")
        write_ppm(Tensor(clean[None]), out / f"pair{i}_clean.ppm")
        write_ppm(Tensor(TR.restore(model, rainy[None])), out / f"pair{i}_restored.ppm")
    print(f"artifacts in {out}/")


if __name__ == "__main__":
    main()
