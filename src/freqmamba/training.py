"""Losses, optimizer, schedule, quality metrics, synthetic rain, training loop,
and the one restore path behind infer, eval and eval_pairs.

The composite loss is mean L1 in the spatial domain plus weighted mean L1 on
the amplitude and phase spectra (weights default to 0.05 each).  Phase terms
use plain L1 on principal values in (-pi, pi]; the 2*pi wrap discontinuity
is accepted.  PSNR/SSIM run on the Y channel of YCbCr.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from . import fourier as F
from . import tensor as T
from .model import Model, ModelConfig
from .ppm import read_ppm
from .tensor import Tensor, backward, no_grad


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 0.05
    beta: float = 0.05

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError(f"loss weights must be non-negative, got {self.alpha}, {self.beta}")


def loss_total(y_out: Tensor, x_gt: Tensor, w: LossWeights):
    """Return (total, components) with components spa/amp/pha as scalars."""
    if y_out.data.shape != x_gt.data.shape:
        raise ShapeError(f"loss shapes differ: {y_out.data.shape} vs {x_gt.data.shape}")
    l_spa = T.mean_all(T.abs_(T.sub(y_out, x_gt)))
    amp_y, pha_y = F.polar_dft2(y_out)
    amp_x, pha_x = F.polar_dft2(x_gt)
    l_amp = T.mean_all(T.abs_(T.sub(amp_y, amp_x)))
    l_pha = T.mean_all(T.abs_(T.sub(pha_y, pha_x)))
    total = T.add(l_spa, T.add(T.scale(l_amp, w.alpha), T.scale(l_pha, w.beta)))
    return total, {"spa": l_spa, "amp": l_amp, "pha": l_pha}


# ---------------------------------------------------------------------------
# metrics (plain numpy, Y channel)

_Y_WEIGHTS = np.array([0.299, 0.587, 0.114])


def _luma(img: Tensor) -> np.ndarray:
    data = img.data
    if data.ndim == 3:
        data = data[None]
    if data.ndim != 4 or data.shape[1] != 3:
        raise ShapeError(f"metrics expect RGB images (N, 3, H, W), got {img.data.shape}")
    return np.einsum("nchw,c->nhw", data, _Y_WEIGHTS)


def psnr_y(a: Tensor, b: Tensor) -> float:
    """10*log10(1/MSE) on the Y channel; identical inputs give +inf."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"psnr shapes differ: {a.data.shape} vs {b.data.shape}")
    mse = float(np.mean((_luma(a) - _luma(b)) ** 2))
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(1.0 / mse))


def gaussian_window() -> np.ndarray:
    """The 11x11 SSIM window, a Gaussian of sigma 1.5 normalized to sum 1."""
    size, sigma = 11, 1.5
    half = (size - 1) / 2.0
    g = np.exp(-((np.arange(size) - half) ** 2) / (2.0 * sigma * sigma))
    k = np.outer(g, g)
    return k / k.sum()


def _filter_valid(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Separable 'valid' filter of (N, H, W) maps, one shifted view per tap: no window buffer."""
    ho, wo = x.shape[1] - g.size + 1, x.shape[2] - g.size + 1
    rows = sum(g[j] * x[:, :, j:j + wo] for j in range(g.size))
    return sum(g[i] * rows[:, i:i + ho] for i in range(g.size))


def ssim_y(a: Tensor, b: Tensor) -> float:
    """Mean local SSIM over valid Gaussian windows on the Y channel, with
    K1 = 0.01, K2 = 0.03 and a data range of 1."""
    ya, yb = _luma(a), _luma(b)
    g = gaussian_window().sum(axis=0)  # the window's separable 1-D factor
    if ya.shape[1] < g.size or ya.shape[2] < g.size:
        raise ShapeError(f"image {ya.shape[1:]} smaller than the {g.size}x{g.size} SSIM window")
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    mu_a, mu_b = _filter_valid(ya, g), _filter_valid(yb, g)
    aa = _filter_valid(ya * ya, g) - mu_a ** 2
    bb = _filter_valid(yb * yb, g) - mu_b ** 2
    ab = _filter_valid(ya * yb, g) - mu_a * mu_b
    num = (2 * mu_a * mu_b + c1) * (2 * ab + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (aa + bb + c2)
    return float(np.mean(num / den))


# ---------------------------------------------------------------------------
# optimizer and schedule


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float) -> None:
    """One Adam update (beta1 0.9, beta2 0.999, eps 1e-8) of every parameter with a gradient."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for name, p in params.items():
        if p.grad is None:
            continue
        g = p.grad
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        else:
            v = state.v[name]
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        state.m[name] = m
        state.v[name] = v
        p.data = p.data - lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def cosine_lr(iteration: int, total: int, lr_init: float, lr_min: float) -> float:
    return lr_min + 0.5 * (lr_init - lr_min) * (1.0 + np.cos(np.pi * iteration / total))


# ---------------------------------------------------------------------------
# synthetic rain


@dataclass(frozen=True)
class RainSynthParams:
    streak_count: tuple[int, int] = (20, 50)
    angle_deg: tuple[float, float] = (-30.0, 30.0)
    length_px: tuple[int, int] = (6, 16)
    width_px: tuple[float, float] = (0.6, 1.2)
    intensity: tuple[float, float] = (0.08, 0.35)
    background: str = "procedural"  # or a folder of PPM images

    def __post_init__(self):
        for name in ("streak_count", "angle_deg", "length_px", "width_px", "intensity"):
            span = getattr(self, name)
            if len(span) != 2 or not -np.inf < span[0] <= span[1] < np.inf:
                raise ConfigError(f"{name} needs a finite range lo,hi with lo <= hi, got {span}")
        if self.streak_count[0] < 0:
            raise ConfigError(f"streak_count must be non-negative, got {self.streak_count}")
        if not self.width_px[0] > 0:
            raise ConfigError(f"width_px must be positive, got {self.width_px}")


def _procedural_background(h, w, rng):
    """Smooth colored background: low-pass filtered noise per channel."""
    img = np.empty((3, h, w))
    fy = np.fft.fftfreq(h)[:, None]
    fx = np.fft.fftfreq(w)[None, :]
    keep = (np.abs(fy) <= 3.0 / h) & (np.abs(fx) <= 3.0 / w)
    for c in range(3):
        spec = np.fft.fft2(rng.normal(size=(h, w)))
        low = np.real(np.fft.ifft2(spec * keep))
        lo, hi = low.min(), low.max()
        span = hi - lo if hi > lo else 1.0
        a = rng.uniform(0.15, 0.45)
        b = rng.uniform(0.55, 0.85)
        img[c] = a + (low - lo) / span * (b - a)
    return img


def _stamp_streak(layer, rng, params):
    h, w = layer.shape
    length = rng.uniform(*params.length_px)
    width = rng.uniform(*params.width_px)
    angle = np.deg2rad(rng.uniform(*params.angle_deg))
    amp = rng.uniform(*params.intensity)
    cy, cx = rng.uniform(0, h), rng.uniform(0, w)
    half = int(np.ceil(length / 2 + 3 * width + 2))
    y0, y1 = int(np.floor(cy)) - half, int(np.floor(cy)) + half + 1
    x0, x1 = int(np.floor(cx)) - half, int(np.floor(cx)) + half + 1
    ys = np.arange(max(y0, 0), min(y1, h))
    xs = np.arange(max(x0, 0), min(x1, w))
    if ys.size == 0 or xs.size == 0:
        return
    dy = ys[:, None] - cy
    dx = xs[None, :] - cx
    # rain direction: mostly vertical, tilted by the angle
    d_par = dy * np.cos(angle) + dx * np.sin(angle)
    d_perp = -dy * np.sin(angle) + dx * np.cos(angle)
    over = np.maximum(np.abs(d_par) - length / 2.0, 0.0)
    streak = amp * np.exp(-(d_perp ** 2) / (2.0 * width ** 2) - (over ** 2) / 2.0)
    layer[np.ix_(ys, xs)] += streak


def synth_rain(params: RainSynthParams, seed: int, n: int, size: tuple[int, int] = (64, 64)):
    """Deterministic list of (rainy, clean, rain-mask) float arrays in [0, 1]."""
    h, w = size
    rng = np.random.default_rng(seed)
    backgrounds = None
    if params.background != "procedural":
        folder = sorted(Path(params.background).glob("*.ppm"))
        if not folder:
            raise ConfigError(f"no .ppm backgrounds found in {params.background}")
        backgrounds = folder
    out = []
    for i in range(n):
        if backgrounds is None:
            clean = _procedural_background(h, w, rng)
        else:
            img = read_ppm(backgrounds[i % len(backgrounds)]).data[0]
            if img.shape[1] < h or img.shape[2] < w:
                raise ConfigError(f"background {backgrounds[i % len(backgrounds)]} smaller than {h}x{w}")
            ys = rng.integers(0, img.shape[1] - h + 1)
            xs = rng.integers(0, img.shape[2] - w + 1)
            clean = img[:, ys:ys + h, xs:xs + w].copy()
        layer = np.zeros((h, w))
        for _ in range(int(rng.integers(params.streak_count[0], params.streak_count[1] + 1))):
            _stamp_streak(layer, rng, params)
        rainy = np.clip(clean + layer[None, :, :], 0.0, 1.0)
        out.append((rainy, clean, layer))
    return out


# ---------------------------------------------------------------------------
# training loop


@dataclass(frozen=True)
class TrainConfig:
    total_iters: int = 500
    progressive: tuple[tuple[int, int], ...] = ((32, 8), (64, 4))
    # desk-scale default; a 500-iteration run needs a far larger step than a
    # 75k-iteration schedule (where 3e-4 is the usual choice)
    lr_init: float = 2e-3
    lr_min: float = 1e-6
    seed: int = 0
    log_interval: int = 25
    n_images: int = 16
    image_size: int = 64
    data: RainSynthParams | str = field(default_factory=RainSynthParams)

    def __post_init__(self):
        if self.total_iters < 1:
            raise ConfigError("total_iters must be positive")
        if self.n_images < 1:
            raise ConfigError(f"n_images must be positive, got {self.n_images}")
        if self.seed < 0 or self.log_interval < 1:
            raise ConfigError(f"seed must be >= 0 and log_interval >= 1, got {self.seed}, {self.log_interval}")
        if not (0 < self.lr_init < np.inf and 0 <= self.lr_min < np.inf):
            raise ConfigError(f"lr_init must be finite > 0 and lr_min finite >= 0, got {self.lr_init}, {self.lr_min}")
        if not self.progressive:
            raise ConfigError("progressive schedule needs at least one (patch, batch) stage")
        for patch, batch in self.progressive:
            if patch < 1 or patch % 16:
                raise ConfigError(f"patch sizes must be positive and divisible by 16, got {patch}")
            if batch < 1:
                raise ConfigError(f"batch sizes must be positive, got {batch}")
            if patch > self.image_size:
                raise ConfigError(f"patch {patch} exceeds image size {self.image_size}")

    def stage_bounds(self) -> list[int]:
        """Iteration count per stage; stages partition total_iters."""
        n = len(self.progressive)
        per = self.total_iters // n
        counts = [per] * n
        counts[-1] += self.total_iters - per * n
        return counts


def load_paired_folder(folder) -> list[tuple[np.ndarray, np.ndarray, None]]:
    root = Path(folder)
    rainy_dir, clean_dir = root / "rainy", root / "clean"
    names = sorted(p.name for p in rainy_dir.glob("*.ppm"))
    if not names:
        raise ConfigError(f"no rainy/*.ppm images under {folder}")
    pairs = []
    for name in names:
        clean_path = clean_dir / name
        if not clean_path.exists():
            raise ConfigError(f"missing clean counterpart for {name}")
        pairs.append((read_ppm(rainy_dir / name).data[0], read_ppm(clean_path).data[0], None))
    return pairs


def train(model: Model, tc: TrainConfig, mc: ModelConfig, log_path=None):
    """Progressive training on synthetic (or folder) pairs; returns metrics rows."""
    if mc != model.config:
        raise ConfigError("train config does not match the model it was built for")
    if isinstance(tc.data, str):
        pairs = load_paired_folder(tc.data)
    else:
        pairs = synth_rain(tc.data, tc.seed, tc.n_images, (tc.image_size, tc.image_size))
    rng = np.random.default_rng(tc.seed + 1)
    params = model.named_params()
    state = AdamState()
    weights = LossWeights()
    metrics = []
    log_fh = open(log_path, "a") if log_path is not None else None
    if log_fh:
        log_fh.write("# iter lr l_spa l_amp l_pha l_total train_psnr\n")

    stage_of = []
    for stage_idx, count in enumerate(tc.stage_bounds()):
        stage_of.extend([stage_idx] * count)

    try:
        for it in range(1, tc.total_iters + 1):
            patch, batch = tc.progressive[stage_of[it - 1]]
            rainy_np = np.empty((batch, 3, patch, patch))
            clean_np = np.empty((batch, 3, patch, patch))
            for b in range(batch):
                idx = int(rng.integers(0, len(pairs)))
                ry, cl = pairs[idx][0], pairs[idx][1]
                oy = int(rng.integers(0, ry.shape[1] - patch + 1))
                ox = int(rng.integers(0, ry.shape[2] - patch + 1))
                rainy_np[b] = ry[:, oy:oy + patch, ox:ox + patch]
                clean_np[b] = cl[:, oy:oy + patch, ox:ox + patch]

            for p in params.values():
                p.grad = None
            out = model.forward(Tensor(rainy_np))
            total, comps = loss_total(out, Tensor(clean_np), weights)
            if not np.isfinite(total.data):
                raise NumericError(f"non-finite loss at iteration {it}")
            backward(total)
            lr = cosine_lr(it - 1, tc.total_iters, tc.lr_init, tc.lr_min)
            adam_step(params, state, lr)
            model.iteration = it

            if it % tc.log_interval == 0 or it == tc.total_iters or it == 1:
                psnr = psnr_y(Tensor(out.data), Tensor(clean_np))
                row = {"iter": it, "lr": lr,
                       "l_spa": float(comps["spa"].data), "l_amp": float(comps["amp"].data),
                       "l_pha": float(comps["pha"].data), "l_total": float(total.data),
                       "psnr": psnr}
                metrics.append(row)
                if log_fh:
                    log_fh.write(f"{it} {lr:.8e} {row['l_spa']:.8e} {row['l_amp']:.8e} "
                                 f"{row['l_pha']:.8e} {row['l_total']:.8e} {row['psnr']:.4f}\n")
                    log_fh.flush()
            # release this step's graph before the next forward builds another
            del out, total, comps
    finally:
        if log_fh:
            log_fh.close()
    return metrics


def restore(model: Model, rainy: np.ndarray) -> np.ndarray:
    """Derain an (N, 3, H, W) batch of any size; returns it clipped to [0, 1].

    H and W are reflect-padded up to multiples of 16 for the network and the
    output is cropped back.
    """
    h, w = rainy.shape[2:]
    ph, pw = -h % 16, -w % 16
    if ph or pw:
        rainy = np.pad(rainy, ((0, 0), (0, 0), (0, ph), (0, pw)), mode="reflect")
    with no_grad():
        out = model.forward(Tensor(rainy)).data[:, :, :h, :w]
    if not np.isfinite(out).all():
        raise NumericError("non-finite values in restored image")
    return np.clip(out, 0.0, 1.0)


def eval_pairs(model: Model, pairs, workers: int = 1) -> tuple[float, float]:
    """Mean PSNR and SSIM of restored outputs over (rainy, clean, *) pairs."""

    def score(pair):
        ry, cl, *_ = pair
        out, gt = Tensor(restore(model, ry[None])), Tensor(cl[None])
        return psnr_y(out, gt), ssim_y(out, gt)

    # restore enters no_grad in the thread that runs it, and grad mode is per
    # thread, so the pool needs no switch of its own
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            scores = list(pool.map(score, pairs))
    else:
        scores = [score(p) for p in pairs]
    psnrs, ssims = zip(*scores)
    return float(np.mean(psnrs)), float(np.mean(ssims))
