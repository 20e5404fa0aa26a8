"""Plain-numpy references the benchmark checks the program's outputs against.

Nothing here imports the package: each function restates the documented
maths (README.md of the repository) in the most direct numpy form, so a
fault in a program layer cannot hide in a shared helper.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

LUMA = np.array([0.299, 0.587, 0.114])
LOSS_ALPHA = 0.05   # weight of the amplitude-spectrum L1 term
LOSS_BETA = 0.05    # weight of the phase-spectrum L1 term


# ---------------------------------------------------------------------------
# PPM (P6, maxval 255)


def write_ppm(path: Path, img: np.ndarray) -> None:
    """Write a (3, H, W) array in [0, 1] as an 8-bit binary PPM."""
    q = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    _, h, w = q.shape
    path.write_bytes(f"P6\n{w} {h}\n255\n".encode() + q.transpose(1, 2, 0).tobytes())


def read_ppm(path: Path) -> np.ndarray:
    """Read a PPM written with a plain three-line header into (3, H, W) in [0, 1]."""
    blob = path.read_bytes()
    magic, dims, maxval, raster = blob.split(b"\n", 3)
    w, h = (int(v) for v in dims.split())
    if magic != b"P6" or maxval != b"255" or len(raster) != 3 * w * h:
        raise ValueError(f"{path}: not a plain P6 image")
    return np.frombuffer(raster, np.uint8).reshape(h, w, 3).transpose(2, 0, 1) / 255.0


# ---------------------------------------------------------------------------
# loss and quality metrics


def loss_total(out: np.ndarray, gt: np.ndarray) -> float:
    """Spatial L1 plus weighted L1 of the DFT amplitude and phase."""
    fo, fg = np.fft.fft2(out, axes=(-2, -1)), np.fft.fft2(gt, axes=(-2, -1))
    spa = np.mean(np.abs(out - gt))
    amp = np.mean(np.abs(np.abs(fo) - np.abs(fg)))
    pha = np.mean(np.abs(np.angle(fo) - np.angle(fg)))
    return float(spa + LOSS_ALPHA * amp + LOSS_BETA * pha)


def _luma(img: np.ndarray) -> np.ndarray:
    return np.tensordot(LUMA, img, axes=(0, 0))


def psnr_y(a: np.ndarray, b: np.ndarray) -> float:
    """PSNR on the Y channel of two (3, H, W) images in [0, 1]."""
    return float(10.0 * np.log10(1.0 / np.mean((_luma(a) - _luma(b)) ** 2)))


def _gauss_filter_valid(x: np.ndarray, size: int = 11, sigma: float = 1.5) -> np.ndarray:
    """Separable normalised Gaussian filter over the valid region of x (H, W)."""
    g = np.exp(-((np.arange(size) - (size - 1) / 2.0) ** 2) / (2.0 * sigma * sigma))
    g /= g.sum()
    h, w = x.shape
    rows = sum(g[i] * x[i:h - size + 1 + i, :] for i in range(size))
    return sum(g[j] * rows[:, j:w - size + 1 + j] for j in range(size))


def ssim_y(a: np.ndarray, b: np.ndarray) -> float:
    """Mean SSIM (11x11 Gaussian window, sigma 1.5) on the Y channel."""
    ya, yb = _luma(a), _luma(b)
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    mu_a, mu_b = _gauss_filter_valid(ya), _gauss_filter_valid(yb)
    var_a = _gauss_filter_valid(ya * ya) - mu_a ** 2
    var_b = _gauss_filter_valid(yb * yb) - mu_b ** 2
    cov = _gauss_filter_valid(ya * yb) - mu_a * mu_b
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


# ---------------------------------------------------------------------------
# selective scan


def scan2d(f: np.ndarray, directions: list[dict], perms: list[np.ndarray],
           skip: np.ndarray) -> np.ndarray:
    """Directional selective scans of an (N, C, H, W) map, summed, plus skip * f.

    Direction g visits the flat pixel indices perms[g] in order and runs
    h_t = exp(delta_t * A) * h_{t-1} + delta_t * B_t * u_t, y_t = <C_t, h_t>
    with h_{-1} = 0, A = -exp(A_log), B_t = proj_B u_t, C_t = proj_C u_t and
    delta_t = softplus(proj_delta . u_t + delta_bias).  The time loop is
    plain Python; it steps all directions together.
    """
    n, c, h, w = f.shape
    flat = f.reshape(n, c, h * w)
    order = np.stack(perms)                                        # (G, L)
    a = -np.exp(np.stack([d["A_log"] for d in directions]))         # (G, C, S)
    wb = np.stack([d["proj_B"] for d in directions])                # (G, S, C)
    wc = np.stack([d["proj_C"] for d in directions])
    wd = np.stack([d["proj_delta"] for d in directions])            # (G, C)
    bias = np.array([float(d["delta_bias"]) for d in directions])   # (G,)
    state = np.zeros((len(directions), n, c, a.shape[-1]))          # (G, N, C, S)
    ys = np.empty((order.shape[1], len(directions), n, c))          # (L, G, N, C)
    for t in range(order.shape[1]):
        u = flat[:, :, order[:, t]].transpose(2, 0, 1)               # (G, N, C)
        b = np.einsum("gsc,gnc->gns", wb, u)
        cc = np.einsum("gsc,gnc->gns", wc, u)
        delta = np.logaddexp(0.0, np.einsum("gc,gnc->gn", wd, u) + bias[:, None])
        dl = delta[:, :, None, None]
        state = np.exp(dl * a[:, None]) * state + dl * u[..., None] * b[:, :, None, :]
        ys[t] = np.einsum("gncs,gns->gnc", state, cc)
    out = np.zeros((n, c, h * w))
    for g in range(order.shape[0]):
        out[:, :, order[g]] += ys[:, g].transpose(1, 2, 0)
    return out.reshape(n, c, h, w) + skip[None, :, None, None] * f
