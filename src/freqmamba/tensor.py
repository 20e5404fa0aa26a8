"""Dense float64 tensors with reverse-mode autodiff over a fixed op set.

Feature maps are NCHW throughout; the elementwise ops and the reductions
also accept other ranks (scalars for losses).  Every operation is a pure
function returning a fresh Tensor; recorded backward rules map the output
gradient to per-parent gradients.
"""

from __future__ import annotations

import contextvars
import math
import struct
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from .errors import FreqMambaError, MagicError, ShapeError, TruncatedError

# Per thread (and per asyncio task): a no_grad in one thread leaves another
# thread's graph recording on.  A new thread starts with recording on.
_grad_enabled: contextvars.ContextVar[bool] = contextvars.ContextVar("grad_enabled", default=True)


@contextmanager
def no_grad():
    """Disable graph recording inside the context (inference, finite differences)."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "parents", "backward_rule", "op")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.parents: tuple[Tensor, ...] = ()
        self.backward_rule: Callable | None = None
        self.op = "leaf"

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op}, requires_grad={self.requires_grad})"


def records(parents: Sequence[Tensor]) -> bool:
    """Whether an op on ``parents`` is put on the tape (so its backward can run)."""
    return _grad_enabled.get() and any(p.requires_grad for p in parents)


def make_node(data, parents: Sequence[Tensor], backward_rule, op: str) -> Tensor:
    """Create an op output; records the rule only if gradients are live."""
    out = Tensor(data)
    if records(parents):
        out.requires_grad = True
        out.parents = tuple(parents)
        out.backward_rule = backward_rule
        out.op = op
    return out


def backward(loss: Tensor) -> None:
    """Populate .grad on every requires_grad leaf reachable from a scalar loss.

    The graph is spent as it is swept: once a node's rule has run, its rule,
    parents and gradient are dropped, so each op's saved arrays are freed as
    early as possible.  A graph can be backpropagated once; a second call on
    the same loss raises.
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    if loss.requires_grad and loss.op != "leaf" and loss.backward_rule is None:
        raise FreqMambaError(f"backward on a spent graph: the {loss.op} loss was already backpropagated")
    # depth-first post-order: parents before children, so a single reverse
    # sweep propagates all gradients
    nodes: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            nodes.append(node)
            continue
        if id(node) in visited or not node.requires_grad:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    loss.grad = np.ones((), dtype=np.float64)
    while nodes:
        node = nodes.pop()  # so that a spent node goes once nothing else holds it
        if node.backward_rule is None:  # a leaf: it keeps its gradient
            continue
        if node.grad is not None:
            for parent, g in zip(node.parents, node.backward_rule(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = np.array(g, dtype=np.float64, copy=True)
                else:
                    parent.grad = parent.grad + g
        node.backward_rule, node.parents, node.grad = None, (), None


def grad_check(f, x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps a Tensor to a scalar Tensor.  Relative error uses the
    denominator max(|analytic|, |numeric|, 1e-8) per coordinate.
    """
    if h <= 0:
        raise ValueError("grad_check requires h > 0")
    xg = Tensor(x.data.copy(), requires_grad=True)
    out = f(xg)
    if out.data.shape != ():
        raise ShapeError("grad_check requires f to return a scalar")
    backward(out)
    analytic = np.zeros_like(xg.data) if xg.grad is None else xg.grad
    flat = xg.data.reshape(-1)
    numeric = np.zeros_like(flat)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f(xg).data
            flat[i] = orig - h
            fm = f(xg).data
            flat[i] = orig
            numeric[i] = (fp - fm) / (2.0 * h)
    a = analytic.reshape(-1)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(a - numeric) / denom))


def _check_4d(x: Tensor, what: str) -> None:
    if x.data.ndim != 4:
        raise ShapeError(f"{what} expects an NCHW tensor, got shape {x.data.shape}")


# ---------------------------------------------------------------------------
# elementwise and structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    return make_node(a.data + b.data, (a, b), lambda g: (g, g), "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub shape mismatch: {a.data.shape} vs {b.data.shape}")
    return make_node(a.data - b.data, (a, b), lambda g: (g, -g), "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul shape mismatch: {a.data.shape} vs {b.data.shape}")
    ad, bd = a.data, b.data
    return make_node(ad * bd, (a, b), lambda g: (g * bd, g * ad), "mul")


def elementwise(op: str, a: Tensor, b: Tensor) -> Tensor:
    if op == "add":
        return add(a, b)
    if op == "mul":
        return mul(a, b)
    raise ValueError(f"unknown elementwise op {op!r}")


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return make_node(x.data * c, (x,), lambda g: (g * c,), "scale")


def abs_(x: Tensor) -> Tensor:
    s = np.sign(x.data)
    return make_node(np.abs(x.data), (x,), lambda g: (g * s,), "abs")


def sqrt_(x: Tensor) -> Tensor:
    y = np.sqrt(x.data)
    # subgradient 0 at exactly zero to keep finite values
    inv = np.where(y > 0, 0.5 / np.where(y > 0, y, 1.0), 0.0)
    return make_node(y, (x,), lambda g: (g * inv,), "sqrt")


def sin_(x: Tensor) -> Tensor:
    c = np.cos(x.data)
    return make_node(np.sin(x.data), (x,), lambda g: (g * c,), "sin")


def cos_(x: Tensor) -> Tensor:
    s = np.sin(x.data)
    return make_node(np.cos(x.data), (x,), lambda g: (-g * s,), "cos")


def atan2_(y: Tensor, x: Tensor) -> Tensor:
    if y.data.shape != x.data.shape:
        raise ShapeError(f"atan2 shape mismatch: {y.data.shape} vs {x.data.shape}")
    yd, xd = y.data, x.data
    r2 = xd * xd + yd * yd
    safe = np.where(r2 > 0, r2, 1.0)
    dy = np.where(r2 > 0, xd / safe, 0.0)
    dx = np.where(r2 > 0, -yd / safe, 0.0)
    return make_node(np.arctan2(yd, xd), (y, x), lambda g: (g * dy, g * dx), "atan2")


def sum_all(x: Tensor) -> Tensor:
    shape = x.data.shape
    return make_node(x.data.sum(), (x,), lambda g: (np.broadcast_to(g, shape),), "sum")


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    shape = x.data.shape
    return make_node(x.data.mean(), (x,), lambda g: (np.broadcast_to(g / n, shape),), "mean")


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) of an array, with no overflow: e^-|z| over 1 + e^-|z|
    for z < 0, one over it for z >= 0."""
    e = np.abs(z, out=np.empty_like(z))  # e^-|z|, built in this one buffer
    np.exp(np.negative(e, out=e), out=e)
    sig = np.where(z >= 0, 1.0, e)
    sig /= np.add(e, 1.0, out=e)
    return sig


def silu(x: Tensor) -> Tensor:
    xd = x.data
    sig = sigmoid(xd)
    y = xd * sig
    dydx = sig * (1.0 + xd * (1.0 - sig)) if records((x,)) else None
    return make_node(y, (x,), lambda g: (g * dydx,), "silu")


def concat_channels(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ShapeError("concat_channels requires at least one tensor")
    for p in parts:
        _check_4d(p, "concat_channels")
    n, _, h, w = parts[0].data.shape
    for p in parts[1:]:
        pn, _, ph, pw = p.data.shape
        if (pn, ph, pw) != (n, h, w):
            raise ShapeError(f"concat_channels N/H/W mismatch: {p.data.shape} vs {parts[0].data.shape}")
    sizes = [p.data.shape[1] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def rule(g):
        return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(sizes)))

    return make_node(np.concatenate([p.data for p in parts], axis=1), tuple(parts), rule, "concat")


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    _check_4d(x, "slice_channels")
    c = x.data.shape[1]
    if not (0 <= start < stop <= c):
        raise ShapeError(f"channel slice [{start}:{stop}] out of range for C={c}")
    shape = x.data.shape

    def rule(g):
        gx = np.zeros(shape)
        gx[:, start:stop] = g
        return (gx,)

    return make_node(x.data[:, start:stop].copy(), (x,), rule, "slice")


def channel_scale(x: Tensor, s: Tensor) -> Tensor:
    """Multiply every (n, h, w) position of channel c by s[c]."""
    _check_4d(x, "channel_scale")
    if s.data.shape != (x.data.shape[1],):
        raise ShapeError(f"channel_scale expects s of shape ({x.data.shape[1]},), got {s.data.shape}")
    xd, sd = x.data, s.data

    def rule(g):
        return (g * sd[None, :, None, None], np.einsum("nchw,nchw->c", g, xd))

    return make_node(xd * sd[None, :, None, None], (x, s), rule, "channel_scale")


def resize(x: Tensor, mode: str) -> Tensor:
    _check_4d(x, "resize")
    n, c, h, w = x.data.shape
    if mode == "down2":
        if h % 2 or w % 2:
            raise ShapeError(f"down2 requires even H and W, got {h}x{w}")
        y = x.data.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))

        def rule(g):
            gx = np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) * 0.25
            return (gx,)

        return make_node(y, (x,), rule, "down2")
    if mode == "up2":
        y = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)

        def rule(g):
            return (g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)),)

        return make_node(y, (x,), rule, "up2")
    raise ValueError(f"resize mode must be 'down2' or 'up2', got {mode!r}")


def down2(x: Tensor) -> Tensor:
    return resize(x, "down2")


def up2(x: Tensor) -> Tensor:
    return resize(x, "up2")


# ---------------------------------------------------------------------------
# convolutions and normalization


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Stride-1 "same" cross-correlation with zero padding (no kernel flip).

    kernel is [C_out, C_in/groups, k, k] with k odd: the padding is (k - 1) / 2,
    so the output keeps H and W, and groups = C_in / kernel.shape[1].
    """
    _check_4d(x, "conv2d input")
    _check_4d(kernel, "conv2d kernel")
    n, c_in, h, w = x.data.shape
    c_out, cg, kh, kw = kernel.data.shape
    if kh != kw or kh % 2 == 0:
        raise ShapeError(f"conv2d expects a square kernel of odd size, got {kh}x{kw}")
    if cg < 1 or c_in % cg:
        raise ShapeError(f"kernel input-channel dim {cg} does not divide C_in={c_in}")
    groups = c_in // cg
    if c_out % groups:
        raise ShapeError(f"C_out={c_out} does not split into groups={groups}")
    if bias.data.shape != (c_out,):
        raise ShapeError(f"bias must have shape ({c_out},), got {bias.data.shape}")
    if h < 1 or w < 1:
        raise ShapeError(f"conv2d expects a non-empty input, got {h}x{w}")
    k = kh
    padding = (k - 1) // 2

    og = c_out // groups
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    hp, wp = xp.shape[2:]
    xf = xp.reshape(n, groups, cg, hp * wp)
    kd = kernel.data.reshape(groups, og, cg, k, k)
    # Tap (i, j) of output pixel (r, q) is flat padded pixel i*wp + j + r*wp + q: one GEMM per tap on
    # a slice over an (h, wp) grid, whose columns q >= w are dropped; no im2col buffer.
    m = (h - 1) * wp + w
    taps = [(i, j, np.s_[..., i * wp + j:i * wp + j + m]) for i in range(k) for j in range(k)]
    grid, prod = np.zeros((n, groups, og, h * wp)), np.empty((n, groups, og, m))
    for i, j, win in taps:
        grid[..., :m] += np.matmul(kd[..., i, j], xf[win], out=prod)
    y = grid.reshape(n, c_out, h, wp)[..., :w] + bias.data[None, :, None, None]

    def rule(g):
        gp = np.pad(g.reshape(n, groups, og, h, w), [(0, 0)] * 4 + [(0, wp - w)])
        gm = gp.reshape(n, groups, og, h * wp)[..., :m]  # zero off the valid columns
        dk = np.empty((groups, og, cg, k, k))
        dxf = np.zeros(xf.shape)
        for i, j, win in taps:
            dk[..., i, j] = np.matmul(gm, xf[win].swapaxes(-1, -2)).sum(axis=0)
            dxf[win] += np.matmul(kd[..., i, j].swapaxes(-1, -2), gm)
        dx = dxf.reshape(xp.shape)[:, :, padding:padding + h, padding:padding + w]
        return (dx, dk.reshape(kernel.data.shape), g.sum(axis=(0, 2, 3)))

    return make_node(y, (x, kernel, bias), rule, "conv2d")


def pointwise_conv(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """1x1 convolution: a per-pixel linear map over channels."""
    _check_4d(x, "pointwise_conv input")
    _check_4d(weight, "pointwise_conv weight")
    c_out, c_in, kh, kw = weight.data.shape
    if (kh, kw) != (1, 1):
        raise ShapeError(f"pointwise_conv expects a 1x1 kernel, got {kh}x{kw}")
    if x.data.shape[1] != c_in:
        raise ShapeError(f"pointwise_conv channel mismatch: input C={x.data.shape[1]}, weight C_in={c_in}")
    if bias.data.shape != (c_out,):
        raise ShapeError(f"bias must have shape ({c_out},), got {bias.data.shape}")
    n, _, h, w = x.data.shape
    wm = weight.data[:, :, 0, 0]
    xd = x.data
    y = np.matmul(wm, xd.reshape(n, c_in, h * w)).reshape(n, c_out, h, w) + bias.data[None, :, None, None]

    def rule(g):
        gr = g.reshape(n, c_out, h * w)
        dx = np.matmul(wm.T, gr).reshape(xd.shape)
        dw = np.matmul(gr, xd.reshape(n, c_in, h * w).transpose(0, 2, 1)).sum(axis=0)[:, :, None, None]
        return (dx, dw, g.sum(axis=(0, 2, 3)))

    return make_node(y, (x, weight, bias), rule, "pointwise_conv")


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the channel axis per spatial location (eps = 1e-5), then affine."""
    _check_4d(x, "layer_norm")
    c = x.data.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError(f"gamma/beta must have shape ({c},), got {gamma.data.shape}/{beta.data.shape}")
    mu = x.data.mean(axis=1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x.data - mu) * inv
    y = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def rule(g):
        gg = g * gamma.data[None, :, None, None]
        m1 = gg.mean(axis=1, keepdims=True)
        m2 = (gg * xhat).mean(axis=1, keepdims=True)
        dx = (gg - m1 - xhat * m2) * inv
        dgamma = np.einsum("nchw,nchw->c", g, xhat)
        dbeta = g.sum(axis=(0, 2, 3))
        return (dx, dgamma, dbeta)

    return make_node(y, (x, gamma, beta), rule, "layer_norm")


# ---------------------------------------------------------------------------
# FTD1 tensor dump format

FTD1_MAGIC = b"FTD1"


def dump_ftd1(x: Tensor, path) -> None:
    """Write an NCHW tensor: magic, 4 little-endian u32 dims, float32 payload."""
    _check_4d(x, "dump_ftd1")
    with open(path, "wb") as fh:
        fh.write(FTD1_MAGIC)
        fh.write(struct.pack("<4I", *x.data.shape))
        fh.write(x.data.astype("<f4").tobytes())


def load_ftd1(path) -> Tensor:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != FTD1_MAGIC:
        raise MagicError(f"{path}: expected FTD1 magic, got {blob[:4]!r}")
    if len(blob) < 20:
        raise TruncatedError(f"{path}: header truncated at {len(blob)} bytes")
    dims = struct.unpack("<4I", blob[4:20])
    count = math.prod(dims)  # Python ints: four large u32 dims must not wrap
    expected = 20 + 4 * count
    if len(blob) < expected:
        raise TruncatedError(f"{path}: expected {expected} bytes for dims {dims}, got {len(blob)}")
    data = np.frombuffer(blob[20:expected], dtype="<f4").astype(np.float64)
    try:
        data = data.reshape(dims)
    except ValueError:  # a 0 dim beside dims whose product numpy cannot index
        raise MagicError(f"{path}: dims {dims} are too large for an array") from None
    return Tensor(data)
