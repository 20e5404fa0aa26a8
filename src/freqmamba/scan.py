"""2D traversal orders and the discretized selective state-space recurrence.

The recurrence follows the standard selective-SSM discretization: per step,
data-dependent B, C and a positive step size delta are projected from the
input; A_bar = exp(delta * A) with A = -exp(A_log) < 0, B_bar = delta * B
(Euler simplification of ZOH), h_t = A_bar * h_{t-1} + B_bar * u_t and
y_t = <C_t, h_t> (+ skip).  The loop is inherently sequential along L but
vectorized over batch, channels, states and stacked scan directions; the
backward pass runs the adjoint recurrence analytically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from . import tensor as T
from .tensor import Tensor, make_node
from . import wavelet
from .fourier import ConvWeights


def _sigmoid(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softplus(z):
    return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)


# ---------------------------------------------------------------------------
# traversal orders


@dataclass
class ScanOrder:
    """A bijection from sequence position to flat (row-major) pixel index.

    The reverse traversal of an order is its forward permutation reversed.
    """

    name: str
    forward: np.ndarray

    def __post_init__(self):
        self.forward = np.asarray(self.forward, dtype=np.int64)


RASTER_VARIANTS = ("row_fwd", "row_rev", "col_fwd", "col_rev")


def order_raster(h: int, w: int, variant: str) -> ScanOrder:
    """Vanilla raster traversals: row/column major, forward or reversed."""
    if h < 1 or w < 1:
        raise ShapeError(f"order_raster requires H, W >= 1, got {h}x{w}")
    if variant not in RASTER_VARIANTS:
        raise ValueError(f"variant must be one of {RASTER_VARIANTS}, got {variant!r}")
    idx = np.arange(h * w, dtype=np.int64)
    if variant.startswith("col"):
        idx = idx.reshape(h, w).T.reshape(-1)
    if variant.endswith("rev"):
        idx = idx[::-1].copy()
    return ScanOrder(f"raster_{variant}", idx)


def order_freq_blocks(h: int, w: int, k: int) -> ScanOrder:
    """Frequency-ordered traversal of a level-k wavelet packet mosaic.

    Quadrant blocks are visited LL, LH, HL, HH, recursively down to the
    4**k tiles, then row-major inside each tile, giving a strict
    low-to-high frequency sequence.
    """
    if k < 1:
        raise ShapeError(f"order_freq_blocks requires k >= 1, got {k}")
    side = 2 ** k
    if h % side or w % side:
        raise ShapeError(f"order_freq_blocks level {k} requires H and W divisible by {side}, got {h}x{w}")
    th, tw = h // side, w // side
    idx = np.empty(h * w, dtype=np.int64)
    pos = 0
    for band in range(4 ** k):
        r, c = wavelet.band_tile(band, k)
        rows = np.arange(r * th, (r + 1) * th)
        cols = np.arange(c * tw, (c + 1) * tw)
        tile = (rows[:, None] * w + cols[None, :]).reshape(-1)
        idx[pos:pos + tile.size] = tile
        pos += tile.size
    return ScanOrder(f"freq_blocks_k{k}", idx)


def tile_rank_map(h: int, w: int, k: int) -> np.ndarray:
    """Recursive frequency rank of the tile containing each pixel (H, W)."""
    side = 2 ** k
    th, tw = h // side, w // side
    ranks = np.empty((h, w), dtype=np.int64)
    for band in range(4 ** k):
        r, c = wavelet.band_tile(band, k)
        ranks[r * th:(r + 1) * th, c * tw:(c + 1) * tw] = band
    return ranks


# ---------------------------------------------------------------------------
# parameters


@dataclass
class SsmDynamics:
    """Per-direction state dynamics: everything except the skip coefficient."""

    A_log: Tensor      # (C, S); A = -exp(A_log)
    proj_B: Tensor     # (S, C)
    proj_C: Tensor     # (S, C)
    proj_delta: Tensor  # (C,)
    delta_bias: Tensor  # scalar

    @property
    def state_dim(self) -> int:
        return self.A_log.data.shape[1]

    def tensors(self):
        return (self.A_log, self.proj_B, self.proj_C, self.proj_delta, self.delta_bias)


@dataclass
class SsmParams:
    """Dynamics plus the per-channel skip D for the standalone 1D scan."""

    dynamics: SsmDynamics
    D: Tensor  # (C,)

    @property
    def state_dim(self) -> int:
        return self.dynamics.state_dim


@dataclass
class Scan2dParams:
    """Independent dynamics per traversal direction plus one shared skip.

    The skip path is applied once to the 2D input rather than once per
    direction, so C == 0 together with skip == 1 makes scan2d the identity.
    """

    directions: tuple[SsmDynamics, ...]
    skip: Tensor  # (C,)


def init_dynamics(channels: int, state_dim: int, rng: np.random.Generator) -> SsmDynamics:
    a_log = np.tile(np.log(np.arange(1, state_dim + 1, dtype=np.float64)), (channels, 1))
    dt = rng.uniform(np.log(1e-3), np.log(1e-1))
    # inverse softplus so the initial step size lands on exp(dt)
    bias = np.log(np.expm1(np.exp(dt)))
    std = 1.0 / np.sqrt(channels)
    return SsmDynamics(
        A_log=Tensor(a_log, requires_grad=True),
        proj_B=Tensor(rng.normal(0, std, (state_dim, channels)), requires_grad=True),
        proj_C=Tensor(rng.normal(0, std, (state_dim, channels)), requires_grad=True),
        proj_delta=Tensor(rng.normal(0, std, channels), requires_grad=True),
        delta_bias=Tensor(np.float64(bias), requires_grad=True),
    )


def init_ssm_params(channels: int, state_dim: int, rng: np.random.Generator) -> SsmParams:
    return SsmParams(init_dynamics(channels, state_dim, rng),
                     Tensor(np.ones(channels), requires_grad=True))


def init_scan2d_params(channels: int, state_dim: int, n_directions: int,
                       rng: np.random.Generator) -> Scan2dParams:
    dirs = tuple(init_dynamics(channels, state_dim, rng) for _ in range(n_directions))
    return Scan2dParams(dirs, Tensor(np.ones(channels), requires_grad=True))


# ---------------------------------------------------------------------------
# core recurrence (stacked over directions G and batch N)


# Bytes of one (Q, G, N, C, S) time block: small enough that a block's decays,
# inputs and states stay in cache while the recurrence sweeps it.
_BLOCK_BYTES = 1 << 20


def _time_blocks(l_: int, step_bytes: int) -> list[tuple[int, int]]:
    q = max(1, _BLOCK_BYTES // step_bytes)
    return [(t0, min(t0 + q, l_)) for t0 in range(0, l_, q)]


def _scan_forward(u, a_log, wb, wc, wd, db):
    """u: (G, N, L, C); params stacked over G.  Returns readout y and cache.

    Projections run as batched matmuls.  The per-step state update is the only
    sequential part; it runs block by block over time, and each block's decays
    and states are built, swept and read out while still in cache.
    """
    g_, n_, l_, c_ = u.shape
    s_ = a_log.shape[-1]
    u2 = u.reshape(g_, n_ * l_, c_)
    b = np.matmul(u2, wb.transpose(0, 2, 1)).reshape(g_, n_, l_, s_)
    cc = np.matmul(u2, wc.transpose(0, 2, 1)).reshape(g_, n_, l_, s_)
    z = np.matmul(u2, wd[:, :, None]).reshape(g_, n_, l_) + db[:, None, None]
    delta = _softplus(z)
    a = -np.exp(a_log)  # (G, C, S)
    dl = delta.transpose(2, 0, 1)[:, :, :, None, None]          # (L, G, N, 1, 1)
    u_t = u.transpose(2, 0, 1, 3)[..., None]                     # (L, G, N, C, 1)
    b_t = b.transpose(2, 0, 1, 3)[:, :, :, None, :]              # (L, G, N, 1, S)
    abar = np.empty((l_, g_, n_, c_, s_))                        # exp(delta * A)
    hs = np.empty_like(abar)                                     # h_t for every t
    cc_t = cc.transpose(2, 0, 1, 3)[..., None]                   # (L, G, N, S, 1)
    y = np.empty((g_, n_, l_, c_))
    y_t = y.transpose(2, 0, 1, 3)[..., None]                     # (L, G, N, C, 1) view
    tmp = np.empty_like(abar[0])
    for t0, t1 in _time_blocks(l_, abar[0].nbytes):
        np.multiply(dl[t0:t1], a[None, :, None], out=abar[t0:t1])
        np.exp(abar[t0:t1], out=abar[t0:t1])
        np.multiply(dl[t0:t1] * u_t[t0:t1], b_t[t0:t1], out=hs[t0:t1])  # B_bar u_t
        t = max(t0, 1)
        for a_t, h_prev, h_t in zip(abar[t:t1], hs[t - 1:t1 - 1], hs[t:t1]):
            np.multiply(a_t, h_prev, out=tmp)
            np.add(h_t, tmp, out=h_t)
        np.matmul(hs[t0:t1], cc_t[t0:t1], out=y_t[t0:t1])           # sum over s
    cache = (u, b, cc, z, delta, a, abar, hs, wb, wc, wd, a_log)
    return y, cache


def _scan_backward(dy, cache):
    """Adjoint of _scan_forward; returns du and per-parameter gradients."""
    u, b, cc, z, delta, a, abar, hs, wb, wc, wd, a_log = cache
    g_, n_, l_, c_ = u.shape
    s_ = b.shape[-1]
    dy_t = dy.transpose(2, 0, 1, 3)[..., None]                   # (L, G, N, C, 1)
    cc_t = cc.transpose(2, 0, 1, 3)[:, :, :, None, :]            # (L, G, N, 1, S)
    u_r = u.transpose(2, 0, 1, 3)[:, :, :, None, :]              # (L, G, N, 1, C)
    b_c = b.transpose(2, 0, 1, 3)[..., None]                     # (L, G, N, S, 1)
    dy_r = dy.transpose(2, 0, 1, 3)[:, :, :, None, :]            # (L, G, N, 1, C)
    dcc = np.empty((l_, g_, n_, 1, s_))
    # (G, L, N, C, S) in memory: the dA einsum sums in memory order, and this
    # is the order the loss traces in perfbench/README.md were computed with
    dabar_abar = np.empty((g_, l_, n_, c_, s_)).transpose(1, 0, 2, 3, 4)
    dbu_u = np.empty((l_, g_, n_, 1, s_))
    du = np.empty((l_, g_, n_, c_, 1))
    # adjoint recurrence, run backwards one time block at a time: gradient at
    # h_t collects the readout term plus the decayed gradient from h_{t+1}.
    # A_bar = exp(delta*A): d/ddelta = A*A_bar, d/dA = delta*A_bar.  The decay
    # term A_bar[t+1] * gh[t+1] is also gh * A_bar at t+1, so the sweep keeps
    # it in `dab`; `carry` takes it across a block boundary.
    blocks = _time_blocks(l_, abar[0].nbytes)
    dab_blk = np.empty_like(abar[:blocks[0][1]])
    carry = None
    for t0, t1 in reversed(blocks):
        np.matmul(dy_r[t0:t1], hs[t0:t1], out=dcc[t0:t1])       # sum over c
        gh = np.multiply(dy_t[t0:t1], cc_t[t0:t1], order="C")
        dab = dab_blk[:t1 - t0]
        if carry is not None:
            gh[-1] += carry
        for a_next, g_next, g_t, d_next in zip(abar[t1 - 1:t0:-1], gh[:0:-1], gh[-2::-1], dab[:0:-1]):
            np.multiply(a_next, g_next, out=d_next)
            np.add(g_t, d_next, out=g_t)
        # dA_bar * A_bar via the h_{t-1} factor; zero at t = 0
        if t0:
            carry = np.multiply(abar[t0], gh[0], out=dab[0]).copy()
            np.multiply(dab, hs[t0 - 1:t1 - 1], out=dabar_abar[t0:t1])
        else:
            dabar_abar[0] = 0.0
            np.multiply(dab[1:], hs[:t1 - 1], out=dabar_abar[1:t1])
        # B_bar*u = delta * B[s] * u[c]
        np.matmul(u_r[t0:t1], gh, out=dbu_u[t0:t1])              # sum over c
        np.matmul(gh, b_c[t0:t1], out=du[t0:t1])                 # sum over s
    dcc = dcc.reshape(l_, g_, n_, s_).transpose(1, 2, 0, 3).reshape(g_, n_ * l_, s_)
    dbu_u = dbu_u.reshape(l_, g_, n_, s_)
    du = du.reshape(l_, g_, n_, c_)
    ddelta = np.einsum("lgncs,gcs->gnl", dabar_abar, a)
    da = np.einsum("lgncs,gnl->gcs", dabar_abar, delta)
    da_log = da * a  # dA/dA_log = -exp(A_log) = A
    ddelta += np.einsum("lgns,gnls->gnl", dbu_u, b)
    dbproj = (dbu_u * delta.transpose(2, 0, 1)[..., None]).transpose(1, 2, 0, 3)
    dbproj = dbproj.reshape(g_, n_ * l_, s_)
    du *= delta.transpose(2, 0, 1)[..., None]
    du = np.ascontiguousarray(du.transpose(1, 2, 0, 3))           # (G, N, L, C)
    # linear projections (batched matmuls over flattened N*L, as (G, N*L, S) copies)
    u2 = u.reshape(g_, n_ * l_, c_)
    dwb = np.matmul(dbproj.transpose(0, 2, 1), u2)
    du += np.matmul(dbproj, wb).reshape(g_, n_, l_, c_)
    dwc = np.matmul(dcc.transpose(0, 2, 1), u2)
    du += np.matmul(dcc, wc).reshape(g_, n_, l_, c_)
    dz = ddelta * _sigmoid(z)
    dwd = np.einsum("gnl,gnlc->gc", dz, u)
    ddb = dz.sum(axis=(1, 2))
    du += dz[..., None] * wd[:, None, None, :]
    return du, da_log, dwb, dwc, dwd, ddb


def _stack_dynamics(dirs):
    return (np.stack([d.A_log.data for d in dirs]),
            np.stack([d.proj_B.data for d in dirs]),
            np.stack([d.proj_C.data for d in dirs]),
            np.stack([d.proj_delta.data for d in dirs]),
            np.stack([np.asarray(d.delta_bias.data).reshape(()) for d in dirs]))


def selective_scan(u: Tensor, params: SsmParams) -> Tensor:
    """Run the selective recurrence over a single (L, C) sequence.

    y_t = <C_t, h_t> + D * u_t with h_0 = 0.
    """
    if u.data.ndim != 2:
        raise ShapeError(f"selective_scan expects an (L, C) sequence, got shape {u.data.shape}")
    l_, c_ = u.data.shape
    dyn = params.dynamics
    if dyn.A_log.data.shape[0] != c_:
        raise ShapeError(f"params built for C={dyn.A_log.data.shape[0]}, sequence has C={c_}")
    stacked = _stack_dynamics([dyn])
    y, cache = _scan_forward(u.data[None, None], *stacked)
    out = y[0, 0] + params.D.data[None, :] * u.data

    def rule(g):
        du, da_log, dwb, dwc, dwd, ddb = _scan_backward(g[None, None], cache)
        dd = np.einsum("lc,lc->c", g, u.data)
        du = du[0, 0] + g * params.D.data[None, :]
        return (du, da_log[0], dwb[0], dwc[0], dwd[0], ddb[0].reshape(()), dd)

    parents = (u, *dyn.tensors(), params.D)
    return make_node(out, parents, rule, "selective_scan")


def scan2d(f: Tensor, params: Scan2dParams, orders: list[ScanOrder]) -> Tensor:
    """Directional selective scans over a feature map, merged by summation.

    Each order is traversed forward and reversed with its own dynamics;
    the shared per-channel skip is applied once to the input itself.
    """
    T._check_4d(f, "scan2d")
    n, c, h, w = f.data.shape
    if len(params.directions) != 2 * len(orders):
        raise ShapeError(f"scan2d needs 2 direction parameter sets per order: "
                         f"{len(orders)} orders but {len(params.directions)} sets")
    perms = []
    for order in orders:
        if order.forward.size != h * w:
            raise ShapeError(f"order {order.name} has length {order.forward.size}, map has {h * w} positions")
        perms.append(order.forward)
        perms.append(order.forward[::-1])

    flat = f.data.reshape(n, c, h * w)
    u = np.stack([flat[:, :, p] for p in perms]).transpose(0, 1, 3, 2)  # (G, N, L, C)
    stacked = _stack_dynamics(params.directions)
    y, cache = _scan_forward(u, *stacked)

    acc = np.zeros((n, c, h * w))
    for g_i, p in enumerate(perms):
        acc[:, :, p] += y[g_i].transpose(0, 2, 1)
    readout = acc.reshape(n, c, h, w)

    def rule(g):
        gf = g.reshape(n, c, h * w)
        dy = np.stack([gf[:, :, p] for p in perms]).transpose(0, 1, 3, 2)
        du, da_log, dwb, dwc, dwd, ddb = _scan_backward(dy, cache)
        dacc = np.zeros((n, c, h * w))
        for g_i, p in enumerate(perms):
            dacc[:, :, p] += du[g_i].transpose(0, 2, 1)
        grads = [dacc.reshape(n, c, h, w)]
        for g_i in range(len(perms)):
            grads.extend((da_log[g_i], dwb[g_i], dwc[g_i], dwd[g_i], ddb[g_i].reshape(())))
        return tuple(grads)

    parents = [f]
    for d in params.directions:
        parents.extend(d.tensors())
    node = make_node(readout, tuple(parents), rule, "scan2d")
    return T.add(node, T.channel_scale(f, params.skip))


# ---------------------------------------------------------------------------
# Mamba pipelines: DWConv -> SiLU -> scan -> LayerNorm


@dataclass
class MambaPipeWeights:
    dw: ConvWeights            # depthwise 3x3
    scan: Scan2dParams
    ln_gamma: Tensor
    ln_beta: Tensor


def init_mamba_pipe(channels: int, state_dim: int, n_directions: int,
                    rng: np.random.Generator) -> MambaPipeWeights:
    dw = ConvWeights(Tensor(rng.normal(0, 1.0 / 3.0, (channels, 1, 3, 3)), requires_grad=True),
                     Tensor(np.zeros(channels), requires_grad=True))
    return MambaPipeWeights(dw=dw,
                            scan=init_scan2d_params(channels, state_dim, n_directions, rng),
                            ln_gamma=Tensor(np.ones(channels), requires_grad=True),
                            ln_beta=Tensor(np.zeros(channels), requires_grad=True))


def spatial_orders(h: int, w: int) -> list[ScanOrder]:
    """Row- and column-major orders; with their reversals these give the
    four vanilla raster traversals."""
    return [order_raster(h, w, "row_fwd"), order_raster(h, w, "col_fwd")]


def _mamba_pipe(f: Tensor, w: MambaPipeWeights, orders: list[ScanOrder]) -> Tensor:
    c = f.data.shape[1]
    x = T.conv2d(f, w.dw.w, w.dw.b, padding=1, groups=c)
    x = T.silu(x)
    x = scan2d(x, w.scan, orders)
    return T.layer_norm(x, w.ln_gamma, w.ln_beta)


def spatial_mamba(f: Tensor, w: MambaPipeWeights) -> Tensor:
    """DWConv -> SiLU -> four-direction raster scan -> LayerNorm."""
    n, c, h, wd_ = f.data.shape
    return _mamba_pipe(f, w, spatial_orders(h, wd_))


def freq_mamba(mosaic: Tensor, w: MambaPipeWeights, k: int) -> Tensor:
    """Same pipeline, scanning the packet mosaic along the frequency order."""
    n, c, h, wd_ = mosaic.data.shape
    return _mamba_pipe(mosaic, w, [order_freq_blocks(h, wd_, k)])
