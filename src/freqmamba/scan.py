"""2D traversal orders and the discretized selective state-space recurrence.

The recurrence follows the standard selective-SSM discretization: per step,
data-dependent B, C and a positive step size delta are projected from the
input; A_bar = exp(delta * A) with A = -exp(A_log) < 0, B_bar = delta * B
(Euler simplification of ZOH), h_t = A_bar * h_{t-1} + B_bar * u_t and
y_t = <C_t, h_t> (+ skip).  The loop is inherently sequential along L but
vectorized over batch, channels, states and stacked scan directions; the
backward pass runs the adjoint recurrence analytically.

The loop runs in time blocks sized to stay in cache.  A recorded scan keeps
only the last state of each block, O(L / Q) memory for Q-step blocks, instead
of the full state history.  The backward recomputes the rest, as Mamba does
in its fused scan: it re-projects the input and rebuilds each block's decays
and states from the saved state before it, with the same expressions as the
forward, so the gradients are bit-identical to those of a kept history.
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
    if k < 1 or h < 1 or w < 1:
        raise ShapeError(f"order_freq_blocks requires H, W, k >= 1, got {h}x{w}, k = {k}")
    side = 2 ** k
    if h % side or w % side:
        raise ShapeError(f"order_freq_blocks level {k} requires H and W divisible by {side}, got {h}x{w}")
    th, tw = h // side, w // side
    tiles = []
    for band in range(4 ** k):
        r, c = wavelet.band_tile(band, k)
        rows, cols = np.arange(r * th, (r + 1) * th), np.arange(c * tw, (c + 1) * tw)
        tiles.append((rows[:, None] * w + cols[None, :]).reshape(-1))
    return ScanOrder(f"freq_blocks_k{k}", np.concatenate(tiles))


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


def _decays(delta_blk, a, out):
    """A_bar = exp(delta * A) of one time block, written into ``out``.

    The one expression for the decays: the backward rebuilds them with it, so
    they are bit-identical to the forward's.
    """
    np.multiply(delta_blk[:, :, :, None, None], a[None, :, None], out=out)
    return np.exp(out, out=out)


def _project(u, a_log, wb, wc, wd, db):
    """B, C, the pre-softplus z, the step size delta and A of (G, N, L, C) u.

    Whole-array batched matmuls over the flattened N*L rows.  The backward
    re-projects with this same call: a projection of fewer rows may differ in
    the last bit, so it is never done per time block.
    """
    g_, n_, l_, c_ = u.shape
    s_ = a_log.shape[-1]
    u2 = u.reshape(g_, n_ * l_, c_)
    b = np.matmul(u2, wb.transpose(0, 2, 1)).reshape(g_, n_, l_, s_)
    cc = np.matmul(u2, wc.transpose(0, 2, 1)).reshape(g_, n_, l_, s_)
    z = np.matmul(u2, wd[:, :, None]).reshape(g_, n_, l_) + db[:, None, None]
    return b, cc, z, _softplus(z), -np.exp(a_log)  # A: (G, C, S)


def _states(ab, du_blk, b_blk, h_prev, h, tmp):
    """States h_t of one time block, written into ``h``.

    ``ab`` holds the block's decays, ``du_blk`` its delta * u as (Q, G, N, C, 1)
    and ``b_blk`` its B as (Q, G, N, 1, S); ``h_prev`` is the state carried in
    from the block before (None at t = 0).  The one expression for the states:
    the backward rebuilds each block with it, so they are bit-identical to the
    forward's.
    """
    np.matmul(du_blk, b_blk, out=h)  # B_bar u_t: K = 1, one product per element
    if h_prev is not None:
        np.multiply(ab[0], h_prev, out=tmp)
        np.add(h[0], tmp, out=h[0])
    for a_t, h_p, h_t in zip(ab[1:], h[:-1], h[1:]):
        np.multiply(a_t, h_p, out=tmp)
        np.add(h_t, tmp, out=h_t)
    return h


def _scan_forward(u, a_log, wb, wc, wd, db, keep):
    """u: (G, N, L, C); params stacked over G.  Returns readout y and cache.

    Projections run as batched matmuls.  The per-step state update is the only
    sequential part; it runs block by block over time, and each block's decays
    and states are built, swept and read out while still in cache, in two
    block-sized buffers.  Only the last state of a block is carried into the
    next.  With ``keep`` (a backward will run) that last state of every block
    is also saved: the cache is those (n_blocks, G, N, C, S) boundary states
    plus the parameters, and the backward re-projects u and rebuilds each
    block's decays and states from the boundary state before it, with the same
    expressions.  Without ``keep`` the cache is None.  The per-step arithmetic
    is the same either way.
    """
    g_, n_, l_, c_ = u.shape
    s_ = a_log.shape[-1]
    b, cc, z, delta, a = _project(u, a_log, wb, wc, wd, db)
    delta_l = delta.transpose(2, 0, 1)                           # (L, G, N)
    dl = delta_l[:, :, :, None, None]                            # (L, G, N, 1, 1)
    u_t = u.transpose(2, 0, 1, 3)[..., None]                     # (L, G, N, C, 1)
    b_t = b.transpose(2, 0, 1, 3)[:, :, :, None, :]              # (L, G, N, 1, S)
    blocks = _time_blocks(l_, g_ * n_ * c_ * s_ * 8)
    ab_blk, h_blk = (np.empty((blocks[0][1], g_, n_, c_, s_)) for _ in range(2))
    bounds = np.empty((len(blocks) if keep else 1, g_, n_, c_, s_))  # h_{t1 - 1}
    cc_t = cc.transpose(2, 0, 1, 3)[..., None]                   # (L, G, N, S, 1)
    y = np.empty((g_, n_, l_, c_))
    y_t = y.transpose(2, 0, 1, 3)[..., None]                     # (L, G, N, C, 1) view
    tmp = np.empty_like(ab_blk[0])
    h_last = None                                                # h_{t0 - 1}
    for i, (t0, t1) in enumerate(blocks):
        ab = _decays(delta_l[t0:t1], a, ab_blk[:t1 - t0])
        h = _states(ab, dl[t0:t1] * u_t[t0:t1], b_t[t0:t1], h_last, h_blk[:t1 - t0], tmp)
        h_last = bounds[i if keep else 0]
        np.copyto(h_last, h[-1])
        np.matmul(h, cc_t[t0:t1], out=y_t[t0:t1])                  # sum over s
    cache = (bounds, a_log, wb, wc, wd, db) if keep else None
    return y, cache


def _scan_backward(dy, u, cache):
    """Adjoint of _scan_forward on the same u; returns du and parameter gradients."""
    bounds, a_log, wb, wc, wd, db = cache
    b, cc, z, delta, a = _project(u, a_log, wb, wc, wd, db)
    g_, n_, l_, c_ = u.shape
    s_ = b.shape[-1]
    delta_l = delta.transpose(2, 0, 1)                           # (L, G, N)
    dl = delta_l[:, :, :, None, None]                            # (L, G, N, 1, 1)
    u_t = u.transpose(2, 0, 1, 3)[..., None]                     # (L, G, N, C, 1)
    b_t = b.transpose(2, 0, 1, 3)[:, :, :, None, :]              # (L, G, N, 1, S)
    dy_l = dy.transpose(2, 0, 1, 3)                              # (L, G, N, C)
    cc_l = cc.transpose(2, 0, 1, 3)                              # (L, G, N, S)
    u_r = u.transpose(2, 0, 1, 3)[:, :, :, None, :]              # (L, G, N, 1, C)
    b_c = b.transpose(2, 0, 1, 3)[..., None]                     # (L, G, N, S, 1)
    dy_r = dy_l[:, :, :, None, :]                                # (L, G, N, 1, C)
    a_k = a.reshape(g_, c_ * s_, 1)
    dcc = np.empty((l_, g_, n_, 1, s_))
    dbu_u = np.empty((l_, g_, n_, 1, s_))
    du = np.empty((l_, g_, n_, c_, 1))
    ddelta = np.empty((l_, g_, n_, 1))
    da = np.zeros((g_, c_ * s_))
    # adjoint recurrence, run backwards one time block at a time: gradient at
    # h_t collects the readout term plus the decayed gradient from h_{t+1}.
    # A_bar = exp(delta*A): d/ddelta = A*A_bar, d/dA = delta*A_bar.  The decay
    # term A_bar[t+1] * gh[t+1] is also gh * A_bar at t+1, so the sweep keeps
    # it in `dab`; `carry` takes it across a block boundary.  Each block's
    # decays and states are rebuilt as the forward built them, the states from
    # the boundary state saved for the block before, and its dA and d(delta)
    # shares are summed while `dab` is still in cache.
    blocks = _time_blocks(l_, g_ * n_ * c_ * s_ * 8)
    ab_blk, h_blk, gh_blk, dab_blk = (np.empty((blocks[0][1], g_, n_, c_, s_)) for _ in range(4))
    tmp = np.empty_like(ab_blk[0])
    carry = None
    for i, (t0, t1) in reversed(list(enumerate(blocks))):
        h_prev = bounds[i - 1] if i else None                    # h_{t0 - 1}
        ab = _decays(delta_l[t0:t1], a, ab_blk[:t1 - t0])
        h = _states(ab, dl[t0:t1] * u_t[t0:t1], b_t[t0:t1], h_prev, h_blk[:t1 - t0], tmp)
        gh, dab = gh_blk[:t1 - t0], dab_blk[:t1 - t0]
        np.matmul(dy_r[t0:t1], h, out=dcc[t0:t1])                # sum over c
        np.einsum("qgnc,qgns->qgncs", dy_l[t0:t1], cc_l[t0:t1], out=gh)
        if carry is not None:
            gh[-1] += carry
        for a_next, g_next, g_t, d_next in zip(ab[:0:-1], gh[:0:-1], gh[-2::-1], dab[:0:-1]):
            np.multiply(a_next, g_next, out=d_next)
            np.add(g_t, d_next, out=g_t)
        # dA_bar * A_bar via the h_{t-1} factor; zero at t = 0
        if h_prev is None:
            dab[0] = 0.0
        else:
            carry = np.multiply(ab[0], gh[0], out=dab[0]).copy()
            np.multiply(dab[0], h_prev, out=dab[0])
        np.multiply(dab[1:], h[:-1], out=dab[1:])
        dab_k = dab.reshape(t1 - t0, g_, n_, c_ * s_)
        np.matmul(dab_k, a_k, out=ddelta[t0:t1])                 # sum over c, s
        da += np.einsum("qgnk,qgn->gk", dab_k, delta_l[t0:t1])
        # B_bar*u = delta * B[s] * u[c]
        np.matmul(u_r[t0:t1], gh, out=dbu_u[t0:t1])              # sum over c
        np.matmul(gh, b_c[t0:t1], out=du[t0:t1])                 # sum over s
    dcc = dcc.reshape(l_, g_, n_, s_).transpose(1, 2, 0, 3).reshape(g_, n_ * l_, s_)
    dbu_u = dbu_u.reshape(l_, g_, n_, s_)
    du = du.reshape(l_, g_, n_, c_)
    ddelta = ddelta.reshape(l_, g_, n_).transpose(1, 2, 0)
    da_log = da.reshape(g_, c_, s_) * a  # dA/dA_log = -exp(A_log) = A
    ddelta += np.einsum("lgns,gnls->gnl", dbu_u, b)
    dbproj = (dbu_u * delta_l[..., None]).transpose(1, 2, 0, 3)
    dbproj = dbproj.reshape(g_, n_ * l_, s_)
    du *= delta_l[..., None]
    du = np.ascontiguousarray(du.transpose(1, 2, 0, 3))           # (G, N, L, C)
    # linear projections (batched matmuls over flattened N*L, as (G, N*L, S) copies)
    u2 = u.reshape(g_, n_ * l_, c_)
    dwb = np.matmul(dbproj.transpose(0, 2, 1), u2)
    du += np.matmul(dbproj, wb).reshape(g_, n_, l_, c_)
    dwc = np.matmul(dcc.transpose(0, 2, 1), u2)
    du += np.matmul(dcc, wc).reshape(g_, n_, l_, c_)
    dz = ddelta * _sigmoid(z)
    dwd = np.matmul(dz.reshape(g_, 1, n_ * l_), u2).reshape(g_, c_)
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
    parents = (u, *dyn.tensors(), params.D)
    stacked = _stack_dynamics([dyn])
    y, cache = _scan_forward(u.data[None, None], *stacked, T.records(parents))
    out = y[0, 0] + params.D.data[None, :] * u.data

    def rule(g):
        du, da_log, dwb, dwc, dwd, ddb = _scan_backward(g[None, None], u.data[None, None], cache)
        dd = np.einsum("lc,lc->c", g, u.data)
        du = du[0, 0] + g * params.D.data[None, :]
        return (du, da_log[0], dwb[0], dwc[0], dwd[0], ddb[0].reshape(()), dd)

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

    invs = [np.empty_like(p) for p in perms]
    for p, inv in zip(perms, invs):
        inv[p] = np.arange(p.size)

    def gather(m):
        """(N, C, H, W) map -> (G, N, L, C) sequences, one row take per direction."""
        rows = np.ascontiguousarray(m.reshape(n, c, h * w).transpose(0, 2, 1))
        seq = np.empty((len(perms), n, h * w, c))
        for s, p in zip(seq, perms):
            np.take(rows, p, axis=1, out=s, mode="clip")  # "clip": no buffered copy
        return seq

    def scatter(seq):
        """Adjoint of gather: each direction's sequence put back in place, summed."""
        out, rows = np.zeros((n, c, h * w)), np.empty((n, h * w, c))
        for s, inv in zip(seq, invs):
            out += np.take(s, inv, axis=1, out=rows, mode="clip").transpose(0, 2, 1)
        return out.reshape(n, c, h, w)

    parents = [f]
    for d in params.directions:
        parents.extend(d.tensors())
    stacked = _stack_dynamics(params.directions)
    y, cache = _scan_forward(gather(f.data), *stacked, T.records(parents))
    readout = scatter(y)

    def rule(g):
        du, da_log, dwb, dwc, dwd, ddb = _scan_backward(gather(g), gather(f.data), cache)
        grads = [scatter(du)]
        for g_i in range(len(perms)):
            grads.extend((da_log[g_i], dwb[g_i], dwc[g_i], dwd[g_i], ddb[g_i].reshape(())))
        return tuple(grads)

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
