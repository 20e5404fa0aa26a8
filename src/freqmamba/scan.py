"""2D traversal orders and the discretized selective state-space recurrence.

The recurrence follows the standard selective-SSM discretization: per step,
data-dependent B, C and a positive step size delta are projected from the
input; A_bar = exp(delta * A) with A = -exp(A_log) < 0, B_bar = delta * B
(Euler simplification of ZOH), h_t = A_bar * h_{t-1} + B_bar * u_t and
y_t = <C_t, h_t> (+ skip).  The loop is inherently sequential along L but
vectorized over batch, channels, states and stacked scan directions; the
backward pass runs the adjoint recurrence analytically.

The scan streams one time block at a time, each block sized to stay in
cache.  Per block and for every direction it row-takes the block's steps from
one (N, L, C) copy of the map, projects B, C and delta for them, builds the
decays and states, reads out and adds the readout into the (N, L, C) output
where the steps came from.  Besides that output no array spans the sequence.
A recorded scan also keeps the last state of each block, O(L / Q) memory for
Q-step blocks.  The backward recomputes the rest, as Mamba does in its fused
scan: it streams the blocks last to first, re-gathers and re-projects each
with the forward's own per-block call and rebuilds its states from the saved
state before it, so they are the forward's bit for bit, and it scatters the
input gradient and adds the parameter gradients block by block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from . import tensor as T
from .tensor import Tensor, make_node
from . import wavelet
from .fourier import ConvWeights


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
    forward: np.ndarray  # int64


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

    def tensors(self):
        return (self.A_log, self.proj_B, self.proj_C, self.proj_delta, self.delta_bias)


@dataclass
class Scan2dParams:
    """Independent dynamics per traversal direction plus one shared skip.

    The skip is applied once to the 2D input, inside the scan2d node, rather
    than once per direction, so C == 0 together with skip == 1 makes scan2d
    the identity.
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


def _gather(rows, perms, t0, t1, buf):
    """Steps t0..t1 of every direction as a (G, N, Q, C) block, one row take each.

    ``rows`` is the (N, L, C) map, ``perms[g]`` the positions direction g
    visits, and ``buf`` a flat buffer that the block is laid out in.
    """
    n_, _, c_ = rows.shape
    seq = buf[:len(perms) * n_ * (t1 - t0) * c_].reshape(len(perms), n_, t1 - t0, c_)
    for s, p in zip(seq, perms):
        np.take(rows, p[t0:t1], axis=1, out=s, mode="clip")  # "clip": no buffered copy
    return seq


def _scatter_add(out, perms, t0, t1, seq):
    """Adjoint of _gather: adds each direction's (N, Q, C) block into (N, L, C) ``out``.

    A direction visits a position once, so no index repeats within one add.
    """
    for s, p in zip(seq, perms):
        out[:, p[t0:t1]] += s


def _decays(delta_blk, a, out):
    """A_bar = exp(delta * A) of one time block, written into ``out``."""
    np.multiply(delta_blk[:, :, :, None, None], a[None, :, None], out=out)
    return np.exp(out, out=out)


def _project(u, wb, wc, wd, db):
    """B, C, the pre-softplus z and the step size delta of a (G, N, Q, C) block.

    Batched matmuls over the flattened N*Q rows.  A projection of fewer rows
    may differ in the last bit, so the forward and the backward both project
    exactly the blocks that _time_blocks cuts.
    """
    g_, n_, q_, c_ = u.shape
    s_ = wb.shape[1]
    u2 = u.reshape(g_, n_ * q_, c_)
    b = np.matmul(u2, wb.transpose(0, 2, 1)).reshape(g_, n_, q_, s_)
    cc = np.matmul(u2, wc.transpose(0, 2, 1)).reshape(g_, n_, q_, s_)
    z = np.matmul(u2, wd[:, :, None]).reshape(g_, n_, q_) + db[:, None, None]
    return b, cc, z, _softplus(z)


def _states(ab, du_blk, b_blk, h_prev, h, tmp):
    """States h_t of one time block, written into ``h``.

    ``ab`` holds the block's decays, ``du_blk`` its delta * u as (Q, G, N, C, 1)
    and ``b_blk`` its B as (Q, G, N, 1, S); ``h_prev`` is the state carried in
    from the block before (None at t = 0).
    """
    np.matmul(du_blk, b_blk, out=h)  # B_bar u_t: K = 1, one product per element
    if h_prev is not None:
        np.multiply(ab[0], h_prev, out=tmp)
        np.add(h[0], tmp, out=h[0])
    for a_t, h_p, h_t in zip(ab[1:], h[:-1], h[1:]):
        np.multiply(a_t, h_p, out=tmp)
        np.add(h_t, tmp, out=h_t)
    return h


def _block_states(u, a, proj, h_prev, ab_blk, h_blk, tmp):
    """Projections, decays and states of one gathered (G, N, Q, C) block.

    ``proj`` is (wb, wc, wd, db) and ``h_prev`` the state carried in (None at
    t = 0).  The one call that builds a block: the backward rebuilds each
    block with it, so its states are bit-identical to the forward's.  Returns
    b, cc, z, delta in the block's (G, N, Q, ...) layout and the decays and
    states as (Q, G, N, C, S) views of ``ab_blk`` and ``h_blk``.
    """
    b, cc, z, delta = _project(u, *proj)
    q_ = u.shape[2]
    delta_t = delta.transpose(2, 0, 1)                           # (Q, G, N)
    ab = _decays(delta_t, a, ab_blk[:q_])
    h = _states(ab, delta_t[..., None, None] * u.transpose(2, 0, 1, 3)[..., None],
                b.transpose(2, 0, 1, 3)[:, :, :, None, :], h_prev, h_blk[:q_], tmp)
    return b, cc, z, delta, ab, h


def _scan_forward(rows, perms, a_log, wb, wc, wd, db, keep):
    """Summed readouts of the directions ``perms`` over the (N, L, C) map ``rows``.

    Parameters are stacked over the G directions; direction g visits the
    positions ``perms[g]``.  The sweep streams one time block at a time: it
    row-takes the block's steps of every direction, projects B, C and delta
    for them, builds the decays and states in two block-sized buffers, reads
    out, and adds each readout into the (N, L, C) output at the positions it
    came from.  No other array spans the sequence, and only the last state of
    a block is carried into the next.  With ``keep`` (a backward will run)
    that last state of every block is also saved: the cache is those
    (n_blocks, G, N, C, S) boundary states plus the orders and parameters.
    Without ``keep`` the cache is None.  The sweep is the same either way.
    """
    n_, l_, c_ = rows.shape
    g_, s_ = len(perms), a_log.shape[-1]
    a = -np.exp(a_log)                                           # (G, C, S)
    blocks = _time_blocks(l_, g_ * n_ * c_ * s_ * 8)
    q = blocks[0][1]
    ab_blk, h_blk = (np.empty((q, g_, n_, c_, s_)) for _ in range(2))
    u_buf, y_buf = (np.empty(g_ * n_ * q * c_) for _ in range(2))
    bounds = np.empty((len(blocks) if keep else 1, g_, n_, c_, s_))  # h_{t1 - 1}
    tmp = np.empty_like(ab_blk[0])
    out = np.zeros((n_, l_, c_))
    h_last = None                                                # h_{t0 - 1}
    for i, (t0, t1) in enumerate(blocks):
        u = _gather(rows, perms, t0, t1, u_buf)
        _, cc, _, _, _, h = _block_states(u, a, (wb, wc, wd, db), h_last, ab_blk, h_blk, tmp)
        h_last = bounds[i if keep else 0]
        np.copyto(h_last, h[-1])
        y = y_buf[:u.size].reshape(u.shape)
        np.matmul(h, cc.transpose(2, 0, 1, 3)[..., None],
                  out=y.transpose(2, 0, 1, 3)[..., None])         # sum over s
        _scatter_add(out, perms, t0, t1, y)
    cache = (bounds, perms, a_log, wb, wc, wd, db) if keep else None
    return out, cache


def _scan_backward(dy, rows, cache):
    """Adjoint of _scan_forward on the same rows, given the (N, L, C) output gradient.

    Returns the (N, L, C) gradient of ``rows`` and the parameter gradients.
    The sweep runs the time blocks last to first, one at a time.  For each it
    row-takes u and dy, rebuilds the block with _block_states from the
    boundary state saved for the block before (the forward's call, so the
    same bits), runs the adjoint recurrence over it, adds the block's share of
    every parameter gradient and scatters its input gradient into place.  No
    (G, N, L, ...) array is made; the shares are summed in block order.
    """
    bounds, perms, a_log, wb, wc, wd, db = cache
    n_, l_, c_ = rows.shape
    g_, s_ = len(perms), a_log.shape[-1]
    a = -np.exp(a_log)                                           # (G, C, S)
    a_k = a.reshape(g_, c_ * s_, 1)
    blocks = _time_blocks(l_, g_ * n_ * c_ * s_ * 8)
    q = blocks[0][1]
    ab_blk, h_blk, gh_blk, dab_blk = (np.empty((q, g_, n_, c_, s_)) for _ in range(4))
    u_buf, dy_buf = (np.empty(g_ * n_ * q * c_) for _ in range(2))
    tmp = np.empty_like(ab_blk[0])
    d_rows = np.zeros((n_, l_, c_))
    da = np.zeros((g_, c_ * s_))
    dwb, dwc, dwd, ddb = (np.zeros_like(w) for w in (wb, wc, wd, db))
    # adjoint recurrence, run backwards one time block at a time: gradient at
    # h_t collects the readout term plus the decayed gradient from h_{t+1}.
    # A_bar = exp(delta*A): d/ddelta = A*A_bar, d/dA = delta*A_bar.  The decay
    # term A_bar[t+1] * gh[t+1] is also gh * A_bar at t+1, so the sweep keeps
    # it in `dab`; `carry` takes it across a block boundary.
    carry = None
    for i, (t0, t1) in reversed(list(enumerate(blocks))):
        q_ = t1 - t0
        h_prev = bounds[i - 1] if i else None                    # h_{t0 - 1}
        u = _gather(rows, perms, t0, t1, u_buf)
        b, cc, z, delta, ab, h = _block_states(u, a, (wb, wc, wd, db), h_prev, ab_blk, h_blk, tmp)
        dy_t = _gather(dy, perms, t0, t1, dy_buf).transpose(2, 0, 1, 3)  # (Q, G, N, C)
        gh, dab = gh_blk[:q_], dab_blk[:q_]
        dcc = np.matmul(dy_t[:, :, :, None, :], h)               # (Q, G, N, 1, S): sum over c
        np.matmul(dy_t[..., None], cc.transpose(2, 0, 1, 3)[:, :, :, None, :], out=gh)  # K = 1
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
        dab_k = dab.reshape(q_, g_, n_, c_ * s_)
        ddelta = np.matmul(dab_k, a_k).reshape(q_, g_, n_).transpose(1, 2, 0)  # sum over c, s
        da += np.einsum("qgnk,gnq->gk", dab_k, delta)
        # B_bar*u = delta * B[s] * u[c]
        dbu_u = np.matmul(u.transpose(2, 0, 1, 3)[:, :, :, None, :], gh)  # sum over c
        du = np.matmul(gh, b.transpose(2, 0, 1, 3)[..., None])   # (Q, G, N, C, 1): sum over s
        dbu_u = dbu_u.reshape(q_, g_, n_, s_).transpose(1, 2, 0, 3)  # (G, N, Q, S)
        ddelta = ddelta + np.einsum("gnqs,gnqs->gnq", dbu_u, b)
        du = du.reshape(q_, g_, n_, c_).transpose(1, 2, 0, 3) * delta[..., None]  # (G, N, Q, C)
        # linear projections, as batched matmuls over the block's N*Q rows
        u2 = u.reshape(g_, n_ * q_, c_)
        dbproj = (dbu_u * delta[..., None]).reshape(g_, n_ * q_, s_)
        dwb += np.matmul(dbproj.transpose(0, 2, 1), u2)
        du += np.matmul(dbproj, wb).reshape(g_, n_, q_, c_)
        dcc = dcc.reshape(q_, g_, n_, s_).transpose(1, 2, 0, 3).reshape(g_, n_ * q_, s_)
        dwc += np.matmul(dcc.transpose(0, 2, 1), u2)
        du += np.matmul(dcc, wc).reshape(g_, n_, q_, c_)
        dz = ddelta * T.sigmoid(z)
        dwd += np.matmul(dz.reshape(g_, 1, n_ * q_), u2).reshape(g_, c_)
        ddb += dz.sum(axis=(1, 2))
        du += dz[..., None] * wd[:, None, None, :]
        _scatter_add(d_rows, perms, t0, t1, du)
    da_log = da.reshape(g_, c_, s_) * a  # dA/dA_log = -exp(A_log) = A
    return d_rows, da_log, dwb, dwc, dwd, ddb


def _stack_dynamics(dirs):
    return (np.stack([d.A_log.data for d in dirs]),
            np.stack([d.proj_B.data for d in dirs]),
            np.stack([d.proj_C.data for d in dirs]),
            np.stack([d.proj_delta.data for d in dirs]),
            np.stack([np.asarray(d.delta_bias.data).reshape(()) for d in dirs]))


def scan2d(f: Tensor, params: Scan2dParams, orders: list[ScanOrder]) -> Tensor:
    """Directional selective scans over a feature map, merged by summation.

    Each order is traversed forward and reversed with its own dynamics; the
    shared per-channel skip is applied once to the input itself, inside the
    same tape node: out = sum of the readouts + skip[c] * f.
    """
    T._check_4d(f, "scan2d")
    n, c, h, w = f.data.shape
    if len(params.directions) != 2 * len(orders):
        raise ShapeError(f"scan2d needs 2 direction parameter sets per order: "
                         f"{len(orders)} orders but {len(params.directions)} sets")
    if params.skip.data.shape != (c,):
        raise ShapeError(f"scan2d expects a skip of shape ({c},), got {params.skip.data.shape}")
    perms = []
    for order in orders:
        if order.forward.size != h * w:
            raise ShapeError(f"order {order.name} has length {order.forward.size}, map has {h * w} positions")
        perms.append(order.forward)
        perms.append(order.forward[::-1])

    def rows_of(m):
        """(N, C, H, W) map -> (N, L, C) rows, one per flat position."""
        return np.ascontiguousarray(m.reshape(n, c, h * w).transpose(0, 2, 1))

    def map_of(rows):
        return rows.transpose(0, 2, 1).reshape(n, c, h, w)

    parents = [f]
    for d in params.directions:
        parents.extend(d.tensors())
    parents.append(params.skip)
    fd, skip = f.data, params.skip.data[None, :, None, None]
    y, cache = _scan_forward(rows_of(fd), perms, *_stack_dynamics(params.directions),
                             T.records(parents))

    def rule(g):
        du, da_log, dwb, dwc, dwd, ddb = _scan_backward(rows_of(g), rows_of(fd), cache)
        dx = g * skip
        dx += map_of(du)
        grads = [dx]
        for g_i in range(len(perms)):
            grads.extend((da_log[g_i], dwb[g_i], dwc[g_i], dwd[g_i], ddb[g_i].reshape(())))
        grads.append(np.einsum("nchw,nchw->c", g, fd))
        return tuple(grads)

    out = fd * skip
    out += map_of(y)
    return make_node(out, tuple(parents), rule, "scan2d")


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
    x = T.conv2d(f, w.dw.w, w.dw.b)
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
