import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from freqmamba import scan as S
from freqmamba import tensor as T
from freqmamba.errors import ShapeError
from freqmamba.tensor import Tensor, grad_check


def line_params(c, s, seed):
    """scan2d parameters for a 1xL map whose reverse direction reads out 0.

    With the reverse direction's proj_C zeroed its readout is exactly 0, so
    scan2d on the map is the 1-D recurrence of direction 0 plus the skip.
    """
    p = S.init_scan2d_params(c, s, 2, np.random.default_rng(seed))
    p.directions[1].proj_C.data[:] = 0.0
    return p


def as_line(u):
    """An (L, C) sequence as a (1, C, 1, L) map."""
    l_, c = u.shape
    return u.T.reshape(1, c, 1, l_)


def run_line(f, p):
    """scan2d of a (1, C, 1, L) map along its one row."""
    return S.scan2d(f, p, [S.order_raster(1, f.data.shape[3], "row_fwd")])


def line_oracle(scan_oracle, u, dyn, skip):
    """The plain-loop oracle of one direction's dynamics over an (L, C) sequence."""
    y = scan_oracle(as_line(u), [dyn], [np.arange(len(u))], skip)
    return y[0, :, 0].T


# ---------------------------------------------------------------------------
# orders


def test_order_raster_2x2():
    assert S.order_raster(2, 2, "row_fwd").forward.tolist() == [0, 1, 2, 3]
    assert S.order_raster(2, 2, "col_fwd").forward.tolist() == [0, 2, 1, 3]
    assert S.order_raster(2, 2, "row_rev").forward.tolist() == [3, 2, 1, 0]
    assert S.order_raster(2, 2, "col_rev").forward.tolist() == [3, 1, 2, 0]


@pytest.mark.parametrize("variant", S.RASTER_VARIANTS)
def test_order_raster_bijection_4x4(variant):
    order = S.order_raster(4, 4, variant)
    assert sorted(order.forward.tolist()) == list(range(16))


def test_order_freq_blocks_k1_2x2():
    assert S.order_freq_blocks(2, 2, 1).forward.tolist() == [0, 1, 2, 3]


def test_order_freq_blocks_k2_4x4():
    order = S.order_freq_blocks(4, 4, 2)
    # first four visits: the 1x1 tiles of the top-left quadrant, LLLL..LLHH
    assert order.forward[:4].tolist() == [0, 1, 4, 5]
    assert sorted(order.forward.tolist()) == list(range(16))


@given(st.sampled_from([(4, 4, 1), (8, 8, 2), (8, 16, 2), (16, 16, 2), (64, 64, 2), (32, 64, 3)]))
@settings(max_examples=8, deadline=None)
def test_order_freq_blocks_bijection(hwk):
    h, w, k = hwk
    order = S.order_freq_blocks(h, w, k)
    assert sorted(order.forward.tolist()) == list(range(h * w))


def test_order_freq_blocks_rank_monotone(tile_rank_map):
    for h, w, k in [(8, 8, 1), (8, 8, 2), (16, 16, 2), (16, 16, 3), (64, 64, 2)]:
        order = S.order_freq_blocks(h, w, k)
        ranks = tile_rank_map(h, w, k).reshape(-1)[order.forward]
        assert (np.diff(ranks) >= 0).all(), (h, w, k)


def test_order_freq_blocks_row_major_inside_tiles():
    # k = 1 at 8x16: four 4x8 quadrants LL, LH, HL, HH, each row-major
    quads = [(0, 0), (0, 8), (4, 0), (4, 8)]
    want = [r * 16 + c for r0, c0 in quads for r in range(r0, r0 + 4) for c in range(c0, c0 + 8)]
    assert S.order_freq_blocks(8, 16, 1).forward.tolist() == want
    # k = 2 at 8x8: 2x2 tiles; LLLL, LLLH, then LL's HL and HH, then LH's LL
    order = S.order_freq_blocks(8, 8, 2).forward.tolist()
    assert order[:8] == [0, 1, 8, 9, 2, 3, 10, 11]
    assert order[8:20] == [16, 17, 24, 25, 18, 19, 26, 27, 4, 5, 12, 13]


def test_order_freq_blocks_divisibility_error():
    with pytest.raises(ShapeError, match="divisible"):
        S.order_freq_blocks(6, 6, 2)


# ---------------------------------------------------------------------------
# the selective scan over one line: scan2d on a 1xL map


def test_selective_scan_pure_skip_identity():
    p = line_params(3, 4, seed=0)
    p.directions[0].proj_C.data[:] = 0.0
    p.skip.data[:] = 1.0
    f = Tensor(as_line(np.random.default_rng(1).normal(size=(16, 3))))
    np.testing.assert_array_equal(run_line(f, p).data, f.data)


def test_selective_scan_single_step_hand_unroll():
    p = line_params(1, 1, seed=2)
    d = p.directions[0]
    a, wb, wc, wd, db = (np.asarray(t.data) for t in d.tensors())
    ut = 0.7
    bt = wb[0, 0] * ut
    ct = wc[0, 0] * ut
    z = wd[0] * ut + db
    delta = np.log1p(np.exp(z))
    want = ct * (delta * bt) * ut + p.skip.data[0] * ut
    got = run_line(Tensor(np.full((1, 1, 1, 1), ut)), p).data[0, 0, 0, 0]
    np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_selective_scan_matches_naive(seed, scan_oracle):
    rng = np.random.default_rng(seed)
    c = int(rng.integers(1, 5))
    s = int(rng.integers(1, 9))
    l_ = int(rng.integers(1, 257))
    p = line_params(c, s, seed=seed + 100)
    u = rng.normal(size=(l_, c))
    got = run_line(Tensor(as_line(u)), p).data[0, :, 0].T
    np.testing.assert_allclose(got, line_oracle(scan_oracle, u, p.directions[0], p.skip.data), atol=1e-12)


def test_selective_scan_stability_bound(monkeypatch):
    # one-step time blocks: the saved boundary states are every state h_t
    monkeypatch.setattr(S, "_BLOCK_BYTES", 4 * 8 * 8)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        dyn = S.init_dynamics(4, 8, np.random.default_rng(seed))
        u = np.clip(rng.normal(size=(128, 4)), -1, 1)
        a_log, *proj = S._stack_dynamics([dyn])
        y, cache = S._scan_forward(u[None], [np.arange(128)], a_log, *proj, True)
        hs = cache[0]
        assert hs.shape == (128, 1, 1, 4, 8)
        # the cache keeps no decays: rebuild A_bar and B_bar*u from the projections
        b, _, _, delta = S._project(u[None, None], *proj)
        abar = np.exp(delta[:, :, :, None, None] * -np.exp(a_log)[:, None, None])
        bu = np.abs(delta[..., None, None] * b[:, :, :, None, :] * u[None, None][..., None])
        bound = bu.max() / (1.0 - abar.max())
        assert np.isfinite(hs).all()
        assert np.abs(hs).max() <= bound + 1e-12


def test_selective_scan_rejects_bad_rank():
    p = S.init_scan2d_params(2, 2, 2, np.random.default_rng(3))
    order = [S.order_raster(1, 4, "row_fwd")]
    for shape in [(4, 2), (1, 2, 4), (1, 1, 2, 1, 4)]:
        with pytest.raises(ShapeError, match="NCHW"):
            S.scan2d(Tensor(np.zeros(shape)), p, order)


def test_selective_scan_grad_all_groups():
    rng = np.random.default_rng(4)
    p = line_params(3, 4, seed=5)
    f = Tensor(as_line(rng.normal(size=(12, 3))))
    proj = rng.normal(size=(1, 3, 1, 12))

    def loss_with(params, x):
        return T.sum_all(T.mul(run_line(x, params), Tensor(proj)))

    assert grad_check(lambda t: loss_with(p, t), f) < 1e-5

    dyn = p.directions[0]
    fields = ["A_log", "proj_B", "proj_C", "proj_delta", "delta_bias"]
    for field in fields:
        def g(t, field=field):
            d0 = dataclasses.replace(dyn, **{field: t})
            return loss_with(dataclasses.replace(p, directions=(d0, p.directions[1])), f)

        err = grad_check(g, getattr(dyn, field))
        assert err < 1e-5, (field, err)

    err = grad_check(lambda t: loss_with(dataclasses.replace(p, skip=t), f), p.skip)
    assert err < 1e-5


# ---------------------------------------------------------------------------
# scan2d


def identity_scan2d_params(c, s, n_dirs, seed=0):
    p = S.init_scan2d_params(c, s, n_dirs, np.random.default_rng(seed))
    for d in p.directions:
        d.proj_C.data[:] = 0.0
    p.skip.data[:] = 1.0
    return p


def test_scan2d_identity_under_zero_c_unit_skip():
    f = Tensor(np.random.default_rng(6).normal(size=(2, 3, 4, 4)))
    p = identity_scan2d_params(3, 4, 2, seed=7)
    out = S.scan2d(f, p, [S.order_raster(4, 4, "row_fwd")])
    np.testing.assert_array_equal(out.data, f.data)


def test_scan2d_permutation_roundtrip_bit_exact(monkeypatch):
    # with the core scan replaced by the identity map on sequences, the
    # per-block gather/scatter pair must reproduce F exactly (once per
    # direction), here over 3-step blocks that do not divide L = 16
    f = Tensor(np.random.default_rng(8).normal(size=(1, 2, 4, 4)))
    p = S.init_scan2d_params(2, 3, 2, np.random.default_rng(9))
    p.skip.data[:] = 0.0
    monkeypatch.setattr(S, "_BLOCK_BYTES", 3 * 8)

    def fake(rows, perms, *args):
        out, buf = np.zeros_like(rows), np.empty(rows.size * len(perms))
        for t0, t1 in S._time_blocks(rows.shape[1], 8):
            S._scatter_add(out, perms, t0, t1, S._gather(rows, perms, t0, t1, buf))
        return out, None

    monkeypatch.setattr(S, "_scan_forward", fake)
    out = S.scan2d(f, p, [S.order_raster(4, 4, "col_fwd")])
    np.testing.assert_array_equal(out.data, 2.0 * f.data)


def test_scan2d_constant_image_directional_symmetry():
    # identical params in both directions of one order: on a constant image
    # the two directional readout sequences coincide, and the merged output
    # equals the sum of the two single-direction evaluations
    c, s = 2, 4
    rng = np.random.default_rng(10)
    dyn = S.init_dynamics(c, s, rng)
    f = Tensor(np.full((1, c, 4, 4), 0.6))
    order = S.order_raster(4, 4, "row_fwd")

    rows = f.data.reshape(1, c, 16).transpose(0, 2, 1).copy()
    stacked = S._stack_dynamics([dyn])
    perm, perm_rev = order.forward, order.forward[::-1]
    y_fwd, _ = S._scan_forward(rows, [perm], *stacked, False)
    y_rev, _ = S._scan_forward(rows, [perm_rev], *stacked, False)
    # the readouts in visiting order
    np.testing.assert_allclose(y_fwd[:, perm], y_rev[:, perm_rev], atol=1e-12)

    p = S.Scan2dParams((dyn, dyn), Tensor(np.zeros(c)))
    merged = S.scan2d(f, p, [order])
    acc = (y_fwd + y_rev).transpose(0, 2, 1)
    np.testing.assert_allclose(merged.data, acc.reshape(1, c, 4, 4), atol=1e-12)


def test_scan2d_order_length_mismatch():
    f = Tensor(np.zeros((1, 2, 4, 4)))
    p = S.init_scan2d_params(2, 2, 2, np.random.default_rng(11))
    with pytest.raises(ShapeError, match="length"):
        S.scan2d(f, p, [S.order_raster(2, 2, "row_fwd")])


def test_scan2d_grad_check():
    rng = np.random.default_rng(12)
    f = Tensor(rng.normal(size=(1, 2, 4, 4)))
    p = S.init_scan2d_params(2, 3, 2, np.random.default_rng(13))
    proj = rng.normal(size=(1, 2, 4, 4))
    orders = [S.order_raster(4, 4, "row_fwd")]

    def loss(t):
        return T.sum_all(T.mul(S.scan2d(t, p, orders), Tensor(proj)))

    assert grad_check(loss, f) < 1e-5

    def loss_alog(t):
        d0 = dataclasses.replace(p.directions[0], A_log=t)
        p2 = S.Scan2dParams((d0, p.directions[1]), p.skip)
        return T.sum_all(T.mul(S.scan2d(f, p2, orders), Tensor(proj)))

    assert grad_check(loss_alog, p.directions[0].A_log) < 1e-5

    def loss_skip(t):
        p2 = S.Scan2dParams(p.directions, t)
        return T.sum_all(T.mul(S.scan2d(f, p2, orders), Tensor(proj)))

    assert grad_check(loss_skip, p.skip) < 1e-5


def test_scan_forward_without_history_is_bit_identical():
    g, n, c, s = 2, 3, 8, 8
    q = S._time_blocks(1 << 16, g * n * c * s * 8)[0][1]  # steps per time block
    rng = np.random.default_rng(23)
    stacked = S._stack_dynamics([S.init_dynamics(c, s, rng) for _ in range(g)])
    for l_ in (1, q - 1, q, q + 1, 3 * q + 5):
        rows = rng.normal(size=(n, l_, c))
        perms = [rng.permutation(l_) for _ in range(g)]
        y_keep, cache = S._scan_forward(rows, perms, *stacked, True)
        y_free, none = S._scan_forward(rows, perms, *stacked, False)
        # one saved state per time block: the last state of each
        assert none is None and cache[0].shape == (-(-l_ // q), g, n, c, s)
        assert np.array_equal(y_free, y_keep), l_


# Differential tests of the blocked kernel against the step-by-step loop, with
# G = N = C = S = 1.  The time block is cut to Q steps so that sequences of
# Q - 1 and Q + 1 steps (and a few blocks) stay cheap for the Python loop.  The
# backward rebuilds each block's states from the boundary state of the block
# before; 2 * Q + 3 and 3 * Q + 2 steps have interior blocks whose carried-in
# state was itself rebuilt from a carried-in state.
Q = 7
SCAN_LENGTHS = [1, 2, 13, Q - 1, Q + 1, 3 * Q + 2]


def unit_scan_case(l_, log_delta, a_log, proj, seed):
    """Arrays for one G = N = C = S = 1 scan whose step size is near 10**log_delta.

    |u| <= 1 and |proj_delta| <= 1 keep delta within a factor of about e of it;
    with delta near 50 and A = -exp(a_log) near -20, A_bar = exp(delta * A)
    underflows to 0.
    """
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, (l_, 1))
    db = float(np.log(np.expm1(10.0 ** log_delta)))  # inverse softplus
    wb, wc, wd = (np.array([[v]]) for v in proj)
    return u, np.array([[a_log]]), wb, wc, wd[0], db


def kernel_args(a_log, wb, wc, wd, db):
    return a_log[None], wb[None], wc[None], wd[None], np.array([db])


def loop_scan(scan_oracle, u, a_log, wb, wc, wd, db):
    """The plain-loop oracle on one case's arrays, with no skip."""
    dyn = S.SsmDynamics(*(Tensor(v) for v in (a_log, wb, wc, wd, db)))
    return line_oracle(scan_oracle, u, dyn, np.zeros(1))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(l_=st.sampled_from(SCAN_LENGTHS), log_delta=st.floats(-4.0, np.log10(50.0)),
       a_log=st.floats(-2.0, 3.0), proj=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
       seed=st.integers(0, 2 ** 16))
def test_scan_forward_matches_naive_loop(monkeypatch, scan_oracle, l_, log_delta, a_log, proj, seed):
    monkeypatch.setattr(S, "_BLOCK_BYTES", 8 * Q)
    assert S._time_blocks(100, 8)[0] == (0, Q)
    u, a, wb, wc, wd, db = unit_scan_case(l_, log_delta, a_log, proj, seed)
    want = loop_scan(scan_oracle, u, a, wb, wc, wd, db)
    for keep in (True, False):
        y, _ = S._scan_forward(u[None], [np.arange(l_)], *kernel_args(a, wb, wc, wd, db), keep)
        np.testing.assert_allclose(y[0], want, rtol=1e-12, atol=1e-15)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(l_=st.sampled_from([1, 2, 5, Q - 1, Q + 1, 2 * Q + 3, 3 * Q + 2]),
       log_delta=st.floats(-4.0, np.log10(50.0)), a_log=st.floats(-2.0, 3.0),
       proj=st.tuples(*[st.floats(-1.0, 1.0)] * 3), seed=st.integers(0, 2 ** 16))
def test_scan_backward_matches_naive_loop_differences(monkeypatch, scan_oracle, l_, log_delta, a_log,
                                                      proj, seed):
    # every gradient of sum(dy * y) against central differences of the loop
    monkeypatch.setattr(S, "_BLOCK_BYTES", 8 * Q)
    u, a, wb, wc, wd, db = unit_scan_case(l_, log_delta, a_log, proj, seed)
    dy = np.random.default_rng(seed + 1).normal(size=(l_, 1))
    _, cache = S._scan_forward(u[None], [np.arange(l_)], *kernel_args(a, wb, wc, wd, db), True)
    du, da_log, dwb, dwc, dwd, ddb = S._scan_backward(dy[None], u[None], cache)
    args = [u, a, wb, wc, wd, np.array([db])]
    grads = [du[0], da_log[0], dwb[0], dwc[0], dwd[0], ddb]

    def loss(i, idx, step):
        moved = [x.copy() for x in args]
        moved[i][idx] += step
        y = loop_scan(scan_oracle, *moved[:5], float(moved[5][0]))
        return float((dy * y).sum())

    for i, grad in enumerate(grads):
        for idx in np.ndindex(args[i].shape):
            h = 1e-6 * max(1.0, abs(args[i][idx]))
            fd = (loss(i, idx, h) - loss(i, idx, -h)) / (2 * h)
            assert abs(grad[idx] - fd) <= 1e-7 * max(1.0, abs(fd)), (i, idx, grad[idx], fd)


def test_scan2d_no_grad_keeps_no_history():
    # Under no_grad scan2d streams one time block at a time: it holds the
    # (N, L, C) copy of the map, the (N, L, C) output and block buffers of
    # about 1 MB each, and no (G, N, L, ...) array.  A whole-array gather and
    # projection would add 2 * G * (C + S) / C = 8 input sizes on their own.
    # 4.99x measured at 128x128, where the block buffers weigh most, and 2.84x
    # at 256x256.
    c, s = 8, 8
    for hw, bound in ((128, 6), (256, 4)):
        rng = np.random.default_rng(24)
        f = Tensor(rng.normal(size=(1, c, hw, hw)))
        p = S.init_scan2d_params(c, s, 2, rng)
        with T.no_grad():
            tracemalloc.start()
            try:
                S.scan2d(f, p, [S.order_raster(hw, hw, "row_fwd")])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < bound * f.data.nbytes, (hw, peak / f.data.nbytes)


def test_scan2d_training_keeps_states_only():
    # Under grad the forward saves one state per time block (0.25 input sizes
    # here), not the (L, G, N, C, S) history of 32 input sizes (G * S = 32 with
    # C = 8).  The backward streams the blocks again: it row-takes u and the
    # output gradient per block, re-projects and rebuilds each block's states,
    # and scatters the input gradient per block, so besides the graph's own
    # arrays it holds three (N, L, C) maps and block buffers.  11.9x measured.
    n, c, s, hw = 4, 8, 8, 64
    rng = np.random.default_rng(25)
    f = Tensor(rng.normal(size=(n, c, hw, hw)), requires_grad=True)
    p = S.init_scan2d_params(c, s, 4, rng)
    g = Tensor(rng.normal(size=f.data.shape))
    tracemalloc.start()
    try:
        T.backward(T.sum_all(T.mul(S.scan2d(f, p, S.spatial_orders(hw, hw)), g)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.grad is not None and p.directions[0].A_log.grad is not None
    assert peak < 15 * f.data.nbytes, peak / f.data.nbytes


def test_scan2d_grads_do_not_depend_on_time_block(monkeypatch):
    # one-step blocks, 7-step blocks and a single block over all of L: every
    # gradient must agree across the cuts up to the rounding of the per-block
    # projections and of the block-by-block sums
    n, c, s, hw = 2, 4, 4, 16
    step_bytes = 4 * n * c * s * 8  # four directions
    rng = np.random.default_rng(26)
    x = rng.normal(size=(n, c, hw, hw))
    proj = Tensor(rng.normal(size=x.shape))
    p = S.init_scan2d_params(c, s, 4, rng)
    runs = []
    for q in (1, 7, hw * hw):
        monkeypatch.setattr(S, "_BLOCK_BYTES", q * step_bytes)
        assert len(S._time_blocks(hw * hw, step_bytes)) == -(-hw * hw // q)
        f = Tensor(x.copy(), requires_grad=True)
        params = [t for d in p.directions for t in d.tensors()] + [p.skip]
        for t in params:
            t.grad = None
        T.backward(T.sum_all(T.mul(S.scan2d(f, p, S.spatial_orders(hw, hw)), proj)))
        runs.append([f.grad] + [t.grad for t in params])
    for other in runs[1:]:
        for want, got in zip(runs[0], other, strict=True):
            np.testing.assert_allclose(got, want, rtol=1e-12)


# ---------------------------------------------------------------------------
# mamba pipelines


def test_spatial_mamba_zero_to_zero():
    w = S.init_mamba_pipe(2, 4, 4, np.random.default_rng(14))
    out = S.spatial_mamba(Tensor(np.zeros((1, 2, 4, 4))), w)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_freq_mamba_zero_to_zero():
    w = S.init_mamba_pipe(2, 4, 2, np.random.default_rng(15))
    out = S.freq_mamba(Tensor(np.zeros((1, 2, 8, 8))), w, k=2)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_spatial_mamba_grad_check():
    w = S.init_mamba_pipe(2, 3, 4, np.random.default_rng(16))
    x = Tensor(np.random.default_rng(17).normal(size=(1, 2, 8, 8)))
    proj = np.random.default_rng(18).normal(size=(1, 2, 8, 8))
    err = grad_check(lambda t: T.sum_all(T.mul(S.spatial_mamba(t, w), Tensor(proj))), x)
    assert err < 1e-5


def test_freq_mamba_grad_check():
    w = S.init_mamba_pipe(2, 3, 2, np.random.default_rng(19))
    x = Tensor(np.random.default_rng(20).normal(size=(1, 2, 8, 8)))
    proj = np.random.default_rng(21).normal(size=(1, 2, 8, 8))
    err = grad_check(lambda t: T.sum_all(T.mul(S.freq_mamba(t, w, 2), Tensor(proj))), x)
    assert err < 1e-5


def test_freq_mamba_consumes_freq_permutation(monkeypatch):
    h = w_ = 8
    k = 2
    seen = []
    real = S._scan_forward

    def spy(rows, perms, *args):
        seen.append((rows.copy(), perms))
        return real(rows, perms, *args)

    monkeypatch.setattr(S, "_scan_forward", spy)
    weights = S.init_mamba_pipe(1, 2, 2, np.random.default_rng(22))
    # make DWConv a pass-through delta kernel so sequence values identify pixels
    weights.dw.w.data[:] = 0.0
    weights.dw.w.data[0, 0, 1, 1] = 1.0
    mosaic = Tensor(np.arange(h * w_, dtype=np.float64).reshape(1, 1, h, w_))
    S.freq_mamba(mosaic, weights, k)
    assert len(seen) == 1
    perm = S.order_freq_blocks(h, w_, k).forward
    rows, perms = seen[0]
    visited_fwd = rows[0, perms[0], 0]
    visited_rev = rows[0, perms[1], 0]
    silu = lambda v: v / (1.0 + np.exp(-v))
    np.testing.assert_allclose(visited_fwd, silu(np.arange(64.0))[perm], atol=1e-12)
    np.testing.assert_allclose(visited_rev, silu(np.arange(64.0))[perm[::-1]], atol=1e-12)
