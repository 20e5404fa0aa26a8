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


def naive_selective_scan(u, a_log, wb, wc, wd, db, d_skip):
    """Step-by-step reference recurrence, one scalar step at a time."""
    l_, c_ = u.shape
    s_ = a_log.shape[1]
    a = -np.exp(a_log)
    h = np.zeros((c_, s_))
    y = np.zeros((l_, c_))
    for t in range(l_):
        ut = u[t]
        bt = wb @ ut
        ct = wc @ ut
        z = float(wd @ ut + db)
        delta = np.log1p(np.exp(-abs(z))) + max(z, 0.0)
        h = np.exp(delta * a) * h + delta * bt[None, :] * ut[:, None]
        y[t] = h @ ct + d_skip * ut
    return y


def make_params(c, s, seed):
    return S.init_ssm_params(c, s, np.random.default_rng(seed))


def params_arrays(p):
    d = p.dynamics
    return (d.A_log.data, d.proj_B.data, d.proj_C.data, d.proj_delta.data,
            float(d.delta_bias.data), p.D.data)


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
# selective_scan


def test_selective_scan_pure_skip_identity():
    p = make_params(3, 4, seed=0)
    p.dynamics.proj_C.data[:] = 0.0
    p.D.data[:] = 1.0
    u = Tensor(np.random.default_rng(1).normal(size=(16, 3)))
    y = S.selective_scan(u, p)
    np.testing.assert_array_equal(y.data, u.data)


def test_selective_scan_single_step_hand_unroll():
    p = make_params(1, 1, seed=2)
    u = Tensor(np.array([[0.7]]))
    a, wb, wc, wd, db, d = params_arrays(p)
    ut = 0.7
    bt = wb[0, 0] * ut
    ct = wc[0, 0] * ut
    z = wd[0] * ut + db
    delta = np.log1p(np.exp(z))
    want = ct * (delta * bt) * ut + d[0] * ut
    got = S.selective_scan(u, p).data[0, 0]
    np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_selective_scan_matches_naive(seed):
    rng = np.random.default_rng(seed)
    c = int(rng.integers(1, 5))
    s = int(rng.integers(1, 9))
    l_ = int(rng.integers(1, 257))
    p = make_params(c, s, seed=seed + 100)
    u = Tensor(rng.normal(size=(l_, c)))
    got = S.selective_scan(u, p).data
    want = naive_selective_scan(u.data, *params_arrays(p))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_selective_scan_stability_bound(monkeypatch):
    # one-step time blocks: the saved boundary states are every state h_t
    monkeypatch.setattr(S, "_BLOCK_BYTES", 4 * 8 * 8)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        p = make_params(4, 8, seed=seed)
        u = np.clip(rng.normal(size=(128, 4)), -1, 1)
        stacked = S._stack_dynamics([p.dynamics])
        y, cache = S._scan_forward(u[None, None], *stacked, True)
        hs = cache[0]
        assert hs.shape == (128, 1, 1, 4, 8)
        # the cache keeps no decays: rebuild A_bar and B_bar*u from the projections
        b, _, _, delta, a = S._project(u[None, None], *stacked)
        abar = np.exp(delta[:, :, :, None, None] * a[:, None, None])
        bu = np.abs(delta[..., None, None] * b[:, :, :, None, :] * u[None, None][..., None])
        bound = bu.max() / (1.0 - abar.max())
        assert np.isfinite(hs).all()
        assert np.abs(hs).max() <= bound + 1e-12


def test_selective_scan_rejects_bad_rank():
    p = make_params(2, 2, seed=3)
    with pytest.raises(ShapeError, match="sequence"):
        S.selective_scan(Tensor(np.zeros((1, 2, 4, 4))), p)


def test_selective_scan_grad_all_groups():
    rng = np.random.default_rng(4)
    p = make_params(3, 4, seed=5)
    u = Tensor(rng.normal(size=(12, 3)))
    proj = rng.normal(size=(12, 3))

    def loss_with(params, seq):
        return T.sum_all(T.mul(S.selective_scan(seq, params), Tensor(proj)))

    assert grad_check(lambda t: loss_with(p, t), u) < 1e-5

    dyn = p.dynamics
    fields = ["A_log", "proj_B", "proj_C", "proj_delta", "delta_bias"]
    for field in fields:
        def f(t, field=field):
            d2 = dataclasses.replace(dyn, **{field: t})
            return loss_with(dataclasses.replace(p, dynamics=d2), u)

        err = grad_check(f, getattr(dyn, field))
        assert err < 1e-5, (field, err)

    err = grad_check(lambda t: loss_with(dataclasses.replace(p, D=t), u), p.D)
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
    # gather/scatter pair must reproduce F exactly (once per direction)
    f = Tensor(np.random.default_rng(8).normal(size=(1, 2, 4, 4)))
    p = S.init_scan2d_params(2, 3, 2, np.random.default_rng(9))
    p.skip.data[:] = 0.0

    real = S._scan_forward

    def fake(u, *args):
        y, cache = real(u, *args)
        return u.copy(), cache

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

    u = f.data.reshape(1, c, 16)[:, :, order.forward].transpose(0, 2, 1)[None]
    stacked = S._stack_dynamics([dyn])
    y_fwd, _ = S._scan_forward(u, *stacked, False)
    u_rev = u[:, :, ::-1]
    y_rev, _ = S._scan_forward(u_rev, *stacked, False)
    np.testing.assert_allclose(y_fwd, y_rev, atol=1e-12)

    p = S.Scan2dParams((dyn, dyn), Tensor(np.zeros(c)))
    merged = S.scan2d(f, p, [order])
    acc = np.zeros((1, c, 16))
    acc[:, :, order.forward] += y_fwd[0].transpose(0, 2, 1)
    acc[:, :, order.forward[::-1]] += y_rev[0].transpose(0, 2, 1)
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
        u = rng.normal(size=(g, n, l_, c))
        y_keep, cache = S._scan_forward(u, *stacked, True)
        y_free, none = S._scan_forward(u, *stacked, False)
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


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(l_=st.sampled_from(SCAN_LENGTHS), log_delta=st.floats(-4.0, np.log10(50.0)),
       a_log=st.floats(-2.0, 3.0), proj=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
       seed=st.integers(0, 2 ** 16))
def test_scan_forward_matches_naive_loop(monkeypatch, l_, log_delta, a_log, proj, seed):
    monkeypatch.setattr(S, "_BLOCK_BYTES", 8 * Q)
    assert S._time_blocks(100, 8)[0] == (0, Q)
    u, a, wb, wc, wd, db = unit_scan_case(l_, log_delta, a_log, proj, seed)
    want = naive_selective_scan(u, a, wb, wc, wd, db, np.zeros(1))
    for keep in (True, False):
        y, _ = S._scan_forward(u[None, None], *kernel_args(a, wb, wc, wd, db), keep)
        np.testing.assert_allclose(y[0, 0], want, rtol=1e-12, atol=1e-15)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(l_=st.sampled_from([1, 2, 5, Q - 1, Q + 1, 2 * Q + 3, 3 * Q + 2]),
       log_delta=st.floats(-4.0, np.log10(50.0)), a_log=st.floats(-2.0, 3.0),
       proj=st.tuples(*[st.floats(-1.0, 1.0)] * 3), seed=st.integers(0, 2 ** 16))
def test_scan_backward_matches_naive_loop_differences(monkeypatch, l_, log_delta, a_log, proj, seed):
    # every gradient of sum(dy * y) against central differences of the loop
    monkeypatch.setattr(S, "_BLOCK_BYTES", 8 * Q)
    u, a, wb, wc, wd, db = unit_scan_case(l_, log_delta, a_log, proj, seed)
    dy = np.random.default_rng(seed + 1).normal(size=(l_, 1))
    _, cache = S._scan_forward(u[None, None], *kernel_args(a, wb, wc, wd, db), True)
    du, da_log, dwb, dwc, dwd, ddb = S._scan_backward(dy[None, None], u[None, None], cache)
    args = [u, a, wb, wc, wd, np.array([db])]
    grads = [du[0, 0], da_log[0], dwb[0], dwc[0], dwd[0], ddb]

    def loss(i, idx, step):
        moved = [x.copy() for x in args]
        moved[i][idx] += step
        y = naive_selective_scan(*moved[:5], float(moved[5][0]), np.zeros(1))
        return float((dy * y).sum())

    for i, grad in enumerate(grads):
        for idx in np.ndindex(args[i].shape):
            h = 1e-6 * max(1.0, abs(args[i][idx]))
            fd = (loss(i, idx, h) - loss(i, idx, -h)) / (2 * h)
            assert abs(grad[idx] - fd) <= 1e-7 * max(1.0, abs(fd)), (i, idx, grad[idx], fd)


def test_scan2d_no_grad_keeps_no_history():
    # Under no_grad scan2d holds a few (G, N, L, C)-sized arrays (the stacked
    # sequences, their B and C projections, the readout) and two time-block
    # buffers.  The full decay and state history would add 2 * G * S = 32
    # input sizes on its own.
    c, s, hw = 8, 8, 128
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
    assert peak < 16 * f.data.nbytes, peak / f.data.nbytes


def test_scan2d_training_keeps_states_only():
    # Under grad the forward saves one state per time block (0.25 input sizes
    # here), not the (L, G, N, C, S) history of 32 input sizes (G * S = 32 with
    # C = 8).  The backward re-projects the sequences and rebuilds one block of
    # states at a time, so the peak is made of (G, N, L, C)-sized arrays (the
    # gathered input and gradient, the projections, the gradient buffers) and
    # block buffers.  A kept state history alone would add 32 input sizes.
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
    assert peak < 50 * f.data.nbytes, peak / f.data.nbytes


def test_scan2d_grads_do_not_depend_on_time_block(monkeypatch):
    # one-step blocks, 7-step blocks and a single block over all of L: the
    # rebuilt states, and so every gradient, must not depend on the cut
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

    def spy(u, *args):
        seen.append(u.copy())
        return real(u, *args)

    monkeypatch.setattr(S, "_scan_forward", spy)
    weights = S.init_mamba_pipe(1, 2, 2, np.random.default_rng(22))
    # make DWConv a pass-through delta kernel so sequence values identify pixels
    weights.dw.w.data[:] = 0.0
    weights.dw.w.data[0, 0, 1, 1] = 1.0
    mosaic = Tensor(np.arange(h * w_, dtype=np.float64).reshape(1, 1, h, w_))
    S.freq_mamba(mosaic, weights, k)
    assert len(seen) == 1
    perm = S.order_freq_blocks(h, w_, k).forward
    visited_fwd = seen[0][0, 0, :, 0]
    visited_rev = seen[0][1, 0, :, 0]
    silu = lambda v: v / (1.0 + np.exp(-v))
    np.testing.assert_allclose(visited_fwd, silu(np.arange(64.0))[perm], atol=1e-12)
    np.testing.assert_allclose(visited_rev, silu(np.arange(64.0))[perm[::-1]], atol=1e-12)
