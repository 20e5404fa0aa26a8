import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from freqmamba.errors import FreqMambaError, MagicError, ShapeError, TruncatedError
from freqmamba import model as M
from freqmamba import tensor as T
from freqmamba import training as TR
from freqmamba.tensor import Tensor, backward, grad_check


def rand(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(0, scale, shape))


def weighted_sum(x, w):
    return T.sum_all(T.mul(x, Tensor(w)))


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_identity_kernel():
    x = Tensor(np.ones((1, 1, 3, 3)))
    k = Tensor(np.ones((1, 1, 1, 1)))
    b = Tensor(np.zeros(1))
    y = T.conv2d(x, k, b)
    np.testing.assert_array_equal(y.data, x.data)


def test_conv2d_hand_summation():
    x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    k = Tensor(np.ones((1, 1, 2, 2)))
    b = Tensor(np.zeros(1))
    y = T.conv2d(x, k, b, stride=1, padding=0)
    assert y.data.shape == (1, 1, 1, 1)
    assert y.data[0, 0, 0, 0] == 10.0


def test_conv2d_depthwise_constant_stencil():
    c = 3
    x = Tensor(np.full((1, c, 5, 5), 2.0))
    k = Tensor(np.ones((c, 1, 3, 3)))
    b = Tensor(np.zeros(c))
    y = T.conv2d(x, k, b, padding=1, groups=c)
    # interior positions see the full 3x3 stencil of value 2
    np.testing.assert_allclose(y.data[:, :, 1:-1, 1:-1], 9 * 2.0)


def test_conv2d_shape_errors():
    x = Tensor(np.zeros((1, 4, 8, 8)))
    with pytest.raises(ShapeError, match="groups"):
        T.conv2d(x, Tensor(np.zeros((4, 3, 3, 3))), Tensor(np.zeros(4)), groups=3)
    with pytest.raises(ShapeError, match="C_in/groups"):
        T.conv2d(x, Tensor(np.zeros((4, 3, 3, 3))), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError, match="bias"):
        T.conv2d(x, Tensor(np.zeros((4, 4, 3, 3))), Tensor(np.zeros(3)))


def test_conv2d_stride_output_dims():
    x = rand((2, 3, 9, 9), seed=1)
    k = rand((5, 3, 3, 3), seed=2)
    y = T.conv2d(x, k, Tensor(np.zeros(5)), stride=2, padding=1)
    assert y.data.shape == (2, 5, 5, 5)


def conv2d_loops(x, k, b, g, stride, padding, groups):
    """Plain nested sums: y = conv2d(x, k, b), and dx, dk, db of sum(g * y)."""
    n, c_in, h, w = x.shape
    c_out, cg, kk, _ = k.shape
    og = c_out // groups
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kk) // stride + 1
    wo = (w + 2 * padding - kk) // stride + 1
    y = np.empty((n, c_out, ho, wo))
    dxp, dk, db = np.zeros_like(xp), np.zeros_like(k), np.zeros_like(b)
    for o in range(c_out):
        ch = slice(o // og * cg, o // og * cg + cg)
        for r in range(ho):
            for q in range(wo):
                win = (slice(None), ch, slice(r * stride, r * stride + kk),
                       slice(q * stride, q * stride + kk))
                for i in range(n):
                    y[i, o, r, q] = (xp[win][i] * k[o]).sum() + b[o]
                    dxp[win][i] += g[i, o, r, q] * k[o]
                    dk[o] += g[i, o, r, q] * xp[win][i]
                    db[o] += g[i, o, r, q]
    return y, dxp[:, :, padding:padding + h, padding:padding + w], dk, db


def assert_rel(got, want, rtol=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max(), np.abs(got - want).max()


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("groups, c_out", [(1, 3), (2, 6), (4, 4)])
def test_conv2d_matches_loop_oracle(k, groups, c_out):
    # every stride and padding, H != W, against the forward and the adjoint
    rng = np.random.default_rng(10 * k + groups)
    x = rng.normal(size=(2, 4, 7, 6))
    kern = rng.normal(size=(c_out, 4 // groups, k, k))
    b = rng.normal(size=c_out)
    for stride in (1, 2):
        for padding in (0, 1, 2):
            xt, kt, bt = (Tensor(a, requires_grad=True) for a in (x, kern, b))
            y = T.conv2d(xt, kt, bt, stride=stride, padding=padding, groups=groups)
            g = rng.normal(size=y.data.shape)
            backward(weighted_sum(y, g))
            want = conv2d_loops(x, kern, b, g, stride, padding, groups)
            for got, ref in zip((y.data, xt.grad, kt.grad, bt.grad), want):
                assert_rel(got, ref)


@pytest.mark.parametrize("groups", [1, 8])
def test_conv2d_no_grad_builds_no_tap_buffer(groups):
    # the padded input, the output grid, one tap's product and the output make
    # about 4x the input; a k*k column buffer alone would be 9x
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(1, 8, 128, 128)))
    k = Tensor(rng.normal(size=(8, 8 // groups, 3, 3)))
    b = Tensor(np.zeros(8))
    with T.no_grad():
        tracemalloc.start()
        try:
            T.conv2d(x, k, b, padding=1, groups=groups)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 6 * x.data.nbytes, peak / x.data.nbytes


# ---------------------------------------------------------------------------
# pointwise_conv


def test_pointwise_identity_and_zero():
    x = rand((1, 3, 4, 4), seed=3)
    eye = Tensor(np.eye(3)[:, :, None, None])
    y = T.pointwise_conv(x, eye, Tensor(np.zeros(3)))
    np.testing.assert_array_equal(y.data, x.data)
    z = T.pointwise_conv(x, Tensor(np.zeros((3, 3, 1, 1))), Tensor(np.zeros(3)))
    np.testing.assert_array_equal(z.data, np.zeros_like(x.data))


def test_pointwise_channel_sum():
    x = rand((1, 2, 4, 4), seed=4)
    w = Tensor(np.ones((1, 2, 1, 1)))
    y = T.pointwise_conv(x, w, Tensor(np.zeros(1)))
    np.testing.assert_allclose(y.data[0, 0], x.data[0, 0] + x.data[0, 1])


def test_pointwise_matches_loop_oracle():
    rng = np.random.default_rng(12)
    x, w, b = rng.normal(size=(2, 3, 5, 4)), rng.normal(size=(4, 3, 1, 1)), rng.normal(size=4)
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    y = T.pointwise_conv(xt, wt, bt)
    g = rng.normal(size=y.data.shape)
    backward(weighted_sum(y, g))
    want_y, want_dx = np.zeros_like(y.data), np.zeros_like(x)
    want_dw = np.zeros_like(w)
    for o in range(4):
        want_y[:, o] = b[o]
        for c in range(3):
            want_y[:, o] += w[o, c, 0, 0] * x[:, c]
            want_dx[:, c] += w[o, c, 0, 0] * g[:, o]
            want_dw[o, c, 0, 0] = (g[:, o] * x[:, c]).sum()
    for got, ref in ((y.data, want_y), (xt.grad, want_dx), (wt.grad, want_dw),
                     (bt.grad, g.sum(axis=(0, 2, 3)))):
        assert_rel(got, ref)


def test_pointwise_channel_mismatch():
    with pytest.raises(ShapeError, match="channel"):
        T.pointwise_conv(rand((1, 3, 2, 2)), Tensor(np.zeros((2, 4, 1, 1))), Tensor(np.zeros(2)))


# ---------------------------------------------------------------------------
# silu / layer_norm


def test_silu_values():
    x = Tensor(np.array([[[[0.0, 1.0, 20.0, -20.0]]]]))
    y = T.silu(x)
    assert y.data[0, 0, 0, 0] == 0.0
    np.testing.assert_allclose(y.data[0, 0, 0, 1], 1.0 / (1.0 + np.exp(-1.0)), rtol=1e-12)
    np.testing.assert_allclose(y.data[0, 0, 0, 2], 20.0, atol=1e-6)
    assert np.isfinite(y.data).all()


def test_silu_no_grad_matches_recorded():
    # the derivative map is built only for a recorded node; the output is the same
    x = rand((2, 3, 5, 5), seed=6)
    x.requires_grad = True
    recorded = T.silu(x)
    with T.no_grad():
        plain = T.silu(x)
    assert recorded.backward_rule is not None and plain.backward_rule is None
    np.testing.assert_array_equal(plain.data, recorded.data)
    assert grad_check(lambda t: T.sum_all(T.silu(t)), x) < 1e-6


def test_layer_norm_constant_input():
    x = Tensor(np.full((2, 3, 4, 4), 7.0))
    y = T.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
    np.testing.assert_allclose(y.data, 0.0, atol=1e-9)


def test_layer_norm_affine_collapse():
    x = rand((1, 3, 2, 2), seed=5)
    y = T.layer_norm(x, Tensor(np.zeros(3)), Tensor(np.full(3, 2.5)))
    np.testing.assert_array_equal(y.data, np.full_like(x.data, 2.5))


def test_layer_norm_two_channel():
    x = Tensor(np.stack([np.full((2, 2), 1.0), np.full((2, 2), 3.0)])[None])
    y = T.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
    np.testing.assert_allclose(y.data[0, 0], -1.0, atol=1e-5)
    np.testing.assert_allclose(y.data[0, 1], 1.0, atol=1e-5)


def test_layer_norm_eps_validation():
    x = rand((1, 2, 2, 2))
    with pytest.raises(ValueError, match="eps"):
        T.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=0.0)


# ---------------------------------------------------------------------------
# elementwise / concat / resize


def test_mul_annihilator():
    x = rand((1, 2, 3, 3), seed=6)
    z = T.mul(x, Tensor(np.zeros_like(x.data)))
    np.testing.assert_array_equal(z.data, 0.0)


def test_elementwise_dispatch_and_mismatch():
    a, b = rand((1, 1, 2, 2), 7), rand((1, 1, 2, 2), 8)
    np.testing.assert_array_equal(T.elementwise("add", a, b).data, a.data + b.data)
    with pytest.raises(ShapeError):
        T.add(a, rand((1, 1, 2, 3)))


def test_up2_down2_constant_fixed_point():
    x = Tensor(np.full((1, 2, 4, 4), 0.37))
    y = T.up2(T.down2(x))
    np.testing.assert_allclose(y.data, x.data)


def test_down2_requires_even():
    with pytest.raises(ShapeError, match="even"):
        T.down2(rand((1, 1, 3, 4)))


def test_concat_slice_roundtrip():
    a, b = rand((2, 2, 3, 3), 9), rand((2, 3, 3, 3), 10)
    cat = T.concat_channels([a, b])
    assert cat.data.shape == (2, 5, 3, 3)
    np.testing.assert_array_equal(T.slice_channels(cat, 0, 2).data, a.data)
    np.testing.assert_array_equal(T.slice_channels(cat, 2, 5).data, b.data)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_concat_slice_roundtrip_property(c1, c2, n):
    rng = np.random.default_rng(c1 * 16 + c2 * 4 + n)
    a = Tensor(rng.normal(size=(n, c1, 2, 2)))
    b = Tensor(rng.normal(size=(n, c2, 2, 2)))
    cat = T.concat_channels([a, b])
    np.testing.assert_array_equal(T.slice_channels(cat, 0, c1).data, a.data)
    np.testing.assert_array_equal(T.slice_channels(cat, c1, c1 + c2).data, b.data)


# ---------------------------------------------------------------------------
# backward / grad_check


def test_backward_linear_function():
    x = rand((1, 2, 3, 3), seed=11)
    err = grad_check(lambda t: T.sum_all(t), x)
    assert err < 1e-10
    xg = Tensor(x.data, requires_grad=True)
    backward(T.sum_all(xg))
    np.testing.assert_array_equal(xg.grad, np.ones_like(x.data))


def test_backward_quadratic():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    backward(T.sum_all(T.mul(x, x)))
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_backward_rejects_nonscalar():
    x = rand((1, 1, 2, 2))
    with pytest.raises(ShapeError, match="scalar"):
        backward(T.add(x, x))


def test_tape_topological_order():
    # diamond: x feeds mul directly and through add(x, x); a sweep that ran
    # add's rule before mul's would miss add's share and give 2x, not 4x
    x = Tensor(np.array([[[[-1.5, 0.5], [2.0, 3.0]]]]), requires_grad=True)
    backward(T.sum_all(T.mul(T.add(x, x), x)))
    np.testing.assert_array_equal(x.grad, 4.0 * x.data)


def test_grad_accumulates_across_uses():
    x = Tensor(np.array([3.0]), requires_grad=True)
    backward(T.sum_all(T.add(x, x)))
    np.testing.assert_allclose(x.grad, [2.0])


def graph_nodes(loss):
    """Every node reachable from ``loss`` through its parents."""
    seen, stack, out = set(), [loss], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            out.append(node)
            stack.extend(node.parents)
    return out


def backward_keeping_graph(loss):
    """Reference sweep: backward's node order and sums, with nothing freed."""
    nodes, visited, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            nodes.append(node)
        elif id(node) not in visited and node.requires_grad:
            visited.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node.parents)
    loss.grad = np.ones(())
    for node in reversed(nodes):
        if node.backward_rule is None or node.grad is None:
            continue
        for parent, g in zip(node.parents, node.backward_rule(node.grad)):
            if g is not None and parent.requires_grad:
                parent.grad = np.array(g, copy=True) if parent.grad is None else parent.grad + g


def tiny_model_loss():
    """A small model's training loss on one 16x16 pair, with a non-zero head."""
    rng = np.random.default_rng(31)
    model = M.build(M.ModelConfig(base_channels=4, channel_multipliers=(1, 1, 1, 1), state_dim=2), seed=3)
    model.head.w.data = rng.normal(0, 0.05, model.head.w.data.shape)
    rainy, clean = (Tensor(rng.uniform(size=(2, 3, 16, 16))) for _ in range(2))
    return model, TR.loss_total(model.forward(rainy), clean, TR.LossWeights())[0]


def test_backward_frees_the_graph_and_keeps_leaf_grads():
    model, loss = tiny_model_loss()
    inner = [node for node in graph_nodes(loss) if node.op != "leaf"]
    ops = {node.op for node in inner}
    assert len(inner) > 250 and {"scan2d", "conv2d", "layer_norm", "wpt", "iwpt", "polar_idft2"} <= ops
    backward(loss)
    assert all(node.backward_rule is None and node.parents == () and node.grad is None for node in inner)
    ref_model, ref_loss = tiny_model_loss()
    backward_keeping_graph(ref_loss)
    ref = ref_model.named_params()
    for name, p in model.named_params().items():
        assert p.grad is not None and np.array_equal(p.grad, ref[name].grad), name


def test_backward_twice_raises():
    # calls backward twice on purpose: a graph can be backpropagated once
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    loss = T.sum_all(T.mul(x, x))
    backward(loss)
    with pytest.raises(FreqMambaError, match="spent graph"):
        backward(loss)
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_no_grad_is_per_thread():
    # one thread sits inside no_grad while the other records a graph
    x = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    inside, release, seen = threading.Event(), threading.Event(), {}

    def under_no_grad():
        with T.no_grad():
            inside.set()
            release.wait(10)
            seen["records"] = T.mul(x, x).requires_grad
        seen["after"] = T._grad_enabled.get()

    worker = threading.Thread(target=under_no_grad)
    worker.start()
    assert inside.wait(10)
    loss = T.sum_all(T.mul(x, x))
    release.set()
    worker.join(10)
    assert T._grad_enabled.get() and loss.requires_grad
    assert seen == {"records": False, "after": True}
    backward(loss)
    np.testing.assert_array_equal(x.grad, [3.0, -4.0])

    def records():
        seen["thread"] = T.mul(x, x).requires_grad

    with T.no_grad():
        worker = threading.Thread(target=records)
        worker.start()
        worker.join(10)
        assert not T.mul(x, x).requires_grad
    assert seen["thread"]


GRAD_CASES = [
    ("add", lambda x: T.sum_all(T.add(x, T.mul(x, x)))),
    ("mul", lambda x: T.sum_all(T.mul(x, T.scale(x, 0.5)))),
    ("silu", lambda x: T.sum_all(T.silu(x))),
    ("abs", lambda x: T.sum_all(T.abs_(T.add(x, Tensor(np.full(x.shape, 0.31)))))),
    ("mean", lambda x: T.mean_all(T.mul(x, x))),
    ("down2", lambda x: T.sum_all(T.mul(T.down2(x), T.down2(x)))),
    ("up2", lambda x: T.sum_all(T.mul(T.up2(x), T.up2(x)))),
]


@pytest.mark.parametrize("name,f", GRAD_CASES, ids=[c[0] for c in GRAD_CASES])
def test_grad_check_elementwise(name, f):
    x = rand((1, 2, 4, 4), seed=hash(name) % 1000)
    assert grad_check(f, x) < 1e-6


def test_grad_check_conv_ops():
    x = rand((1, 4, 8, 8), seed=12, scale=0.7)
    k = rand((4, 4, 3, 3), seed=13, scale=0.5)
    b = rand((4,), seed=14, scale=0.1)
    w = np.random.default_rng(15).normal(size=(1, 4, 8, 8))
    assert grad_check(lambda t: weighted_sum(T.conv2d(t, k, b, padding=1), w), x) < 1e-6
    assert grad_check(lambda t: weighted_sum(T.conv2d(x, t, b, padding=1), w), k) < 1e-6
    assert grad_check(lambda t: weighted_sum(T.conv2d(x, k, t, padding=1), w), b) < 1e-6
    # grouped + strided path
    kg = rand((4, 1, 3, 3), seed=16, scale=0.5)
    wg = np.random.default_rng(17).normal(size=(1, 4, 4, 4))
    assert grad_check(lambda t: weighted_sum(T.conv2d(t, kg, b, stride=2, padding=1, groups=4), wg), x) < 1e-6
    assert grad_check(lambda t: weighted_sum(T.conv2d(x, t, b, stride=2, padding=1, groups=4), wg), kg) < 1e-6


def test_grad_check_concat_and_norm():
    x = rand((1, 2, 4, 4), seed=18)
    other = rand((1, 3, 4, 4), seed=19)
    w = np.random.default_rng(20).normal(size=(1, 5, 4, 4))
    assert grad_check(lambda t: weighted_sum(T.concat_channels([t, other]), w), x) < 1e-6
    # C >= 4: per-location stats over two channels are too stiff for finite differences
    xn = rand((1, 6, 4, 4), seed=28)
    g = rand((6,), seed=21)
    bt = rand((6,), seed=22)
    wn = np.random.default_rng(23).normal(size=(1, 6, 4, 4))
    assert grad_check(lambda t: weighted_sum(T.layer_norm(t, g, bt), wn), xn) < 1e-6
    assert grad_check(lambda t: weighted_sum(T.layer_norm(xn, t, bt), wn), g) < 1e-6


def test_grad_check_silu_pointwise_composition():
    x = rand((1, 4, 8, 8), seed=24, scale=0.8)
    w = rand((4, 4, 1, 1), seed=25, scale=0.5)
    b = rand((4,), seed=26, scale=0.1)
    proj = np.random.default_rng(27).normal(size=(1, 4, 8, 8))
    err = grad_check(lambda t: weighted_sum(T.silu(T.pointwise_conv(t, w, b)), proj), x)
    assert err < 1e-6


def test_determinism_bitwise():
    def run():
        x = rand((2, 3, 8, 8), seed=42)
        k = rand((3, 3, 3, 3), seed=43)
        y = T.conv2d(T.silu(x), k, Tensor(np.zeros(3)), padding=1)
        return T.layer_norm(y, Tensor(np.ones(3)), Tensor(np.zeros(3))).data

    a, b = run(), run()
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# FTD1 dump format


def test_ftd1_roundtrip_bit_exact(tmp_path):
    x = Tensor(np.random.default_rng(44).normal(size=(2, 3, 4, 5)).astype(np.float32))
    p = tmp_path / "t.ftd1"
    T.dump_ftd1(x, p)
    y = T.load_ftd1(p)
    assert y.data.shape == (2, 3, 4, 5)
    np.testing.assert_array_equal(y.data, x.data.astype(np.float32).astype(np.float64))
    T.dump_ftd1(y, tmp_path / "t2.ftd1")
    assert (tmp_path / "t.ftd1").read_bytes() == (tmp_path / "t2.ftd1").read_bytes()


def test_ftd1_bad_magic(tmp_path):
    p = tmp_path / "bad.ftd1"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(MagicError):
        T.load_ftd1(p)


def test_ftd1_truncated(tmp_path):
    x = Tensor(np.zeros((1, 1, 4, 4)))
    p = tmp_path / "t.ftd1"
    T.dump_ftd1(x, p)
    blob = p.read_bytes()
    p.write_bytes(blob[:-8])
    with pytest.raises(TruncatedError):
        T.load_ftd1(p)


@pytest.mark.parametrize("dims, error", [
    ((2**32 - 1,) * 4, TruncatedError),   # the element count overflows 64 bits:
    ((2**16,) * 4, TruncatedError),       # it must not wrap into a small size
    ((0, 2**32 - 1, 2**32 - 1, 1), MagicError),  # 0 elements, but no such array
])
def test_ftd1_huge_dims_rejected(tmp_path, dims, error):
    p = tmp_path / "huge.ftd1"
    p.write_bytes(T.FTD1_MAGIC + struct.pack("<4I", *dims) + bytes(16))
    with pytest.raises(error):
        T.load_ftd1(p)


_ftd1_dim = st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.binary(max_size=40),
                 st.binary(max_size=40).map(lambda b: T.FTD1_MAGIC + b),
                 st.tuples(st.tuples(_ftd1_dim, _ftd1_dim, _ftd1_dim, _ftd1_dim),
                           st.binary(max_size=128))
                 .map(lambda dp: T.FTD1_MAGIC + struct.pack("<4I", *dp[0]) + dp[1])))
def test_ftd1_fuzz_loads_or_raises_package_error(tmp_path, blob):
    p = tmp_path / "f.ftd1"
    p.write_bytes(blob)
    try:
        x = T.load_ftd1(p)
    except FreqMambaError:
        return
    assert x.data.shape == struct.unpack("<4I", blob[4:20])
