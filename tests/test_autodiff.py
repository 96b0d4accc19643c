"""Unit tests for the reverse-mode autodiff core.

Every registered op is checked against central finite differences on random
inputs; the FD oracle here never calls backward() itself.
"""

import zlib

import numpy as np
import pytest

import trajdiff.autodiff as ad


# ---------------------------------------------------------------------------
# finite-difference oracle

def fd_gradients(build, arrays, eps=1e-5):
    """Central finite differences of a scalar-valued graph builder.

    ``build`` maps a list of numpy arrays to a scalar float;
    returns one gradient array per input.
    """
    grads = []
    for i, base in enumerate(arrays):
        g = np.zeros_like(base)
        flat = g.reshape(-1)
        for j in range(base.size):
            for sign in (+1.0, -1.0):
                bumped = [a.copy() for a in arrays]
                bumped[i].reshape(-1)[j] += sign * eps
                val = build(bumped)
                flat[j] += sign * val / (2.0 * eps)
        grads.append(g)
    return grads


def backward_gradients(build_nodes, arrays):
    params = [ad.parameter(a.copy()) for a in arrays]
    loss = build_nodes(params)
    ad.backward(loss)
    return [p.grad if p.grad is not None else np.zeros_like(p.value) for p in params]


def check_op(build_nodes, arrays, rtol=1e-4):
    got = backward_gradients(build_nodes, arrays)

    def scalar_fn(bumped):
        nodes = [ad.parameter(a) for a in bumped]
        return float(build_nodes(nodes).value.reshape(()))

    want = fd_gradients(scalar_fn, arrays)
    for g, w in zip(got, want):
        scale = max(np.abs(w).max(), np.abs(g).max(), 1.0)
        assert np.abs(g - w).max() <= rtol * scale


def scalarize(node):
    """Reduce any node to a scalar via a fixed random projection-free sum."""
    return ad.reduce_sum(ad.mul(node, node))


# Each entry: name -> (graph builder, input sampler). Samplers keep inputs
# away from kinks/domain edges so the FD oracle is valid.
def _away_from(x, gap):
    x = x + np.sign(x) * gap
    x[x == 0] = gap
    return x


OP_CASES = {}


def register(name):
    def deco(fn):
        OP_CASES[name] = fn
        return fn
    return deco


def rand_shape(rng, rank=None):
    rank = rank if rank is not None else int(rng.integers(1, 4))
    return tuple(int(rng.integers(1, 5)) for _ in range(rank))


@register("add")
def _case_add(rng):
    s = rand_shape(rng)
    mode = rng.integers(0, 3)
    a = rng.normal(size=s)
    if mode == 0:
        b = rng.normal(size=s)
    elif mode == 1:
        b = rng.normal(size=(1,))
    else:
        s = rand_shape(rng, rank=int(rng.integers(2, 4)))
        a = rng.normal(size=s)
        b = rng.normal(size=(s[-1],))
    return lambda n: scalarize(ad.add(n[0], n[1])), [a, b]


@register("sub")
def _case_sub(rng):
    build, arrays = _case_add(rng)
    return lambda n: scalarize(ad.sub(n[0], n[1])), arrays


@register("mul")
def _case_mul(rng):
    s = rand_shape(rng)
    a = rng.normal(size=s)
    b = rng.normal(size=s) if rng.integers(0, 2) else rng.normal(size=(1,))
    return lambda n: scalarize(ad.mul(n[0], n[1])), [a, b]


@register("div")
def _case_div(rng):
    s = rand_shape(rng)
    a = rng.normal(size=s)
    b = _away_from(rng.normal(size=s), 0.5)
    return lambda n: scalarize(ad.div(n[0], n[1])), [a, b]


@register("matmul")
def _case_matmul(rng):
    mode = rng.integers(0, 3)
    b_, n_, k_, m_ = (int(rng.integers(1, 4)) for _ in range(4))
    if mode == 0:
        a = rng.normal(size=(n_, k_))
        b = rng.normal(size=(k_, m_))
    elif mode == 1:
        a = rng.normal(size=(b_, n_, k_))
        b = rng.normal(size=(k_, m_))
    else:
        a = rng.normal(size=(b_, n_, k_))
        b = rng.normal(size=(b_, k_, m_))
    return lambda n: scalarize(ad.matmul(n[0], n[1])), [a, b]


@register("transpose_last2")
def _case_transpose(rng):
    s = rand_shape(rng, rank=int(rng.integers(2, 4)))
    a = rng.normal(size=s)
    return lambda n: scalarize(ad.transpose_last2(n[0])), [a]


@register("reshape")
def _case_reshape(rng):
    a = rng.normal(size=(2, 6))
    return lambda n: scalarize(ad.reshape(n[0], (3, 4))), [a]


@register("concat")
def _case_concat(rng):
    rank = int(rng.integers(1, 4))
    ax = int(rng.integers(0, rank))
    base = list(rand_shape(rng, rank=rank))
    arrays = []
    for _ in range(int(rng.integers(2, 4))):
        s = base.copy()
        s[ax] = int(rng.integers(1, 4))
        arrays.append(rng.normal(size=tuple(s)))
    return lambda n: scalarize(ad.concat(n, axis=ax)), arrays


@register("slice_axis")
def _case_slice(rng):
    s = rand_shape(rng, rank=int(rng.integers(1, 4)))
    ax = int(rng.integers(0, len(s)))
    start = int(rng.integers(0, s[ax]))
    stop = int(rng.integers(start + 1, s[ax] + 1))
    a = rng.normal(size=s)
    return lambda n: scalarize(ad.slice_axis(n[0], ax, start, stop)), [a]


@register("gather_rows")
def _case_gather(rng):
    s = rand_shape(rng, rank=int(rng.integers(1, 4)))
    a = rng.normal(size=s)
    idx = rng.integers(0, s[0], size=int(rng.integers(1, 6)))
    return lambda n: scalarize(ad.gather_rows(n[0], idx)), [a]


@register("broadcast_rows")
def _case_broadcast(rng):
    a = rng.normal(size=(int(rng.integers(1, 4)), int(rng.integers(1, 4))))
    rows = int(rng.integers(1, 5))
    return lambda n: scalarize(ad.broadcast_rows(n[0], rows)), [a]


@register("reduce_sum")
def _case_sum(rng):
    s = rand_shape(rng)
    a = rng.normal(size=s)
    if rng.integers(0, 2):
        return lambda n: scalarize(ad.reduce_sum(n[0])), [a]
    ax = int(rng.integers(0, len(s)))
    keep = bool(rng.integers(0, 2))
    return lambda n: scalarize(ad.reduce_sum(n[0], axis=ax, keepdims=keep)), [a]


@register("reduce_mean")
def _case_mean(rng):
    s = rand_shape(rng)
    a = rng.normal(size=s)
    if rng.integers(0, 2):
        return lambda n: scalarize(ad.reduce_mean(n[0])), [a]
    ax = int(rng.integers(0, len(s)))
    keep = bool(rng.integers(0, 2))
    return lambda n: scalarize(ad.reduce_mean(n[0], axis=ax, keepdims=keep)), [a]


@register("square")
def _case_square(rng):
    a = rng.normal(size=rand_shape(rng))
    return lambda n: scalarize(ad.square(n[0])), [a]


@register("sqrt")
def _case_sqrt(rng):
    a = np.abs(rng.normal(size=rand_shape(rng))) + 0.5
    return lambda n: scalarize(ad.sqrt(n[0])), [a]


@register("exp")
def _case_exp(rng):
    a = rng.normal(size=rand_shape(rng))
    return lambda n: scalarize(ad.exp(n[0])), [a]


@register("log")
def _case_log(rng):
    a = np.abs(rng.normal(size=rand_shape(rng))) + 0.5
    return lambda n: scalarize(ad.log(n[0])), [a]


@register("tanh")
def _case_tanh(rng):
    a = rng.normal(size=rand_shape(rng))
    return lambda n: scalarize(ad.tanh(n[0])), [a]


@register("sigmoid")
def _case_sigmoid(rng):
    a = rng.normal(size=rand_shape(rng))
    return lambda n: scalarize(ad.sigmoid(n[0])), [a]


@register("leaky_relu")
def _case_leaky(rng):
    a = _away_from(rng.normal(size=rand_shape(rng)), 1e-2)
    return lambda n: scalarize(ad.leaky_relu(n[0])), [a]


@register("softmax")
def _case_softmax(rng):
    a = rng.normal(size=rand_shape(rng))
    return lambda n: scalarize(ad.softmax(n[0])), [a]


@pytest.mark.parametrize("opname", sorted(OP_CASES))
def test_gradcheck_random_shapes(opname):
    rng = np.random.default_rng(zlib.crc32(opname.encode()))
    for _ in range(20):
        build, arrays = OP_CASES[opname](rng)
        check_op(build, arrays)


# ---------------------------------------------------------------------------
# forward-value examples

def test_sigmoid_at_zero():
    out = ad.sigmoid(ad.constant(np.zeros(3)))
    assert np.array_equal(out.value, np.full(3, 0.5))


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    out = ad.matmul(ad.constant(np.eye(3)), ad.constant(a))
    assert np.allclose(out.value, a)


def test_softmax_two_logits():
    # e^1/(e^1+e^0) = 0.731058..., e^0/(e^1+e^0) = 0.268941...
    out = ad.softmax(ad.constant(np.array([1.0, 0.0])))
    assert np.allclose(out.value, [0.7310585786300049, 0.2689414213699951], atol=1e-12)
    assert abs(out.value.sum() - 1.0) < 1e-15


def test_shape_mismatch_reports_op_and_shapes():
    a = ad.constant(np.zeros((2, 3)))
    b = ad.constant(np.zeros((4, 5)))
    with pytest.raises(ad.ShapeError) as exc:
        ad.matmul(a, b)
    msg = str(exc.value)
    assert "matmul" in msg and "(2, 3)" in msg and "(4, 5)" in msg


def test_nonfinite_forward_raises():
    big = ad.constant(np.full(4, 1e308))
    with pytest.raises(ad.NumericsError) as exc:
        ad.exp(big)
    assert "exp" in str(exc.value)


# ---------------------------------------------------------------------------
# backward examples

def test_backward_sum_of_squares():
    x = ad.parameter(np.array([1.0, 2.0]))
    loss = ad.reduce_sum(ad.square(x))
    ad.backward(loss)
    assert np.allclose(x.grad, [2.0, 4.0])


def test_backward_sigmoid_dot_at_zero_weights():
    # d sigmoid(w.x)/dw at w=0 is 0.25 * x
    x_val = np.array([[0.3, -1.2, 0.7]])
    w = ad.parameter(np.zeros((3, 1)))
    out = ad.sigmoid(ad.matmul(ad.constant(x_val), w))
    ad.backward(ad.reduce_sum(out))
    assert np.allclose(w.grad.reshape(-1), 0.25 * x_val.reshape(-1), atol=1e-12)


def test_backward_requires_scalar_loss():
    x = ad.parameter(np.zeros(3))
    with pytest.raises(ad.ShapeError):
        ad.backward(ad.square(x))


def test_backward_composite_matches_fd():
    rng = np.random.default_rng(7)
    w1 = rng.normal(size=(4, 5)) * 0.3
    w2 = rng.normal(size=(5, 1)) * 0.3
    x = rng.normal(size=(3, 4))

    def build(nodes):
        h = ad.tanh(ad.matmul(ad.constant(x), nodes[0]))
        out = ad.sigmoid(ad.matmul(h, nodes[1]))
        return ad.reduce_mean(ad.square(out))

    check_op(build, [w1, w2])


def test_backward_fanout_accumulates():
    # y = x*x via two separate references to the same node
    x = ad.parameter(np.array([3.0]))
    y = ad.mul(x, x)
    z = ad.add(y, x)  # z = x^2 + x, dz/dx = 2x + 1 = 7
    ad.backward(ad.reduce_sum(z))
    assert np.allclose(x.grad, [7.0])


def test_backward_idempotent_after_zero_grad():
    rng = np.random.default_rng(3)
    w = ad.parameter(rng.normal(size=(2, 2)))

    def run():
        loss = ad.reduce_sum(ad.square(ad.matmul(w, w)))
        ad.backward(loss)
        return w.grad.copy()

    first = run()
    ad.zero_grad([w])
    second = run()
    assert np.array_equal(first, second)


def test_concat_slice_partition_gradient():
    # Gradient flowing through concat splits exactly; the pieces add back up
    # to the upstream contribution.
    rng = np.random.default_rng(11)
    a = ad.parameter(rng.normal(size=(2, 3)))
    b = ad.parameter(rng.normal(size=(2, 2)))
    joined = ad.concat([a, b], axis=1)
    weights = rng.normal(size=(2, 5))
    loss = ad.reduce_sum(ad.mul(joined, ad.constant(weights)))
    ad.backward(loss)
    assert np.array_equal(a.grad, weights[:, :3])
    assert np.array_equal(b.grad, weights[:, 3:])
    total = np.abs(a.grad).sum() + np.abs(b.grad).sum()
    assert np.isclose(total, np.abs(weights).sum())


def test_deterministic_forward_backward():
    def run():
        rng = np.random.default_rng(42)
        w = ad.parameter(rng.normal(size=(6, 6)))
        x = ad.constant(rng.normal(size=(4, 6)))
        h = ad.leaky_relu(ad.matmul(x, w))
        loss = ad.reduce_mean(ad.square(ad.softmax(h)))
        ad.backward(loss)
        return loss.value.copy(), w.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1.tobytes() == l2.tobytes()
    assert g1.tobytes() == g2.tobytes()


# ---------------------------------------------------------------------------
# optimizer

def test_adam_zero_gradient_leaves_params():
    p = ad.parameter(np.array([1.0, -2.0]))
    opt = ad.Adam({"p": p}, lr=1e-2)
    before = p.value.copy()
    for _ in range(50):
        p.grad = np.zeros_like(p.value)
        opt.step()
    assert np.abs(p.value - before).max() < 1e-12


def test_adam_descends_against_constant_gradient():
    p = ad.parameter(np.array([0.0]))
    opt = ad.Adam({"p": p}, lr=1e-2)
    for _ in range(100):
        p.grad = np.array([2.5])
        opt.step()
    assert p.value[0] < 0.0


def test_adam_converges_on_quadratic():
    # minimize (x - 3)^2
    p = ad.parameter(np.array([0.0]))
    opt = ad.Adam({"p": p}, lr=1e-2)
    for _ in range(2000):
        ad.zero_grad([p])
        loss = ad.reduce_sum(ad.square(ad.sub(p, ad.constant(np.array([3.0])))))
        ad.backward(loss)
        opt.step()
    assert abs(p.value[0] - 3.0) < 1e-3


def test_adam_rejects_nan_gradient():
    p = ad.parameter(np.zeros(2))
    opt = ad.Adam({"w": p}, lr=1e-3)
    p.grad = np.array([np.nan, 0.0])
    with pytest.raises(ad.NumericsError) as exc:
        opt.step()
    assert "w" in str(exc.value)


def test_adam_requires_positive_lr():
    with pytest.raises(ValueError):
        ad.Adam({"p": ad.parameter(np.zeros(1))}, lr=0.0)


# ---------------------------------------------------------------------------
# activation kernels shared with the graph-free forwards

def test_leaky_relu_values_matches_where_form():
    x = np.array([-2.0, -1e-310, -0.0, 0.0, 1e-310, 3.0, np.nan, -np.inf, np.inf])
    for slope in (0.01, 0.5, 1.0):
        ref = np.where(x > 0, x, slope * x)
        out = ad.leaky_relu_values(x, slope)
        assert np.array_equal(out, ref, equal_nan=True)
        assert np.array_equal(np.signbit(out), np.signbit(ref))
    buf = x.copy()
    assert ad.leaky_relu_values(buf, 0.01, out=buf) is buf
    assert np.array_equal(buf, ad.leaky_relu_values(x), equal_nan=True)


def test_softmax_values_in_place_matches_copy():
    x = np.random.default_rng(0).standard_normal((3, 4, 5)) * 30.0
    ref = ad.softmax_values(x)
    buf = x.copy()
    assert ad.softmax_values(buf, out=buf) is buf
    assert np.array_equal(buf, ref)
    assert np.array_equal(ref, ad.softmax(ad.constant(x)).value)


def test_sigmoid_values_no_overflow():
    x = np.array([-1000.0, -1.0, 0.0, 1.0, 1000.0])
    out = ad.sigmoid_values(x)
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0 and out[2] == 0.5 and out[4] == 1.0
