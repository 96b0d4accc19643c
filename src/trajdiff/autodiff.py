"""Reverse-mode automatic differentiation over small dense float64 arrays.

Everything downstream (recurrent encoder, preference scorer, denoiser) is
built from the operations in this module.  Values are plain C-contiguous
``numpy.float64`` arrays of rank <= 3; every forward op validates operand
shapes and checks its output for NaN/Inf, so numerical failures surface at
the op that produced them instead of three modules later.

Broadcasting is deliberately restricted: the only mixed-shape combinations
accepted are a size-1 scalar operand and a bias vector added across the
rows of a matrix (last-axis match).  Anything else is a ``ShapeError``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Node", "ShapeError", "NumericsError",
    "constant", "parameter",
    "add", "sub", "mul", "div", "matmul", "transpose_last2", "reshape",
    "concat", "slice_axis", "gather_rows", "broadcast_rows",
    "reduce_sum", "reduce_mean",
    "square", "sqrt", "exp", "log", "tanh", "sigmoid", "leaky_relu",
    "softmax", "sigmoid_values", "leaky_relu_values", "softmax_values",
    "backward", "zero_grad", "Adam",
]


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested op."""


class NumericsError(ArithmeticError):
    """An op produced NaN/Inf, or an optimizer saw a non-finite gradient."""


class Node:
    """One vertex of the computation graph.

    ``value`` and ``grad`` always share a shape.  ``grad`` is lazily
    allocated by :func:`backward`; for parameters it persists across steps
    and accumulates until :func:`zero_grad`.
    """

    __slots__ = ("value", "grad", "parents", "vjps", "op", "requires_grad")

    def __init__(self, value, parents=(), vjps=(), op="leaf", requires_grad=False):
        self.value = value
        self.grad = None
        self.parents = parents
        self.vjps = vjps
        self.op = op
        self.requires_grad = requires_grad


def _asarray(x) -> np.ndarray:
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim > 3:
        raise ShapeError(f"rank {arr.ndim} > 3 not supported (shape {arr.shape})")
    return arr


def constant(x) -> Node:
    """Wrap an array (or Python number) as a non-differentiated leaf."""
    return Node(_asarray(x), op="const")


def parameter(x) -> Node:
    """Wrap an array as a trainable leaf that receives gradients."""
    return Node(_asarray(x), op="param", requires_grad=True)


def _check_finite(op: str, value: np.ndarray) -> None:
    # Summing is an order of magnitude cheaper than isfinite().all() and any
    # NaN/Inf in the operand makes the sum non-finite.
    if not np.isfinite(value.sum()):
        raise NumericsError(f"op '{op}' produced non-finite values (shape {value.shape})")


def _node(op, value, parents, vjps):
    _check_finite(op, value)
    rg = any(p.requires_grad for p in parents)
    if not rg:
        vjps = ()
        parents = ()
    return Node(value, parents, vjps, op, rg)


def _shapes(*nodes):
    return ", ".join(str(n.value.shape) for n in nodes)


# ---------------------------------------------------------------------------
# binary elementwise ops

def _check_binary(a: Node, b: Node, op: str, allow_bias: bool) -> None:
    sa, sb = a.value.shape, b.value.shape
    if sa == sb or a.value.size == 1 or b.value.size == 1:
        return
    if allow_bias and b.value.ndim == 1 and a.value.ndim >= 2 and sa[-1] == sb[0]:
        return
    raise ShapeError(f"op '{op}': shapes do not conform: {sa} vs {sb}")


def _collapse(grad: np.ndarray, shape) -> np.ndarray:
    """Reduce an out-shaped gradient back to an operand's shape."""
    if grad.shape == shape:
        return grad
    if int(np.prod(shape)) == 1:
        return grad.sum().reshape(shape)
    # bias vector: collapse every leading axis
    return grad.sum(axis=tuple(range(grad.ndim - 1)))


def add(a: Node, b: Node) -> Node:
    _check_binary(a, b, "add", allow_bias=True)
    with np.errstate(all="ignore"):
        out = a.value + b.value
    return _node("add", out, (a, b),
                 (lambda g: _collapse(g, a.value.shape),
                  lambda g: _collapse(g, b.value.shape)))


def sub(a: Node, b: Node) -> Node:
    _check_binary(a, b, "sub", allow_bias=True)
    with np.errstate(all="ignore"):
        out = a.value - b.value
    return _node("sub", out, (a, b),
                 (lambda g: _collapse(g, a.value.shape),
                  lambda g: -_collapse(g, b.value.shape)))


def mul(a: Node, b: Node) -> Node:
    _check_binary(a, b, "mul", allow_bias=False)
    with np.errstate(all="ignore"):
        out = a.value * b.value
    return _node("mul", out, (a, b),
                 (lambda g: _collapse(g * b.value, a.value.shape),
                  lambda g: _collapse(g * a.value, b.value.shape)))


def div(a: Node, b: Node) -> Node:
    _check_binary(a, b, "div", allow_bias=False)
    with np.errstate(all="ignore"):
        out = a.value / b.value
    return _node("div", out, (a, b),
                 (lambda g: _collapse(g / b.value, a.value.shape),
                  lambda g: _collapse(-g * a.value / (b.value * b.value), b.value.shape)))


# ---------------------------------------------------------------------------
# matrix ops

def matmul(a: Node, b: Node) -> Node:
    """Matrix product: (n,k)@(k,m), (B,n,k)@(k,m) or (B,n,k)@(B,k,m)."""
    av, bv = a.value, b.value
    if av.ndim == 2 and bv.ndim == 2:
        if av.shape[1] != bv.shape[0]:
            raise ShapeError(f"op 'matmul': shapes do not conform: {_shapes(a, b)}")
        out = av @ bv
        vjp_a = lambda g: g @ bv.T
        vjp_b = lambda g: av.T @ g
    elif av.ndim == 3 and bv.ndim == 2:
        if av.shape[2] != bv.shape[0]:
            raise ShapeError(f"op 'matmul': shapes do not conform: {_shapes(a, b)}")
        out = av @ bv
        vjp_a = lambda g: g @ bv.T
        vjp_b = lambda g: np.tensordot(av, g, axes=([0, 1], [0, 1]))
    elif av.ndim == 3 and bv.ndim == 3:
        if av.shape[0] != bv.shape[0] or av.shape[2] != bv.shape[1]:
            raise ShapeError(f"op 'matmul': shapes do not conform: {_shapes(a, b)}")
        out = av @ bv
        vjp_a = lambda g: g @ bv.transpose(0, 2, 1)
        vjp_b = lambda g: av.transpose(0, 2, 1) @ g
    else:
        raise ShapeError(f"op 'matmul': unsupported ranks: {_shapes(a, b)}")
    return _node("matmul", out, (a, b), (vjp_a, vjp_b))


def transpose_last2(a: Node) -> Node:
    """Swap the last two axes of a rank-2/3 array."""
    if a.value.ndim < 2:
        raise ShapeError(f"op 'transpose_last2': rank-1 operand (shape {a.value.shape})")
    axes = tuple(range(a.value.ndim - 2)) + (a.value.ndim - 1, a.value.ndim - 2)
    out = np.ascontiguousarray(a.value.transpose(axes))
    return _node("transpose_last2", out, (a,),
                 (lambda g: np.ascontiguousarray(g.transpose(axes)),))


def reshape(a: Node, shape) -> Node:
    shape = tuple(shape)
    if int(np.prod(shape)) != a.value.size:
        raise ShapeError(f"op 'reshape': cannot view {a.value.shape} as {shape}")
    if len(shape) > 3:
        raise ShapeError(f"op 'reshape': rank {len(shape)} > 3")
    out = a.value.reshape(shape)
    return _node("reshape", out, (a,), (lambda g: g.reshape(a.value.shape),))


def concat(nodes, axis: int = 0) -> Node:
    """Concatenate nodes along an axis; gradient is partitioned back."""
    nodes = list(nodes)
    if not nodes:
        raise ShapeError("op 'concat': empty input list")
    ndim = nodes[0].value.ndim
    ax = axis % ndim
    ref = list(nodes[0].value.shape)
    for n in nodes[1:]:
        s = list(n.value.shape)
        if len(s) != ndim or s[:ax] + s[ax + 1:] != ref[:ax] + ref[ax + 1:]:
            raise ShapeError(f"op 'concat': incompatible shapes: {_shapes(*nodes)}")
    out = np.concatenate([n.value for n in nodes], axis=ax)
    offsets = np.cumsum([0] + [n.value.shape[ax] for n in nodes])

    def make_vjp(i):
        sl = [slice(None)] * ndim
        sl[ax] = slice(offsets[i], offsets[i + 1])
        sl = tuple(sl)
        return lambda g: g[sl]

    return _node("concat", out, tuple(nodes), tuple(make_vjp(i) for i in range(len(nodes))))


def slice_axis(a: Node, axis: int, start: int, stop: int) -> Node:
    """Contiguous slice along one axis; gradient scatters back zero-padded."""
    ndim = a.value.ndim
    ax = axis % ndim
    n = a.value.shape[ax]
    if not (0 <= start < stop <= n):
        raise ShapeError(f"op 'slice_axis': range [{start}:{stop}] invalid for "
                         f"axis {axis} of shape {a.value.shape}")
    sl = [slice(None)] * ndim
    sl[ax] = slice(start, stop)
    sl = tuple(sl)
    out = np.ascontiguousarray(a.value[sl])

    def vjp(g):
        full = np.zeros_like(a.value)
        full[sl] = g
        return full

    return _node("slice_axis", out, (a,), (vjp,))


def gather_rows(a: Node, indices) -> Node:
    """Select rows (axis 0) by integer index; duplicate rows accumulate grads."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"op 'gather_rows': indices must be 1-D, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.value.shape[0]):
        raise ShapeError(f"op 'gather_rows': index out of range for shape {a.value.shape}")
    out = np.ascontiguousarray(a.value[idx])

    def vjp(g):
        full = np.zeros_like(a.value)
        np.add.at(full, idx, g)
        return full

    return _node("gather_rows", out, (a,), (vjp,))


def broadcast_rows(a: Node, rows: int) -> Node:
    """Repeat a (B,d) matrix into (B,rows,d); gradient sums over the new axis."""
    if a.value.ndim != 2:
        raise ShapeError(f"op 'broadcast_rows': need rank-2 input, got {a.value.shape}")
    b, d = a.value.shape
    out = np.ascontiguousarray(np.broadcast_to(a.value[:, None, :], (b, rows, d)))
    return _node("broadcast_rows", out, (a,), (lambda g: g.sum(axis=1),))


# ---------------------------------------------------------------------------
# reductions

def _reduction(a: Node, axis, keepdims, op):
    fn = np.sum if op == "sum" else np.mean
    if axis is None:
        out = fn(a.value).reshape(1)
        count = a.value.size

        def vjp(g):
            scale = g.reshape(()) if op == "sum" else g.reshape(()) / count
            return np.full_like(a.value, scale)

        return _node(op, out, (a,), (vjp,))

    ax = axis % a.value.ndim
    out = fn(a.value, axis=ax, keepdims=keepdims)
    count = a.value.shape[ax]

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, ax)
        g = np.broadcast_to(g, a.value.shape)
        return g.copy() if op == "sum" else g / count

    return _node(op, out, (a,), (vjp,))


def reduce_sum(a: Node, axis=None, keepdims: bool = False) -> Node:
    """Sum over one axis, or over everything (axis=None -> shape (1,))."""
    return _reduction(a, axis, keepdims, "sum")


def reduce_mean(a: Node, axis=None, keepdims: bool = False) -> Node:
    return _reduction(a, axis, keepdims, "mean")


# ---------------------------------------------------------------------------
# unary elementwise ops

def square(a: Node) -> Node:
    out = a.value * a.value
    return _node("square", out, (a,), (lambda g: g * 2.0 * a.value,))


def sqrt(a: Node) -> Node:
    with np.errstate(all="ignore"):
        out = np.sqrt(a.value)
    node = _node("sqrt", out, (a,), (lambda g: g * 0.5 / out,))
    return node


def exp(a: Node) -> Node:
    with np.errstate(all="ignore"):
        out = np.exp(a.value)
    return _node("exp", out, (a,), (lambda g: g * out,))


def log(a: Node) -> Node:
    with np.errstate(all="ignore"):
        out = np.log(a.value)
    return _node("log", out, (a,), (lambda g: g / a.value,))


def tanh(a: Node) -> Node:
    out = np.tanh(a.value)
    return _node("tanh", out, (a,), (lambda g: g * (1.0 - out * out),))


def sigmoid(a: Node) -> Node:
    out = sigmoid_values(a.value)
    return _node("sigmoid", out, (a,), (lambda g: g * out * (1.0 - out),))


def leaky_relu(a: Node, slope: float = 0.01) -> Node:
    out = leaky_relu_values(a.value, slope)
    return _node("leaky_relu", out, (a,),
                 (lambda g: g * np.where(a.value > 0, 1.0, slope),))


def softmax(a: Node) -> Node:
    """Softmax over the last axis, computed with a max shift for stability."""
    out = softmax_values(a.value)

    def vjp(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return out * (g - dot)

    return _node("softmax", out, (a,), (vjp,))


# ---------------------------------------------------------------------------
# activation kernels on plain arrays, shared with the graph-free forwards in
# encoder and diffusion so both paths compute identical values

def sigmoid_values(x: np.ndarray) -> np.ndarray:
    # Exponentiate only non-positive arguments so large |x| cannot overflow.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def leaky_relu_values(x: np.ndarray, slope: float = 0.01, out=None) -> np.ndarray:
    """max(x, slope*x): equals where(x > 0, x, slope*x) for 0 < slope <= 1,
    signed zeros, infinities and NaN included.  ``out`` may alias ``x``."""
    return np.maximum(x, slope * x, out=out)


def softmax_values(x: np.ndarray, out=None) -> np.ndarray:
    """Max-shifted softmax over the last axis.  ``out`` may alias ``x``."""
    out = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


# ---------------------------------------------------------------------------
# backward pass and optimizer

def _toposort(root: Node):
    order, stack, seen = [], [(root, False)], set()
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Node) -> None:
    """Accumulate dLoss/dNode into ``.grad`` of every reachable parameter.

    The loss must be scalar (size 1).  Each graph node is visited exactly
    once in reverse topological order; parameter gradients accumulate
    across calls until :func:`zero_grad`.
    """
    if loss.value.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.value.shape}")
    order = _toposort(loss)
    grads = {id(loss): np.ones_like(loss.value)}
    # A vjp may return a view of (or the very array) g, so a stored gradient is
    # only mutated in place once this pass owns a fresh copy of it.
    owned = {id(loss)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.op == "param":
            if node.grad is None:
                node.grad = np.zeros_like(node.value)
            node.grad += g
            continue
        for parent, vjp in zip(node.parents, node.vjps):
            if not parent.requires_grad:
                continue
            contrib = vjp(g)
            cur = grads.get(id(parent))
            if cur is None:
                grads[id(parent)] = contrib
            elif id(parent) in owned:
                cur += contrib
            else:
                grads[id(parent)] = cur + contrib
                owned.add(id(parent))


def zero_grad(params) -> None:
    """Reset the accumulated gradients of an iterable of parameter nodes."""
    for p in params:
        p.grad = None


class Adam:
    """Adam with bias correction on a name -> parameter dict, in place."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict, lr: float = 1e-3):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.named = list(params.items())
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.value) for _, p in self.named]
        self._v = [np.zeros_like(p.value) for _, p in self.named]

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for (name, p), m, v in zip(self.named, self._m, self._v):
            g = p.grad
            if g is None:
                continue
            if not np.isfinite(g.sum()):
                raise NumericsError(f"Adam step {self.t}: non-finite gradient for '{name}'")
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.value -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.EPS)
