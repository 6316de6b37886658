"""Minimal tape-based reverse-mode differentiation over numpy arrays.

Just enough operator coverage for the fusion head: broadcasting add/mul,
batched matmul, relu/sigmoid/log, row softmax, reductions, reshape,
broadcasting concat and a fused softmax cross-entropy.  Ops skip all
backward bookkeeping when no input requires gradients, so the same graph
code doubles as a plain evaluator.  The elementwise ops, matmul, softmax
and concat broadcast leading axes, so the fusion head's finite-difference
check evaluates all perturbed copies of a parameter tensor as one stacked
no-grad pass instead of one pass per entry.
"""
from __future__ import annotations

import numpy as np

_FLOAT = np.dtype(np.float64)


class Var:
    __slots__ = ("value", "parents", "grad_fns", "requires_grad", "grad")

    def __init__(self, value, parents=(), grad_fns=(), requires_grad=False):
        if type(value) is not np.ndarray or value.dtype != _FLOAT:
            value = np.asarray(value, dtype=_FLOAT)
        self.value = value
        self.parents = parents
        self.grad_fns = grad_fns
        if not requires_grad:
            for p in parents:
                if p.requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = requires_grad
        self.grad = None

    @property
    def shape(self):
        return self.value.shape

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)


def const(value) -> Var:
    return Var(value)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a: Var, b: Var) -> Var:
    out = a.value + b.value
    if not (a.requires_grad or b.requires_grad):
        return Var(out)
    return Var(
        out,
        (a, b),
        (lambda g: _unbroadcast(g, a.value.shape), lambda g: _unbroadcast(g, b.value.shape)),
    )


def sub(a: Var, b: Var) -> Var:
    out = a.value - b.value
    if not (a.requires_grad or b.requires_grad):
        return Var(out)
    return Var(
        out,
        (a, b),
        (lambda g: _unbroadcast(g, a.value.shape), lambda g: _unbroadcast(-g, b.value.shape)),
    )


def mul(a: Var, b: Var) -> Var:
    out = a.value * b.value
    if not (a.requires_grad or b.requires_grad):
        return Var(out)
    return Var(
        out,
        (a, b),
        (
            lambda g: _unbroadcast(g * b.value, a.value.shape),
            lambda g: _unbroadcast(g * a.value, b.value.shape),
        ),
    )


def scale(a: Var, k: float) -> Var:
    out = a.value * k
    if not a.requires_grad:
        return Var(out)
    return Var(out, (a,), (lambda g: g * k,))


def matmul(a: Var, b: Var) -> Var:
    av, bv = a.value, b.value
    out = av @ bv
    if not (a.requires_grad or b.requires_grad):
        return Var(out)
    # 1-D operands are promoted to row/column matrices for the backward pass.
    a2 = av[None, :] if av.ndim == 1 else av
    b2 = bv[:, None] if bv.ndim == 1 else bv

    def expand(g):
        if av.ndim == 1:
            g = np.expand_dims(g, -2)
        if bv.ndim == 1:
            g = np.expand_dims(g, -1)
        return g

    def da(g):
        res = expand(g) @ np.swapaxes(b2, -1, -2)
        if av.ndim == 1:
            res = np.squeeze(res, -2)
        return _unbroadcast(res, av.shape)

    def db(g):
        res = np.swapaxes(a2, -1, -2) @ expand(g)
        if bv.ndim == 1:
            res = np.squeeze(res, -1)
        return _unbroadcast(res, bv.shape)

    return Var(out, (a, b), (da, db))


def transpose_last(a: Var) -> Var:
    out = np.swapaxes(a.value, -1, -2)
    if not a.requires_grad:
        return Var(out)
    return Var(out, (a,), (lambda g: np.swapaxes(g, -1, -2),))


def relu(a: Var) -> Var:
    mask = a.value > 0
    out = np.where(mask, a.value, 0.0)
    if not a.requires_grad:
        return Var(out)
    return Var(out, (a,), (lambda g: g * mask,))


def sigmoid(a: Var) -> Var:
    # exp(-x) overflows to inf for x < -709, which gives the exact limit 0
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-a.value))
    if not a.requires_grad:
        return Var(s)
    return Var(s, (a,), (lambda g: g * s * (1.0 - s),))


def log(a: Var) -> Var:
    out = np.log(a.value)
    if not a.requires_grad:
        return Var(out)
    return Var(out, (a,), (lambda g: g / a.value,))


def clip(a: Var, lo: float, hi: float) -> Var:
    out = np.clip(a.value, lo, hi)
    if not a.requires_grad:
        return Var(out)
    # Gradient passes only through the interior of the clamp.
    mask = (a.value > lo) & (a.value < hi)
    return Var(out, (a,), (lambda g: g * mask,))


def reshape(a: Var, shape) -> Var:
    out = a.value.reshape(shape)
    if not a.requires_grad:
        return Var(out)
    old = a.value.shape
    return Var(out, (a,), (lambda g: g.reshape(old),))


def concat(vars_: list[Var], axis: int) -> Var:
    """Join along ``axis``; the other axes broadcast, so an operand may lack
    leading axes the others have (``axis`` counts in the result's axes)."""
    vals = [v.value for v in vars_]
    nd = max(v.ndim for v in vals)
    axis = axis % nd
    shapes = [(1,) * (nd - v.ndim) + v.shape for v in vals]
    common = np.broadcast_shapes(*(s[:axis] + (1,) + s[axis + 1:] for s in shapes))
    out = np.concatenate([np.broadcast_to(v, common[:axis] + (s[axis],) + common[axis + 1:])
                          for v, s in zip(vals, shapes)], axis=axis)
    if not any(v.requires_grad for v in vars_):
        return Var(out)
    offsets = np.cumsum([0] + [s[axis] for s in shapes])

    def make_fn(i):
        def fn(g):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            return _unbroadcast(g[tuple(idx)], vars_[i].value.shape)

        return fn

    return Var(out, tuple(vars_), tuple(make_fn(i) for i in range(len(vars_))))


def narrow(a: Var, axis: int, start: int, length: int) -> Var:
    idx = [slice(None)] * a.value.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = a.value[idx]
    if not a.requires_grad:
        return Var(out)

    def fn(g):
        full = np.zeros_like(a.value)
        full[idx] = g
        return full

    return Var(out, (a,), (fn,))


def sum_(a: Var, axis=None, keepdims: bool = False) -> Var:
    out = a.value.sum(axis=axis, keepdims=keepdims)
    if not a.requires_grad:
        return Var(out)

    def fn(g):
        if axis is None:
            return np.broadcast_to(g, a.value.shape).copy()
        gg = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(gg, a.value.shape).copy()

    return Var(out, (a,), (fn,))


def mean(a: Var, axis=None, keepdims: bool = False) -> Var:
    n = a.value.size if axis is None else a.value.shape[axis]
    return scale(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


def softmax(a: Var, axis: int = -1) -> Var:
    shifted = a.value - a.value.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    if not a.requires_grad:
        return Var(s)

    def fn(g):
        return s * (g - (g * s).sum(axis=axis, keepdims=True))

    return Var(s, (a,), (fn,))


def softmax_cross_entropy(logits: Var, labels) -> Var:
    """Mean cross-entropy of (B, k) logits against integer labels (B,).

    Also accepts a single (k,) logit vector with a scalar label.
    """
    vals = logits.value
    squeeze = vals.ndim == 1
    if squeeze:
        vals = vals[None, :]
        labels = np.array([labels])
    labels = np.asarray(labels, dtype=np.int64)
    shifted = vals - vals.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    batch = vals.shape[0]
    out = -logp[np.arange(batch), labels].mean()
    if not logits.requires_grad:
        return Var(out)

    def fn(g):
        p = np.exp(logp)
        p[np.arange(batch), labels] -= 1.0
        res = p * (g / batch)
        return res[0] if squeeze else res

    return Var(out, (logits,), (fn,))


def backward(root: Var) -> None:
    """Accumulate gradients of a scalar root into every reachable Var."""
    if root.value.ndim != 0:
        raise ValueError("backward requires a scalar root")
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        g = node.grad
        for parent, fn in zip(node.parents, node.grad_fns):
            if not parent.requires_grad:
                continue
            contrib = fn(g)
            if parent.grad is None:
                parent.grad = contrib
            else:
                parent.grad = parent.grad + contrib
