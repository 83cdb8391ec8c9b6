"""Minimal reverse-mode differentiation over dense float64 matrices.

Everything is a ``(rows, cols)`` matrix; scalars are ``(1, 1)``. Ops record
onto the innermost active :class:`Tape` (a thread-local stack) whenever some
input requires grad; with no tape active they are plain forward evaluation,
which is what inference and finite-difference probes use. Broadcasting is
limited to scalar, ``(n, 1)``-column and ``(1, d)``-row operands against an
``(n, d)`` matrix. Ops are called by name (``sub(a, b)``): :class:`Tensor`
has no arithmetic operators, so every node on a tape is an explicit call.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator

from .kernels import ARTANH_CLIP, MIN_NORM


class AutodiffError(RuntimeError):
    pass


class NonFiniteError(AutodiffError):
    """A primitive produced NaN or Inf."""


def _as_matrix(value) -> np.ndarray:
    v = np.asarray(value, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1, 1)
    elif v.ndim == 1:
        v = v.reshape(1, -1)
    elif v.ndim != 2:
        raise AutodiffError(f"tensors are 2-D matrices, got shape {v.shape}")
    return v


class Tape:
    """Ordered record of primitive applications; creation order is topological."""

    _local = threading.local()

    def __init__(self):
        self.nodes: list[Tensor] = []

    def __enter__(self) -> "Tape":
        stack = getattr(Tape._local, "stack", None)
        if stack is None:
            stack = Tape._local.stack = []
        stack.append(self)
        return self

    def __exit__(self, *exc):
        Tape._local.stack.pop()
        return False

    @staticmethod
    def current() -> "Tape | None":
        stack = getattr(Tape._local, "stack", None)
        return stack[-1] if stack else None

    def backward(self, loss: "Tensor") -> None:
        """Seed d(loss)/d(loss) = 1 and accumulate grads through the record.

        Each interior node's grad is freed (set to None) once its backward has
        run, so peak memory holds only the live frontier of gradients; the
        leaves (parameters) are never on the tape and keep theirs.
        """
        if loss.value.size != 1:
            raise AutodiffError(f"backward needs a scalar loss, got shape {loss.value.shape}")
        loss.grad = np.ones((1, 1))
        for node in reversed(self.nodes):
            if node.grad is not None:
                node._backward_fn(node.grad)
                node.grad = None


class Tensor:
    __slots__ = ("value", "requires_grad", "grad", "_backward_fn", "_op")

    def __init__(self, value, requires_grad: bool = False, *, _backward=None,
                 _op: str = "leaf"):
        v = _as_matrix(value)
        if not np.all(np.isfinite(v)):
            raise NonFiniteError(f"non-finite values produced by '{_op}'")
        self.value = v
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._backward_fn = _backward
        self._op = _op

    # -- conveniences ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape  # type: ignore[return-value]

    def item(self) -> float:
        if self.value.size != 1:
            raise AutodiffError(f"item() on shape {self.value.shape}")
        return float(self.value[0, 0])

    def accumulate(self, g: np.ndarray) -> None:
        """Add ``g`` to the grad. The first ``g`` is kept as given, possibly a
        view shared with other tensors, so grads are never written in place."""
        if self.grad is None:
            self.grad = g
        else:
            self.grad = self.grad + g

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, op={self._op}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(value) -> Tensor:
    return Tensor(value, requires_grad=True)


def record(op: str, out_value: np.ndarray, parents: Sequence[Tensor],
           backward: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap ``out_value`` as the output of primitive ``op``; put it on the tape
    when one is active and some parent requires grad. ``backward(g)`` must
    accumulate into each parent that requires grad."""
    tape = Tape.current()
    needs = any(p.requires_grad for p in parents)
    if tape is None or not needs:
        return Tensor(out_value, requires_grad=False, _op=op)
    out = Tensor(out_value, requires_grad=True, _backward=backward, _op=op)
    tape.nodes.append(out)
    return out


def _check_broadcast(op: str, a: np.ndarray, b: np.ndarray) -> None:
    if a.shape == b.shape:
        return
    for x, y in ((a, b), (b, a)):
        if x.shape == (1, 1):
            return
        if x.shape == (y.shape[0], 1) or x.shape == (1, y.shape[1]):
            return
    raise AutodiffError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


def _unbroadcast(g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and g.shape[0] > 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] > 1:
        out = out.sum(axis=1, keepdims=True)
    return out


# -- arithmetic primitives -----------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast("add", a.value, b.value)
    out_value = a.value + b.value

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.value.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.value.shape))

    return record("add", out_value, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast("sub", a.value, b.value)
    out_value = a.value - b.value

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.value.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(-g, b.value.shape))

    return record("sub", out_value, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast("mul", a.value, b.value)
    out_value = a.value * b.value

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.value, a.value.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.value, b.value.shape))

    return record("mul", out_value, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast("div", a.value, b.value)
    out_value = a.value / b.value

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g / b.value, a.value.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(-g * a.value / (b.value * b.value), b.value.shape))

    return record("div", out_value, (a, b), backward)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        if a.requires_grad:
            a.accumulate(-g)

    return record("neg", -a.value, (a,), backward)


def scalar_mul(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * c)

    return record("scalar_mul", a.value * c, (a,), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.value.shape[1] != b.value.shape[0]:
        raise AutodiffError(f"matmul: {a.value.shape} @ {b.value.shape}")
    out_value = a.value @ b.value

    def backward(g):
        if a.requires_grad:
            a.accumulate(g @ b.value.T)
        if b.requires_grad:
            b.accumulate(a.value.T @ g)

    return record("matmul", out_value, (a, b), backward)


def affine(x, w, b, activation: str = "none") -> Tensor:
    """``act(x @ w + b)`` as one tape node that keeps only its output.

    The forward runs the float ops of ``act(add(matmul(x, w), b))`` in the
    same order, and the backward those of that chain's three backwards, so
    both agree bit for bit; ``act`` is a key of :data:`ACTIVATIONS`. ``x`` may
    be a constant ``scipy.sparse.linalg.LinearOperator``, such as a product of
    sparse factors, which gets no gradient: the weight gradient is then
    ``x.T @ g`` through the factors."""
    operator = isinstance(x, LinearOperator)
    x = x if operator else as_tensor(x)
    xv = x if operator else x.value
    w, b = as_tensor(w), as_tensor(b)
    if xv.shape[1] != w.value.shape[0]:
        raise AutodiffError(f"affine: {xv.shape} @ {w.value.shape}")
    fwd, slope = ACTIVATIONS[activation]
    z = xv @ w.value
    if b.value.shape not in ((1, z.shape[1]), z.shape):
        raise AutodiffError(f"affine: bias {b.value.shape} for output {z.shape}")
    z += b.value
    out_value = z if fwd is None else fwd(z)

    def backward(g):
        if slope is not None:
            g = g * slope(out_value)
        if not operator and x.requires_grad:
            x.accumulate(g @ w.value.T)
        if w.requires_grad:
            w.accumulate(xv.T @ g)
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.value.shape))

    return record("affine", out_value, (w, b) if operator else (x, w, b), backward)


def aggregate(mat, a) -> Tensor:
    """Left-multiply by a constant (possibly sparse) matrix: out = mat @ a."""
    a = as_tensor(a)
    if mat.shape[1] != a.value.shape[0]:
        raise AutodiffError(f"aggregate: {mat.shape} @ {a.value.shape}")
    out_value = np.asarray(mat @ a.value)

    def backward(g):
        if a.requires_grad:
            a.accumulate(np.asarray(mat.T @ g))

    return record("aggregate", out_value, (a,), backward)


# -- elementwise primitives ------------------------------------------------------

def _unary(op: str, a, fn, dfn_from) -> Tensor:
    a = as_tensor(a)
    out_value = fn(a.value)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * dfn_from(a.value, out_value))

    return record(op, out_value, (a,), backward)


# Activations as (forward, slope), the slope a function of the output alone,
# so a node that keeps only its output can run its backward: tanh' = 1 - o^2
# and relu' = [o > 0]. ``tanh``, ``relu`` and ``affine`` read them here.
ACTIVATIONS = {
    "tanh": (np.tanh, lambda o: 1.0 - o * o),
    "relu": (lambda v: np.maximum(v, 0.0), lambda o: (o > 0).astype(np.float64)),
    "none": (None, None),
}


def _activation(name: str, a) -> Tensor:
    fwd, slope = ACTIVATIONS[name]
    return _unary(name, a, fwd, lambda v, o: slope(o))


def tanh(a) -> Tensor:
    return _activation("tanh", a)


def stable_sigmoid(v: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-v) without overflow: e^v / (1 + e^v) on the negative side."""
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a) -> Tensor:
    return _unary("sigmoid", a, stable_sigmoid, lambda v, o: o * (1.0 - o))


def relu(a) -> Tensor:
    return _activation("relu", a)


def exp(a) -> Tensor:
    return _unary("exp", a, np.exp, lambda v, o: o)


def log(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.value <= 0):
        raise AutodiffError("log: non-positive input (clip first)")
    return _unary("log", a, np.log, lambda v, o: 1.0 / v)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.value < 0):
        raise AutodiffError("sqrt: negative input")
    return _unary("sqrt", a, np.sqrt, lambda v, o: 0.5 / np.maximum(o, MIN_NORM))


def square(a) -> Tensor:
    return _unary("square", a, lambda v: v * v, lambda v, o: 2.0 * v)


def cosh(a) -> Tensor:
    return _unary("cosh", a, np.cosh, lambda v, o: np.sinh(v))


def sinh(a) -> Tensor:
    return _unary("sinh", a, np.sinh, lambda v, o: np.cosh(v))


def acosh_slope(v: np.ndarray) -> np.ndarray:
    """d acosh(max(v, 1)) / dv, zero where the clamp is active."""
    return np.where(v > 1.0, 1.0 / np.sqrt(np.maximum(v * v - 1.0, MIN_NORM)), 0.0)


def acosh_clamped(a) -> Tensor:
    """acosh(max(x, 1)); zero slope inside the clamped region."""
    return _unary("acosh", a, lambda v: np.arccosh(np.maximum(v, 1.0)),
                  lambda v, o: acosh_slope(v))


def artanh_clamped(a) -> Tensor:
    """artanh(clip(x, -(1-1e-12), 1-1e-12)); zero slope in the clamped region."""

    def dfn(v, o):
        inside = np.abs(v) < ARTANH_CLIP
        vc = np.clip(v, -ARTANH_CLIP, ARTANH_CLIP)
        return np.where(inside, 1.0 / (1.0 - vc * vc), 0.0)

    return _unary("artanh", a, lambda v: np.arctanh(np.clip(v, -ARTANH_CLIP, ARTANH_CLIP)), dfn)


def clip(a, lo: float, hi: float) -> Tensor:
    def dfn(v, o):
        return ((v >= lo) & (v <= hi)).astype(np.float64)

    return _unary("clip", a, lambda v: np.clip(v, lo, hi), dfn)


# -- reductions and shape ops -----------------------------------------------------

def row_norm(a, min_norm: float = MIN_NORM) -> Tensor:
    """Euclidean norm of each row as an (n, 1) column, floored at min_norm."""
    a = as_tensor(a)
    raw = np.sqrt(np.sum(a.value * a.value, axis=1, keepdims=True))
    out_value = np.maximum(raw, min_norm)

    def backward(g):
        if a.requires_grad:
            live = (raw > min_norm).astype(np.float64)
            a.accumulate(g * live * a.value / out_value)

    return record("row_norm", out_value, (a,), backward)


def reduce_sum(a, axis: int | None = None) -> Tensor:
    """Sum to (1,1) for axis=None, (1,d) for axis=0, (n,1) for axis=1."""
    a = as_tensor(a)
    out_value = np.sum(a.value, axis=axis, keepdims=True)
    if axis is None:
        out_value = out_value.reshape(1, 1)

    def backward(g):
        if a.requires_grad:
            a.accumulate(np.broadcast_to(g, a.value.shape))

    return record("reduce_sum", out_value, (a,), backward)


def reduce_mean(a, axis: int | None = None) -> Tensor:
    a = as_tensor(a)
    count = a.value.size if axis is None else a.value.shape[axis]
    out_value = np.sum(a.value, axis=axis, keepdims=True) / count
    if axis is None:
        out_value = out_value.reshape(1, 1)

    def backward(g):
        if a.requires_grad:
            a.accumulate(np.broadcast_to(g / count, a.value.shape))

    return record("reduce_mean", out_value, (a,), backward)


def row_dot(a, b) -> Tensor:
    """Rowwise inner product as an (n, 1) column. ``np.einsum`` sums it, as it
    does the pair reductions of ``Manifold.pair_dist``, so the two agree
    bitwise; ``row_dot(v, v)`` is the squared row norm."""
    a, b = as_tensor(a), as_tensor(b)
    if a.value.shape != b.value.shape:
        raise AutodiffError(f"row_dot: incompatible shapes {a.value.shape} and {b.value.shape}")
    out_value = np.einsum("nd,nd->n", a.value, b.value)[:, None]

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * b.value)
        if b.requires_grad:
            b.accumulate(g * a.value)

    return record("row_dot", out_value, (a, b), backward)


def concat_cols(parts: Iterable) -> Tensor:
    ts = [as_tensor(p) for p in parts]
    widths = [t.value.shape[1] for t in ts]
    out_value = np.concatenate([t.value for t in ts], axis=1)

    def backward(g):
        start = 0
        for t, w in zip(ts, widths):
            if t.requires_grad:
                t.accumulate(g[:, start:start + w])
            start += w

    return record("concat_cols", out_value, tuple(ts), backward)


def slice_cols(a, start: int, stop: int) -> Tensor:
    a = as_tensor(a)
    out_value = a.value[:, start:stop].copy()

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.value)
            full[:, start:stop] = g
            a.accumulate(full)

    return record("slice_cols", out_value, (a,), backward)


def gather_rows(a, idx) -> Tensor:
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64).ravel()
    if idx.size and (idx.min() < 0 or idx.max() >= a.value.shape[0]):
        raise AutodiffError("gather_rows: index out of range")
    out_value = a.value[idx]

    def backward(g):
        if a.requires_grad:
            # (rows x len(idx)) selection matrix, one 1 per column: a sparse
            # scatter-add in the same order as np.add.at, without its overhead.
            scatter = sp.csc_matrix((np.ones(idx.size), idx, np.arange(idx.size + 1)),
                                    shape=(a.value.shape[0], idx.size))
            a.accumulate(scatter @ g)

    return record("gather_rows", out_value, (a,), backward)


# -- finite-difference gradient checking ------------------------------------------

def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor], eps: float = 1e-5,
               max_coords: int = 200, rng=None) -> float:
    """Max relative error between tape gradients and central differences.

    Error is |analytic - numeric| / max(|analytic|, |numeric|, 1): relative
    for large gradients, absolute below 1. Parameter blocks larger than
    ``max_coords`` are spot-checked on a random coordinate subset.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise AutodiffError(f"eps {eps} outside [1e-7, 1e-3]")
    rng = np.random.default_rng(0) if rng is None else rng
    for p in params:
        p.grad = None
    with Tape() as tape:
        out = f()
        if out.value.size != 1:
            raise AutodiffError("grad_check needs a scalar objective")
        tape.backward(out)
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.value) for p in params]

    worst = 0.0
    for p, ga in zip(params, analytic):
        n = p.value.size
        flat_idx = np.arange(n) if n <= max_coords else rng.choice(n, size=max_coords, replace=False)
        for fi in flat_idx:
            i, j = divmod(int(fi), p.value.shape[1])
            orig = p.value[i, j]
            p.value[i, j] = orig + eps
            f_plus = f().item()
            p.value[i, j] = orig - eps
            f_minus = f().item()
            p.value[i, j] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(ga[i, j] - numeric) / max(abs(ga[i, j]), abs(numeric), 1.0)
            worst = max(worst, err)
    return worst
