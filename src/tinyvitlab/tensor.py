"""Dense tensors with tape-based reverse-mode automatic differentiation.

The op set is closed over what the model needs: matmul (with stacked batch
dims), elementwise arithmetic, softmax, layer norm, gelu, soft-target
cross entropy, and the shape plumbing (reshape / transpose / concat / narrow
/ broadcast). Training runs in float32; gradient checking runs the same code
in float64.

Determinism: all reductions go through numpy with a fixed evaluation order,
so repeated runs on the same inputs produce bitwise-identical results.
"""

from __future__ import annotations

import threading

import numpy as np
from scipy.special import erf

F32 = np.float32
F64 = np.float64

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class GraphError(RuntimeError):
    """A tensor was not produced under the tape being replayed."""


class NumericsError(FloatingPointError):
    """A non-finite value was produced while debug checking is on."""


_check_numerics = False


def set_debug_checks(enabled: bool) -> None:
    """Toggle NaN/Inf detection on every op output (off for benchmarks)."""
    global _check_numerics
    _check_numerics = bool(enabled)


class Tensor:
    """Dense n-dimensional array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (F32, F64):
            arr = arr.astype(F32)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Nodes are appended in execution order (topological by construction);
    ``backward`` replays them once, in reverse. A Tape is confined to one
    worker thread. Usable as a context manager::

        with Tape() as tape:
            loss = ...
        backward(loss, tape)
    """

    def __init__(self):
        self._nodes: list = []
        self._produced: set[int] = set()

    def __len__(self) -> int:
        return len(self._nodes)

    def __enter__(self) -> "Tape":
        _push_tape(self)
        return self

    def __exit__(self, *exc):
        _pop_tape(self)
        return False


_tls = threading.local()


def _push_tape(tape: Tape) -> None:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    stack.append(tape)


def _pop_tape(tape: Tape) -> None:
    _tls.stack.pop()


def _active_tape() -> Tape | None:
    stack = getattr(_tls, "stack", None)
    return stack[-1] if stack else None


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _make(data: np.ndarray, inputs: tuple[Tensor, ...], vjp) -> Tensor:
    """Wrap an op result, recording a backward node if a tape is active.

    `vjp` maps the output cotangent to a tuple of per-input cotangents
    (None entries are skipped).
    """
    if _check_numerics and not np.all(np.isfinite(data)):
        raise NumericsError("non-finite value produced")
    tape = _active_tape()
    rec = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=rec)
    if rec:
        def node():
            g = out.grad
            if g is None:
                return
            for t, gt in zip(inputs, vjp(g)):
                if t.requires_grad and gt is not None:
                    if t.grad is None:
                        t.grad = np.zeros_like(t.data)
                    t.grad += gt
        tape._nodes.append(node)
        tape._produced.add(id(out))
    return out


# ---------------------------------------------------------------------------
# arithmetic

def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    return _make(data, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data
    ad, bd = a.data, b.data
    return _make(data, (a, b), lambda g: (_unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape)))


def scale(a: Tensor, c: float) -> Tensor:
    c = a.data.dtype.type(c)
    return _make(a.data * c, (a,), lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; stacked leading dims broadcast as in numpy."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    data = np.matmul(a.data, b.data)
    ad, bd = a.data, b.data

    def vjp(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), b.shape)
        return ga, gb

    return _make(data, (a, b), vjp)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).astype(a.data.dtype, copy=False),)

    return _make(data, (a,), vjp)


# ---------------------------------------------------------------------------
# shape plumbing

def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _make(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]
    return _make(data, tuple(tensors), lambda g: tuple(np.split(g, splits, axis=axis)))


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def vjp(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return _make(a.data[idx].copy(), (a,), vjp)


def broadcast_to(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = np.broadcast_to(a.data, shape).copy()
    return _make(data, (a,), lambda g: (_unbroadcast(g, a.shape),))


# ---------------------------------------------------------------------------
# nonlinearities

def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-CDF gelu: x * Phi(x)."""
    x = a.data
    phi = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    data = (x * phi).astype(x.dtype, copy=False)

    def vjp(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        return ((g * (phi + x * pdf)).astype(x.dtype, copy=False),)

    return _make(data, (a,), vjp)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    if not (-x.ndim <= axis < x.ndim):
        raise ShapeError(f"softmax axis {axis} out of bounds for shape {a.shape}")
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _make(y.astype(x.dtype, copy=False), (a,), vjp)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize over the last axis (biased variance), then affine."""
    if x.shape[-1] != gamma.shape[-1] or x.shape[-1] != beta.shape[-1]:
        raise ShapeError(f"layer_norm channel mismatch: {x.shape} vs {gamma.shape}/{beta.shape}")
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    var = ((xd - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mu) * inv
    data = (xhat * gamma.data + beta.data).astype(xd.dtype, copy=False)

    def vjp(g):
        dgamma = _unbroadcast(g * xhat, gamma.shape)
        dbeta = _unbroadcast(g, beta.shape)
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = (inv * (dxhat - m1 - xhat * m2)).astype(xd.dtype, copy=False)
        return dx, dgamma, dbeta

    return _make(data, (x, gamma, beta), vjp)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean over the batch of -sum(targets * log_softmax(logits)).

    `targets` rows must be probability distributions (soft labels from
    MixUp / CutMix / smoothing are the normal case).
    """
    t = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    if logits.ndim != 2 or t.shape != logits.shape:
        raise ShapeError(f"cross_entropy expects matching B x C, got {logits.shape} and {t.shape}")
    sums = t.sum(axis=-1)
    bad = np.abs(sums - 1.0) > 1e-5
    if bad.any():
        raise ValueError(f"cross_entropy target row {int(np.argmax(bad))} sums to {sums[bad][0]!r}, not 1")
    x = logits.data
    shifted = x - x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - lse
    n = x.shape[0]
    data = np.asarray(-(t * logp).sum() / n, dtype=x.dtype)

    def vjp(g):
        p = np.exp(logp)
        return ((p - t) * (g / n),)

    return _make(data, (logits,), vjp)


# ---------------------------------------------------------------------------
# backward and gradient checking

def backward(loss: Tensor, tape: Tape) -> None:
    """Reverse-accumulate gradients of a scalar loss through the tape."""
    if loss.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if id(loss) not in tape._produced:
        raise GraphError("loss tensor was not produced under this tape")
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape._nodes):
        node()


def grad_check(f, params: list[Tensor], h: float = 1e-5,
               max_coords: int | None = None, rng=None) -> float:
    """Max relative error between tape gradients and central differences.

    `f` must be a deterministic closure over `params` returning a scalar
    Tensor; parameters should be float64. With `max_coords`, a random subset
    of coordinates per parameter is probed (for large models).
    """
    if h <= 0:
        raise ValueError("grad_check h must be positive")
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = f()
        if loss.size != 1:
            raise ValueError("grad_check requires a scalar-valued f")
        backward(loss, tape)
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]
    for p in params:
        p.zero_grad()
    if rng is None:
        rng = np.random.default_rng(0)

    def eval_f() -> float:
        out = f()
        return float(out.data.reshape(-1)[0])

    worst = 0.0
    for p, ga in zip(params, analytic):
        n = p.size
        if max_coords is not None and n > max_coords:
            coords = rng.choice(n, size=max_coords, replace=False)
        else:
            coords = range(n)
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            fp = eval_f()
            flat[i] = orig - h
            fm = eval_f()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * h)
            a = float(gflat[i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst
