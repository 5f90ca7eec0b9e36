"""Dense tensors with reverse-mode automatic differentiation.

Everything the transformer needs and nothing more: matmul, broadcast
elementwise arithmetic, softmax, layer norm, embedding lookup, GELU,
dropout and cross entropy, all backed by numpy arrays. The graph is a
tape of parent links built during the forward pass; `backward()` walks
it once in reverse topological order.

Training runs in float32. Gradient-check tests switch the whole stack
to float64 with `use_dtype(np.float64)` so central finite differences
are trustworthy.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
from scipy.special import erf

from .errors import ConfigError, NumericError

_DEFAULT_DTYPE = np.float32
_GRAD_ENABLED = True

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
LN_EPS = 1e-5


def default_dtype():
    return _DEFAULT_DTYPE


def set_default_dtype(dtype) -> None:
    global _DEFAULT_DTYPE
    if dtype not in (np.float32, np.float64):
        raise ValueError("supported dtypes: float32, float64")
    _DEFAULT_DTYPE = dtype


@contextmanager
def use_dtype(dtype):
    """Temporarily switch the default dtype (64-bit verification mode)."""
    prev = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(prev)


@contextmanager
def no_grad():
    """Disable tape construction inside the block (evaluation paths)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, np.ndarray) and dtype is None and data.dtype in (np.float32, np.float64):
            self.data = data
        else:
            self.data = np.asarray(data, dtype=dtype or _DEFAULT_DTYPE)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    # -- graph plumbing ------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # One pass that owns a C-ordered copy in the tensor's dtype.
            # Same bits as zeros + g: -0.0 + 0.0 is +0.0, and the cast is
            # the one `+=` applies. C order keeps later reductions over
            # this gradient in the order they would have for zeros + g.
            self.grad = np.add(g, 0.0, out=np.empty(self.data.shape, self.data.dtype))
        else:
            self.grad += g

    def backward(self) -> None:
        """Populate .grad on every reachable requires_grad tensor."""
        if self.data.ndim != 0 and self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        order = topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other, self.dtype))

    __radd__ = __add__

    def __sub__(self, other):
        if np.isscalar(other):
            return add(self, -other)
        return add(self, mul(_as_tensor(other, self.dtype), -1.0))

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self.dtype))

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if np.isscalar(x):
        return x  # handled inside the scalar fast paths
    return Tensor(np.asarray(x, dtype=dtype))


def topo_order(root: Tensor) -> list[Tensor]:
    """Iterative post-order over the tape; each node appears exactly once."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _make(data: np.ndarray, parents: tuple, backward) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- arithmetic ----------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        data = a.data + b

        def bw(g):
            if a.requires_grad:
                a._accumulate(g)

        return _make(data, (a,), bw)
    data = a.data + b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(data, (a, b), bw)


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        data = a.data * b

        def bw(g):
            if a.requires_grad:
                a._accumulate(g * b)

        return _make(data, (a,), bw)
    data = a.data * b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    data = np.matmul(a.data, b.data)

    def bw(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accumulate(_unbroadcast(gb, b.data.shape))

    return _make(data, (a, b), bw)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    data = a.data.reshape(shape)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g.reshape(old))

    return _make(data, (a,), bw)


def transpose(a: Tensor, axes) -> Tensor:
    inv = np.argsort(axes)
    data = a.data.transpose(axes)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g.transpose(inv))

    return _make(data, (a,), bw)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return _make(data, tuple(tensors), bw)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())
        else:
            if not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return _make(data, (a,), bw)


# -- lookup / selection ---------------------------------------------------


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Rows `ids` (any shape) of a 2-D tensor: an embedding lookup, or a
    gather of selected rows of flattened states."""
    ids = np.asarray(ids)
    data = weight.data[ids]

    def bw(g):
        if weight.requires_grad:
            if weight.grad is None:
                weight.grad = np.zeros_like(weight.data)
            np.add.at(weight.grad, ids.reshape(-1), g.reshape(-1, weight.data.shape[-1]))

    return _make(data, (weight,), bw)


# -- nonlinearities --------------------------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    if not np.all(np.isfinite(a.data)):
        raise NumericError("softmax input contains non-finite values")
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    data = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        if a.requires_grad:
            gy = g * data
            a._accumulate(gy - data * gy.sum(axis=axis, keepdims=True))

    return _make(data, (a,), bw)


def gelu(a: Tensor) -> Tensor:
    x = a.data
    phi = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    data = x * phi

    def bw(g):
        if a.requires_grad:
            pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
            a._accumulate(g * (phi + x * pdf))

    return _make(data, (a,), bw)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    ivar = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * ivar
    data = gain.data * xhat + bias.data

    def bw(g):
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * xhat, gain.data.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.data.shape))
        if a.requires_grad:
            dxhat = g * gain.data
            dx = ivar * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            )
            a._accumulate(dx)

    return _make(data, (a, gain, bias), bw)


def check_dropout_rate(rate: float) -> None:
    """Raise ConfigError unless 0 <= rate < 1 (NaN included)."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate!r}")


def dropout(a: Tensor, rate: float, rng, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or rate == 0.

    `rng` is read only when training, so evaluation may pass None.

    `rate` must lie in [0, 1); anything else, NaN included, raises
    ConfigError. An element is kept when its raw draw u = rng.u32(...)
    satisfies u >= ceil(rate * 2**32 - 0.5). This is the same test as
    rng.uniform(...) >= rate, bit for bit: uniform is (u + 0.5) * 2**-32,
    the scaling by 2**32 is exact in float64, and so is the subtraction
    of 0.5 once rate * 2**32 >= 0.5 (below that both tests keep every
    element). Kept elements are scaled by 1 / (1 - rate) in the tensor's
    dtype; the forward and backward passes share one mask holding 0 or
    that scale.
    """
    check_dropout_rate(rate)
    if not training or rate == 0.0:
        return a
    threshold = math.ceil(rate * 2.0**32 - 0.5)
    dtype = a.data.dtype
    mask = np.where(rng.u32(a.data.size).reshape(a.data.shape) >= threshold,
                    dtype.type(1.0 / (1.0 - rate)), dtype.type(0.0))
    data = a.data * mask

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * mask)

    return _make(data, (a,), bw)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-probability of the target class per row."""
    targets = np.asarray(targets, dtype=np.int64)
    n, v = logits.data.shape
    if targets.ndim != 1 or targets.shape[0] != n:
        raise ValueError("targets must be a vector matching the rows of logits")
    if np.any(targets < 0) or np.any(targets >= v):
        raise IndexError("target index out of range")
    x = logits.data
    m = x.max(axis=1, keepdims=True)
    shifted = x - m
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    rows = np.arange(n)
    data = np.asarray(-logp[rows, targets].mean(), dtype=x.dtype)

    def bw(g):
        if logits.requires_grad:
            p = np.exp(logp)
            p[rows, targets] -= 1.0
            logits._accumulate(g * p / n)

    return _make(data, (logits,), bw)


# -- verification -----------------------------------------------------------


def gradcheck(build_loss, tensors: list[Tensor], n_samples: int, rng, h: float = 1e-3):
    """Compare tape gradients against central finite differences.

    build_loss() must rebuild the forward pass from the current tensor
    values. Returns the maximum relative error
    |g_ad - g_fd| / max(1e-8, |g_ad| + |g_fd|) over the sampled
    coordinates, spread across all given tensors.
    """
    for t in tensors:
        t.grad = None
    loss = build_loss()
    loss.backward()
    grads = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in tensors]

    worst = 0.0
    per_tensor = max(1, n_samples // len(tensors))
    for t, g_ad in zip(tensors, grads):
        flat = t.data.reshape(-1)
        for _ in range(per_tensor):
            i = rng.randint(flat.size)
            orig = flat[i]
            with no_grad():
                flat[i] = orig + h
                up = float(build_loss().data)
                flat[i] = orig - h
                down = float(build_loss().data)
            flat[i] = orig
            g_fd = (up - down) / (2.0 * h)
            g = float(g_ad.reshape(-1)[i])
            err = abs(g - g_fd) / max(1e-8, abs(g) + abs(g_fd))
            worst = max(worst, err)
    return worst
