"""Dense tensors with reverse-mode automatic differentiation.

The ops the model uses and nothing more, on numpy arrays: broadcasting
`add` (`+`) and `mul` (`*`), `linear`, `transpose`, `concat`,
`embedding`, `attention`, `gelu`, `layer_norm`, `dropout` and
`cross_entropy`. The graph is a tape of parent links built during the
forward pass; `backward()` walks it once in reverse topological order.

Gradient handover: an op that builds a gradient as a fresh array and
keeps no reference to it passes it with `_accumulate(g, owned=True)`
(`linear`, `gelu`, `attention`'s dq, dk and dv, `layer_norm`'s dx and
`cross_entropy`). A non-leaf receiving its first gradient keeps such an
array, if C-contiguous and of its dtype and shape, instead of copying
it; every other first gradient, and every parameter's, is a copy.

`attention` is multi-head attention as one tape node: the heads are
views, the scores are scaled by 1/√(d / n_heads), and a block of query
rows may share one key row (a sentence's beams). Its hand-written
backward runs the arithmetic of the unfused ops in their order, so its
outputs and gradients keep their bits. `gelu` is x·Φ(x) with Φ from the
Abramowitz & Stegun 7.1.26 erf (|error| ≤ 1.5e-7), its argument clamped
to |x|/√2 ≤ 9 so that exp(−z²) stays a normal float32; in float32 it is
within 5e-7 of the exact GELU, and its gradient is the derivative of
the function computed.

Training runs in float32. Gradient-check tests switch the whole stack
to float64 with `use_dtype(np.float64)` so central finite differences
are trustworthy.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, NumericError

_DEFAULT_DTYPE = np.float32
_GRAD_ENABLED = True

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

    def _accumulate(self, g: np.ndarray, owned: bool = False) -> None:
        """Add g to .grad. The first gradient of a leaf (a parameter) is
        a C-ordered copy in the tensor's dtype, with the bits of zeros + g:
        -0.0 + 0.0 is +0.0, and the cast is the one `+=` applies. C order
        keeps later reductions over the gradient in the order they would
        have for zeros + g.

        Handover: an op passes `owned=True` for an array it has just built
        and keeps no reference to. A non-leaf keeps such a first gradient
        as it is when it is a C-contiguous, non-0-d array of the node's
        dtype and shape; anything else is copied as for a leaf. Kept or
        copied, the values are equal: a kept -0.0 stays -0.0, but the
        backward only adds and multiplies, so no nonzero value downstream
        changes, and a parameter's first gradient still turns it into +0.0.
        """
        if self.grad is not None:
            self.grad += g
        elif (owned and self._parents and g.ndim and g.flags.c_contiguous
              and g.dtype == self.data.dtype and g.shape == self.data.shape):
            self.grad = g
        else:
            self.grad = np.add(g, 0.0, out=np.empty(self.data.shape, self.data.dtype))

    def backward(self) -> None:
        """Populate .grad on every reachable requires_grad leaf; an op's
        gradient is dropped once passed on to its parents."""
        if self.data.ndim != 0 and self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        order = topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None  # complete: every consumer of node ran before it

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other, self.dtype))

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self.dtype))


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
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


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x W + b of (..., d) rows by a (d, f) weight and an (f,) bias, as
    one tape node: one 2-D GEMM over all rows, the bias added in place.

    The arithmetic of reshape → matmul → add → reshape in that order, so
    values and gradients keep their bits: dx = g Wᵀ, dW = x2ᵀ g over the
    (rows, d) view x2 of x, and db the column sum of g. All three are
    handed over.
    """
    f = w.data.shape[1]
    x2 = x.data.reshape(-1, x.data.shape[-1])
    y = np.matmul(x2, w.data)
    y += b.data

    def bw(g):
        g2 = g.reshape(-1, f)
        if b.requires_grad:
            b._accumulate(g2.sum(axis=0), owned=True)
        if w.requires_grad:
            w._accumulate(np.matmul(x2.T, g2), owned=True)
        if x.requires_grad:
            x._accumulate(np.matmul(g2, w.data.T).reshape(x.data.shape), owned=True)

    return _make(y.reshape(x.data.shape[:-1] + (f,)), (x, w, b), bw)


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


# -- lookup / selection ---------------------------------------------------


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Rows `ids` (any shape) of a (..., d) tensor, read as (rows, d) over
    its flattened leading axes: an embedding lookup in a 2-D table, or a
    gather of selected positions of (B, T, d) states at ids b*T + t."""
    ids = np.asarray(ids)
    d = weight.data.shape[-1]
    data = weight.data.reshape(-1, d)[ids]

    def bw(g):
        if weight.requires_grad:
            # one add.at over elements id * d + j of the C-ordered flat
            # gradient: per element, the additions of a row-wise add.at
            # in their order
            if weight.grad is None:
                weight.grad = np.zeros(weight.data.shape, weight.data.dtype)
            at = (ids.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
            np.add.at(weight.grad.reshape(-1), at, g.reshape(-1))

    return _make(data, (weight,), bw)


# -- nonlinearities --------------------------------------------------------

# erfc(z) ~ t P(t) exp(-z^2), t = 1 / (1 + p z), for z >= 0 (Abramowitz &
# Stegun 7.1.26); the coefficients here are halved, so that t P(t) exp(-z^2)
# is 1 - Phi(|x|) directly.
_ERFC_P = 0.3275911
_ERFC_A = (0.5 * 0.254829592, 0.5 * -0.284496736, 0.5 * 1.421413741,
           0.5 * -1.453152027, 0.5 * 1.061405429)
# (t P)'(t) * p / sqrt(2), highest power first: the slope term of Phi'
_ERFC_DA = tuple(k * a * _ERFC_P / math.sqrt(2.0) for k, a in enumerate(_ERFC_A, 1))[::-1]
_ERF_Z_MAX = 9.0  # exp(-81) ~ 6.6e-36 is still a normal float32
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_GELU_BLOCK = 65_536  # elements per pass, so that a block's passes stay in cache


def gelu(a: Tensor) -> Tensor:
    """x Phi(x), computed in place over fixed blocks.

    Per block: z = min(|x| / sqrt 2, 9), t = 1 / (1 + p z), the tail
    c = t P(t) exp(-z^2) = 1 - Phi(|x|), Phi = 0.5 + copysign(0.5 - c, x)
    and y = x Phi. When the tape records, the same loop also writes
    dy/dx = Phi + x Phi' of this Phi, and the backward is one multiply.
    """
    x = a.data
    record = _GRAD_ENABLED and a.requires_grad
    y = np.empty(x.shape, x.dtype)
    dy = np.empty(x.shape, x.dtype) if record else None
    xf, yf, n = x.reshape(-1), y.reshape(-1), x.size
    z, t, e, c = (np.empty(min(n, _GELU_BLOCK), x.dtype) for _ in range(4))
    for lo in range(0, n, _GELU_BLOCK):
        hi = min(lo + _GELU_BLOCK, n)
        xb, yb, m = xf[lo:hi], yf[lo:hi], hi - lo
        zb, tb, eb, cb = z[:m], t[:m], e[:m], c[:m]
        np.abs(xb, out=zb)
        zb *= _INV_SQRT2
        np.minimum(zb, _ERF_Z_MAX, out=zb)
        np.multiply(zb, _ERFC_P, out=tb)
        tb += 1.0
        np.reciprocal(tb, out=tb)
        np.square(zb, out=eb)
        np.negative(eb, out=eb)
        np.exp(eb, out=eb)
        np.multiply(tb, _ERFC_A[-1], out=cb)  # Horner: cb = t P(t)
        for coef in _ERFC_A[-2::-1]:
            cb += coef
            cb *= tb
        if record:
            # Phi'(x) = exp(-z^2) (t^2 (tP)'(t) p / sqrt 2 + sqrt 2 z t P(t))
            db = dy.reshape(-1)[lo:hi]
            np.multiply(tb, _ERFC_DA[0], out=db)
            for coef in _ERFC_DA[1:]:
                db += coef
                db *= tb
            db *= tb
            zb *= cb
            zb *= math.sqrt(2.0)
            db += zb
            db *= eb
            db *= xb
        cb *= eb
        np.subtract(0.5, cb, out=yb)
        np.copysign(yb, xb, out=yb)
        yb += 0.5
        if record:
            db += yb
        yb *= xb

    def bw(g):
        a._accumulate(g * dy, owned=True)

    return _make(y, (a,), bw)


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
            a._accumulate(dx, owned=True)

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
    mask = _dropout_mask(a.data, rate, rng)
    data = a.data * mask

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * mask)

    return _make(data, (a,), bw)


def _dropout_mask(x: np.ndarray, rate: float, rng) -> np.ndarray:
    """1 / (1 - rate) where x's element is kept, 0 where it is dropped:
    the keep test times the scale, which costs a third of np.where."""
    keep = rng.u32(x.size).reshape(x.shape) >= math.ceil(rate * 2.0**32 - 0.5)
    return np.multiply(keep, x.dtype.type(1.0 / (1.0 - rate)), dtype=x.dtype)


def attention(q: Tensor, k: Tensor, v: Tensor, add_mask: np.ndarray | None,
              n_heads: int, rate: float, rng, training: bool) -> tuple[Tensor, np.ndarray]:
    """Multi-head attention of (rows, positions, d) projections as one
    tape node. Returns (ctx, probs): ctx = dropout(probs) @ v with the
    heads merged to q's shape, and probs, the (key rows, n_heads,
    queries, keys) weights before dropout, as a plain array. q may have
    m times k's rows: query rows r*m .. r*m+m-1 then attend to key row r.

    probs = softmax(q kᵀ / √(d / n_heads) + add_mask) over the keys of
    each head, with dropout as in `dropout`. The arithmetic is that of
    matmul, scalar mul, add, softmax, dropout and matmul nodes in their
    order, so values and gradients have the bits of that composition.
    Raises NumericError when a score is not finite.
    """
    check_dropout_rate(rate)
    rows, _, d = k.data.shape
    hd = d // n_heads
    scale = 1.0 / math.sqrt(hd)

    def split(x):  # (.., d) -> (rows, n_heads, positions, hd), a view
        return x.reshape(rows, -1, n_heads, hd).transpose(0, 2, 1, 3)

    def merge(x, shape):  # the inverse of split
        return x.transpose(0, 2, 1, 3).reshape(shape)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    s = np.matmul(qh, np.swapaxes(kh, -1, -2))
    s *= scale
    if add_mask is not None:
        s += add_mask
    if not np.all(np.isfinite(s)):
        raise NumericError("attention scores contain non-finite values")
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    probs = s
    mask = _dropout_mask(probs, rate, rng) if training and rate != 0.0 else None
    kept = probs if mask is None else probs * mask
    ctx = merge(np.matmul(kept, vh), q.data.shape)

    def bw(g):
        gh = split(g)
        if v.requires_grad:
            v._accumulate(merge(np.matmul(np.swapaxes(kept, -1, -2), gh), v.data.shape),
                          owned=True)
        if not (q.requires_grad or k.requires_grad):
            return
        gs = np.matmul(gh, np.swapaxes(vh, -1, -2))
        if mask is not None:
            gs *= mask
        gs *= probs  # softmax backward: p * (g - sum(p * g))
        gs -= probs * gs.sum(axis=-1, keepdims=True)
        gs *= scale
        if q.requires_grad:
            q._accumulate(merge(np.matmul(gs, kh), q.data.shape), owned=True)
        if k.requires_grad:
            k._accumulate(merge(np.swapaxes(np.matmul(np.swapaxes(qh, -1, -2), gs), -1, -2),
                                k.data.shape), owned=True)

    return _make(ctx, (q, k, v), bw), probs


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
            logits._accumulate(g * p / n, owned=True)

    return _make(data, (logits,), bw)
