"""Dense tensors with reverse-mode automatic differentiation.

The ops the model uses and nothing more, on numpy arrays: broadcasting
`add` (`+`) and `mul` (`*`), `linear`, `transpose`, `merge_rows`,
`to_grid`, `embedding`, `attention`, `gelu`, `layer_norm`, `dropout`
and `cross_entropy`. The graph is a tape of parent links built
during the forward pass; `backward()` walks it once in reverse
topological order. `dropout` and `attention` drop out by `drop`: a
training step's (rate, stream) pair, or None for no dropout and no draw.

Packed rows: the model's hidden states are (N, d) arrays holding only
the real rows of a padded (B, T) grid of positions, in row-major order,
and a `Grid`, the one record of padding, says which cells they are.
Row-wise ops (`linear`, `layer_norm`, `gelu`, `add`) therefore never see
padding. Only `attention` works on the grid: inside its one tape node it
scatters its packed inputs into zero-padded (B, T, d) arrays, masks the
padded keys, runs the padded arithmetic, and returns (and takes
gradients for) the real query rows.
`dropout` given a grid draws its mask over the grid's shape and keeps
the real rows, so a step draws what it would draw on the padded grid,
and every real element gets the keep decision it would get there. A
grid without padding is dense: its packed array is a reshape of the
grid-shaped one, so no scatter, gather or zero-fill happens.

Gradient handover: an op that builds a gradient as a fresh array and
keeps no reference to it passes it with `_accumulate(g, owned=True)`
(`linear`, `gelu`, `merge_rows`, `to_grid`, `attention`'s dq, dk and
dv, `layer_norm`'s dx and `cross_entropy`). A non-leaf receiving its
first gradient keeps such an array, if C-contiguous and of its dtype
and shape, instead of copying it; every other first gradient, and every
parameter's, is a copy.

Parameter gradients are written on a worker thread. Only the optimizer
reads a leaf's (a parameter's) .grad, so `backward()` hands every write
to a leaf's .grad to one worker thread and walks on with the gradients
of op outputs. The worker computes `linear`'s dW and bias sum,
`layer_norm`'s gain and bias sums, `embedding`'s scatter-add and each
`_accumulate` into a leaf; a linear whose weight is an op output, such
as the tied head's transpose, keeps its dW inline. The invariants:
- leaf writes run on the worker first in, first out, in tape order, so
  each leaf receives the arrays of the one-thread walk in its order and
  every gradient keeps its bits;
- the main thread allocates a leaf's .grad when it hands over the
  leaf's first write, so the buffers come from its malloc arena, and the
  worker writes into them; besides, the worker reads only forward data,
  gradients of nodes whose backward has run and arrays built for it,
  which nothing changes again;
- `backward()` returns only once the worker has drained, re-raising the
  first exception a leaf write raised;
- the worker is made on the first backward (or `split_map`) of a
  process and forgotten in a forked child, whose first one makes its own.
Outside a backward (an op's `_backward` called directly) a leaf write
runs inline.

The worker also runs decode chunks: `split_map` hands it the
odd-numbered items of a list while the calling thread runs the
even-numbered ones (`seq2seq.translate`). Whether ops record the tape is
a per-thread flag (`no_grad`), so two threads that enter and leave
`no_grad` never switch recording off or on for each other. One backward
or `split_map` runs at a time.

`attention` is multi-head attention as one tape node: the heads are
views, the scores are scaled by 1/√(d / n_heads), and a block of query
rows may share one key row (a sentence's beams). Its hand-written
backward runs the arithmetic of the unfused ops in their order, so its
outputs and gradients keep their bits. `gelu` is x·Φ(x) with Φ from the
Abramowitz & Stegun 7.1.26 erf (|error| ≤ 1.5e-7), its argument clamped
to |x|/√2 ≤ 9 so that exp(−z²) stays a normal float32; in float32 it is
within 5e-7 of the exact GELU, and its gradient is the derivative of
the function computed.

Every op computes in the dtype of its inputs. The model's parameters
are float32, so training runs in float32; gradient-check tests cast the
parameters to float64 so that central finite differences are
trustworthy.
"""

from __future__ import annotations

import ctypes
import math
import os
import queue
import threading
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, NumericError


class _GradMode(threading.local):
    """Whether ops record the tape, per thread."""

    enabled = True


_grad_mode = _GradMode()

LN_EPS = 1e-5
NEG_INF = -1.0e9  # a masked attention score; exp() underflows to exactly 0


@contextmanager
def no_grad():
    """Disable tape construction inside the block (evaluation paths), on
    the calling thread only: another thread records as it did."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        """A float32 or float64 array or numpy scalar (a sum, made a 0-d
        array) keeps its dtype; anything else becomes float32."""
        if isinstance(data, np.generic):
            data = np.asarray(data)
        if not (isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64)):
            data = np.asarray(data, dtype=np.float32)
        self.data = data
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

        Every addition but a kept one goes through `_write_grad`.
        """
        if (owned and self._parents and self.grad is None and g.ndim and g.flags.c_contiguous
                and g.dtype == self.data.dtype and g.shape == self.data.shape):
            self.grad = g
        else:
            self._write_grad(_add, g)

    def _add_grad(self, fn, *args) -> None:
        """Add fn(*args) to .grad, where fn takes `out=`: for a leaf via
        `_write_grad`, a first result computed straight into .grad; for
        an op output inline, handed over to `_accumulate`."""
        if self._parents:
            self._accumulate(fn(*args), owned=True)
        else:
            self._write_grad(_add_result, fn, *args)

    def _write_grad(self, write, *args) -> None:
        """write(.grad, first, *args): on the worker for a leaf during
        `backward()`, else inline. On the first write .grad is allocated
        here, on the calling thread, uninitialised, and `first` is True."""
        first = self.grad is None
        if first:
            self.grad = np.empty(self.data.shape, self.data.dtype)
        if self._parents or _running is None:
            write(self.grad, first, *args)
        else:
            _running.submit(write, self.grad, first, *args)

    def backward(self) -> None:
        """Populate .grad on every reachable requires_grad leaf; an op's
        gradient is dropped once passed on to its parents. Returns once
        the worker has run every leaf write, and raises the first
        exception one raised."""
        if self.data.ndim != 0 and self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        global _running
        order = topo_order(self)
        self.grad = np.ones_like(self.data)
        _running = worker = _the_worker()
        try:
            for node in reversed(order):
                if node._backward is not None and node.grad is not None:
                    node._backward(node.grad)
                    node.grad = None  # complete: every consumer of node ran before it
        finally:
            _running = None
            error = worker.drain()
        if error is not None:
            raise error

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other, self.dtype))

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self.dtype))


def _add(buf, first, g) -> None:
    """buf += g; the first write is g + 0.0, the bits of zeros + g."""
    if first:
        np.add(g, 0.0, out=buf)
    else:
        buf += g


def _add_result(buf, first, fn, *args) -> None:
    """buf += fn(*args); the first result is computed into buf, and +0.0
    then gives the bits of zeros + fn(*args)."""
    if first:
        fn(*args, out=buf)
        buf += 0.0
    else:
        buf += fn(*args)


class _Worker:
    """A thread that runs leaf writes first in, first out."""

    def __init__(self):
        self._tasks = queue.SimpleQueue()
        self._error = None
        # a daemon: between backwards the thread is idle and holds nothing
        # to finish, so it must not keep the interpreter from exiting
        threading.Thread(target=self._run, name="vtlm-grad", daemon=True).start()

    def _run(self):
        while True:
            write, args = self._tasks.get()
            try:
                write(*args)
            except Exception as e:  # re-raised by the backward that drains
                if self._error is None:
                    self._error = e

    def submit(self, write, *args) -> None:
        self._tasks.put((write, args))

    def drain(self) -> Exception | None:
        """Wait for every write handed over; the first one's exception."""
        done = threading.Lock()
        done.acquire()
        self._tasks.put((done.release, ()))
        done.acquire()
        error, self._error = self._error, None
        return error


_worker: _Worker | None = None  # made by the first backward or split_map of a process
_running: _Worker | None = None  # the worker while a backward runs


def _the_worker() -> _Worker:
    global _worker
    if _worker is None:
        _worker = _Worker()
    return _worker


def split_map(fn, items: list) -> list:
    """[fn(item) for item in items], on two threads: the calling thread
    runs the even-numbered items and the worker the odd-numbered ones,
    each thread in order. Returns once the worker has drained, raising
    or not; when items fail, raises the exception of the lowest-numbered
    one, as the loop would.

    First the free memory of malloc's heaps goes back to the system
    (glibc's malloc_trim, where libc has it): the worker's malloc arena
    grows by one item's working set, which would otherwise come on top
    of memory the process holds but does not use, such as what training
    freed. `fn` must not run a backward: the worker would wait on
    itself."""
    if len(items) < 2:
        return [fn(item) for item in items]
    out = [None] * len(items)
    failed: list[tuple[int, Exception]] = []  # (item number, exception)

    def run(i):
        try:
            out[i] = fn(items[i])
        except Exception as e:  # raised below, once both threads are done
            failed.append((i, e))

    if _malloc_trim is not None:
        _malloc_trim(0)
    worker = _the_worker()
    for i in range(1, len(items), 2):
        worker.submit(run, i)
    try:
        for i in range(0, len(items), 2):
            run(i)
    finally:
        worker.drain()
    if failed:
        raise min(failed)[1]
    return out


try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim  # glibc's
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):  # a libc without it
    _malloc_trim = None


def _forget_worker() -> None:
    """In a forked child: the parent's worker thread is not there, so a
    write queued for it would never run and the first drain would hang."""
    global _worker
    _worker = None


os.register_at_fork(after_in_child=_forget_worker)


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


class Grid:
    """The real rows of a (B, T) grid of positions.

    `pad` is True at padding. A packed (N, ...) array holds one row per
    real cell, in row-major order; `cells` are their flat indices
    b*T + t, or None when every cell is a row: a packed array is then a
    reshape of the grid-shaped one, and `scatter` and `gather` are
    reshape views. `Grid(pad)` is that every-cell layout of any grid.
    """

    __slots__ = ("pad", "cells", "shape")

    def __init__(self, pad: np.ndarray, cells: np.ndarray | None = None):
        self.pad, self.cells, self.shape = pad, cells, pad.shape

    @classmethod
    def of(cls, pad: np.ndarray) -> "Grid":
        """The grid of a (B, T) pad mask, real where `pad` is False."""
        return cls(pad, np.flatnonzero(~pad) if pad.any() else None)

    def scatter(self, x: np.ndarray) -> np.ndarray:
        """(N, ...) packed rows as a (B, T, ...) array, zero at padding."""
        shape = self.shape + x.shape[1:]
        if self.cells is None:
            return x.reshape(shape)
        out = np.zeros((self.shape[0] * self.shape[1],) + x.shape[1:], x.dtype)
        out[self.cells] = x
        return out.reshape(shape)

    def gather(self, x: np.ndarray) -> np.ndarray:
        """The (N, ...) real rows of a (B, T, ...) array."""
        flat = x.reshape((-1,) + x.shape[2:])
        return flat if self.cells is None else flat[self.cells]

    def index(self, cells: np.ndarray) -> np.ndarray:
        """The packed row numbers of real cells `cells` (flat b*T + t)."""
        return cells if self.cells is None else np.searchsorted(self.cells, cells)


def _make(data: np.ndarray, parents: tuple, backward) -> Tensor:
    out = Tensor(data)
    if _grad_mode.enabled and any(p.requires_grad for p in parents):
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
    handed over; a leaf's dW and db are computed on the worker.
    """
    f = w.data.shape[1]
    x2 = x.data.reshape(-1, x.data.shape[-1])
    y = np.matmul(x2, w.data)
    y += b.data

    def bw(g):
        g2 = g.reshape(-1, f)
        if b.requires_grad:
            b._add_grad(np.sum, g2, 0)
        if w.requires_grad:
            w._add_grad(np.matmul, x2.T, g2)
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


def merge_rows(parts: list[Tensor], rows: list[np.ndarray]) -> Tensor:
    """One (n, ...) array of the rows of `parts`: the rows of parts[i] go
    to rows rows[i], which together name every output row once. The
    gradient of parts[i] is those rows of the output's, handed over."""
    n = sum(len(r) for r in rows)
    data = np.empty((n,) + parts[0].data.shape[1:], parts[0].data.dtype)
    for p, r in zip(parts, rows):
        data[r] = p.data

    def bw(g):
        for p, r in zip(parts, rows):
            if p.requires_grad:
                p._accumulate(g[r], owned=True)

    return _make(data, tuple(parts), bw)


def to_grid(x: Tensor, grid: Grid) -> Tensor:
    """(N, ...) packed rows of `grid` as a (B, T, ...) tensor, zero at
    padding (`Grid.scatter`); a reshape view of a dense grid."""
    data = grid.scatter(x.data)

    def bw(g):
        if x.requires_grad:
            x._accumulate(grid.gather(g), owned=True)

    return _make(data, (x,), bw)


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
            at = (ids.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
            weight._write_grad(_scatter_add, at, g)

    return _make(data, (weight,), bw)


def _scatter_add(buf, first, at, g) -> None:
    """Add g's elements to elements `at` of the flat buf, zeroed first."""
    if first:
        buf.fill(0.0)
    np.add.at(buf.reshape(-1), at, g.reshape(-1))


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
    record = _grad_mode.enabled and a.requires_grad
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
    """gain * (x - mean) / sqrt(var + LN_EPS) + bias over the last axis of
    x, with (d,) vectors gain and bias."""
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    ivar = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * ivar
    data = gain.data * xhat + bias.data
    rows = tuple(range(x.ndim - 1))  # the (d,) gain and bias span every row

    def bw(g):
        if gain.requires_grad:
            gain._add_grad(np.sum, g * xhat, rows)
        if bias.requires_grad:
            bias._add_grad(np.sum, g, rows)
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


def dropout(a: Tensor, drop, grid: Grid | None = None) -> Tensor:
    """Inverted dropout by `drop`, None or a (rate, stream) pair; the
    identity, drawing nothing, for None or rate 0.

    Given a `grid`, `a` holds its packed (N, ...) rows, and the mask is
    drawn over the grid-shaped (B, T, ...) array and its real rows kept:
    the draws, and each real element's keep decision, are those of the
    padded array.

    The rate must lie in [0, 1); anything else, NaN included, raises
    ConfigError. Each element takes one 32-bit word u of the stream's
    numpy PCG64 words, `stream.raw32(...)` (two decisions per 64-bit
    word, each the full 32 bits, so the rate is exact to 2**-32), and is
    kept when u >= ceil(rate * 2**32 - 0.5). This is the test
    (u + 0.5) * 2**-32 >= rate, bit for bit: the scaling by 2**32 is
    exact in float64, and so is the subtraction of 0.5 once
    rate * 2**32 >= 0.5 (below that both tests keep every element). Kept
    elements are scaled by 1 / (1 - rate) in the tensor's dtype; the
    forward and backward passes share one mask holding 0 or that scale.
    """
    shape = a.data.shape if grid is None else grid.shape + a.data.shape[1:]
    mask = _dropout_mask(shape, a.data.dtype, drop)
    if mask is None:
        return a
    if grid is not None:
        mask = grid.gather(mask)
    data = a.data * mask

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * mask)

    return _make(data, (a,), bw)


def _dropout_mask(shape: tuple, dtype, drop) -> np.ndarray | None:
    """None when `drop` is None or its rate 0; else an array of `shape`
    holding 1 / (1 - rate) where an element is kept and 0 where it is
    dropped: the keep test times the scale, which costs a third of
    np.where."""
    if drop is None or drop[0] == 0.0:
        return None
    rate, rng = drop
    check_dropout_rate(rate)
    keep = rng.raw32(math.prod(shape)).reshape(shape) >= math.ceil(rate * 2.0**32 - 0.5)
    return np.multiply(keep, dtype.type(1.0 / (1.0 - rate)), dtype=dtype)


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, drop,
              q_grid: Grid | None = None, kv_grid: Grid | None = None,
              causal: bool = False) -> tuple[Tensor, np.ndarray]:
    """Multi-head attention of (rows, positions, d) projections as one
    tape node. Returns (ctx, probs): ctx = dropout(probs) @ v with the
    heads merged to q's shape, and probs, the (key rows, n_heads,
    queries, keys) weights before dropout, as a plain array. q may have
    m times k's rows: query rows r*m .. r*m+m-1 then attend to key row r.

    Given `q_grid`, q holds that grid's packed (N, d) rows, and so does
    ctx; given `kv_grid`, k and v hold its packed rows. They are
    scattered into zero-padded grid-shaped arrays for the arithmetic
    below, and each gradient is gathered back to its input's rows. Keys
    that `kv_grid.pad` marks are masked, and so, if `causal` (k with q's
    rows, cached keys first), are those after key i + n_keys − n_queries
    for query i. A padded query row yields a row of ctx that is dropped,
    so the real rows of ctx and the gradients have the bits of the
    grid-shaped computation.

    probs = softmax(q kᵀ / √(d / n_heads) + mask) over the keys of each
    head, the mask NEG_INF at masked keys and 0 elsewhere, with dropout
    as in `dropout`, drawn over probs' shape. The arithmetic is that of
    matmul, scalar mul, add, softmax, dropout and matmul nodes in their
    order, so values and gradients have the bits of that composition.
    Raises NumericError when a score is not finite.
    """
    def on_grid(x, grid):
        return x if grid is None else grid.scatter(x)

    def off_grid(x, grid):
        return x if grid is None else grid.gather(x)

    qd, kd, vd = on_grid(q.data, q_grid), on_grid(k.data, kv_grid), on_grid(v.data, kv_grid)
    rows, _, d = kd.shape
    hd = d // n_heads
    scale = 1.0 / math.sqrt(hd)

    def split(x):  # (.., d) -> (rows, n_heads, positions, hd), a view
        return x.reshape(rows, -1, n_heads, hd).transpose(0, 2, 1, 3)

    def merge(x, shape):  # the inverse of split
        return x.transpose(0, 2, 1, 3).reshape(shape)

    qh, kh, vh = split(qd), split(kd), split(vd)
    s = np.matmul(qh, np.swapaxes(kh, -1, -2))
    s *= scale
    if kv_grid is not None:
        s += np.where(kv_grid.pad, NEG_INF, 0.0).astype(s.dtype)[:, None, None, :]
    if causal:  # keys j > i + n_keys - n_queries
        tq, tk = s.shape[-2:]
        s += np.triu(np.full((tq, tk), NEG_INF, s.dtype), tk - tq + 1)
    if not np.all(np.isfinite(s)):
        raise NumericError("attention scores contain non-finite values")
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    probs = s
    mask = _dropout_mask(probs.shape, probs.dtype, drop)
    kept = probs if mask is None else probs * mask
    ctx = off_grid(merge(np.matmul(kept, vh), qd.shape), q_grid)

    def bw(g):
        gh = split(on_grid(g, q_grid))
        if v.requires_grad:
            v._accumulate(off_grid(merge(np.matmul(np.swapaxes(kept, -1, -2), gh), vd.shape),
                                   kv_grid), owned=True)
        if not (q.requires_grad or k.requires_grad):
            return
        gs = np.matmul(gh, np.swapaxes(vh, -1, -2))
        if mask is not None:
            gs *= mask
        gs *= probs  # softmax backward: p * (g - sum(p * g))
        gs -= probs * gs.sum(axis=-1, keepdims=True)
        gs *= scale
        if q.requires_grad:
            q._accumulate(off_grid(merge(np.matmul(gs, kh), qd.shape), q_grid), owned=True)
        if k.requires_grad:
            k._accumulate(off_grid(merge(np.swapaxes(np.matmul(np.swapaxes(qh, -1, -2), gs),
                                                     -1, -2), kd.shape), kv_grid), owned=True)

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
