"""The RNG, dropout, first-gradient, linear, embedding, attention and
region-directive paths against earlier reference implementations kept
here, the pruned pretraining loss against the full-row one, and packed
rows against the every-cell layout: a cheaper or simpler step must give
the same bits."""

import math

import numpy as np
import pytest

from helpers import (assert_grads_close, clear_grads, every_cell_layout, full_row_vtlm_loss,
                     matmul, reshape, tsum)
from vtlm import tensor as T
from vtlm.errors import NumericError
from vtlm.masking import (MASK_EMBED, SUBSTITUTE, TLM, VTLM, MaskPolicy, build_masked_batch,
                          mask_visual)
from vtlm.model import EncoderConfig, init_encoder_params, vtlm_loss
from vtlm.rng import BLOCK, Pcg32
from vtlm.seq2seq import (MMT, build_source_batch, build_target_batch, init_mt_params, mt_loss,
                          translate)
from vtlm.synthetic import GenConfig, generate_corpus
from vtlm.trainer import evaluate_mt

_MULT = 6364136223846793005
_MASK64 = (1 << 64) - 1


def reference_output(states):
    """PCG's XSH-RR output step in uint32 arithmetic."""
    xorshifted = (((states >> np.uint64(18)) ^ states) >> np.uint64(27)).astype(np.uint32)
    rot = (states >> np.uint64(59)).astype(np.uint32)
    return (xorshifted >> rot) | (xorshifted << ((np.uint32(32) - rot) & np.uint32(31)))


def reference_u32(self, n=None):
    """Bulk draws from per-call a^i and sum a^j tables of length n."""
    if n is None:
        old = self._state
        self._step()
        return self._output_scalar(old)
    if n <= 0:
        return np.empty(0, dtype=np.uint32)
    pows = np.empty(n, dtype=np.uint64)
    pows[0] = 1
    if n > 1:
        pows[1:] = np.uint64(_MULT)
        np.cumprod(pows, out=pows)
    sums = np.empty(n, dtype=np.uint64)
    sums[0] = 0
    if n > 1:
        np.cumsum(pows[:-1], out=sums[1:])
    states = pows * np.uint64(self._state) + sums * np.uint64(self._inc)
    self._state = (int(states[-1]) * _MULT + self._inc) & _MASK64
    return reference_output(states)


def reference_scatter(x, grid):
    """Packed rows into a zero-filled grid-shaped array, as one node."""
    cells = np.arange(math.prod(grid.shape)) if grid.cells is None else grid.cells
    data = np.zeros((math.prod(grid.shape),) + x.shape[1:], x.data.dtype)
    data[cells] = x.data

    def bw(g):
        if x.requires_grad:
            x._accumulate(g.reshape(data.shape)[cells])

    return T._make(data.reshape(grid.shape + x.shape[1:]), (x,), bw)


def reference_gather(x, grid):
    """The real rows of a grid-shaped array, as one node."""
    flat = x.data.reshape((-1,) + x.shape[2:])
    cells = np.arange(len(flat)) if grid.cells is None else grid.cells

    def bw(g):
        if x.requires_grad:
            full = np.zeros_like(flat)
            full[cells] = g
            x._accumulate(full.reshape(x.shape))

    return T._make(flat[cells], (x,), bw)


def reference_dropout(a, drop, grid=None):
    """Keep-mask from uniform doubles, applied as a * keep * scale; packed
    rows go through scatter and gather nodes around it."""
    if drop is None or drop[0] == 0.0:
        return a
    if grid is not None:
        return reference_gather(reference_dropout(reference_scatter(a, grid), drop), grid)
    rate, rng = drop
    keep = (rng.uniform(a.data.shape) >= rate).astype(a.data.dtype)
    scale = 1.0 / (1.0 - rate)
    data = a.data * keep * scale

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * keep * scale)

    return T._make(data, (a,), bw)


def reference_accumulate(self, g, owned=False):
    """First gradient as zeros_like + g, whoever owns g."""
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += g


def reference_linear(x, w, b):
    """x W + b as reshape, matmul, add and reshape nodes."""
    y = matmul(reshape(x, (-1, x.shape[-1])), w) + b
    return reshape(y, x.shape[:-1] + w.shape[1:])


def reference_embedding(weight, ids):
    """Rows `ids` of a 2-D tensor, with a row-wise add.at backward; a
    (..., d) tensor goes through a reshape node to (rows, d) first."""
    if weight.data.ndim > 2:
        weight = reshape(weight, (-1, weight.shape[-1]))
    ids = np.asarray(ids)
    data = weight.data[ids]

    def bw(g):
        if weight.requires_grad:
            if weight.grad is None:
                weight.grad = np.zeros_like(weight.data)
            np.add.at(weight.grad, ids.reshape(-1), g.reshape(-1, weight.data.shape[-1]))

    return T._make(data, (weight,), bw)


class FixedDraws:
    """An rng stand-in whose bulk draw returns preset u32 values."""

    uniform = Pcg32.uniform

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.uint32)

    def u32(self, n):
        assert n == self.u.size
        return self.u.copy()


RATES = [0.1, 0.3, 0.4, 0.5, 0.999]


@pytest.mark.parametrize("rate", RATES)
def test_threshold_boundary_equals_uniform_test(rate):
    # every u32 within 4 of the cut, where uniform = (u + 0.5) 2^-32 meets rate
    centre = int(rate * 2**32)
    u = np.arange(centre - 4, centre + 5)
    x = T.Tensor(np.ones(u.size, dtype=np.float32))
    got = T.dropout(x, (rate, FixedDraws(u))).data
    expect = reference_dropout(x, (rate, FixedDraws(u))).data
    assert got.tobytes() == expect.tobytes()
    assert 0 < np.count_nonzero(got) < u.size  # the cut lies inside the window


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate", RATES)
def test_dropout_mask_forward_backward_equal_reference(rate, dtype):
    rng = Pcg32(31)
    shape = (3, 5, 1_000)  # 15,000 draws: crosses a u32 block boundary
    x0 = rng.normal(shape, dtype=dtype)
    x0[0, 0, :4] = [-0.0, 0.0, np.inf, -np.inf]
    w = rng.normal(shape, dtype=dtype)
    results = []
    for fn in (T.dropout, reference_dropout):
        x = T.Tensor(x0.copy(), requires_grad=True)
        ones = T.Tensor(np.ones(shape, dtype=dtype))
        with np.errstate(invalid="ignore"):  # inf * 0
            out = fn(x, (rate, Pcg32(8).split("dropout")))
            tsum(T.mul(out, T.Tensor(w))).backward()
        mask = fn(ones, (rate, Pcg32(8).split("dropout"))).data
        results.append((mask, out.data, x.grad))
    for got, expect in zip(*results):
        assert got.dtype == expect.dtype
        assert got.tobytes() == expect.tobytes()


def _first_grad(accumulate, data, g):
    t = T.Tensor(data, requires_grad=True)
    accumulate(t, g)
    return t.grad


@pytest.mark.parametrize("case", ["negative_zero", "float64_into_float32", "transposed"])
def test_first_gradient_equals_zeros_plus_g(case):
    rng = Pcg32(3)
    if case == "negative_zero":
        data = np.ones((4, 6), dtype=np.float32)
        g = np.full((4, 6), -0.0, dtype=np.float32)
    elif case == "float64_into_float32":
        data = np.ones((4, 6), dtype=np.float32)
        g = rng.normal((4, 6), dtype=np.float64) * 1e3
    else:
        data = np.ones((6, 4), dtype=np.float32)
        g = rng.normal((4, 6), dtype=np.float32).T
    got = _first_grad(T.Tensor._accumulate, data, g)
    expect = _first_grad(reference_accumulate, data, g)
    assert got.dtype == expect.dtype == data.dtype
    assert got.tobytes() == expect.tobytes()
    assert got.flags.c_contiguous
    assert not np.shares_memory(got, g)


def _node(data):
    """A non-leaf tensor holding `data`: one tape node over a leaf."""
    leaf = T.Tensor(np.zeros_like(data), requires_grad=True)
    return T._make(data, (leaf,), None)


def test_owned_first_gradient_is_kept_by_a_node():
    node = _node(np.ones((4, 6), dtype=np.float32))
    g = Pcg32(3).normal((4, 6), dtype=np.float32)
    g[0, 0] = -0.0
    node._accumulate(g, owned=True)
    assert np.shares_memory(node.grad, g)
    assert np.signbit(node.grad[0, 0])  # kept as handed over
    node._accumulate(np.ones((4, 6), dtype=np.float32), owned=True)
    assert np.shares_memory(node.grad, g)  # later gradients add in place


def test_leaf_copies_an_owned_first_gradient():
    data = np.ones((4, 6), dtype=np.float32)
    g = np.full((4, 6), -0.0, dtype=np.float32)
    t = T.Tensor(data, requires_grad=True)
    t._accumulate(g, owned=True)
    assert not np.shares_memory(t.grad, g)
    assert t.grad.tobytes() == _first_grad(reference_accumulate, data, g).tobytes()
    assert not np.any(np.signbit(t.grad))  # -0.0 became +0.0


@pytest.mark.parametrize("case", ["transposed", "float64_into_float32", "zero_dim"])
def test_node_copies_an_owned_gradient_it_cannot_keep(case):
    rng = Pcg32(4)
    if case == "transposed":
        data = np.ones((6, 4), dtype=np.float32)
        g = rng.normal((4, 6), dtype=np.float32).T
    elif case == "float64_into_float32":
        data = np.ones((4, 6), dtype=np.float32)
        g = rng.normal((4, 6), dtype=np.float64) * 1e3
    else:
        data = np.ones((), dtype=np.float32)
        g = np.full((), -0.0, dtype=np.float32)
    node = _node(data)
    node._accumulate(g, owned=True)
    expect = _first_grad(reference_accumulate, data, g)
    assert not np.shares_memory(node.grad, g)
    assert isinstance(node.grad, np.ndarray) and node.grad.flags.c_contiguous
    assert node.grad.dtype == expect.dtype and node.grad.tobytes() == expect.tobytes()


def test_first_gradient_of_a_scalar_stays_an_array():
    t = T.Tensor(np.float32(2.0), requires_grad=True)
    t._accumulate(np.ones((), dtype=np.float64))
    t._accumulate(np.ones((), dtype=np.float64))
    assert isinstance(t.grad, np.ndarray) and t.grad.dtype == np.float32
    assert float(t.grad) == 2.0


@pytest.mark.parametrize("n", [0, 1, 255, 8191, 8192, 8193,  # see test_rng's block sizes
                               BLOCK - 1, BLOCK, BLOCK + 1, 541_696])
def test_u32_draws_and_state_equal_reference(n):
    rng, ref = Pcg32(17).split("u32"), Pcg32(17).split("u32")
    got, expect = rng.u32(n), reference_u32(ref, n)
    assert got.dtype == expect.dtype == np.uint32
    assert got.tobytes() == expect.tobytes()
    assert rng._state == ref._state
    assert rng.u32() == reference_u32(ref)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", ["2d", "3d", "tied"])
def test_linear_forward_backward_equal_reference(case, dtype):
    """T.linear against reshape → matmul → add → reshape, on an input
    that is a tape node (its gradient handed over) and, for the tied
    head, a weight that is a transpose node."""
    rng = Pcg32(14)
    shape = {"2d": (23, 8), "3d": (3, 7, 8), "tied": (23, 8)}[case]
    x0 = rng.normal(shape, dtype=dtype) * 2
    w0 = rng.normal((11, 8) if case == "tied" else (8, 11), dtype=dtype)
    b0 = rng.normal((11,), dtype=dtype)
    out_w = rng.normal(shape[:-1] + (11,), dtype=dtype)
    results = []
    for fn in (T.linear, reference_linear):
        x, w, b = (T.Tensor(a.copy(), requires_grad=True) for a in (x0, w0, b0))
        weight = T.transpose(w, (1, 0)) if case == "tied" else w
        y = fn(T.gelu(x), weight, b)
        tsum(T.mul(y, T.Tensor(out_w))).backward()
        results.append((y.data, x.grad, w.grad, b.grad))
    for got, expect in zip(*results):
        assert got.dtype == expect.dtype == dtype and got.shape == expect.shape
        assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", ["repeated_ids_onto_a_gradient", "unique_ids"])
def test_embedding_backward_equals_row_wise_add_at(case, dtype):
    """The flat add.at against a row-wise one: repeated ids added onto a
    gradient already there (the tied token table, whose head gradient
    arrives first), and unique ids into a fresh one (the target-row
    gathers)."""
    rng = Pcg32(21)
    table = rng.normal((50, 16), dtype=dtype)
    if case == "repeated_ids_onto_a_gradient":
        ids = (rng.u32(120) % 50).astype(np.int64).reshape(3, 40)
        assert len(np.unique(ids)) < ids.size
        start = rng.normal((50, 16), dtype=dtype)
    else:
        ids = rng.permutation(50)[:23]
        start = None
    g = rng.normal(ids.shape + (16,), dtype=dtype)
    results = []
    for fn in (T.embedding, reference_embedding):
        w = T.Tensor(table.copy(), requires_grad=True)
        w.grad = None if start is None else start.copy()
        out = fn(w, ids)
        out._backward(g.copy())
        results.append((out.data, w.grad))
    for got, expect in zip(*results):
        assert got.dtype == expect.dtype == dtype
        assert got.tobytes() == expect.tobytes()


def reference_softmax(a, axis=-1):
    """The softmax node of the unfused attention."""
    if not np.all(np.isfinite(a.data)):
        raise NumericError("softmax input contains non-finite values")
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    data = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        if a.requires_grad:
            gy = g * data
            a._accumulate(gy - data * gy.sum(axis=axis, keepdims=True))

    return T._make(data, (a,), bw)


def reference_scale(a, b):
    """Multiplication by a Python scalar, as one tape node."""
    data = a.data * b

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * b)

    return T._make(data, (a,), bw)


def reference_attention(q, k, v, n_heads, drop, q_grid=None, kv_grid=None, causal=False):
    """Unfused multi-head attention: reshape and transpose nodes split
    the heads, then matmul, transpose, scalar mul, add, softmax, dropout
    and matmul nodes, and transpose and reshape nodes merge them. Packed
    rows go through scatter nodes before and a gather node after.

    The add node adds the mask as the model once built it and handed it
    over: a float32 (rows, 1, 1, keys) key-padding mask, NEG_INF where
    `kv_grid.pad` is set, and for `causal` a triangle in the scores'
    dtype, NEG_INF at each query's later keys, with the key mask added
    to it."""
    if q_grid is not None:
        ctx, probs = reference_attention(reference_scatter(q, q_grid), k, v, n_heads, drop,
                                         None, kv_grid, causal)
        return reference_gather(ctx, q_grid), probs
    add_mask = None
    if kv_grid is not None:
        k, v = reference_scatter(k, kv_grid), reference_scatter(v, kv_grid)
        add_mask = np.where(kv_grid.pad, T.NEG_INF, 0.0).astype(np.float32)[:, None, None, :]
    rows, _, d = k.shape
    hd = d // n_heads

    def split(x):
        return T.transpose(reshape(x, (rows, -1, n_heads, hd)), (0, 2, 1, 3))

    qh, kh, vh = split(q), split(k), split(v)
    scores = reference_scale(matmul(qh, T.transpose(kh, (0, 1, 3, 2))), 1.0 / math.sqrt(hd))
    if causal:
        tq, tk = scores.shape[-2:]
        tri = np.triu(np.full((tq, tk), T.NEG_INF, dtype=scores.dtype), k=tk - tq + 1)
        add_mask = tri[None, None] if add_mask is None else tri[None, None] + add_mask
    if add_mask is not None:
        scores = scores + add_mask
    probs = reference_softmax(scores, axis=-1)
    ctx = matmul(T.dropout(probs, drop), vh)
    return reshape(T.transpose(ctx, (0, 2, 1, 3)), q.shape), probs.data


def _attention_and_reference(beam, rate, dtype, packed=False, causal=False):
    """T.attention and reference_attention on 3 key rows and 3 * beam
    query rows: ctx, probs and the q, k and v gradients of each, through
    projections that are tape nodes (their gradients handed over).
    `packed` passes q, k and v as the real rows of their grids, which
    the padding of keys and (for beam 1) queries leaves out; otherwise q
    is grid-shaped and k and v are every cell of their grid, the
    padding still marked in its `pad`."""
    rng = Pcg32(12)
    shape = (3, 7, 8)  # (rows, positions, d), 2 heads of 4
    q0 = rng.normal((3 * beam,) + shape[1:], dtype=dtype) * 2
    k0, v0 = (rng.normal(shape, dtype=dtype) * 2 for _ in range(2))
    pad = np.zeros((3, 7), dtype=bool)
    pad[1, 5:] = pad[2, 3:] = True
    grids = (None, T.Grid(pad))
    k0, v0 = k0.reshape(-1, shape[2]), v0.reshape(-1, shape[2])
    if packed:
        grids = (T.Grid.of(pad if beam == 1 else np.zeros(q0.shape[:2], dtype=bool)),
                 T.Grid.of(pad))
        q0 = grids[0].gather(q0)
        k0, v0 = k0[grids[1].cells], v0[grids[1].cells]
    w = rng.normal(q0.shape, dtype=dtype)
    results = []
    for fn in (T.attention, reference_attention):
        leaves = [T.Tensor(a.copy(), requires_grad=True) for a in (q0, k0, v0)]
        q, k, v = (T.mul(x, T.Tensor(np.ones_like(x.data))) for x in leaves)
        ctx, probs = fn(q, k, v, 2, (rate, Pcg32(8).split("dropout")), *grids, causal)
        tsum(T.mul(ctx, T.Tensor(w))).backward()
        results.append((ctx.data, probs, *(x.grad for x in leaves)))
    got, expect = results
    assert got[0].shape == q0.shape
    assert got[1].shape == (3, 2, 7 * beam, 7)
    assert np.all(got[1][1, :, :, 5:] == 0.0)  # padded keys get no weight
    if causal:  # nor does a later key
        assert np.all(np.triu(got[1], k=1) == 0.0)
        assert np.all((got[1][0] > 0.0) == np.tri(7, dtype=bool))  # row 0 has no padding
    for a, b in zip(got, expect):
        assert a.dtype == b.dtype == dtype
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate", [0.0, 0.1])
def test_attention_forward_backward_equal_reference(rate, dtype):
    _attention_and_reference(1, rate, dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate", [0.0, 0.1])
def test_attention_with_shared_key_rows_equals_reference(rate, dtype):
    """Three query rows per key row, as the beams of one sentence share
    its encoder states."""
    _attention_and_reference(3, rate, dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate", [0.0, 0.1])
@pytest.mark.parametrize("beam", [1, 3])
def test_packed_attention_equals_reference(beam, rate, dtype):
    """q, k and v as packed rows: padded queries (beam 1) and keys are
    left out of them, and scattered into the grid inside the node."""
    _attention_and_reference(beam, rate, dtype, packed=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate", [0.0, 0.1])
@pytest.mark.parametrize("packed", [False, True])
def test_causal_attention_equals_reference(packed, rate, dtype):
    """A decoder's self-attention: the causal triangle and the key
    padding against their sum added to the scores."""
    _attention_and_reference(1, rate, dtype, packed=packed, causal=True)


def reference_resolve(feats, bboxes, directives, substitutes):
    """Region inputs from visual directives, one SUBSTITUTE slot at a time."""
    out_feats, out_bboxes = feats.copy(), bboxes.copy()
    for b, slot in zip(*np.nonzero(directives == SUBSTITUTE)):
        ob, oslot = substitutes[b, slot]
        out_feats[b, slot] = feats[ob, oslot]
        out_bboxes[b, slot] = bboxes[ob, oslot]
    return out_feats, out_bboxes, directives == MASK_EMBED


# -- one training step of each phase --------------------------------------

GEN = GenConfig(num_examples=16, num_valid=2, num_test=2, feat_dim=8, num_merges=150)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(GEN, 5)


def test_resolved_regions_equal_reference(corpus):
    examples = corpus.train
    policy = MaskPolicy()
    root = Pcg32(9)
    batch = build_masked_batch(examples, VTLM, policy, len(corpus.codec.vocab),
                               root.split("mask_text"), root.split("mask_visual"))
    assert len(batch.token_ids) == len(examples)
    labels = np.stack([ex.labels for ex in examples])
    directives, substitutes, _ = mask_visual(labels, policy, root.split("mask_visual"))
    assert np.any(directives == SUBSTITUTE) and np.any(directives == MASK_EMBED)
    feats = np.stack([ex.feats for ex in examples])
    bboxes = np.stack([ex.bboxes for ex in examples])
    expect = reference_resolve(feats, bboxes, directives, substitutes)
    for got, ref in zip((batch.feats, batch.bboxes, batch.vis_mask), expect):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def _step(phase, corpus):
    """Loss bytes and every gradient's bytes of one dropout-0.1 step."""
    cfg = EncoderConfig.desk(len(corpus.codec.vocab), GEN.num_labels, GEN.feat_dim,
                             d_model=32, ffn_dim=64, n_layers=2, n_heads=2)
    root = Pcg32(9)
    if phase == "pretrain":
        params = init_encoder_params(cfg, root.split("init"))
        batch = build_masked_batch(corpus.train, VTLM, MaskPolicy(), cfg.vocab_size,
                                   root.split("mask_text"), root.split("mask_visual"))
        loss = vtlm_loss(params, cfg, batch, (0.1, root.split("dropout"))).loss
    else:
        params = init_mt_params(cfg, root.split("init"))
        src = build_source_batch(corpus.train, MMT, cfg.max_positions)
        tgt = build_target_batch(corpus.train, cfg.max_positions)
        loss = mt_loss(params, cfg, src, tgt, (0.1, root.split("dropout"))).loss
    loss.backward()
    return loss.data.tobytes(), {name: t.grad.tobytes() for name, t in params.items()}


@pytest.mark.parametrize("phase", ["pretrain", "mt"])
def test_training_step_bits_equal_reference(phase, corpus, monkeypatch):
    draws = []
    u32 = Pcg32.u32

    def spy(self, n=None):
        draws.append(n)
        return u32(self, n)

    monkeypatch.setattr(Pcg32, "u32", spy)
    got = _step(phase, corpus)
    assert max(d for d in draws if d is not None) > BLOCK  # a dropout crosses a block

    monkeypatch.setattr(Pcg32, "u32", reference_u32)
    monkeypatch.setattr(T, "dropout", reference_dropout)
    monkeypatch.setattr(T, "attention", reference_attention)
    monkeypatch.setattr(T.Tensor, "_accumulate", reference_accumulate)
    monkeypatch.setattr(T, "linear", reference_linear)
    monkeypatch.setattr(T, "embedding", reference_embedding)
    expect = _step(phase, corpus)
    assert got[0] == expect[0]
    assert got[1].keys() == expect[1].keys()
    assert all(got[1][name] == expect[1][name] for name in expect[1])


# -- the last layer at the target rows only ------------------------------------

DESK = GenConfig(num_examples=64, num_valid=2, num_test=2, num_merges=150)


@pytest.fixture(scope="module")
def desk_corpus():
    return generate_corpus(DESK, 3)


@pytest.mark.parametrize("mode", [VTLM, TLM])
def test_pruned_loss_equals_full_row_reference(mode, desk_corpus):
    """On a desk-shaped batch (B = 64, d_model 64, 8 regions): evaluation
    gives the full-row loss and accuracies byte for byte, and so does a
    training step at dropout 0; its gradients, whose weight sums now run
    over fewer rows, are within 1e-6 of their largest magnitude
    (`assert_grads_close`). The byte checks rest on the BLAS library
    giving each row of a matmul the same bytes whatever the number of
    rows in the call (the target rows here, every stream row in the
    reference); OpenBLAS does for 3 or more rows. So do the byte checks
    of packed rows against the every-cell layout below
    (`test_packed_rows_evaluate_as_every_cell_layout`,
    `test_packed_training_step_matches_every_cell_layout`). If a BLAS
    without that property fails them on correct code, compare within a
    tight relative tolerance instead, as
    `test_model.py::TestTargetRows::test_one_target_per_example` does."""
    cfg = EncoderConfig.desk(len(desk_corpus.codec.vocab), DESK.num_labels, DESK.feat_dim)
    root = Pcg32(11)
    params = init_encoder_params(cfg, root.split("init"))
    batch = build_masked_batch(desk_corpus.train, mode, MaskPolicy(), cfg.vocab_size,
                               root.split("mask_text"), root.split("mask_visual"))
    assert len(batch.token_ids) == 64 and cfg.d_model == 64
    assert (0 if batch.feats is None else batch.feats.shape[1]) == (8 if mode == VTLM else 0)

    got = vtlm_loss(params, cfg, batch, None)
    ref = full_row_vtlm_loss(params, cfg, batch, None)
    assert got.loss.data.tobytes() == ref.loss.data.tobytes()
    assert (got.mlm_loss, got.mrc_loss) == (ref.mlm_loss, ref.mrc_loss)
    assert (got.mlm_acc, got.mrc_acc) == (ref.mlm_acc, ref.mrc_acc)

    def step(loss_fn):
        clear_grads(params)
        loss = loss_fn(params, cfg, batch, (0.0, root.split("dropout"))).loss
        loss.backward()
        return loss.data.tobytes(), {name: t.grad for name, t in params.items()}

    got_loss, got_grads = step(vtlm_loss)
    ref_loss, ref_grads = step(full_row_vtlm_loss)
    assert got_loss == ref_loss
    assert_grads_close(got_grads, ref_grads)


# -- packed rows against the every-cell layout ----------------------------------


def _desk_loss(kind, corpus):
    """cfg, fresh parameters and the loss of one B = 64 desk batch of
    `kind` (VTLM, TLM or MMT) as a function of `drop`."""
    cfg = EncoderConfig.desk(len(corpus.codec.vocab), DESK.num_labels, DESK.feat_dim)
    root = Pcg32(11)
    if kind == MMT:
        params = init_mt_params(cfg, root.split("init"))
        src = build_source_batch(corpus.train, MMT, cfg.max_positions)
        tgt = build_target_batch(corpus.train, cfg.max_positions)
        return cfg, params, lambda drop: mt_loss(params, cfg, src, tgt, drop)
    params = init_encoder_params(cfg, root.split("init"))
    batch = build_masked_batch(corpus.train, kind, MaskPolicy(), cfg.vocab_size,
                               root.split("mask_text"), root.split("mask_visual"))
    assert len(batch.token_ids) == 64 and batch.pad_mask.any()
    return cfg, params, lambda drop: vtlm_loss(params, cfg, batch, drop)


@pytest.mark.parametrize("kind", [VTLM, TLM, MMT])
def test_packed_rows_evaluate_as_every_cell_layout(kind, desk_corpus):
    """Evaluation computes no padded row, and its losses, accuracies,
    `evaluate_mt` perplexity and beam-search hypotheses (tokens and
    logp) have the bytes of the padded computation."""
    cfg, params, loss_fn = _desk_loss(kind, desk_corpus)
    examples = desk_corpus.train

    def evaluate():
        out = loss_fn(None)
        fields = (out.loss.data.tobytes(),) + tuple(
            getattr(out, f) for f in ("nll", "n_tokens") if kind == MMT) + tuple(
            getattr(out, f) for f in ("mlm_loss", "mrc_loss", "mlm_acc", "mrc_acc")
            if kind != MMT)
        if kind != MMT:
            return fields
        hyps = translate(params, cfg, examples, MMT, beam=4, max_len=8)
        return fields + (evaluate_mt(params, cfg, examples, MMT, 64),
                         [(h.tokens, np.float64(h.logp).tobytes()) for h in hyps])

    got = evaluate()
    with every_cell_layout():
        ref = evaluate()
    assert got == ref


def _training_step(kind, corpus, monkeypatch):
    """Loss bytes, gradients, u32 call sizes and the stream's next draw
    of one dropout-0.1 training step."""
    cfg, params, loss_fn = _desk_loss(kind, corpus)
    stream = Pcg32(11).split("dropout")
    calls = []
    u32 = Pcg32.u32

    def spy(self, n=None):
        calls.append(n)
        return u32(self, n)

    monkeypatch.setattr(Pcg32, "u32", spy)
    loss = loss_fn((0.1, stream)).loss
    loss.backward()
    monkeypatch.setattr(Pcg32, "u32", u32)
    return (loss.data.tobytes(), {name: t.grad for name, t in params.items()}, calls,
            stream.u32())


@pytest.mark.parametrize("kind", [VTLM, TLM, MMT])
def test_packed_training_step_matches_every_cell_layout(kind, desk_corpus, monkeypatch):
    """A dropout-0.1 step draws what the padded computation draws, call
    for call, and leaves the stream where it does; its loss has the same
    bytes, and its gradients, whose sums now skip the padded rows, are
    within 1e-6 of their largest magnitude."""
    got = _training_step(kind, desk_corpus, monkeypatch)
    with every_cell_layout():
        ref = _training_step(kind, desk_corpus, monkeypatch)
    assert got[0] == ref[0]
    assert_grads_close(got[1], ref[1])
    assert got[2] == ref[2]
    assert got[3] == ref[3]


# u32 call sizes of one training step, as drawn before hidden states were
# packed: a change of draws acts like a change of seed, so it must be a
# deliberate one that updates these
STEP_DRAWS = {
    VTLM: [294912, 1327104, 294912, 294912, 184320, 40960, 40960],
    MMT: [159744, 389376, 159744, 159744, 389376, 159744, 159744, 122880, 230400, 122880,
          299520, 122880, 122880, 230400, 122880, 299520, 122880, 122880],
}


@pytest.mark.parametrize("kind", [VTLM, MMT])
def test_training_step_draws_are_pinned(kind, desk_corpus, monkeypatch):
    """A `pretrain-vtlm`-shaped and an `mmt-desk`-shaped step: embedding
    dropout, then per layer the attention masks and residual masks."""
    assert _training_step(kind, desk_corpus, monkeypatch)[2] == STEP_DRAWS[kind]
