"""The RNG, dropout and first-gradient paths against earlier reference
implementations kept here: a cheaper step must give the same bits."""

import numpy as np
import pytest

from vtlm import tensor as T
from vtlm.masking import VTLM, MaskPolicy, build_masked_batch
from vtlm.model import EncoderConfig, init_encoder_params, vtlm_loss
from vtlm.rng import BLOCK, Pcg32
from vtlm.seq2seq import MMT, build_source_batch, build_target_batch, init_mt_params, mt_loss
from vtlm.synthetic import GenConfig, generate_corpus

_MULT = 6364136223846793005
_MASK64 = (1 << 64) - 1


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
    return self._output_array(states)


def reference_dropout(a, rate, rng, training):
    """Keep-mask from uniform doubles, applied as a * keep * scale."""
    if not training or rate == 0.0:
        return a
    keep = (rng.uniform(a.data.shape) >= rate).astype(a.data.dtype)
    scale = 1.0 / (1.0 - rate)
    data = a.data * keep * scale

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * keep * scale)

    return T._make(data, (a,), bw)


def reference_accumulate(self, g):
    """First gradient as zeros_like + g."""
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += g


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
    got = T.dropout(x, rate, FixedDraws(u), training=True).data
    expect = reference_dropout(x, rate, FixedDraws(u), training=True).data
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
            out = fn(x, rate, Pcg32(8).split("dropout"), training=True)
            T.tsum(T.mul(out, T.Tensor(w))).backward()
        mask = fn(ones, rate, Pcg32(8).split("dropout"), training=True).data
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


def test_first_gradient_of_a_scalar_stays_an_array():
    t = T.Tensor(np.float32(2.0), requires_grad=True)
    t._accumulate(np.ones((), dtype=np.float64))
    t._accumulate(np.ones((), dtype=np.float64))
    assert isinstance(t.grad, np.ndarray) and t.grad.dtype == np.float32
    assert float(t.grad) == 2.0


# -- one training step of each phase --------------------------------------

GEN = GenConfig(num_examples=16, num_valid=2, num_test=2, feat_dim=8, num_merges=150)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(GEN, 5)


def _step(phase, corpus):
    """Loss bytes and every gradient's bytes of one dropout-0.1 step."""
    cfg = EncoderConfig.desk(len(corpus.codec.vocab), GEN.num_labels, GEN.feat_dim,
                             d_model=32, ffn_dim=64, n_layers=2, n_heads=2, dropout=0.1)
    root = Pcg32(9)
    if phase == "pretrain":
        params = init_encoder_params(cfg, root.split("init"))
        batch = build_masked_batch(corpus.train, VTLM, MaskPolicy(), cfg.vocab_size,
                                   root.split("mask_text"), root.split("mask_visual"))
        loss = vtlm_loss(params, cfg, batch, root.split("dropout"), training=True).loss
    else:
        params = init_mt_params(cfg, root.split("init"))
        src = build_source_batch(corpus.train, MMT, cfg.max_positions)
        tgt = build_target_batch(corpus.train, cfg.max_positions)
        loss = mt_loss(params, cfg, src, tgt, root.split("dropout"), training=True).loss
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
    monkeypatch.setattr(T.Tensor, "_accumulate", reference_accumulate)
    expect = _step(phase, corpus)
    assert got[0] == expect[0]
    assert got[1].keys() == expect[1].keys()
    assert all(got[1][name] == expect[1][name] for name in expect[1])

