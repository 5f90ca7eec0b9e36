"""Scaffolding the tests share and the package itself never runs:
summing, matmul and reshape ops, a finite-difference gradient check for
the autograd tape and the float64 parameters it runs on, gradient
clearing, whether a stream drew, sentence encoding and decoding through
a BPE codec, the one-seed corpus and nearest-centre classifier that
several test corpora and oracles are built from, and a batch's
prediction targets as (example, position, id) triples, the full-row
pretraining loss that the pruned one is checked against, and the
every-cell layout that packed rows are checked against, and the name
of the thread that runs `split_map`'s odd-numbered items."""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from vtlm.bpe import EOW, BpeCodec
from vtlm import tensor as T
from vtlm.data import TripletExample
from vtlm.model import LossOutput, encode_batch, linear, tied_logits
from vtlm.rng import Pcg32
from vtlm.synthetic import GenConfig, encode_examples, generate_raw, label_centers, raw_sentences
from vtlm.tensor import Tensor, _make, no_grad


def pool_thread_name() -> str:
    """The name of the thread `T.split_map` runs odd-numbered items on."""
    return T.split_map(lambda _: threading.current_thread().name, [0, 1])[1]


def tsum(a: Tensor) -> Tensor:
    data = a.data.sum()

    def bw(g):
        if a.requires_grad:
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return _make(data, (a,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., n, k) @ (..., k, m) over equal batch dims (none for a 2-D
    product): no broadcast, so neither gradient is reduced."""
    if a.data.shape[:-2] != b.data.shape[:-2]:
        raise ValueError(f"matmul batch dims differ: {a.data.shape} @ {b.data.shape}")
    data = np.matmul(a.data, b.data)

    def bw(g):
        if a.requires_grad:
            a._accumulate(np.matmul(g, np.swapaxes(b.data, -1, -2)))
        if b.requires_grad:
            b._accumulate(np.matmul(np.swapaxes(a.data, -1, -2), g))

    return _make(data, (a, b), bw)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    data = a.data.reshape(shape)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g.reshape(old))

    return _make(data, (a,), bw)


def float64_params(params: dict) -> dict:
    """A copy of a parameter dict in float64, for gradient checks: every
    op computes in its inputs' dtype, so the model then runs in float64."""
    return {name: Tensor(p.data.astype(np.float64), requires_grad=True)
            for name, p in params.items()}


def clear_grads(params: dict) -> None:
    for p in params.values():
        p.grad = None


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


def encode(codec: BpeCodec, sentence: str) -> list[int]:
    """Token ids of a whitespace-tokenised sentence."""
    return [codec.vocab.id_of(s) for w in sentence.split() for s in codec.segment_word(w)]


def decode(codec: BpeCodec, ids) -> str:
    """Surface text of token ids, the inverse of `encode`: the symbols
    joined, each end-of-word marker a space."""
    return "".join(codec.vocab.tokens[int(i)] for i in ids).replace(EOW, " ").strip()


def generate_synthetic(cfg: GenConfig, seed: int) -> list[TripletExample]:
    """Generate cfg.num_examples encoded triplets from one seed, with a
    joint BPE codec learned from the generated sentences."""
    centers = label_centers(cfg, seed)
    raw = generate_raw(cfg, seed, centers)
    codec = BpeCodec.learn(raw_sentences(raw), cfg.num_merges)
    return encode_examples(raw, codec)


def nearest_center_labels(feats: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Independent nearest-centroid classifier used as a grounding oracle."""
    # |f - c|^2 = |f|^2 - 2 f.c + |c|^2 ; the |f|^2 term is constant per row
    scores = feats @ centers.T - 0.5 * (centers * centers).sum(axis=1)
    return np.argmax(scores, axis=1)


def draws_left(rng: Pcg32, seed: int) -> bool:
    """Whether `rng` is still where `Pcg32(seed)` starts: it drew nothing."""
    return np.array_equal(rng.u32(8), Pcg32(seed).u32(8))


def target_triples(batch) -> np.ndarray:
    """(N, 3) int64 rows (example, encoder position, id) of a
    MaskedBatch's prediction targets, by example, then position."""
    b, j = np.nonzero(~batch.target_pad)
    return np.column_stack([b, batch.target_pos[b, j], batch.target_ids[b, j]])


def full_row_vtlm_loss(params, cfg, batch, drop) -> LossOutput:
    """`model.vtlm_loss` as it was before its last layer was pruned: the
    whole stack at every row, then the target rows gathered."""
    states, grid = encode_batch(params, cfg, batch, drop)
    ex, pos, ids = target_triples(batch).T
    rows = grid.index(ex * grid.shape[1] + pos)
    is_text = pos < batch.text_len
    n_text, n_vis = int(is_text.sum()), int((~is_text).sum())
    terms = []
    mlm_loss, mlm_acc, mrc_loss, mrc_acc = 0.0, float("nan"), None, None
    if n_text:
        logits = tied_logits(params, T.embedding(states, rows[is_text]))
        terms.append(T.cross_entropy(logits, ids[is_text]))
        mlm_loss = terms[-1].item()
        mlm_acc = float(np.mean(np.argmax(logits.data, axis=1) == ids[is_text]))
    if n_vis:
        vlogits = linear(T.embedding(states, rows[~is_text]), params, "mrc.w", "mrc.b")
        terms.append(T.cross_entropy(vlogits, ids[~is_text]))
        mrc_loss = terms[-1].item()
        mrc_acc = float(np.mean(np.argmax(vlogits.data, axis=1) == ids[~is_text]))
    loss = terms[0] if len(terms) == 1 else T.add(terms[0], terms[1])
    return LossOutput(loss, mlm_loss, mrc_loss, mlm_acc, mrc_acc, n_text, n_vis)


def assert_grads_close(got: dict, ref: dict, rel: float = 1e-6) -> None:
    """Each gradient of `got` within `rel` times the largest magnitude of
    its `ref` counterpart (None where `ref` is None). A key bias has no
    gradient in exact arithmetic, since the softmax ignores a shift
    shared by all keys, so both of its values are round-off: it is held
    to the scale of its layer's query-bias gradient instead."""
    assert got.keys() == ref.keys()
    for name, g in ref.items():
        if g is None:
            assert got[name] is None, name
            continue
        scale_name = name[:-2] + "bq" if name.endswith(".bk") else name
        scale = np.max(np.abs(ref[scale_name]))
        assert np.max(np.abs(got[name] - g)) <= rel * scale, name


@contextmanager
def every_cell_layout():
    """Inside the block every cell of a grid is a row: `Grid.of` gives
    the real grid with `cells` None, its `pad` kept, so the model
    computes each padded position, as a padded (B, T) computation does,
    while attention still masks the padded keys. Packed rows are checked
    against it."""
    of = T.Grid.__dict__["of"]

    def every_cell(cls, pad):
        grid = of.__func__(cls, pad)
        grid.cells = None
        return grid

    T.Grid.of = classmethod(every_cell)
    try:
        yield
    finally:
        T.Grid.of = of
