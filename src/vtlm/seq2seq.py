"""Encoder-decoder translation models built from the pretrained stack.

Both sides are the pretraining stack itself, run on parameters named
with the "enc." or "dec." prefix plus the pretraining names: the
encoder by `model.encode_batch`, the pretraining front end, the
decoder by `model.embed_inputs` and `model.encode`. The decoder embeds
text only and passes the encoder states as `memory`, which adds a
cross-attention sublayer (`cross_attn`, `norm_cross`) to every layer
and makes its self-attention causal.
Its output projection is the MLM head: tied to `dec.token_emb`, with
bias `dec.mlm_bias`.

Weight transfer is therefore by name, as in XLM: each pretrained tensor
is copied to its "enc." and "dec." namesakes. Cross-attention has no
pretrained counterpart: it is either copied from the same layer's
self-attention or keeps its fresh initialisation.

Source layout is [BOS] s [EOS] for text-only translation; multimodal
translation appends the o region embeddings (uncorrupted) to the source
sequence. Sources are padded and their regions stacked by
`model.collate`, into the same `EncoderBatch` that pretraining uses. All
MT parameters live in one dict under "enc." and "dec." prefixes.

Both stacks compute only real positions (packed rows, see `model`):
`encode_source` returns the packed source rows with their grid, by
which the decoder masks its padded memory keys. `decode_rows` returns
the decoder's packed rows, which `mt_loss` scores directly;
`decode_states` places them on the (B, t) target grid, zero at padding,
so that a caller reads position t of row b at [b, t].

There is one decoder, `beam_search`, and with beam=1 it is greedy. It
is incremental and batched, as XLM's `generate_beam`: all sentences of
a chunk are encoded once, every decoder layer projects its
cross-attention keys and values from the encoder states once and
caches its self-attention keys and values, so each step feeds one new
position per hypothesis. Finished sentences leave the batch. Decoding
passes `drop=None` and samples nothing, so it draws no random numbers:
its output depends on the parameters and sources alone. `translate`
decodes its chunks on two threads, the even-numbered ones on the calling
thread and the odd-numbered ones on `tensor`'s pool thread
(`tensor.split_map`), each under its own thread's `no_grad`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .bpe import BOS, EOS, LANG_L1, LANG_L2, PAD
from .data import TripletExample
from .errors import ConfigError, DataError, TransferError, check_choice, check_int
from .model import (
    EncoderBatch,
    EncoderConfig,
    ParamStore,
    _zeros,
    add_stack_params,
    collate,
    embed_inputs,
    encode,
    encode_batch,
    pad_rows,
    select_cache_rows,
    tied_logits,
)
from .rng import Pcg32
from .tensor import Tensor

NMT, MMT = "nmt", "mmt"


def init_mt_params(cfg: EncoderConfig, rng: Pcg32) -> ParamStore:
    """Fresh random MT parameters (the from-scratch baseline).

    Same XLM recipe as `init_encoder_params`: embeddings N(0, 1/d_model),
    weight matrices N(0, 1/(3 fan_in)), zero biases, unit LayerNorm gains.
    """
    params: ParamStore = {}
    add_stack_params(params, cfg, rng, "enc.")
    add_stack_params(params, cfg, rng, "dec.", decoder=True)
    params["dec.mlm_bias"] = _zeros(cfg.vocab_size)
    return params


def transfer_weights(pretrained: ParamStore, cfg: EncoderConfig,
                     copy_cross_attn: bool, rng: Pcg32) -> ParamStore:
    """Initialise an MT model from a pretrained encoder stack, by name.

    Each pretrained tensor `n` is copied into `enc.n` and `dec.n` where
    those exist: the encoder gets the whole stack, the decoder its
    embeddings, every layer's self-attention, feed-forward and norms,
    and the MLM head bias. With copy_cross_attn, `layers.i.attn.*` is
    also copied into `dec.layers.i.cross_attn.*`. Every other parameter
    keeps its fresh `init_mt_params` value, so `norm_cross` is the
    identity and, without copy_cross_attn, cross-attention follows the
    XLM recipe.

    Raises TransferError when the pretrained stack does not fit `cfg`:
    an "enc." tensor without a pretrained namesake, a pretrained tensor
    (other than the region head) without a destination, or a shape that
    differs.
    """
    params = init_mt_params(cfg, rng)
    filled = set()
    for name, src in pretrained.items():
        dsts = [f"enc.{name}", f"dec.{name}"]
        if copy_cross_attn and ".attn." in name:
            dsts.append(f"dec.{name.replace('.attn.', '.cross_attn.')}")
        dsts = [dst for dst in dsts if dst in params]
        if not dsts and not name.startswith("mrc."):  # no region head in MT
            raise TransferError(f"pretrained {name} has no counterpart in the MT model")
        for dst in dsts:
            if params[dst].data.shape != src.data.shape:
                raise TransferError(
                    f"{dst} has shape {params[dst].data.shape}, "
                    f"pretrained {name} has {src.data.shape}"
                )
            params[dst].data[...] = src.data
            filled.add(dst)
    for name in params:
        if name.startswith("enc.") and name not in filled:
            raise TransferError(f"no pretrained tensor for {name}")
    return params


# -- batching ----------------------------------------------------------------


def build_source_batch(examples: list[TripletExample], task: str,
                       max_len: int = 256) -> EncoderBatch:
    """[BOS] s [EOS] rows, plus every region for MMT, with s cut to fit
    `max_len`. Raises ConfigError when `max_len` is not an int or no
    source token fits, DataError when there are no examples or MMT ones
    have different region counts."""
    check_choice("task", task, (NMT, MMT))
    check_int("max_len", max_len)
    if not examples:
        raise DataError("an empty batch: no examples")
    o = len(examples[0].labels) if task == MMT else 0
    budget = max_len - o - 2
    if budget < 1:
        raise ConfigError(f"max_len={max_len} cannot fit {o} regions and a source token")
    rows = []
    for ex in examples:
        row = [BOS] + list(ex.src_tokens)[:budget] + [EOS]
        rows.append((row, np.arange(len(row)), np.full(len(row), LANG_L1)))
    return collate(rows, examples if task == MMT else None)


@dataclass
class TargetBatch:
    input_ids: np.ndarray    # (B, Tt) = [BOS] t_1..t_n padded
    output_ids: np.ndarray   # (B, Tt) = t_1..t_n [EOS] padded
    pad_mask: np.ndarray     # (B, Tt) True at padding


def build_target_batch(examples: list[TripletExample], max_len: int = 256) -> TargetBatch:
    """Teacher-forcing rows of at most `max_len` tokens, padded by
    `model.pad_rows`. Raises ConfigError when `max_len` is not an int of
    at least 1, DataError when there are no examples."""
    check_int("max_len", max_len, 1)
    seqs = [list(ex.tgt_tokens)[: max_len - 1] for ex in examples]
    input_ids, pad_mask = pad_rows([[BOS] + s for s in seqs], PAD)
    output_ids, _ = pad_rows([s + [EOS] for s in seqs], PAD)
    return TargetBatch(input_ids, output_ids, pad_mask)


# -- forward passes ----------------------------------------------------------


def encode_source(params: ParamStore, cfg: EncoderConfig, batch: EncoderBatch, drop, *,
                  training: bool = True) -> tuple[Tensor, T.Grid]:
    """Run the MT encoder: (packed states, source grid), as `decode_states`
    takes them. `training=False` discards `drop`: a keyword the benchmark
    harness passes, which leaves with its change in ROADMAP item 6."""
    return encode_batch(params, cfg, batch, drop if training else None, prefix="enc.")


def decode_rows(params: ParamStore, cfg: EncoderConfig, enc_states: Tensor,
                src_grid: T.Grid, tgt_input_ids: np.ndarray, drop,
                tgt_pad_mask: np.ndarray | None = None,
                cache: dict | None = None, start: int = 0) -> tuple[Tensor, T.Grid]:
    """The decoder on target positions start .. start+t-1, given the
    (possibly padded) (B, t) input ids at those positions: (packed
    states, their target grid), one row per position that
    `tgt_pad_mask` leaves real, in row-major order.

    Without a cache, `start` is 0 and the ids are the whole prefix
    (teacher forcing). An incremental decoder passes the same `cache`
    dict at every step, and no `tgt_pad_mask` (ConfigError): it holds
    the keys and values of the positions before `start` and receives
    those of the new ones. `enc_states` are `encode_source`'s packed
    rows of `src_grid`, whose `pad` masks the memory keys; they are read
    only while the cache holds no cross-attention keys. The grid may
    have fewer rows than the ids: B/rows consecutive id rows share one
    source sentence (see `model.attention`).
    """
    if cache is not None and tgt_pad_mask is not None:
        raise ConfigError("an incremental decoder's positions are never padding")
    bsz, t = tgt_input_ids.shape
    pad = np.zeros((bsz, t), dtype=bool) if tgt_pad_mask is None else tgt_pad_mask
    x, grid = embed_inputs(params, cfg, tgt_input_ids,
                           np.broadcast_to(np.arange(start, start + t), (bsz, t)),
                           np.full((bsz, t), LANG_L2), pad, prefix="dec.")
    x = T.dropout(x, drop, grid)
    states = encode(params, cfg, x, grid, drop, prefix="dec.", memory=enc_states,
                    memory_grid=src_grid, cache=cache)
    return states, grid


def decode_states(params: ParamStore, cfg: EncoderConfig, enc_states: Tensor,
                  src_grid: T.Grid, tgt_input_ids: np.ndarray, drop,
                  tgt_pad_mask: np.ndarray | None = None,
                  cache: dict | None = None, start: int = 0, *,
                  training: bool = True) -> Tensor:
    """`decode_rows`' states on the (B, t) target grid: (B, t, d), zero
    at the padding of `tgt_pad_mask`, so that position t of row b is
    [b, t]. `training=False` discards `drop`, as in `encode_source`.
    """
    states, grid = decode_rows(params, cfg, enc_states, src_grid, tgt_input_ids,
                               drop if training else None, tgt_pad_mask, cache, start)
    return T.to_grid(states, grid)


def output_logits(params: ParamStore, states: Tensor) -> Tensor:
    """Project (B, t, d) decoder states onto the vocabulary (tied
    embedding): (B, t, V) logits."""
    return tied_logits(params, states, "dec.")


@dataclass
class MtLossOutput:
    loss: T.Tensor
    nll: float
    n_tokens: int


def mt_loss(params: ParamStore, cfg: EncoderConfig, src: EncoderBatch,
            tgt: TargetBatch, drop, n_targets: int | None = None) -> MtLossOutput:
    """Teacher-forced cross entropy over non-pad target positions: their
    summed loss divided by their count, or by `n_targets`, the count of
    a larger batch that these are rows of, so that the losses of a
    batch's row windows add up to its loss."""
    enc, grid = encode_source(params, cfg, src, drop)
    states, grid = decode_rows(params, cfg, enc, grid, tgt.input_ids, drop, tgt.pad_mask)
    real = np.flatnonzero(~tgt.pad_mask.reshape(-1))
    if len(real) < len(states.data):  # a grid whose padded cells are rows too
        states = T.embedding(states, grid.index(real))
    loss = T.cross_entropy(tied_logits(params, states, "dec."), tgt.output_ids.reshape(-1)[real],
                           n_targets)
    return MtLossOutput(loss, loss.item(), len(real))


# -- decoding ----------------------------------------------------------------


@dataclass
class Hypothesis:
    tokens: tuple[int, ...]   # generated tokens, [EOS]-terminated unless forced
    logp: float
    finished: bool

    def score(self) -> float:
        """Length-normalised log-probability: logp / length."""
        return self.logp / max(1, len(self.tokens))


def step_logprobs(params: ParamStore, cfg: EncoderConfig, enc_states: Tensor,
                  src_grid: T.Grid, tokens: np.ndarray, start: int,
                  cache: dict) -> np.ndarray:
    """One incremental decoder step: feed `tokens` (R,) at position
    `start` and return the (R, V) float64 next-token log-probabilities."""
    with T.no_grad():
        states = decode_states(params, cfg, enc_states, src_grid, tokens[:, None],
                               None, cache=cache, start=start)
        logits = output_logits(params, states).data[:, 0, :]
    m = logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(logits - m).sum(axis=1, keepdims=True)) + m
    return (logits - lse).astype(np.float64)


def _top(scores: np.ndarray, beam: int) -> np.ndarray:
    """Column indices of the `beam` highest scores of each row, by
    descending score, ties by ascending column."""
    kth = -np.partition(-scores, beam - 1, axis=1)[:, beam - 1:beam]
    rows, cols = np.nonzero(scores >= kth)  # >= beam per row, more on ties
    order = np.lexsort((cols, -scores[rows, cols], rows))
    first = np.searchsorted(rows[order], np.arange(len(scores)))
    return cols[order][first[:, None] + np.arange(beam)]


def beam_search(params: ParamStore, cfg: EncoderConfig, enc_states: Tensor,
                src_grid: T.Grid, beam: int, max_len: int) -> list[Hypothesis]:
    """Beam search for every encoded source sentence at once.

    Hypotheses live in (sentences, beam) arrays, with score -inf in an
    empty slot. Each step feeds one token per slot to the cached decoder
    (`step_logprobs`) and keeps the `beam` best extensions per sentence,
    by score, then slot, then token id. One that ends in [EOS] is
    finished and leaves its slot empty, so the beam of a sentence
    shrinks until the sentence leaves the batch. A sentence also leaves
    once no live hypothesis can beat its best finished one
    (`_cannot_improve`), so stopping early never changes a result. Only
    step 0 reads `enc_states`, to fill every decoder layer's
    cross-attention cache. Every step keeps the live rows of the
    self-attention caches; the cross-attention caches and `src_grid`
    lose rows only on a step where a sentence leaves. At max_len the
    live hypotheses are force-finished. The result per sentence is the finished or forced
    hypothesis with the highest logp / length (its token count, [EOS]
    included), ties by token sequence.
    """
    check_int("beam", beam, 1)
    check_int("max_len", max_len, 1)
    n = src_grid.shape[0]
    sents = np.arange(n)                        # chunk index of each batch row
    logp = np.zeros((n, 1))                     # running log-prob per slot
    hist = np.zeros((n, 1, 0), dtype=np.int64)  # tokens per slot so far
    tokens = np.full(n, BOS, dtype=np.int64)    # fed at the next step
    results: list[list[Hypothesis]] = [[] for _ in range(n)]
    best = np.full(n, -np.inf)                  # best finished score per batch row
    cache: dict = {}

    def emit(slots, finished):
        for i, j in zip(*np.nonzero(slots)):
            results[sents[i]].append(
                Hypothesis(tuple(hist[i, j].tolist()), float(logp[i, j]), finished))

    for t in range(max_len):
        lp = step_logprobs(params, cfg, enc_states, src_grid, tokens, t, cache)
        n_live, slots = logp.shape
        vocab = lp.shape[1]
        scores = (logp[:, :, None] + lp.reshape(n_live, slots, vocab)).reshape(n_live, -1)
        if scores.shape[1] < beam:  # beam > vocab at the first step
            scores = np.pad(scores, ((0, 0), (0, beam - scores.shape[1])),
                            constant_values=-np.inf)
        cand = _top(scores, beam)
        logp = np.take_along_axis(scores, cand, axis=1)
        live = np.isfinite(logp)
        parent, tok = np.divmod(np.where(live, cand, 0), vocab)  # an empty slot stays empty
        hist = np.concatenate([hist[np.arange(n_live)[:, None], parent], tok[:, :, None]], axis=2)
        ended = live & (tok == EOS)
        emit(ended, True)
        best = np.maximum(best, np.where(ended, logp / (t + 1), -np.inf).max(axis=1))
        logp[ended] = -np.inf
        live_rows = np.isfinite(logp).any(axis=1) & ~_cannot_improve(best, logp, max_len)
        keep = np.flatnonzero(live_rows)
        rows = (keep[:, None] * slots + parent[keep]).reshape(-1)
        if len(keep) < n_live:  # a sentence left: drop its memory rows too
            select_cache_rows(cache, rows, keep)
            src_grid = T.Grid.of(src_grid.pad[keep])
        else:
            select_cache_rows(cache, rows)
        sents, logp, hist, tokens = sents[keep], logp[keep], hist[keep], tok[keep].reshape(-1)
        best = best[keep]
        if not len(keep):
            break
    emit(np.isfinite(logp), False)
    return [min(hyps, key=lambda h: (-h.score(), h.tokens)) for hyps in results]


def _cannot_improve(best: np.ndarray, logp: np.ndarray, max_len: int) -> np.ndarray:
    """Per batch row, whether its best finished score `best` is strictly
    above every score a live hypothesis (logp L <= 0, -inf in an empty
    slot) can still reach: a descendant ends with logp <= L and at most
    max_len tokens, so it scores at most L / max_len. Strict, so that a
    tie, broken by token sequence, is still decoded."""
    return best > logp.max(axis=1) / max_len


# sentences decoded together: bounds the decoder caches at CHUNK * beam rows
CHUNK = 64


def translate(params: ParamStore, cfg: EncoderConfig,
              examples: list[TripletExample], task: str, beam: int = 8,
              max_len: int = 48) -> list[Hypothesis]:
    """Decode every source; output order is aligned with the input.

    The sources are encoded and beam-searched together, in equal chunks
    of at most CHUNK sentences, by one incremental decoder, and each
    sentence's hypothesis is the one of highest logp / length. The
    chunks run on two threads (`tensor.split_map`): even-numbered ones
    on the calling thread, odd-numbered ones on the pool thread. A
    chunk's arithmetic is the same on either thread, so every token and
    log-prob bit is that of decoding the chunks one after the other; the
    exception of the first failing chunk is raised. With beam=1 this is
    greedy decoding: each step takes the argmax, the lowest token id
    among ties. `beam` and `max_len` that are not ints of at least 1, or
    are bools, raise ConfigError before any chunk is decoded.
    """
    check_choice("task", task, (NMT, MMT))
    check_int("beam", beam, 1)
    check_int("max_len", max_len, 1)
    if max_len > cfg.max_positions:
        raise ConfigError(
            f"max_len={max_len} needs {max_len} target positions, "
            f"model has max_positions={cfg.max_positions}"
        )
    n = len(examples)
    size = math.ceil(n / math.ceil(n / CHUNK)) if n else 1  # equal chunks
    chunks = [examples[lo: lo + size] for lo in range(0, n, size)]

    def decode(chunk):
        src = build_source_batch(chunk, task, cfg.max_positions)
        with T.no_grad():
            enc, grid = encode_source(params, cfg, src, None)
            return beam_search(params, cfg, enc, grid, beam, max_len)

    return [hyp for hyps in T.split_map(decode, chunks) for hyp in hyps]
