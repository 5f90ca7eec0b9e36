"""Encoder-decoder translation models built from the pretrained stack.

Both sides are the pretraining stack itself, run by `model.embed_inputs`
and `model.encode` on parameters named with the "enc." or "dec." prefix
plus the pretraining names. The decoder embeds text only, attends
causally, and passes the encoder states as `memory`, which adds a
cross-attention sublayer (`cross_attn`, `norm_cross`) to every layer.
Its output projection is the MLM head: tied to `dec.token_emb`, with
bias `dec.mlm_bias`.

Weight transfer is therefore by name, as in XLM: each pretrained tensor
is copied to its "enc." and "dec." namesakes. Cross-attention has no
pretrained counterpart: it is either copied from the same layer's
self-attention or keeps its fresh initialisation.

Source layout is [BOS] s [EOS] for text-only translation; multimodal
translation appends the o region embeddings (uncorrupted) to the source
sequence. All MT parameters live in one store under "enc." and "dec."
prefixes. `beam_search` is the only decoder; with beam=1 it is greedy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .bpe import BOS, EOS, LANG_L1, LANG_L2, PAD
from .data import TripletExample
from .errors import ConfigError, TransferError
from .model import (
    EncoderConfig,
    NEG_INF,
    ParamStore,
    _zeros,
    add_stack_params,
    embed_inputs,
    encode,
    key_padding_mask,
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
    params = ParamStore()
    add_stack_params(params, cfg, rng, "enc.")
    add_stack_params(params, cfg, rng, "dec.", decoder=True)
    params.add("dec.mlm_bias", _zeros(cfg.vocab_size))
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
    for name in params.names():
        if name.startswith("enc.") and name not in filled:
            raise TransferError(f"no pretrained tensor for {name}")
    return params


# -- batching ----------------------------------------------------------------


@dataclass
class SourceBatch:
    token_ids: np.ndarray     # (B, Ts)
    pos_ids: np.ndarray
    lang_ids: np.ndarray
    lengths: np.ndarray
    pad_mask: np.ndarray      # (B, Ts) True at padding
    num_regions: int = 0
    feats: np.ndarray | None = None
    bboxes: np.ndarray | None = None


def build_source_batch(examples: list[TripletExample], task: str,
                       max_len: int = 256) -> SourceBatch:
    if task not in (NMT, MMT):
        raise ConfigError(f"unknown task {task!r}")
    o = len(examples[0].regions) if task == MMT else 0
    budget = max_len - o - 2
    seqs = [list(ex.src_tokens)[:budget] for ex in examples]
    lengths = np.array([len(s) + 2 for s in seqs], dtype=np.int64)
    t_max = int(lengths.max())
    bsz = len(examples)
    token_ids = np.full((bsz, t_max), PAD, dtype=np.int64)
    pos_ids = np.zeros((bsz, t_max), dtype=np.int64)
    lang_ids = np.zeros((bsz, t_max), dtype=np.int64)
    for b, s in enumerate(seqs):
        row = [BOS] + s + [EOS]
        token_ids[b, : len(row)] = row
        pos_ids[b, : len(row)] = np.arange(len(row))
        lang_ids[b, : len(row)] = LANG_L1
    pad_mask = np.arange(t_max)[None, :] >= lengths[:, None]
    batch = SourceBatch(token_ids, pos_ids, lang_ids, lengths, pad_mask, o)
    if task == MMT:
        batch.feats = np.stack([np.stack([r.feat for r in ex.regions]) for ex in examples])
        batch.bboxes = np.stack([np.stack([r.bbox for r in ex.regions]) for ex in examples])
    return batch


@dataclass
class TargetBatch:
    input_ids: np.ndarray    # (B, Tt) = [BOS] t_1..t_n padded
    output_ids: np.ndarray   # (B, Tt) = t_1..t_n [EOS] padded
    lengths: np.ndarray      # n + 1 per example
    pad_mask: np.ndarray


def build_target_batch(examples: list[TripletExample], max_len: int = 256) -> TargetBatch:
    seqs = [list(ex.tgt_tokens)[: max_len - 1] for ex in examples]
    lengths = np.array([len(s) + 1 for s in seqs], dtype=np.int64)
    t_max = int(lengths.max())
    bsz = len(examples)
    input_ids = np.full((bsz, t_max), PAD, dtype=np.int64)
    output_ids = np.full((bsz, t_max), PAD, dtype=np.int64)
    for b, s in enumerate(seqs):
        input_ids[b, : len(s) + 1] = [BOS] + s
        output_ids[b, : len(s) + 1] = s + [EOS]
    pad_mask = np.arange(t_max)[None, :] >= lengths[:, None]
    return TargetBatch(input_ids, output_ids, lengths, pad_mask)


# -- forward passes ----------------------------------------------------------


def encode_source(params: ParamStore, cfg: EncoderConfig, batch: SourceBatch,
                  rng: Pcg32, training: bool) -> tuple[Tensor, np.ndarray]:
    """Run the MT encoder; returns (states, additive key mask)."""
    x = embed_inputs(params, cfg, batch.token_ids, batch.pos_ids,
                     batch.lang_ids, batch.feats, batch.bboxes, prefix="enc.")
    x = T.dropout(x, cfg.dropout, rng, training)
    key_mask = key_padding_mask(batch.pad_mask, batch.num_regions)
    return encode(params, cfg, x, key_mask, rng, training, prefix="enc."), key_mask


def causal_mask(t: int, dtype) -> np.ndarray:
    mask = np.triu(np.full((t, t), NEG_INF, dtype=dtype), k=1)
    return mask[None, None, :, :]


def decode_states(params: ParamStore, cfg: EncoderConfig, enc_states: Tensor,
                  enc_key_mask: np.ndarray, tgt_input_ids: np.ndarray,
                  rng: Pcg32, training: bool,
                  tgt_pad_mask: np.ndarray | None = None) -> Tensor:
    """Decoder states for a (possibly padded) target prefix matrix."""
    bsz, t = tgt_input_ids.shape
    x = embed_inputs(params, cfg, tgt_input_ids, np.broadcast_to(np.arange(t), (bsz, t)),
                     np.full((bsz, t), LANG_L2), prefix="dec.")
    x = T.dropout(x, cfg.dropout, rng, training)
    self_mask = causal_mask(t, T.default_dtype())
    if tgt_pad_mask is not None:
        pad_add = np.where(tgt_pad_mask, NEG_INF, 0.0).astype(T.default_dtype())
        self_mask = self_mask + pad_add[:, None, None, :]
    return encode(params, cfg, x, self_mask, rng, training, prefix="dec.",
                  memory=enc_states, memory_mask=enc_key_mask)


def output_logits(params: ParamStore, states: Tensor) -> Tensor:
    """Project decoder states onto the vocabulary (tied embedding)."""
    bsz, t, d = states.shape
    logits = tied_logits(params, T.reshape(states, (bsz * t, d)), "dec.")
    return T.reshape(logits, (bsz, t, params["dec.token_emb"].data.shape[0]))


@dataclass
class MtLossOutput:
    loss: T.Tensor
    nll: float
    n_tokens: int

    @property
    def perplexity(self) -> float:
        return math.exp(self.nll)


def mt_loss(params: ParamStore, cfg: EncoderConfig, src: SourceBatch,
            tgt: TargetBatch, rng: Pcg32, training: bool) -> MtLossOutput:
    """Teacher-forced cross entropy over non-pad target positions."""
    enc, key_mask = encode_source(params, cfg, src, rng, training)
    states = decode_states(params, cfg, enc, key_mask, tgt.input_ids, rng,
                           training, tgt_pad_mask=tgt.pad_mask)
    bsz, t, d = states.shape
    flat = T.reshape(states, (bsz * t, d))
    keep = np.flatnonzero(~tgt.pad_mask.reshape(-1))
    logits = tied_logits(params, T.gather_rows(flat, keep), "dec.")
    targets = tgt.output_ids.reshape(-1)[keep]
    loss = T.cross_entropy(logits, targets)
    return MtLossOutput(loss, loss.item(), len(keep))


# -- decoding ----------------------------------------------------------------


@dataclass
class Hypothesis:
    tokens: tuple[int, ...]   # generated tokens, [EOS]-terminated unless forced
    logp: float
    finished: bool

    def score(self, alpha: float) -> float:
        return self.logp / (max(1, len(self.tokens)) ** alpha)


def beam_search(step_fn, beam: int, max_len: int, eos: int = EOS,
                alpha: float = 1.0) -> Hypothesis:
    """Beam search over a generic next-token log-probability function.

    step_fn(prefixes) receives the live prefixes (list of token tuples,
    all the same length) and returns an array (len(prefixes), V) of
    next-token log probabilities. Hypotheses finish at `eos` or are
    force-finished at max_len; final ranking is logp / len^alpha with
    ties broken by token sequence.
    """
    if beam < 1:
        raise ConfigError("beam must be >= 1")
    live: list[Hypothesis] = [Hypothesis((), 0.0, False)]
    finished: list[Hypothesis] = []
    for _ in range(max_len):
        logprobs = step_fn([h.tokens for h in live])
        vocab = logprobs.shape[1]
        scores = np.asarray([h.logp for h in live])[:, None] + logprobs
        flat = scores.reshape(-1)
        hyp_idx = np.repeat(np.arange(len(live)), vocab)
        tok_idx = np.tile(np.arange(vocab), len(live))
        order = np.lexsort((tok_idx, hyp_idx, -flat))[: beam]
        next_live = []
        for j in order:
            h = live[hyp_idx[j]]
            tok = int(tok_idx[j])
            cand = Hypothesis(h.tokens + (tok,), float(flat[j]), tok == eos)
            if cand.finished:
                finished.append(cand)
            else:
                next_live.append(cand)
        live = next_live
        if not live:
            break
    for h in live:
        finished.append(Hypothesis(h.tokens, h.logp, False))
    finished.sort(key=lambda h: (-h.score(alpha), h.tokens))
    return finished[0]


def make_step_fn(params: ParamStore, cfg: EncoderConfig,
                 example: TripletExample, task: str, rng: Pcg32):
    """Close over one source sentence; score target prefixes in a batch."""
    src = build_source_batch([example], task, cfg.max_positions)
    with T.no_grad():
        enc, key_mask = encode_source(params, cfg, src, rng, training=False)

    def step(prefixes: list[tuple[int, ...]]) -> np.ndarray:
        n = len(prefixes)
        t = len(prefixes[0]) + 1
        tgt_in = np.full((n, t), BOS, dtype=np.int64)
        for i, p in enumerate(prefixes):
            tgt_in[i, 1:] = p
        with T.no_grad():
            enc_rep = Tensor(np.repeat(enc.data, n, axis=0))
            mask_rep = np.repeat(key_mask, n, axis=0)
            states = decode_states(params, cfg, enc_rep, mask_rep, tgt_in,
                                   rng, training=False)
            logits = output_logits(params, states).data[:, -1, :]
        m = logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(logits - m).sum(axis=1, keepdims=True)) + m
        return (logits - lse).astype(np.float64)

    return step


def translate(params: ParamStore, cfg: EncoderConfig,
              examples: list[TripletExample], task: str, beam: int = 8,
              max_len: int = 48, alpha: float = 1.0,
              seed: int = 0) -> list[Hypothesis]:
    """Decode each source; output order is aligned with the input.

    With beam=1 this is greedy decoding: each step takes the argmax,
    the lowest token id among ties.
    """
    if max_len > cfg.max_positions:
        raise ConfigError(
            f"max_len={max_len} needs {max_len} target positions, "
            f"model has max_positions={cfg.max_positions}"
        )
    rng = Pcg32(seed).split("translate")
    out = []
    for ex in examples:
        step = make_step_fn(params, cfg, ex, task, rng)
        out.append(beam_search(step, beam, max_len, alpha=alpha))
    return out
