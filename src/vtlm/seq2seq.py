"""Encoder-decoder translation models built from the pretrained stack.

The MT encoder is the pretraining encoder itself: `encode_source` runs
`model.embed_inputs` and `model.encode` on parameters named with the
"enc." prefix, so the two differ only in their weights. The decoder
mirrors the encoder with an extra cross-attention sublayer per layer.
Weight transfer copies the pretrained stack 1:1 into both sides (decoder
self-attention, feed-forward, norms and embeddings come from the
corresponding pretrained layers; the output projection stays tied to
the decoder token embedding with the pretrained head bias).
Cross-attention has no pretrained counterpart: it is either copied from
the same layer's self-attention or freshly initialised.

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
    _embedding,
    _ones,
    _weight,
    _zeros,
    add_layer_params,
    attention,
    embed_inputs,
    encode,
    key_padding_mask,
    linear,
)
from .rng import Pcg32
from .tensor import Tensor

NMT, MMT = "nmt", "mmt"


def _add_decoder_layer(params: ParamStore, prefix: str, d: int, f: int,
                       rng: Pcg32) -> None:
    for name in ("wq", "wk", "wv", "wo"):
        params.add(f"{prefix}.self_attn.{name}", _weight(rng, d, d))
        params.add(f"{prefix}.self_attn.b{name[1]}", _zeros(d))
    params.add(f"{prefix}.norm_self.g", _ones(d))
    params.add(f"{prefix}.norm_self.b", _zeros(d))
    for name in ("wq", "wk", "wv", "wo"):
        params.add(f"{prefix}.cross_attn.{name}", _weight(rng, d, d))
        params.add(f"{prefix}.cross_attn.b{name[1]}", _zeros(d))
    params.add(f"{prefix}.norm_cross.g", _ones(d))
    params.add(f"{prefix}.norm_cross.b", _zeros(d))
    params.add(f"{prefix}.ffn.w1", _weight(rng, d, f))
    params.add(f"{prefix}.ffn.b1", _zeros(f))
    params.add(f"{prefix}.ffn.w2", _weight(rng, f, d))
    params.add(f"{prefix}.ffn.b2", _zeros(d))
    params.add(f"{prefix}.norm_ffn.g", _ones(d))
    params.add(f"{prefix}.norm_ffn.b", _zeros(d))


def init_mt_params(cfg: EncoderConfig, rng: Pcg32) -> ParamStore:
    """Fresh random MT parameters (the from-scratch baseline).

    Same XLM recipe as `init_encoder_params`: embeddings N(0, 1/d_model),
    weight matrices N(0, 1/(3 fan_in)), zero biases, unit LayerNorm gains.
    """
    d, f = cfg.d_model, cfg.ffn_dim
    params = ParamStore()
    params.add("enc.token_emb", _embedding(rng, cfg.vocab_size, d))
    params.add("enc.pos_emb", _embedding(rng, cfg.max_positions, d))
    params.add("enc.lang_emb", _embedding(rng, 3, d))
    params.add("enc.feat_proj.w", _weight(rng, cfg.feat_dim, d))
    params.add("enc.feat_proj.b", _zeros(d))
    params.add("enc.bbox_proj.w", _weight(rng, 4, d))
    params.add("enc.bbox_proj.b", _zeros(d))
    for i in range(cfg.n_layers):
        add_layer_params(params, f"enc.layers.{i}", d, f, rng)
    params.add("dec.token_emb", _embedding(rng, cfg.vocab_size, d))
    params.add("dec.pos_emb", _embedding(rng, cfg.max_positions, d))
    params.add("dec.lang_emb", _embedding(rng, 3, d))
    for i in range(cfg.n_layers):
        _add_decoder_layer(params, f"dec.layers.{i}", d, f, rng)
    params.add("dec.out_bias", _zeros(cfg.vocab_size))
    return params


def pretrained_layer_count(pretrained: ParamStore) -> int:
    n = 0
    while f"layers.{n}.attn.wq" in pretrained:
        n += 1
    return n


def transfer_weights(pretrained: ParamStore, cfg: EncoderConfig,
                     copy_cross_attn: bool, rng: Pcg32) -> ParamStore:
    """Initialise an MT model from a pretrained encoder stack.

    Parameters without a pretrained counterpart keep the fresh values of
    `init_mt_params`, so with copy_cross_attn=False the cross-attention
    weights follow its XLM recipe.
    """
    n_pre = pretrained_layer_count(pretrained)
    if n_pre != cfg.n_layers:
        raise TransferError(
            f"pretrained stack has {n_pre} layers, decoder needs {cfg.n_layers}"
        )
    if pretrained["token_emb"].data.shape[0] != cfg.vocab_size:
        raise TransferError("vocabulary size mismatch between checkpoint and model")
    if pretrained["feat_proj.w"].data.shape[0] != cfg.feat_dim:
        raise TransferError(
            f"pretrained feature dim {pretrained['feat_proj.w'].data.shape[0]} "
            f"!= model feat_dim {cfg.feat_dim}"
        )
    params = init_mt_params(cfg, rng)
    for name, tensor in pretrained.items():
        enc_name = f"enc.{name}"
        if enc_name in params:
            params[enc_name].data[...] = tensor.data
    for emb in ("token_emb", "pos_emb", "lang_emb"):
        params.copy_from(pretrained, emb, f"dec.{emb}")
    params.copy_from(pretrained, "mlm_bias", "dec.out_bias")
    for i in range(cfg.n_layers):
        for name in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo"):
            params.copy_from(pretrained, f"layers.{i}.attn.{name}",
                             f"dec.layers.{i}.self_attn.{name}")
            if copy_cross_attn:
                params.copy_from(pretrained, f"layers.{i}.attn.{name}",
                                 f"dec.layers.{i}.cross_attn.{name}")
        for g_or_b in ("g", "b"):
            params.copy_from(pretrained, f"layers.{i}.norm1.{g_or_b}",
                             f"dec.layers.{i}.norm_self.{g_or_b}")
            params.copy_from(pretrained, f"layers.{i}.norm2.{g_or_b}",
                             f"dec.layers.{i}.norm_ffn.{g_or_b}")
        # cross-attention norms have no pretrained counterpart: identity init
        params[f"dec.layers.{i}.norm_cross.g"].data[...] = 1.0
        params[f"dec.layers.{i}.norm_cross.b"].data[...] = 0.0
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
                  tgt_pad_mask: np.ndarray | None = None,
                  collect_cross: list | None = None) -> Tensor:
    """Decoder states for a (possibly padded) target prefix matrix."""
    bsz, t = tgt_input_ids.shape
    pos = np.broadcast_to(np.arange(t), (bsz, t))
    lang = np.full((bsz, t), LANG_L2)
    x = (
        T.embedding(params["dec.token_emb"], tgt_input_ids)
        + T.embedding(params["dec.pos_emb"], pos)
        + T.embedding(params["dec.lang_emb"], lang)
    )
    x = T.dropout(x, cfg.dropout, rng, training)
    self_mask = causal_mask(t, T.default_dtype())
    if tgt_pad_mask is not None:
        pad_add = np.where(tgt_pad_mask, NEG_INF, 0.0).astype(T.default_dtype())
        self_mask = self_mask + pad_add[:, None, None, :]
    for i in range(cfg.n_layers):
        prefix = f"dec.layers.{i}"
        sa = attention(params, f"{prefix}.self_attn", x, x, self_mask,
                       cfg.n_heads, cfg.dropout, rng, training)
        x = T.layer_norm(x + T.dropout(sa, cfg.dropout, rng, training),
                         params[f"{prefix}.norm_self.g"], params[f"{prefix}.norm_self.b"])
        ca = attention(params, f"{prefix}.cross_attn", x, enc_states, enc_key_mask,
                       cfg.n_heads, cfg.dropout, rng, training, collect_cross)
        x = T.layer_norm(x + T.dropout(ca, cfg.dropout, rng, training),
                         params[f"{prefix}.norm_cross.g"], params[f"{prefix}.norm_cross.b"])
        h = T.gelu(linear(x, params, f"{prefix}.ffn.w1", f"{prefix}.ffn.b1"))
        h = linear(h, params, f"{prefix}.ffn.w2", f"{prefix}.ffn.b2")
        x = T.layer_norm(x + T.dropout(h, cfg.dropout, rng, training),
                         params[f"{prefix}.norm_ffn.g"], params[f"{prefix}.norm_ffn.b"])
    return x


def output_logits(params: ParamStore, states: Tensor) -> Tensor:
    """Project decoder states onto the vocabulary (tied embedding)."""
    bsz, t, d = states.shape
    flat = T.reshape(states, (bsz * t, d))
    logits = T.matmul(flat, T.transpose(params["dec.token_emb"], (1, 0)))
    logits = logits + params["dec.out_bias"]
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
    rows = T.gather_rows(flat, keep)
    logits = T.matmul(rows, T.transpose(params["dec.token_emb"], (1, 0)))
    logits = logits + params["dec.out_bias"]
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
