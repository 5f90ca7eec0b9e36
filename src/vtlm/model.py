"""Single-stream transformer encoder with masked-token and masked-region heads.

Encoder input has one format, `EncoderBatch`: padded text rows followed
by a fixed number of region slots per row, built by `collate`. Text
positions are embedded as token + per-segment position + language
embeddings; region slots as projected feature + projected box + a
dedicated visual language embedding (no sequential position: regions
are set-like, geometry travels in the box projection), or, where
`vis_mask` is set, the [MASK] token embedding + the visual language
embedding. `encode_batch` runs the one front end, embed → dropout → key
mask → layer stack, for pretraining and for the translation encoder.
Both segments flow through the same post-norm encoder stack with full
bidirectional attention. The token head is weight-tied to the input
embedding; the region head is a fresh linear classifier over detector
labels.

The same layer, stack and parameter names serve the translation model:
given a `memory`, a layer adds a cross-attention sublayer over it, which
is all that tells the decoder apart from the encoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .bpe import LANG_VIS, MASK, PAD
from .errors import ConfigError, DataError
from .rng import Pcg32
from .tensor import Tensor

NEG_INF = -1.0e9  # additive mask value; exp() underflows to exactly 0


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    label_vocab_size: int
    feat_dim: int
    d_model: int = 512
    ffn_dim: int = 2048
    n_layers: int = 6
    n_heads: int = 8
    dropout: float = 0.1
    max_positions: int = 256

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ConfigError("d_model must be divisible by n_heads")
        T.check_dropout_rate(self.dropout)

    @classmethod
    def desk(cls, vocab_size: int, label_vocab_size: int, feat_dim: int, **kw):
        """CPU-friendly configuration used throughout the experiments."""
        defaults = dict(d_model=64, ffn_dim=256, n_layers=2, n_heads=4,
                        dropout=0.1, max_positions=64)
        defaults.update(kw)
        return cls(vocab_size, label_vocab_size, feat_dim, **defaults)


class ParamStore:
    """Ordered collection of named parameter tensors."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._tensors:
            raise ValueError(f"duplicate parameter {name}")
        t = Tensor(data, requires_grad=True)
        self._tensors[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def names(self) -> list[str]:
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def tensors(self):
        return self._tensors.values()

    def zero_grads(self) -> None:
        for t in self._tensors.values():
            t.grad = None

    def copy(self) -> "ParamStore":
        out = ParamStore()
        for name, t in self._tensors.items():
            out.add(name, t.data.copy())
        return out


def _normal(rng: Pcg32, shape, std: float):
    return (rng.normal(shape, dtype=np.float64) * std).astype(T.default_dtype())


def _embedding(rng: Pcg32, n: int, d: int):
    """XLM embedding table: N(0, 1/d)."""
    return _normal(rng, (n, d), d ** -0.5)


def _weight(rng: Pcg32, fan_in: int, fan_out: int):
    """XLM linear weight, stored (in, out): N(0, 1/(3 fan_in)), the
    variance of the uniform default init of a PyTorch linear layer."""
    return _normal(rng, (fan_in, fan_out), (3 * fan_in) ** -0.5)


def _zeros(shape):
    return np.zeros(shape, dtype=T.default_dtype())


def _ones(shape):
    return np.ones(shape, dtype=T.default_dtype())


def _add_attention_params(params: ParamStore, prefix: str, d: int, rng: Pcg32) -> None:
    for name in ("wq", "wk", "wv", "wo"):
        params.add(f"{prefix}.{name}", _weight(rng, d, d))
        params.add(f"{prefix}.b{name[1]}", _zeros(d))


def _add_norm_params(params: ParamStore, prefix: str, d: int) -> None:
    params.add(f"{prefix}.g", _ones(d))
    params.add(f"{prefix}.b", _zeros(d))


def add_layer_params(params: ParamStore, prefix: str, d: int, f: int, rng: Pcg32,
                     cross: bool = False) -> None:
    """One layer in `encoder_layer` order: attn, norm1, [cross_attn,
    norm_cross], ffn, norm2."""
    _add_attention_params(params, f"{prefix}.attn", d, rng)
    _add_norm_params(params, f"{prefix}.norm1", d)
    if cross:
        _add_attention_params(params, f"{prefix}.cross_attn", d, rng)
        _add_norm_params(params, f"{prefix}.norm_cross", d)
    params.add(f"{prefix}.ffn.w1", _weight(rng, d, f))
    params.add(f"{prefix}.ffn.b1", _zeros(f))
    params.add(f"{prefix}.ffn.w2", _weight(rng, f, d))
    params.add(f"{prefix}.ffn.b2", _zeros(d))
    _add_norm_params(params, f"{prefix}.norm2", d)


def add_stack_params(params: ParamStore, cfg: EncoderConfig, rng: Pcg32,
                     prefix: str = "", decoder: bool = False) -> None:
    """Embeddings and layers of one stack. A decoder stack embeds text
    only, so it has no region projections, and every layer has a
    cross-attention sublayer."""
    d = cfg.d_model
    params.add(f"{prefix}token_emb", _embedding(rng, cfg.vocab_size, d))
    params.add(f"{prefix}pos_emb", _embedding(rng, cfg.max_positions, d))
    params.add(f"{prefix}lang_emb", _embedding(rng, 3, d))
    if not decoder:
        params.add(f"{prefix}feat_proj.w", _weight(rng, cfg.feat_dim, d))
        params.add(f"{prefix}feat_proj.b", _zeros(d))
        params.add(f"{prefix}bbox_proj.w", _weight(rng, 4, d))
        params.add(f"{prefix}bbox_proj.b", _zeros(d))
    for i in range(cfg.n_layers):
        add_layer_params(params, f"{prefix}layers.{i}", d, cfg.ffn_dim, rng, decoder)


def init_encoder_params(cfg: EncoderConfig, rng: Pcg32) -> ParamStore:
    """XLM initialisation (Lample & Conneau 2019, arXiv 1901.07291).

    Embedding tables are N(0, 1/d_model); weight matrices, stored
    (in, out), are N(0, 1/(3 fan_in)), the variance XLM inherits from
    the PyTorch linear default. Biases are zero and LayerNorm gains one.
    The scale grows as the model narrows, so the tied token head and the
    region head give non-trivial logits from the first step at desk
    widths, where BERT's fixed 0.02 leaves them near zero.
    """
    params = ParamStore()
    add_stack_params(params, cfg, rng)
    params.add("mlm_bias", _zeros(cfg.vocab_size))
    params.add("mrc.w", _weight(rng, cfg.d_model, cfg.label_vocab_size))
    params.add("mrc.b", _zeros(cfg.label_vocab_size))
    return params


def linear(x: Tensor, params: ParamStore, w: str, b: str) -> Tensor:
    """x W + b of (..., d) rows by the (d, f) weight `w` and bias `b`:
    `T.linear`, one 2-D product over all rows."""
    return T.linear(x, params[w], params[b])


def tied_logits(params: ParamStore, rows: Tensor, prefix: str = "") -> Tensor:
    """Token logits of (..., d) rows: the tied token embedding plus the
    MLM head bias."""
    emb = params[f"{prefix}token_emb"]
    return T.linear(rows, T.transpose(emb, (1, 0)), params[f"{prefix}mlm_bias"])


def attention(params: ParamStore, prefix: str, x_q: Tensor, x_kv: Tensor,
              add_mask: np.ndarray | None, n_heads: int, dropout: float,
              rng: Pcg32 | None, training: bool, collect: list | None = None,
              cache: dict | None = None) -> Tensor:
    """Multi-head attention: four `linear` projections around
    `T.attention`. `add_mask` is broadcast onto the (rows, heads,
    queries, keys) score logits; `collect`, if given, receives each
    call's attention weights before dropout, of that shape.

    `x_kv` may have fewer rows than `x_q`: with B key rows and B*k query
    rows, query rows b*k .. b*k+k-1 all attend to key row b (the beam of
    one sentence reading its encoder states).

    `cache` (a dict, inference only) keeps the (rows, positions, d) key
    and value projections under `prefix` between decode steps.
    Self-attention (`x_kv is x_q`) appends the new positions to them on
    axis 1; any other attention projects `x_kv` on its first call and
    re-uses the projection afterwards.
    """
    if cache is not None and prefix in cache and x_kv is not x_q:
        k, v = cache[prefix]
    else:
        k = linear(x_kv, params, f"{prefix}.wk", f"{prefix}.bk")
        v = linear(x_kv, params, f"{prefix}.wv", f"{prefix}.bv")
        if cache is not None and prefix in cache:
            k = T.concat([cache[prefix][0], k], axis=1)
            v = T.concat([cache[prefix][1], v], axis=1)
    if cache is not None:
        cache[prefix] = (k, v)
    q = linear(x_q, params, f"{prefix}.wq", f"{prefix}.bq")
    ctx, probs = T.attention(q, k, v, add_mask, n_heads, dropout, rng, training)
    if collect is not None:
        collect.append(probs)
    return linear(ctx, params, f"{prefix}.wo", f"{prefix}.bo")


def select_cache_rows(cache: dict, rows: np.ndarray, memory_rows: np.ndarray) -> None:
    """Keep query rows `rows` (in that order) and memory rows
    `memory_rows` of an incremental decoder's cache: self-attention keys
    and values have one row per query row, cross-attention ones one row
    per memory row."""
    for name, (k, v) in cache.items():
        idx = memory_rows if name.endswith(".cross_attn") else rows
        cache[name] = (Tensor(k.data[idx]), Tensor(v.data[idx]))


def encoder_layer(params: ParamStore, prefix: str, x: Tensor,
                  add_mask: np.ndarray | None, cfg: EncoderConfig,
                  rng: Pcg32 | None, training: bool, collect: list | None = None,
                  memory: Tensor | None = None,
                  memory_mask: np.ndarray | None = None,
                  cache: dict | None = None) -> Tensor:
    """Post-norm layer: self-attention, then, given a `memory` (a decoder
    layer), cross-attention over it, then the feed-forward sublayer.
    `cache` is passed to both attentions (see `attention`)."""

    def residual(x, y, norm):
        return T.layer_norm(x + T.dropout(y, cfg.dropout, rng, training),
                            params[f"{prefix}.{norm}.g"], params[f"{prefix}.{norm}.b"])

    x = residual(x, attention(params, f"{prefix}.attn", x, x, add_mask, cfg.n_heads,
                              cfg.dropout, rng, training, collect, cache), "norm1")
    if memory is not None:
        x = residual(x, attention(params, f"{prefix}.cross_attn", x, memory, memory_mask,
                                  cfg.n_heads, cfg.dropout, rng, training, cache=cache),
                     "norm_cross")
    h = T.gelu(linear(x, params, f"{prefix}.ffn.w1", f"{prefix}.ffn.b1"))
    return residual(x, linear(h, params, f"{prefix}.ffn.w2", f"{prefix}.ffn.b2"), "norm2")


# -- encoder input ------------------------------------------------------------


@dataclass
class EncoderBatch:
    """Padded text rows, then `num_regions` region slots per row."""

    token_ids: np.ndarray               # (B, Tt) int64, [PAD] after each row
    pos_ids: np.ndarray
    lang_ids: np.ndarray
    pad_mask: np.ndarray                # (B, Tt) True at padding
    feats: np.ndarray | None = None     # (B, o, D)
    bboxes: np.ndarray | None = None    # (B, o, 4)
    vis_mask: np.ndarray | None = None  # (B, o) True: slot carries the [MASK] embedding

    @property
    def batch_size(self) -> int:
        return self.token_ids.shape[0]

    @property
    def text_len(self) -> int:
        return self.token_ids.shape[1]

    @property
    def num_regions(self) -> int:
        return 0 if self.feats is None else self.feats.shape[1]


@dataclass(kw_only=True)
class MaskedBatch(EncoderBatch):
    """Corrupted encoder input plus the masked prediction targets."""

    text_target_pos: np.ndarray    # (N, 2) -> (example, stream position)
    text_target_ids: np.ndarray    # (N,)
    vis_target_pos: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.int64))
    vis_target_ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))


def pad_rows(rows, fill: int) -> tuple[np.ndarray, np.ndarray]:
    """The one padding loop: id rows of any lengths as a (B, longest)
    int64 array with `fill` after each row, and its (B, longest) pad
    mask, True at the fill."""
    lengths = np.array([len(r) for r in rows], dtype=np.int64)
    t_max = int(lengths.max())
    out = np.full((len(rows), t_max), fill, dtype=np.int64)
    for b, r in enumerate(rows):
        out[b, : lengths[b]] = r
    return out, np.arange(t_max)[None, :] >= lengths[:, None]


def collate(rows, examples=None) -> EncoderBatch:
    """Pad text rows into one EncoderBatch and stack their regions.

    `rows` holds one (token_ids, pos_ids, lang_ids) triple per example;
    `examples`, if given, one `data.TripletExample` per row, whose (o, D)
    `feats` and (o, 4) `bboxes` are stacked into the batch's (B, o, D)
    and (B, o, 4) arrays. Raises DataError when the examples have
    different region counts.
    """
    tok, pos, lang = zip(*rows)
    token_ids, pad_mask = pad_rows(tok, PAD)
    batch = EncoderBatch(token_ids, pad_rows(pos, 0)[0], pad_rows(lang, 0)[0], pad_mask)
    if examples is not None:
        o = len(examples[0].labels)
        for ex in examples:
            if len(ex.labels) != o:
                raise DataError(f"examples with {o} and {len(ex.labels)} regions in one batch")
        batch.feats = np.stack([ex.feats for ex in examples])
        batch.bboxes = np.stack([ex.bboxes for ex in examples])
    return batch


def check_ids(ids: np.ndarray, size: int, what: str = "token id",
              table: str = "the vocabulary") -> None:
    """Raise DataError naming the first id outside [0, size)."""
    if ids.size and (ids.min() < 0 or ids.max() >= size):
        bad = ids[(ids < 0) | (ids >= size)].flat[0]
        raise DataError(f"{what} {bad} outside {table} [0, {size})")


def key_padding_mask(pad_mask: np.ndarray, num_regions: int) -> np.ndarray:
    """(B, 1, 1, T) additive mask; region slots are never padding."""
    bsz = pad_mask.shape[0]
    if num_regions:
        vis = np.zeros((bsz, num_regions), dtype=bool)
        pad_mask = np.concatenate([pad_mask, vis], axis=1)
    mask = np.where(pad_mask, NEG_INF, 0.0).astype(T.default_dtype())
    return mask[:, None, None, :]


def embed_inputs(params: ParamStore, cfg: EncoderConfig, token_ids: np.ndarray,
                 pos_ids: np.ndarray, lang_ids: np.ndarray,
                 feats: np.ndarray | None = None, bboxes: np.ndarray | None = None,
                 vis_mask: np.ndarray | None = None, prefix: str = "") -> Tensor:
    """Input embeddings before dropout.

    Text positions are token + position + language embeddings; each
    region slot, appended after the text, is projected feature +
    projected box + the visual language embedding. Slots flagged in
    `vis_mask` carry the [MASK] token embedding in place of their
    projection. Parameter names are `prefix` + the encoder's names.
    Raises ConfigError when a position id is past `cfg.max_positions`,
    DataError when a token id is outside the vocabulary.
    """
    top = int(pos_ids.max(initial=0))
    if top >= cfg.max_positions:
        raise ConfigError(f"position {top} >= max_positions {cfg.max_positions}")
    check_ids(token_ids, cfg.vocab_size)
    tok = T.embedding(params[f"{prefix}token_emb"], token_ids)
    pos = T.embedding(params[f"{prefix}pos_emb"], pos_ids)
    lang = T.embedding(params[f"{prefix}lang_emb"], lang_ids)
    x = tok + pos + lang
    if feats is None:
        return x
    if feats.shape[-1] != cfg.feat_dim:
        raise ConfigError(
            f"region feature dim {feats.shape[-1]} != model feat_dim {cfg.feat_dim}"
        )
    def project(a, name):
        return linear(Tensor(a.astype(T.default_dtype())), params,
                      f"{prefix}{name}.w", f"{prefix}{name}.b")

    vis = project(feats, "feat_proj") + project(bboxes, "bbox_proj")
    if vis_mask is not None:
        keep = Tensor((~vis_mask).astype(T.default_dtype())[:, :, None])
        mask_vec = T.embedding(params[f"{prefix}token_emb"], np.full((1, 1), MASK))
        vis = vis * keep + mask_vec * (1.0 - keep.data)
    vis = vis + T.embedding(params[f"{prefix}lang_emb"],
                            np.full(feats.shape[:2], LANG_VIS))
    return T.concat([x, vis], axis=1)


def encode(params: ParamStore, cfg: EncoderConfig, x: Tensor,
           add_mask: np.ndarray | None, rng: Pcg32 | None, training: bool,
           collect_attn: list | None = None, prefix: str = "",
           memory: Tensor | None = None, memory_mask: np.ndarray | None = None,
           cache: dict | None = None) -> Tensor:
    """The layer stack; `prefix` is "" for the pretraining model, "enc."
    for the encoder of a translation model and "dec." for its decoder,
    which attends to the encoder states `memory` under `memory_mask`.
    An incremental decoder passes one `cache` dict for all its steps: it
    holds every attention's keys and values by parameter prefix."""
    for i in range(cfg.n_layers):
        x = encoder_layer(params, f"{prefix}layers.{i}", x, add_mask, cfg, rng,
                          training, collect_attn, memory, memory_mask, cache)
    return x


def encode_batch(params: ParamStore, cfg: EncoderConfig, batch: EncoderBatch,
                 rng: Pcg32 | None, training: bool, prefix: str = "") -> tuple[Tensor, np.ndarray]:
    """The encoder front end: embed → dropout → key mask → layer stack.
    Returns (states, additive key mask)."""
    x = embed_inputs(params, cfg, batch.token_ids, batch.pos_ids, batch.lang_ids,
                     batch.feats, batch.bboxes, batch.vis_mask, prefix)
    x = T.dropout(x, cfg.dropout, rng, training)
    key_mask = key_padding_mask(batch.pad_mask, batch.num_regions)
    return encode(params, cfg, x, key_mask, rng, training, prefix=prefix), key_mask


@dataclass
class LossOutput:
    loss: Tensor
    mlm_loss: float
    mrc_loss: float | None
    mlm_acc: float
    mrc_acc: float | None
    n_text: int
    n_vis: int

    @property
    def masked_prediction_accuracy(self) -> float:
        """Accuracy pooled over all masked positions, text and visual."""
        total = self.n_text + self.n_vis
        if total == 0:
            return float("nan")
        acc = self.mlm_acc * self.n_text
        if self.n_vis:
            acc += self.mrc_acc * self.n_vis
        return acc / total


def vtlm_loss(params: ParamStore, cfg: EncoderConfig, batch: MaskedBatch,
              rng: Pcg32 | None, training: bool) -> LossOutput:
    """Joint masked-token + masked-region objective (equal weights).
    Raises DataError when a region label is outside [0, label_vocab_size)."""
    check_ids(batch.vis_target_ids, cfg.label_vocab_size, "region label",
              "the label vocabulary")
    states, _ = encode_batch(params, cfg, batch, rng, training)
    total_len = states.shape[1]

    terms = []
    mlm_loss_val = 0.0
    mlm_acc = float("nan")
    n_text = len(batch.text_target_ids)
    if n_text:
        idx = batch.text_target_pos[:, 0] * total_len + batch.text_target_pos[:, 1]
        rows = T.embedding(states, idx)
        logits = tied_logits(params, rows)
        mlm = T.cross_entropy(logits, batch.text_target_ids)
        terms.append(mlm)
        mlm_loss_val = mlm.item()
        mlm_acc = float(np.mean(np.argmax(logits.data, axis=1) == batch.text_target_ids))

    mrc_loss_val = None
    mrc_acc = None
    n_vis = len(batch.vis_target_ids)
    if n_vis:
        vidx = (
            batch.vis_target_pos[:, 0] * total_len
            + batch.text_len
            + batch.vis_target_pos[:, 1]
        )
        vrows = T.embedding(states, vidx)
        vlogits = linear(vrows, params, "mrc.w", "mrc.b")
        mrc = T.cross_entropy(vlogits, batch.vis_target_ids)
        terms.append(mrc)
        mrc_loss_val = mrc.item()
        mrc_acc = float(np.mean(np.argmax(vlogits.data, axis=1) == batch.vis_target_ids))

    if not terms:
        raise ValueError("batch has no prediction targets")
    loss = terms[0] if len(terms) == 1 else T.add(terms[0], terms[1])
    return LossOutput(loss, mlm_loss_val, mrc_loss_val, mlm_acc, mrc_acc,
                      n_text, n_vis)
