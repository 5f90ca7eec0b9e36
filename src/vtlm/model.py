"""Single-stream transformer encoder with masked-token and masked-region heads.

Encoder input has one format, `EncoderBatch`: padded text rows followed
by a fixed number of region slots per row, built by `collate`. Text
positions are embedded as token + per-segment position + language
embeddings; region slots as projected feature + projected box + a
dedicated visual language embedding (no sequential position: regions
are set-like, geometry travels in the box projection), or, where
`vis_mask` is set, the [MASK] token embedding + the visual language
embedding. `encode_batch` runs the one front end, embed → dropout → layer
stack, for pretraining and for the translation encoder.
Every forward pass takes `drop`: None, or a training step's (rate, stream).
Both segments flow through the same post-norm encoder stack with full
bidirectional attention. The token head is weight-tied to the input
embedding; the region head is a fresh linear classifier over detector
labels.

Hidden states are packed rows (see `tensor`): an (N, d) array of the
real positions of the padded (B, T) stream in row-major order, each
example's text positions then its region slots, and a `tensor.Grid`
that places them, the one record of padding. Embeddings, projections,
layer norms, the feed-forward sublayer and residual dropout run on
those rows alone; attention sees the grid and masks the keys its `pad`
marks, and every dropout draws over the grid's shape, so a step draws
what the padded computation would.

The heads read only the masked positions, so `vtlm_loss` runs the last
layer at those rows alone: its queries, residuals and feed-forward
sublayer are the real target rows of the (B, Tq) target grid, while its
keys and values still come from every position. That layer's attention
weights are (B, H, Tq, T).

The same layer, stack and parameter names serve the translation model:
given a `memory`, a layer adds a cross-attention sublayer over it and
attends causally, which is all that tells the decoder from the encoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .bpe import LANG_VIS, MASK, PAD
from .errors import ConfigError, DataError
from .rng import Pcg32
from .tensor import Tensor

N_LANGS = 3  # rows of the language embedding: LANG_L1, LANG_L2, LANG_VIS


@dataclass(frozen=True)
class EncoderConfig:
    """The architecture only: what a checkpoint's `model_config` records."""

    vocab_size: int
    label_vocab_size: int
    feat_dim: int
    d_model: int = 512
    ffn_dim: int = 2048
    n_layers: int = 6
    n_heads: int = 8
    max_positions: int = 256

    def __post_init__(self):
        for name in ("vocab_size", "label_vocab_size", "feat_dim", "d_model", "ffn_dim",
                     "n_layers", "n_heads", "max_positions"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError("d_model must be divisible by n_heads")

    @classmethod
    def desk(cls, vocab_size: int, label_vocab_size: int, feat_dim: int, **kw):
        """CPU-friendly configuration used throughout the experiments."""
        defaults = dict(d_model=64, ffn_dim=256, n_layers=2, n_heads=4, max_positions=64)
        defaults.update(kw)
        return cls(vocab_size, label_vocab_size, feat_dim, **defaults)


# Model parameters by name: float32 tensors that require gradients, made
# by the init helpers below. Every op computes in its inputs' dtype, so a
# gradient-check test casts the tensors to float64 and the model follows.
ParamStore = dict[str, Tensor]


def _param(data: np.ndarray) -> Tensor:
    return Tensor(data.astype(np.float32), requires_grad=True)


def _normal(rng: Pcg32, shape, std: float) -> Tensor:
    return _param(rng.normal(shape, dtype=np.float64) * std)


def _embedding(rng: Pcg32, n: int, d: int) -> Tensor:
    """XLM embedding table: N(0, 1/d)."""
    return _normal(rng, (n, d), d ** -0.5)


def _weight(rng: Pcg32, fan_in: int, fan_out: int) -> Tensor:
    """XLM linear weight, stored (in, out): N(0, 1/(3 fan_in)), the
    variance of the uniform default init of a PyTorch linear layer."""
    return _normal(rng, (fan_in, fan_out), (3 * fan_in) ** -0.5)


def _zeros(shape) -> Tensor:
    return _param(np.zeros(shape))


def _ones(shape) -> Tensor:
    return _param(np.ones(shape))


def _add_attention_params(params: ParamStore, prefix: str, d: int, rng: Pcg32) -> None:
    for name in ("wq", "wk", "wv", "wo"):
        params[f"{prefix}.{name}"] = _weight(rng, d, d)
        params[f"{prefix}.b{name[1]}"] = _zeros(d)


def _add_norm_params(params: ParamStore, prefix: str, d: int) -> None:
    params[f"{prefix}.g"] = _ones(d)
    params[f"{prefix}.b"] = _zeros(d)


def add_layer_params(params: ParamStore, prefix: str, d: int, f: int, rng: Pcg32,
                     cross: bool = False) -> None:
    """One layer in `encoder_layer` order: attn, norm1, [cross_attn,
    norm_cross], ffn, norm2."""
    _add_attention_params(params, f"{prefix}.attn", d, rng)
    _add_norm_params(params, f"{prefix}.norm1", d)
    if cross:
        _add_attention_params(params, f"{prefix}.cross_attn", d, rng)
        _add_norm_params(params, f"{prefix}.norm_cross", d)
    params[f"{prefix}.ffn.w1"] = _weight(rng, d, f)
    params[f"{prefix}.ffn.b1"] = _zeros(f)
    params[f"{prefix}.ffn.w2"] = _weight(rng, f, d)
    params[f"{prefix}.ffn.b2"] = _zeros(d)
    _add_norm_params(params, f"{prefix}.norm2", d)


def add_stack_params(params: ParamStore, cfg: EncoderConfig, rng: Pcg32,
                     prefix: str = "", decoder: bool = False) -> None:
    """Embeddings and layers of one stack. A decoder stack embeds text
    only, so it has no region projections, and every layer has a
    cross-attention sublayer."""
    d = cfg.d_model
    params[f"{prefix}token_emb"] = _embedding(rng, cfg.vocab_size, d)
    params[f"{prefix}pos_emb"] = _embedding(rng, cfg.max_positions, d)
    params[f"{prefix}lang_emb"] = _embedding(rng, N_LANGS, d)
    if not decoder:
        params[f"{prefix}feat_proj.w"] = _weight(rng, cfg.feat_dim, d)
        params[f"{prefix}feat_proj.b"] = _zeros(d)
        params[f"{prefix}bbox_proj.w"] = _weight(rng, 4, d)
        params[f"{prefix}bbox_proj.b"] = _zeros(d)
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
    params: ParamStore = {}
    add_stack_params(params, cfg, rng)
    params["mlm_bias"] = _zeros(cfg.vocab_size)
    params["mrc.w"] = _weight(rng, cfg.d_model, cfg.label_vocab_size)
    params["mrc.b"] = _zeros(cfg.label_vocab_size)
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


def attention(params: ParamStore, prefix: str, x_q: Tensor, x_kv: Tensor, n_heads: int,
              drop, q_grid: T.Grid, kv_grid: T.Grid, collect: list | None = None,
              cache: dict | None = None, causal: bool = False) -> Tensor:
    """Multi-head attention: four `linear` projections of packed rows
    around `T.attention`, which places them on `q_grid` and `kv_grid`
    and masks padded keys, and for `causal` later ones; `collect`, if
    given, receives each call's (rows, heads, queries, keys) weights
    before dropout.

    `x_kv` may have fewer grid rows than `x_q`: with B key rows and B*k
    query rows, query rows b*k .. b*k+k-1 all attend to key row b (the
    beam of one sentence reading its encoder states).

    `cache` (a dict, inference only) keeps the grid-shaped (rows,
    positions, d) key and value projections under `prefix` between
    decode steps. Self-attention (`x_kv is x_q`) appends the new
    positions to them on axis 1, none of them padding; any other
    attention projects `x_kv` on its first call and re-uses the
    projection, handed over as every cell of `kv_grid`, `pad` kept.
    """
    if cache is not None and prefix in cache and x_kv is not x_q:
        k, v = cache[prefix]
    else:
        k = linear(x_kv, params, f"{prefix}.wk", f"{prefix}.bk")
        v = linear(x_kv, params, f"{prefix}.wv", f"{prefix}.bv")
        if cache is not None:
            k, v = kv_grid.scatter(k.data), kv_grid.scatter(v.data)
            if prefix in cache:
                k = np.concatenate([cache[prefix][0].data, k], axis=1)
                v = np.concatenate([cache[prefix][1].data, v], axis=1)
            k, v = Tensor(k), Tensor(v)
    if cache is not None:
        cache[prefix] = (k, v)
        if x_kv is x_q:
            kv_grid = None  # grid-shaped, every key real
        else:
            kv_grid = T.Grid(kv_grid.pad)
            k, v = (Tensor(a.data.reshape(-1, a.shape[-1])) for a in (k, v))
    q = linear(x_q, params, f"{prefix}.wq", f"{prefix}.bq")
    ctx, probs = T.attention(q, k, v, n_heads, drop, q_grid, kv_grid, causal)
    if collect is not None:
        collect.append(probs)
    return linear(ctx, params, f"{prefix}.wo", f"{prefix}.bo")


def select_cache_rows(cache: dict, rows: np.ndarray,
                      memory_rows: np.ndarray | None = None) -> None:
    """Keep query rows `rows` (in that order) and memory rows
    `memory_rows` of an incremental decoder's cache: self-attention keys
    and values have one row per query row, cross-attention ones one row
    per memory row. `memory_rows` None keeps every memory row, leaving
    the cross-attention entries as they are."""
    for name, (k, v) in cache.items():
        idx = memory_rows if name.endswith(".cross_attn") else rows
        if idx is not None:
            cache[name] = (Tensor(k.data[idx]), Tensor(v.data[idx]))


def encoder_layer(params: ParamStore, prefix: str, x: Tensor, grid: T.Grid,
                  cfg: EncoderConfig, drop, collect: list | None = None,
                  memory: Tensor | None = None, memory_grid: T.Grid | None = None,
                  cache: dict | None = None, queries: tuple | None = None) -> Tensor:
    """Post-norm layer on the packed rows `x` of `grid`: self-attention,
    then, given a `memory` (a decoder layer), cross-attention over its
    packed rows on `memory_grid`, then the feed-forward sublayer. A
    decoder layer's self-attention is causal.
    `cache` is passed to both attentions (see `attention`). Residual
    dropout draws over the shape of the queries' grid (`T.dropout`).

    `queries`, a pair (rows, q_grid), computes only the rows `rows` of
    `x`, as the packed rows of the grid `q_grid`: they are the
    self-attention queries (keys and values still come from all of
    `x`), the residuals and the feed-forward sublayer run on them, and
    they are what the layer returns; `collect` receives (B, H, Tq, T)
    weights for a (B, Tq) `q_grid`."""
    x_q, q_grid = (x, grid) if queries is None else (T.embedding(x, queries[0]), queries[1])

    def residual(x, y, norm):
        return T.layer_norm(x + T.dropout(y, drop, q_grid),
                            params[f"{prefix}.{norm}.g"], params[f"{prefix}.{norm}.b"])

    x = residual(x_q, attention(params, f"{prefix}.attn", x_q, x, cfg.n_heads, drop, q_grid,
                                grid, collect, cache, causal=memory is not None), "norm1")
    if memory is not None:
        x = residual(x, attention(params, f"{prefix}.cross_attn", x, memory, cfg.n_heads,
                                  drop, q_grid, memory_grid, cache=cache), "norm_cross")
    h = T.gelu(linear(x, params, f"{prefix}.ffn.w1", f"{prefix}.ffn.b1"))
    return residual(x, linear(h, params, f"{prefix}.ffn.w2", f"{prefix}.ffn.b2"), "norm2")


# -- encoder input ------------------------------------------------------------


@dataclass
class EncoderBatch:
    """Padded text rows, then o region slots per row (none without `feats`)."""

    token_ids: np.ndarray               # (B, Tt) int64, [PAD] after each row
    pos_ids: np.ndarray
    lang_ids: np.ndarray
    pad_mask: np.ndarray                # (B, Tt) True at padding
    feats: np.ndarray | None = None     # (B, o, D)
    bboxes: np.ndarray | None = None    # (B, o, 4)
    vis_mask: np.ndarray | None = None  # (B, o) True: slot carries the [MASK] embedding

    @property
    def text_len(self) -> int:
        return self.token_ids.shape[1]


@dataclass(kw_only=True)
class MaskedBatch(EncoderBatch):
    """Corrupted encoder input plus its prediction targets, one row per
    example: its text targets in position order, then its region targets
    in slot order, then fill up to Tq, the largest target count."""

    target_pos: np.ndarray    # (B, Tq) encoder position: text position, or text_len + slot
    target_ids: np.ndarray    # (B, Tq) token id, or region label
    target_pad: np.ndarray    # (B, Tq) True at fill (position 0, id 0)


def pad_rows(rows, fill: int) -> tuple[np.ndarray, np.ndarray]:
    """The one padding loop: id rows of any lengths as a (B, longest)
    int64 array with `fill` after each row, and its (B, longest) pad
    mask, True at the fill. Raises DataError when there are no rows."""
    if not rows:
        raise DataError("an empty batch: no rows to pad")
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
    and (B, o, 4) arrays. Raises DataError when there are no rows or the
    examples have different region counts.
    """
    if not rows:
        raise DataError("an empty batch: no rows to collate")
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


def embed_inputs(params: ParamStore, cfg: EncoderConfig, token_ids: np.ndarray,
                 pos_ids: np.ndarray, lang_ids: np.ndarray, pad_mask: np.ndarray,
                 feats: np.ndarray | None = None, bboxes: np.ndarray | None = None,
                 vis_mask: np.ndarray | None = None,
                 prefix: str = "") -> tuple[Tensor, T.Grid]:
    """Input embeddings before dropout, as (packed rows, grid).

    The grid is (B, Tt + o): the (B, Tt) text positions, True in
    `pad_mask` at padding, then o region slots per row, never padding.
    Its real text positions are token + position + language embeddings;
    each region slot is projected feature + projected box + the visual
    language embedding. Slots flagged in `vis_mask` carry the [MASK]
    token embedding in place of their projection. Parameter names are
    `prefix` + the encoder's names. Region features and boxes are cast
    to the projection weight's dtype. Raises ConfigError when a position
    id is past `cfg.max_positions`, DataError when a position id is
    negative, or a token or language id is outside its table.
    """
    top = int(pos_ids.max(initial=0))
    if top >= cfg.max_positions:
        raise ConfigError(f"position {top} >= max_positions {cfg.max_positions}")
    check_ids(pos_ids, cfg.max_positions, "position id", "the positions")
    check_ids(token_ids, cfg.vocab_size)
    check_ids(lang_ids, N_LANGS, "language id", "the languages")
    text = T.Grid.of(pad_mask)

    def lookup(table, ids):
        return T.embedding(params[f"{prefix}{table}"], text.gather(ids))

    x = lookup("token_emb", token_ids) + lookup("pos_emb", pos_ids) + lookup("lang_emb", lang_ids)
    if feats is None:
        return x, text
    if feats.shape[-1] != cfg.feat_dim:
        raise ConfigError(
            f"region feature dim {feats.shape[-1]} != model feat_dim {cfg.feat_dim}"
        )
    def project(a, name):
        w = params[f"{prefix}{name}.w"]
        return T.linear(Tensor(a.reshape(-1, a.shape[-1]).astype(w.dtype)), w,
                        params[f"{prefix}{name}.b"])

    vis = project(feats, "feat_proj") + project(bboxes, "bbox_proj")
    if vis_mask is not None:
        keep = Tensor((~vis_mask).astype(vis.dtype).reshape(-1, 1))
        mask_vec = T.embedding(params[f"{prefix}token_emb"], np.full(1, MASK))
        vis = vis * keep + mask_vec * (1.0 - keep.data)
    vis = vis + T.embedding(params[f"{prefix}lang_emb"], np.full(len(vis.data), LANG_VIS))
    bsz, o = feats.shape[:2]
    grid = T.Grid.of(np.concatenate([pad_mask, np.zeros((bsz, o), dtype=bool)], axis=1))
    cells = np.arange(bsz * grid.shape[1]).reshape(grid.shape)
    text_len = pad_mask.shape[1]
    text_rows = grid.index(text.gather(cells[:, :text_len]))
    vis_rows = grid.index(cells[:, text_len:].reshape(-1))
    return T.merge_rows([x, vis], [text_rows, vis_rows]), grid


def encode(params: ParamStore, cfg: EncoderConfig, x: Tensor, grid: T.Grid, drop,
           collect_attn: list | None = None, prefix: str = "",
           memory: Tensor | None = None, memory_grid: T.Grid | None = None,
           cache: dict | None = None, queries: tuple | None = None) -> Tensor:
    """The layer stack on the packed rows `x` of `grid`; `prefix` is ""
    for the pretraining model, "enc." for the encoder of a translation
    model and "dec." for its decoder, which attends causally to itself
    and to the packed encoder states `memory` of `memory_grid`. An
    incremental decoder passes one `cache` dict for all its steps: it
    holds every attention's keys and values by parameter prefix.

    `queries` (see `encoder_layer`) go to the last layer only, which then
    computes and returns just those rows; its `collect_attn` entry is
    (B, H, Tq, T)."""
    last = cfg.n_layers - 1
    for i in range(cfg.n_layers):
        x = encoder_layer(params, f"{prefix}layers.{i}", x, grid, cfg, drop, collect_attn,
                          memory, memory_grid, cache, queries if i == last else None)
    return x


def encode_batch(params: ParamStore, cfg: EncoderConfig, batch: EncoderBatch, drop,
                 prefix: str = "",
                 queries: tuple | None = None) -> tuple[Tensor, T.Grid]:
    """The encoder front end: embed → dropout → layer stack. Returns
    (packed states, their grid), whose `pad` marks the padded keys.

    `queries`, a pair (pos, q_grid) of (B, Tq) stream positions and the
    grid of their real cells, makes the last layer compute only the
    rows at those positions, as the packed rows of `q_grid` (see
    `encoder_layer`)."""
    x, grid = embed_inputs(params, cfg, batch.token_ids, batch.pos_ids, batch.lang_ids,
                           batch.pad_mask, batch.feats, batch.bboxes, batch.vis_mask, prefix)
    x = T.dropout(x, drop, grid)
    if queries is not None:
        pos, q_grid = queries
        cells = np.arange(len(pos))[:, None] * grid.shape[1] + pos
        queries = (grid.index(q_grid.gather(cells)), q_grid)
    return encode(params, cfg, x, grid, drop, prefix=prefix, queries=queries), grid


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
        acc = 0.0  # a head without targets has a NaN (or None) accuracy
        if self.n_text:
            acc += self.mlm_acc * self.n_text
        if self.n_vis:
            acc += self.mrc_acc * self.n_vis
        return acc / total


def vtlm_loss(params: ParamStore, cfg: EncoderConfig, batch: MaskedBatch,
              drop) -> LossOutput:
    """Joint masked-token + masked-region objective (equal weights).

    The last encoder layer runs only at the rows the two heads read:
    the real cells of the (B, Tq) target grid, at stream positions
    `target_pos`. Each head gathers its targets from that layer's
    packed output, text ones where `target_pos` is a text position,
    region ones where it is a slot. Raises DataError when the batch has
    no targets or a region label is outside [0, label_vocab_size)."""
    target = ~batch.target_pad
    is_text = batch.target_pos < batch.text_len
    text_cells = np.flatnonzero(target & is_text)
    vis_cells = np.flatnonzero(target & ~is_text)
    text_ids = batch.target_ids.flat[text_cells]
    vis_ids = batch.target_ids.flat[vis_cells]
    check_ids(vis_ids, cfg.label_vocab_size, "region label", "the label vocabulary")
    n_text, n_vis = len(text_cells), len(vis_cells)
    if not (n_text or n_vis):
        raise DataError("batch has no prediction targets")
    q_grid = T.Grid.of(batch.target_pad)
    states, _ = encode_batch(params, cfg, batch, drop, queries=(batch.target_pos, q_grid))

    terms = []
    mlm_loss_val, mlm_acc, mrc_loss_val, mrc_acc = 0.0, float("nan"), None, None
    if n_text:
        logits = tied_logits(params, T.embedding(states, q_grid.index(text_cells)))
        terms.append(T.cross_entropy(logits, text_ids))
        mlm_loss_val = terms[-1].item()
        mlm_acc = float(np.mean(np.argmax(logits.data, axis=1) == text_ids))

    if n_vis:
        vlogits = linear(T.embedding(states, q_grid.index(vis_cells)), params, "mrc.w", "mrc.b")
        terms.append(T.cross_entropy(vlogits, vis_ids))
        mrc_loss_val = terms[-1].item()
        mrc_acc = float(np.mean(np.argmax(vlogits.data, axis=1) == vis_ids))

    loss = terms[0] if len(terms) == 1 else T.add(terms[0], terms[1])
    return LossOutput(loss, mlm_loss_val, mrc_loss_val, mlm_acc, mrc_acc, n_text, n_vis)
