import dataclasses
import math
import re

import numpy as np
import pytest

from helpers import (
    assert_grads_close,
    clear_grads,
    draws_left,
    float64_params,
    full_row_vtlm_loss,
    generate_synthetic,
    gradcheck,
    target_triples,
    tsum,
)
from vtlm import bpe, model, tensor as T
from vtlm.errors import ConfigError, DataError
from vtlm.masking import (
    MaskPolicy,
    TLM,
    VTLM,
    build_masked_batch,
    build_stream,
)
from vtlm.model import (
    EncoderConfig,
    add_layer_params,
    attention,
    collate,
    embed_inputs,
    encode,
    init_encoder_params,
    linear,
    pad_rows,
    vtlm_loss,
)
from vtlm.rng import Pcg32
from vtlm.seq2seq import init_mt_params
from vtlm.synthetic import GenConfig
from vtlm.trainer import AdamState, adam_step


CFG = GenConfig(num_examples=16, feat_dim=8, num_merges=150)


@pytest.fixture(scope="module")
def examples():
    return generate_synthetic(CFG, seed=3)


def desk_cfg(vocab_size):
    return EncoderConfig.desk(vocab_size, CFG.num_labels, CFG.feat_dim,
                              d_model=32, ffn_dim=64, n_layers=2, n_heads=2)


def make_batch(examples, mode=VTLM, seed=0, policy=None):
    root = Pcg32(seed)
    vocab = max(max(ex.src_tokens + ex.tgt_tokens) for ex in examples) + 1
    return build_masked_batch(examples, mode, policy or MaskPolicy(), vocab,
                              root.split("t"), root.split("v")), vocab


def embed(params, cfg, batch):
    """Input embeddings of a batch (no dropout): packed rows and grid."""
    return embed_inputs(params, cfg, batch.token_ids, batch.pos_ids, batch.lang_ids,
                        batch.pad_mask, batch.feats, batch.bboxes, batch.vis_mask)


def encode_grid(params, cfg, batch, drop=None, **kw):
    """The stack's states of a batch, grid-shaped, zero at padding."""
    x, grid = embed(params, cfg, batch)
    return grid.scatter(encode(params, cfg, x, grid, drop, **kw).data)


def uncorrupt_regions(batch, examples):
    """Give every slot its own region back, unmasked."""
    batch.feats[:] = np.stack([ex.feats for ex in examples])
    batch.bboxes[:] = np.stack([ex.bboxes for ex in examples])
    batch.vis_mask[:] = False


class TestEmbed:
    def test_mask_embed_slot_is_mask_plus_vis_lang(self, examples):
        batch, vocab = make_batch(examples[:4])
        cfg = desk_cfg(vocab)
        params = init_encoder_params(cfg, Pcg32(1).split("init"))
        # force one slot to carry the [MASK] embedding
        batch.vis_mask[:] = False
        batch.vis_mask[0, 2] = True
        x, grid = embed(params, cfg, batch)
        got = grid.scatter(x.data)[0, batch.text_len + 2]
        expect = params["token_emb"].data[bpe.MASK] + params["lang_emb"].data[bpe.LANG_VIS]
        assert np.allclose(got, expect, atol=1e-6)

    def test_zero_region_embedding_is_projection_biases(self, examples):
        batch, vocab = make_batch(examples[:2])
        cfg = desk_cfg(vocab)
        params = init_encoder_params(cfg, Pcg32(1).split("init"))
        params["feat_proj.b"].data[:] = 0.5
        params["bbox_proj.b"].data[:] = -0.25
        batch.vis_mask[:] = False
        batch.feats[:] = 0.0
        batch.bboxes[:] = 0.0
        x, grid = embed(params, cfg, batch)
        got = grid.scatter(x.data)[0, batch.text_len]
        expect = 0.5 - 0.25 + params["lang_emb"].data[bpe.LANG_VIS]
        assert np.allclose(got, expect, atol=1e-6)


    @pytest.mark.parametrize("field, bad, message", [
        ("pos_ids", -1, "position id -1 outside the positions [0, 64)"),
        ("lang_ids", -1, "language id -1 outside the languages [0, 3)"),
        ("lang_ids", 3, "language id 3 outside the languages [0, 3)"),
    ])
    def test_bad_position_or_language_id_raises_data_error(self, examples, field, bad,
                                                           message):
        """A negative position or language id used to read the last row
        of its table, and language id 3 raised numpy's IndexError."""
        batch, vocab = make_batch(examples[:2])
        cfg = desk_cfg(vocab)
        params = init_encoder_params(cfg, Pcg32(1).split("init"))
        getattr(batch, field)[1, 2] = bad
        with pytest.raises(DataError, match=re.escape(message)):
            embed(params, cfg, batch)


class TestEncode:
    def test_attention_rows_sum_to_one_over_nonpad(self, examples):
        """`collect` receives the weights before attention dropout, also
        when training."""
        batch, vocab = make_batch(examples[:6])
        cfg = desk_cfg(vocab)
        params = init_encoder_params(cfg, Pcg32(1).split("init"))
        collected = []
        for drop in (None, (0.3, Pcg32(0).split("dropout"))):
            encode_grid(params, cfg, batch, drop, collect_attn=collected)
        assert len(collected) == 2 * cfg.n_layers
        for probs in collected:
            assert np.all(np.abs(probs.sum(axis=-1) - 1.0) < 1e-5)
            # padded keys receive zero attention from every query
            pad_cols = np.concatenate(
                [batch.pad_mask, np.zeros(batch.vis_mask.shape, bool)], axis=1)
            for b in range(len(batch.token_ids)):
                assert np.all(probs[b, :, :, pad_cols[b]] == 0.0)

    def test_visual_slot_permutation_equivariance(self, examples):
        """Swapping two region slots permutes their states and leaves text
        states unchanged (regions carry no sequential position)."""
        batch, vocab = make_batch(examples[:3])
        uncorrupt_regions(batch, examples[:3])
        cfg = desk_cfg(vocab)
        params = init_encoder_params(cfg, Pcg32(1).split("init"))

        states = encode_grid(params, cfg, batch)
        swapped, _ = make_batch(examples[:3])
        uncorrupt_regions(swapped, examples[:3])
        for arr in ("feats", "bboxes"):
            a = getattr(swapped, arr)
            a[0, [2, 5]] = a[0, [5, 2]]
        states_sw = encode_grid(params, cfg, swapped)
        t = batch.text_len
        assert np.allclose(states[0, :t], states_sw[0, :t], atol=1e-5)
        assert np.allclose(states[0, t + 2], states_sw[0, t + 5], atol=1e-5)
        assert np.allclose(states[0, t + 5], states_sw[0, t + 2], atol=1e-5)

    def test_last_layer_computes_only_the_given_rows(self, examples):
        """Given query rows on a (B, Tq) grid, the stack returns those
        rows of its full output, and the last layer's weights are
        (B, H, Tq, T)."""
        batch, vocab = make_batch(examples[:3])
        cfg = desk_cfg(vocab)
        params = init_encoder_params(cfg, Pcg32(1).split("init"))
        x, grid = embed(params, cfg, batch)
        full = encode(params, cfg, x, grid, None).data
        total_len = grid.shape[1]
        cells = np.array([0, 5, total_len - 1, total_len + 2,
                          2 * total_len + 1, 2 * total_len + 9, 2 * total_len])
        q_pad = np.array([[False, False, False], [False, True, True], [False, False, False]])
        collected = []
        rows = encode(params, cfg, x, grid, None, collect_attn=collected,
                      queries=(grid.index(cells), T.Grid.of(q_pad))).data
        assert rows.shape == (7, cfg.d_model)
        assert np.allclose(rows, full[grid.index(cells)], atol=1e-6)
        assert [p.shape for p in collected] == [(3, cfg.n_heads, total_len, total_len),
                                                (3, cfg.n_heads, 3, total_len)]

    def test_degenerate_single_token(self):
        cfg = EncoderConfig.desk(vocab_size=10, label_vocab_size=4, feat_dim=4,
                                 d_model=16, ffn_dim=32, n_layers=1, n_heads=2)
        params = init_encoder_params(cfg, Pcg32(0).split("init"))
        x = T.Tensor(np.zeros((1, 16), dtype=np.float32))
        out = encode(params, cfg, x, T.Grid(np.zeros((1, 1), bool)), None)
        assert out.shape == (1, 16)


class TestVtlmLoss:
    def test_tlm_mode_has_no_mrc_term(self, examples):
        batch, vocab = make_batch(examples[:4], mode=TLM)
        cfg = desk_cfg(vocab)
        params = init_encoder_params(cfg, Pcg32(1).split("init"))
        out = vtlm_loss(params, cfg, batch, None)
        assert out.mrc_loss is None
        assert out.loss.item() == pytest.approx(out.mlm_loss, abs=1e-7)

    def test_untrained_mrc_loss_near_uniform(self, examples):
        batch, vocab = make_batch(examples)
        cfg = desk_cfg(vocab)
        params = init_encoder_params(cfg, Pcg32(1).split("init"))
        out = vtlm_loss(params, cfg, batch, None)
        assert out.mrc_loss == pytest.approx(math.log(CFG.num_labels), abs=0.3)

    def test_joint_loss_is_sum_of_terms(self, examples):
        batch, vocab = make_batch(examples[:6])
        cfg = desk_cfg(vocab)
        params = init_encoder_params(cfg, Pcg32(1).split("init"))
        out = vtlm_loss(params, cfg, batch, None)
        assert out.loss.item() == pytest.approx(out.mlm_loss + out.mrc_loss, rel=1e-6)

    def test_padding_invariance(self, examples):
        """Extra [PAD] columns change no loss value; the region targets
        move with the regions, whose encoder positions follow the text."""
        batch, vocab = make_batch(examples[:4])
        cfg = desk_cfg(vocab)
        params = init_encoder_params(cfg, Pcg32(1).split("init"))
        base = vtlm_loss(params, cfg, batch, None).loss.item()

        extra = 3
        pad_block = np.full((len(batch.token_ids), extra), bpe.PAD, dtype=np.int64)
        b2 = dataclasses.replace(
            batch,
            token_ids=np.concatenate([batch.token_ids, pad_block], axis=1),
            pos_ids=np.concatenate([batch.pos_ids, np.zeros_like(pad_block)], axis=1),
            lang_ids=np.concatenate([batch.lang_ids, np.zeros_like(pad_block)], axis=1),
            pad_mask=np.concatenate(
                [batch.pad_mask, np.ones((len(batch.token_ids), extra), bool)], axis=1),
            target_pos=np.where(batch.target_pos < batch.text_len, batch.target_pos,
                                batch.target_pos + extra))
        padded = vtlm_loss(params, cfg, b2, None).loss.item()
        assert padded == pytest.approx(base, abs=1e-5)

    def test_position_past_max_positions_raises_config_error(self, examples):
        """A row laid out past the model's positions fails at the embedding
        with a ConfigError naming the position, not an IndexError."""
        long_ex = dataclasses.replace(examples[0], src_tokens=(examples[0].src_tokens * 80)[:80])
        batch, vocab = make_batch([long_ex] + examples[1:4])
        cfg = desk_cfg(vocab)
        assert cfg.max_positions == 64
        params = init_encoder_params(cfg, Pcg32(0))
        # [BOS] + 80 tokens + [EOS] [SEP]: positions 0 .. 82
        with pytest.raises(ConfigError, match="position 82 >= max_positions 64"):
            vtlm_loss(params, cfg, batch, None)

    def test_loss_bits_reproducible(self, examples):
        def run():
            batch, vocab = make_batch(examples[:8], seed=5)
            cfg = desk_cfg(vocab)
            params = init_encoder_params(cfg, Pcg32(2).split("init"))
            return vtlm_loss(params, cfg, batch, (0.1, Pcg32(7).split("d"))).loss.item()

        assert run() == run()

    def test_rate_zero_forward_equals_no_dropout(self, examples):
        """A pretraining forward at (0.0, stream) has the bits of the
        `None` forward and leaves the stream where it was."""
        batch, vocab = make_batch(examples[:6])
        cfg = desk_cfg(vocab)
        params = init_encoder_params(cfg, Pcg32(1).split("init"))
        rng = Pcg32(7)
        got = vtlm_loss(params, cfg, batch, (0.0, rng))
        want = vtlm_loss(params, cfg, batch, None)
        assert draws_left(rng, 7)
        assert got.loss.data.tobytes() == want.loss.data.tobytes()
        assert (got.mlm_acc, got.mrc_acc) == (want.mlm_acc, want.mrc_acc)

    def test_overfits_one_batch(self, examples):
        """200 optimisation steps on a single small batch drive the joint
        loss under 0.1."""
        batch, vocab = make_batch(examples[:4], seed=9)
        # A [MASK]-embedded slot replaces feature and box alike, so two such
        # slots of one example are identical inputs; if their labels differ
        # the MRC term cannot go below ln 2 and the bound is unreachable.
        masked_labels = {}
        for b, pos, label in target_triples(batch):
            if pos >= batch.text_len and batch.vis_mask[b, pos - batch.text_len]:
                masked_labels.setdefault(int(b), set()).add(int(label))
        assert all(len(labels) == 1 for labels in masked_labels.values())
        cfg = desk_cfg(vocab)
        params = init_encoder_params(cfg, Pcg32(3).split("init"))
        adam = AdamState.init(params)
        loss = None
        for _ in range(200):
            clear_grads(params)
            out = vtlm_loss(params, cfg, batch, None)
            out.loss.backward()
            adam_step(params, adam, lr=1e-3)
            loss = out.loss.item()
        assert loss < 0.1


def retarget(batch, text, vis, vocab):
    """`batch` with text targets at (example, position) pairs `text` and
    region targets at (example, slot) pairs `vis`, with spread-out ids;
    each example's targets keep their order in `text`, then in `vis`."""
    pos = [[] for _ in batch.token_ids]
    ids = [[] for _ in batch.token_ids]
    for k, (b, t) in enumerate(text):
        pos[b].append(t)
        ids[b].append((7 * k + 5) % vocab)
    for k, (b, slot) in enumerate(vis):
        pos[b].append(batch.text_len + slot)
        ids[b].append((3 * k + 1) % CFG.num_labels)
    target_pos, target_pad = pad_rows(pos, 0)
    return dataclasses.replace(batch, target_pos=target_pos,
                               target_ids=pad_rows(ids, 0)[0], target_pad=target_pad)


class TestTargetRows:
    """`vtlm_loss` runs the last layer at the heads' rows only; its loss
    is the full-row loss. Where a test compares bytes, it rests on the
    BLAS library giving each row of a matmul the same bytes whatever the
    number of rows in the call; OpenBLAS does for 3 or more rows, and a
    single row may differ by an ulp (`test_one_target_per_example`)."""

    def test_uneven_target_counts(self, examples):
        """Example 0 has every text position and a region as targets,
        example 1 one target, so its row is mostly fill; example 2 has
        region targets only."""
        batch, vocab = make_batch(examples[:4])
        cfg = desk_cfg(vocab)
        params = init_encoder_params(cfg, Pcg32(1).split("init"))
        n0 = int((~batch.pad_mask[0]).sum())
        text = [(0, t) for t in range(n0)] + [(1, 1), (3, 1), (3, 2)]
        batch = retarget(batch, text, [(0, 7), (2, 0), (2, 3)], vocab)

        def loss_and_grads(loss_fn):
            clear_grads(params)
            out = loss_fn(params, cfg, batch, None)
            out.loss.backward()
            return out, {name: t.grad for name, t in params.items()}

        got, got_grads = loss_and_grads(vtlm_loss)
        ref, ref_grads = loss_and_grads(full_row_vtlm_loss)
        assert got.loss.data.tobytes() == ref.loss.data.tobytes()
        assert (got.mlm_acc, got.mrc_acc) == (ref.mlm_acc, ref.mrc_acc)
        assert_grads_close(got_grads, ref_grads)

    def test_one_target_per_example(self, examples):
        """One row per example (Tq = 1), text or region: BLAS may take its
        single-row path there, so the loss matches within tolerance."""
        batch, vocab = make_batch(examples[:6])
        cfg = desk_cfg(vocab)
        params = init_encoder_params(cfg, Pcg32(1).split("init"))
        batch = retarget(batch, [(0, 1), (1, 3), (2, 2)], [(3, 0), (4, 5), (5, 7)], vocab)
        got = vtlm_loss(params, cfg, batch, None)
        ref = full_row_vtlm_loss(params, cfg, batch, None)
        assert got.loss.item() == pytest.approx(ref.loss.item(), rel=1e-6)
        assert (got.mlm_acc, got.mrc_acc) == (ref.mlm_acc, ref.mrc_acc)

    def test_region_targets_only(self, examples):
        """Without text targets the text head has a NaN accuracy, and the
        pooled accuracy is the region head's."""
        batch, vocab = make_batch(examples[:4])
        cfg = desk_cfg(vocab)
        params = init_encoder_params(cfg, Pcg32(1).split("init"))
        batch = retarget(batch, [], [(0, 1), (2, 3), (3, 0), (3, 5)], vocab)
        out = vtlm_loss(params, cfg, batch, None)
        assert (out.n_text, out.n_vis) == (0, 4) and math.isnan(out.mlm_acc)
        assert out.masked_prediction_accuracy == out.mrc_acc

    def test_no_targets_raise_before_encoding(self, examples, monkeypatch):
        batch, vocab = make_batch(examples[:2])
        cfg = desk_cfg(vocab)
        params = init_encoder_params(cfg, Pcg32(1).split("init"))

        def no_encoding(*args, **kwargs):
            raise AssertionError("encoder ran")

        monkeypatch.setattr(model, "encode_batch", no_encoding)
        with pytest.raises(DataError, match="batch has no prediction targets"):
            vtlm_loss(params, cfg, retarget(batch, [], [], vocab), None)


@pytest.mark.parametrize("field", ["feats", "bboxes"])
def test_mixed_region_shapes_raise_data_error(field, examples):
    """`collate` checks each example's `feats` and `bboxes` shapes, as it
    checks region counts, and names both shapes."""
    a, b = examples[:2]
    b = dataclasses.replace(b, **{field: getattr(b, field)[:, :-1]})
    rows = [(np.array([1, 2]), np.arange(2), np.zeros(2, np.int64))] * 2
    shapes = f"{getattr(a, field).shape} and {getattr(b, field).shape}"
    with pytest.raises(DataError, match=re.escape(f"{field} of shapes {shapes} in one batch")):
        collate(rows, [a, b])


@pytest.mark.parametrize("build", [
    lambda: collate([]),
    lambda: collate([], []),
    lambda: pad_rows([], 0),
], ids=["collate", "collate-regions", "pad_rows"])
def test_empty_batch_raises_data_error(build):
    with pytest.raises(DataError, match="an empty batch"):
        build()


class TestInit:
    @pytest.mark.parametrize("init, prefixes", [
        (init_encoder_params, [""]),
        (init_mt_params, ["enc.", "dec."]),
    ])
    def test_xlm_scales(self, init, prefixes):
        """Embeddings N(0, 1/d); weights (in, out) N(0, 1/(3 fan_in))."""
        cfg = desk_cfg(200)
        params = init(cfg, Pcg32(2).split("init"))
        d, f = cfg.d_model, cfg.ffn_dim
        for p in prefixes:
            for name, want in [("token_emb", d ** -0.5),
                               ("layers.0.ffn.w1", (3 * d) ** -0.5),
                               ("layers.0.ffn.w2", (3 * f) ** -0.5)]:
                got = params[p + name].data.std()
                assert abs(got / want - 1) < 0.1, (p + name, got, want)


class TestWeightTyingAndGradients:
    def test_vtlm_gradcheck_64bit(self, examples):
        """End-to-end joint loss vs central finite differences on a
        2-example batch, sampled across several parameter tensors."""
        batch, vocab = make_batch(examples[:2], seed=4)
        cfg = desk_cfg(vocab)
        params = float64_params(init_encoder_params(cfg, Pcg32(5).split("init")))
        names = ["token_emb", "feat_proj.w", "layers.0.attn.wq",
                 "layers.1.ffn.w1", "mrc.w", "layers.0.norm1.g", "mlm_bias"]
        tensors = [params[n] for n in names]

        def build():
            return vtlm_loss(params, cfg, batch, None).loss

        err = gradcheck(build, tensors, n_samples=28, rng=Pcg32(8), h=1e-3)
        assert err < 1e-4

    def test_tied_embedding_receives_both_paths(self, examples):
        batch, vocab = make_batch(examples[:2])
        cfg = desk_cfg(vocab)
        params = init_encoder_params(cfg, Pcg32(1).split("init"))
        clear_grads(params)
        out = vtlm_loss(params, cfg, batch, None)
        out.loss.backward()
        # rows of token_emb not present in the input still get gradient
        # through the output projection (weight tying)
        used = set(batch.token_ids.reshape(-1).tolist()) | {bpe.MASK}
        unused = [i for i in range(vocab) if i not in used]
        grad_norms = np.abs(params["token_emb"].grad[unused]).sum()
        assert grad_norms > 0.0


@pytest.mark.parametrize("shape", [(3, 5, 8), (7, 8), (4, 1, 8)],
                         ids=["batch", "rows", "decode_step"])
def test_linear_is_one_affine_map(shape):
    """(B, T, d), (N, d) and decode-step (R, 1, d) inputs: the forward
    pass is numpy's x @ w + b, and the weight gradient sums all rows."""
    rng = Pcg32(11)
    w, b, x = (T.Tensor(rng.normal(s, dtype=np.float64), requires_grad=True)
               for s in ((8, 6), 6, shape))
    params = {"w": w, "b": b}
    c = rng.normal(shape[:-1] + (6,), dtype=np.float64)

    def build():
        return tsum(T.mul(linear(x, params, "w", "b"), T.Tensor(c)))

    y = linear(x, params, "w", "b").data
    assert y.shape == shape[:-1] + (6,)
    np.testing.assert_allclose(y, x.data @ w.data + b.data, rtol=1e-12, atol=1e-12)
    err = gradcheck(build, [w, b, x], n_samples=30, rng=Pcg32(2), h=1e-5)
    assert err < 1e-8
    rows = x.data.reshape(-1, 8)
    np.testing.assert_allclose(w.grad, rows.T @ c.reshape(-1, 6), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(b.grad, c.reshape(-1, 6).sum(axis=0), rtol=1e-12, atol=1e-12)


def test_self_attention_is_four_linears_and_one_attention_node():
    """One self-attention call tapes its input, the 8 projection
    parameters, the q, k, v and output linears and one attention node:
    the heads are split and merged inside that node."""
    params = {}
    add_layer_params(params, "l", 8, 16, Pcg32(3))
    x = T.Tensor(Pcg32(4).normal((10, 8), dtype=np.float32), requires_grad=True)
    grid = T.Grid(np.zeros((2, 5), bool))
    out = attention(params, "l.attn", x, x, 2, None, grid, grid)
    assert out.shape == (10, 8)
    order = T.topo_order(out)
    assert len(order) == 14
    assert sum(node._parents == () for node in order) == 9


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("field", ["vocab_size", "label_vocab_size", "feat_dim", "d_model",
                                   "ffn_dim", "n_layers", "n_heads", "max_positions"])
def test_encoder_config_size_below_one_raises(field, value):
    """Every size is checked before d_model % n_heads, so n_heads=0 is a
    ConfigError, not a ZeroDivisionError; n_layers=0 would leave no layer
    to compute the rows `vtlm_loss` reads its targets from."""
    sizes = dict(vocab_size=100, label_vocab_size=10, feat_dim=8, d_model=32,
                 ffn_dim=64, n_layers=2, n_heads=2, max_positions=64)
    with pytest.raises(ConfigError, match=f"^{field} must be >= 1, got {value}$"):
        EncoderConfig(**{**sizes, field: value})
