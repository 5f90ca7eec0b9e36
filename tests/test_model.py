import dataclasses
import math

import numpy as np
import pytest

from helpers import generate_synthetic, gradcheck, tsum
from vtlm import bpe, tensor as T
from vtlm.errors import ConfigError
from vtlm.masking import (
    MaskPolicy,
    TLM,
    VTLM,
    build_masked_batch,
    build_stream,
)
from vtlm.model import (
    EncoderConfig,
    ParamStore,
    add_layer_params,
    attention,
    embed_inputs,
    encode,
    init_encoder_params,
    key_padding_mask,
    linear,
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


def desk_cfg(vocab_size, dropout=0.0):
    return EncoderConfig.desk(vocab_size, CFG.num_labels, CFG.feat_dim,
                              d_model=32, ffn_dim=64, n_layers=2, n_heads=2,
                              dropout=dropout)


def make_batch(examples, mode=VTLM, seed=0, policy=None):
    root = Pcg32(seed)
    vocab = max(max(ex.src_tokens + ex.tgt_tokens) for ex in examples) + 1
    return build_masked_batch(examples, mode, policy or MaskPolicy(), vocab,
                              root.split("t"), root.split("v")), vocab


def embed(params, cfg, batch):
    """Input embeddings of a batch (no dropout)."""
    return embed_inputs(params, cfg, batch.token_ids, batch.pos_ids, batch.lang_ids,
                        batch.feats, batch.bboxes, batch.vis_mask)


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
        x = embed(params, cfg, batch)
        got = x.data[0, batch.text_len + 2]
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
        x = embed(params, cfg, batch)
        got = x.data[0, batch.text_len]
        expect = 0.5 - 0.25 + params["lang_emb"].data[bpe.LANG_VIS]
        assert np.allclose(got, expect, atol=1e-6)


class TestEncode:
    def test_attention_rows_sum_to_one_over_nonpad(self, examples):
        """`collect` receives the weights before attention dropout, also
        when training."""
        batch, vocab = make_batch(examples[:6])
        cfg = desk_cfg(vocab, dropout=0.3)
        params = init_encoder_params(cfg, Pcg32(1).split("init"))
        x = embed(params, cfg, batch)
        mask = key_padding_mask(batch.pad_mask, batch.num_regions)
        collected = []
        for training in (False, True):
            encode(params, cfg, x, mask, Pcg32(0).split("dropout"), training=training,
                   collect_attn=collected)
        assert len(collected) == 2 * cfg.n_layers
        for probs in collected:
            assert np.all(np.abs(probs.sum(axis=-1) - 1.0) < 1e-5)
            # padded keys receive zero attention from every query
            pad_cols = np.concatenate(
                [batch.pad_mask,
                 np.zeros((batch.batch_size, batch.num_regions), bool)], axis=1)
            for b in range(batch.batch_size):
                assert np.all(probs[b, :, :, pad_cols[b]] == 0.0)

    def test_visual_slot_permutation_equivariance(self, examples):
        """Swapping two region slots permutes their states and leaves text
        states unchanged (regions carry no sequential position)."""
        batch, vocab = make_batch(examples[:3])
        uncorrupt_regions(batch, examples[:3])
        cfg = desk_cfg(vocab)
        params = init_encoder_params(cfg, Pcg32(1).split("init"))

        def run(b):
            x = embed(params, cfg, b)
            mask = key_padding_mask(b.pad_mask, b.num_regions)
            return encode(params, cfg, x, mask, Pcg32(0), training=False).data

        states = run(batch)
        swapped, _ = make_batch(examples[:3])
        uncorrupt_regions(swapped, examples[:3])
        for arr in ("feats", "bboxes"):
            a = getattr(swapped, arr)
            a[0, [2, 5]] = a[0, [5, 2]]
        states_sw = run(swapped)
        t = batch.text_len
        assert np.allclose(states[0, :t], states_sw[0, :t], atol=1e-5)
        assert np.allclose(states[0, t + 2], states_sw[0, t + 5], atol=1e-5)
        assert np.allclose(states[0, t + 5], states_sw[0, t + 2], atol=1e-5)

    def test_degenerate_single_token(self):
        cfg = EncoderConfig.desk(vocab_size=10, label_vocab_size=4, feat_dim=4,
                                 d_model=16, ffn_dim=32, n_layers=1, n_heads=2,
                                 dropout=0.0)
        params = init_encoder_params(cfg, Pcg32(0).split("init"))
        x = T.Tensor(np.zeros((1, 1, 16), dtype=np.float32))
        out = encode(params, cfg, x, None, Pcg32(0), training=False)
        assert out.shape == (1, 1, 16)


class TestVtlmLoss:
    def test_tlm_mode_has_no_mrc_term(self, examples):
        batch, vocab = make_batch(examples[:4], mode=TLM)
        cfg = desk_cfg(vocab)
        params = init_encoder_params(cfg, Pcg32(1).split("init"))
        out = vtlm_loss(params, cfg, batch, Pcg32(0), training=False)
        assert out.mrc_loss is None
        assert out.loss.item() == pytest.approx(out.mlm_loss, abs=1e-7)

    def test_untrained_mrc_loss_near_uniform(self, examples):
        batch, vocab = make_batch(examples)
        cfg = desk_cfg(vocab)
        params = init_encoder_params(cfg, Pcg32(1).split("init"))
        out = vtlm_loss(params, cfg, batch, Pcg32(0), training=False)
        assert out.mrc_loss == pytest.approx(math.log(CFG.num_labels), abs=0.3)

    def test_joint_loss_is_sum_of_terms(self, examples):
        batch, vocab = make_batch(examples[:6])
        cfg = desk_cfg(vocab)
        params = init_encoder_params(cfg, Pcg32(1).split("init"))
        out = vtlm_loss(params, cfg, batch, Pcg32(0), training=False)
        assert out.loss.item() == pytest.approx(out.mlm_loss + out.mrc_loss, rel=1e-6)

    def test_padding_invariance(self, examples):
        """Extra [PAD] columns change no loss value."""
        batch, vocab = make_batch(examples[:4])
        cfg = desk_cfg(vocab)
        params = init_encoder_params(cfg, Pcg32(1).split("init"))
        base = vtlm_loss(params, cfg, batch, Pcg32(0), training=False).loss.item()

        extra = 3
        pad_block = np.full((batch.batch_size, extra), bpe.PAD, dtype=np.int64)
        b2 = dataclasses.replace(
            batch,
            token_ids=np.concatenate([batch.token_ids, pad_block], axis=1),
            pos_ids=np.concatenate([batch.pos_ids, np.zeros_like(pad_block)], axis=1),
            lang_ids=np.concatenate([batch.lang_ids, np.zeros_like(pad_block)], axis=1),
            pad_mask=np.concatenate(
                [batch.pad_mask, np.ones((batch.batch_size, extra), bool)], axis=1))
        padded = vtlm_loss(params, cfg, b2, Pcg32(0), training=False).loss.item()
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
            vtlm_loss(params, cfg, batch, None, training=False)

    def test_loss_bits_reproducible(self, examples):
        def run():
            batch, vocab = make_batch(examples[:8], seed=5)
            cfg = desk_cfg(vocab, dropout=0.1)
            params = init_encoder_params(cfg, Pcg32(2).split("init"))
            return vtlm_loss(params, cfg, batch, Pcg32(7).split("d"),
                             training=True).loss.item()

        assert run() == run()

    def test_overfits_one_batch(self, examples):
        """200 optimisation steps on a single small batch drive the joint
        loss under 0.1."""
        batch, vocab = make_batch(examples[:4], seed=9)
        # A [MASK]-embedded slot replaces feature and box alike, so two such
        # slots of one example are identical inputs; if their labels differ
        # the MRC term cannot go below ln 2 and the bound is unreachable.
        masked_labels = {}
        for (b, slot), label in zip(batch.vis_target_pos, batch.vis_target_ids):
            if batch.vis_mask[b, slot]:
                masked_labels.setdefault(int(b), set()).add(int(label))
        assert all(len(labels) == 1 for labels in masked_labels.values())
        cfg = desk_cfg(vocab)
        params = init_encoder_params(cfg, Pcg32(3).split("init"))
        adam = AdamState.init(params)
        loss = None
        for _ in range(200):
            params.zero_grads()
            out = vtlm_loss(params, cfg, batch, Pcg32(0), training=False)
            out.loss.backward()
            adam_step(params, adam, lr=1e-3)
            loss = out.loss.item()
        assert loss < 0.1


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
        with T.use_dtype(np.float64):
            batch, vocab = make_batch(examples[:2], seed=4)
            cfg = desk_cfg(vocab)
            params = init_encoder_params(cfg, Pcg32(5).split("init"))
            names = ["token_emb", "feat_proj.w", "layers.0.attn.wq",
                     "layers.1.ffn.w1", "mrc.w", "layers.0.norm1.g", "mlm_bias"]
            tensors = [params[n] for n in names]

            def build():
                return vtlm_loss(params, cfg, batch, Pcg32(0), training=False).loss

            err = gradcheck(build, tensors, n_samples=28, rng=Pcg32(8), h=1e-3)
        assert err < 1e-4

    def test_tied_embedding_receives_both_paths(self, examples):
        batch, vocab = make_batch(examples[:2])
        cfg = desk_cfg(vocab)
        params = init_encoder_params(cfg, Pcg32(1).split("init"))
        params.zero_grads()
        out = vtlm_loss(params, cfg, batch, Pcg32(0), training=False)
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
    with T.use_dtype(np.float64):
        params = ParamStore()
        w = params.add("w", rng.normal((8, 6), dtype=np.float64))
        b = params.add("b", rng.normal(6, dtype=np.float64))
        x = T.Tensor(rng.normal(shape, dtype=np.float64), requires_grad=True)
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
    params = ParamStore()
    add_layer_params(params, "l", 8, 16, Pcg32(3))
    x = T.Tensor(Pcg32(4).normal((2, 5, 8), dtype=np.float32), requires_grad=True)
    out = attention(params, "l.attn", x, x, None, 2, 0.0, None, training=False)
    assert out.shape == (2, 5, 8)
    order = T.topo_order(out)
    assert len(order) == 14
    assert sum(node._parents == () for node in order) == 9
