from dataclasses import replace

import numpy as np
import pytest

from vtlm import tensor as T
from vtlm.bpe import EOS, PAD
from vtlm.errors import ConfigError, TransferError
from vtlm.model import EncoderConfig, init_encoder_params
from vtlm.rng import Pcg32
from vtlm.seq2seq import (
    MMT,
    NMT,
    build_source_batch,
    build_target_batch,
    decode_states,
    encode_source,
    init_mt_params,
    make_step_fn,
    mt_loss,
    transfer_weights,
    translate,
)
from vtlm.synthetic import GenConfig, generate_corpus

GEN = GenConfig(num_examples=16, num_valid=2, num_test=6, feat_dim=8, num_merges=150)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(GEN, 3)


def tiny_cfg(corpus, **kw):
    return EncoderConfig.desk(len(corpus.codec.vocab), GEN.num_labels, GEN.feat_dim,
                              d_model=16, ffn_dim=32, n_layers=1, n_heads=2, **kw)


@pytest.mark.parametrize("task", [NMT, MMT])
@pytest.mark.parametrize("init_seed", [0, 1, 2])
def test_beam_one_is_greedy(task, init_seed, corpus):
    cfg = tiny_cfg(corpus)
    params = init_mt_params(cfg, Pcg32(init_seed).split("init"))
    hyps = translate(params, cfg, corpus.test, task, beam=1, max_len=12)
    for ex, hyp in zip(corpus.test, hyps):
        step = make_step_fn(params, cfg, ex, task, Pcg32(0))
        logp = 0.0
        for i, tok in enumerate(hyp.tokens):
            lp = step([hyp.tokens[:i]])[0]
            assert tok == int(lp.argmax())
            logp += float(lp[tok])
        assert hyp.logp == logp
        assert hyp.finished == (hyp.tokens[-1] == EOS)


def test_translate_max_len_bounded_by_positions(corpus):
    cfg = tiny_cfg(corpus, max_positions=10)
    params = init_mt_params(cfg, Pcg32(0).split("init"))
    with pytest.raises(ConfigError):
        translate(params, cfg, corpus.test[:1], MMT, beam=2, max_len=11)
    # never ending a hypothesis, decoding feeds [BOS] + 9 tokens at the last step
    params["dec.mlm_bias"].data[EOS] = -1.0e4
    (hyp,) = translate(params, cfg, corpus.test[:1], MMT, beam=2, max_len=10)
    assert len(hyp.tokens) == 10 and not hyp.finished


@pytest.mark.parametrize("copy_cross_attn", [True, False])
def test_transfer_copies_by_name(copy_cross_attn, corpus):
    cfg = replace(tiny_cfg(corpus), n_layers=2)
    pre = init_encoder_params(cfg, Pcg32(1).split("init"))
    fresh = init_mt_params(cfg, Pcg32(2).split("transfer"))
    params = transfer_weights(pre, cfg, copy_cross_attn, Pcg32(2).split("transfer"))
    assert params.names() == fresh.names()
    checked = set()

    def same(name, want):
        np.testing.assert_array_equal(params[name].data, want, err_msg=name)
        checked.add(name)

    for name, t in pre.items():
        if not name.startswith("mrc.") and name != "mlm_bias":
            same(f"enc.{name}", t.data)
    dec_copied = [n for n in params.names() if n.startswith("dec.") and n[4:] in pre]
    for name in dec_copied:
        same(name, pre[name[4:]].data)
    for i in range(cfg.n_layers):
        assert {f"dec.layers.{i}.ffn.{w}" for w in ("w1", "b1", "w2", "b2")} <= set(dec_copied)
        for w in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo"):
            name = f"dec.layers.{i}.cross_attn.{w}"
            want = pre[f"layers.{i}.attn.{w}"] if copy_cross_attn else fresh[name]
            same(name, want.data)
        same(f"dec.layers.{i}.norm_cross.g", np.ones(cfg.d_model))
        same(f"dec.layers.{i}.norm_cross.b", np.zeros(cfg.d_model))
    assert "dec.mlm_bias" in checked
    for name in set(params.names()) - checked:
        same(name, fresh[name].data)
    # pretrained and fresh values differ, so every check above is a real one
    assert not np.array_equal(pre["layers.0.ffn.w1"].data, fresh["dec.layers.0.ffn.w1"].data)


@pytest.mark.parametrize("field, delta", [
    ("n_layers", 1), ("n_layers", -1), ("vocab_size", 1), ("feat_dim", 1),
    ("d_model", 8), ("ffn_dim", 8), ("max_positions", 1),
])
def test_transfer_rejects_mismatched_stack(field, delta, corpus):
    cfg = replace(tiny_cfg(corpus), n_layers=2)
    pre = init_encoder_params(replace(cfg, **{field: getattr(cfg, field) + delta}),
                              Pcg32(1).split("init"))
    with pytest.raises(TransferError) as err:
        transfer_weights(pre, cfg, True, Pcg32(2).split("transfer"))
    names = pre.names() + init_mt_params(cfg, Pcg32(2)).names()
    assert any(name in str(err.value) for name in names)


@pytest.mark.parametrize("task", [NMT, MMT])
def test_decoder_is_causal(task, corpus):
    """Changing target token j leaves the decoder states before j alone."""
    cfg = tiny_cfg(corpus)
    params = init_mt_params(cfg, Pcg32(0).split("init"))
    examples = corpus.train[:3]
    src = build_source_batch(examples, task, cfg.max_positions)
    tgt = build_target_batch(examples, cfg.max_positions)
    enc, key_mask = encode_source(params, cfg, src, Pcg32(0), training=False)

    def run(ids):
        return decode_states(params, cfg, enc, key_mask, ids, Pcg32(0), False,
                             tgt_pad_mask=tgt.pad_mask).data

    base = run(tgt.input_ids)
    for j in range(1, tgt.input_ids.shape[1]):
        ids = tgt.input_ids.copy()
        ids[:, j] = (ids[:, j] + 1) % cfg.vocab_size
        out = run(ids)
        np.testing.assert_allclose(out[:, :j], base[:, :j], rtol=0, atol=1e-6)
        assert not np.allclose(out[:, j], base[:, j], atol=1e-3)


@pytest.mark.parametrize("task", [NMT, MMT])
def test_mt_loss_padding_invariance(task, corpus):
    """Extra [PAD] columns on source and target change no loss value."""
    cfg = tiny_cfg(corpus)
    params = init_mt_params(cfg, Pcg32(1).split("init"))
    examples = corpus.train[:4]
    src = build_source_batch(examples, task, cfg.max_positions)
    tgt = build_target_batch(examples, cfg.max_positions)
    base = mt_loss(params, cfg, src, tgt, Pcg32(0), training=False).loss.item()

    extra = 3

    def pad(a, value):
        return np.concatenate([a, np.full((a.shape[0], extra), value, dtype=a.dtype)], axis=1)

    src2 = replace(src, token_ids=pad(src.token_ids, PAD), pos_ids=pad(src.pos_ids, 0),
                   lang_ids=pad(src.lang_ids, 0), pad_mask=pad(src.pad_mask, True))
    tgt2 = replace(tgt, input_ids=pad(tgt.input_ids, PAD), output_ids=pad(tgt.output_ids, PAD),
                   pad_mask=pad(tgt.pad_mask, True))
    padded = mt_loss(params, cfg, src2, tgt2, Pcg32(0), training=False).loss.item()
    assert padded == pytest.approx(base, abs=1e-5)


def test_mt_loss_gradcheck_64bit(corpus):
    """Teacher-forced MMT loss vs central finite differences, sampled over
    encoder, decoder self-attention, cross-attention, FFN and embeddings."""
    with T.use_dtype(np.float64):
        cfg = tiny_cfg(corpus)
        params = init_mt_params(cfg, Pcg32(5).split("init"))
        examples = corpus.train[:2]
        src = build_source_batch(examples, MMT, cfg.max_positions)
        tgt = build_target_batch(examples, cfg.max_positions)
        names = ["enc.token_emb", "enc.feat_proj.w", "enc.layers.0.attn.wq",
                 "enc.layers.0.ffn.w1", "dec.token_emb", "dec.layers.0.attn.wk",
                 "dec.layers.0.norm1.g", "dec.layers.0.cross_attn.wq",
                 "dec.layers.0.cross_attn.wv", "dec.layers.0.norm_cross.g",
                 "dec.layers.0.ffn.w1", "dec.layers.0.ffn.w2", "dec.mlm_bias"]

        def build():
            return mt_loss(params, cfg, src, tgt, Pcg32(0), training=False).loss

        err = T.gradcheck(build, [params[n] for n in names], n_samples=39,
                          rng=Pcg32(8), h=1e-3)
    assert err < 1e-4
