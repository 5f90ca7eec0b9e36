import itertools
import multiprocessing
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from helpers import clear_grads, draws_left, float64_params, gradcheck
from vtlm import seq2seq
from vtlm import tensor as T
from vtlm.bpe import BOS, EOS, PAD
from vtlm.errors import ConfigError, DataError, TransferError
from vtlm.model import EncoderConfig, init_encoder_params, select_cache_rows
from vtlm.rng import Pcg32
from vtlm.seq2seq import (
    MMT,
    NMT,
    build_source_batch,
    build_target_batch,
    decode_states,
    encode_source,
    init_mt_params,
    mt_loss,
    output_logits,
    step_logprobs,
    transfer_weights,
    translate,
)
from vtlm.synthetic import GenConfig, generate_corpus
from vtlm.trainer import AdamState, adam_step

GEN = GenConfig(num_examples=16, num_valid=2, num_test=6, feat_dim=8, num_merges=150)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(GEN, 3)


def tiny_cfg(corpus, **kw):
    return EncoderConfig.desk(len(corpus.codec.vocab), GEN.num_labels, GEN.feat_dim,
                              d_model=16, ffn_dim=32, n_layers=1, n_heads=2, **kw)


@pytest.fixture(scope="module")
def fitted():
    """Tiny MT models fitted by 60 full-batch Adam steps to a corpus of
    1-2 objects per caption, keyed by (task, init seed), with that
    corpus. Their hypotheses end at different steps, so sentences leave
    a decoded batch at different times; random models end them all at
    the same step."""
    corpus = generate_corpus(replace(GEN, min_objects=1, max_objects=2), 3)
    cfg = tiny_cfg(corpus)
    models = {}

    def get(task, init_seed):
        if (task, init_seed) not in models:
            params = init_mt_params(cfg, Pcg32(init_seed).split("init"))
            src = build_source_batch(corpus.train, task, cfg.max_positions)
            tgt = build_target_batch(corpus.train, cfg.max_positions)
            adam = AdamState.init(params)
            for _ in range(60):
                clear_grads(params)
                mt_loss(params, cfg, src, tgt, None).loss.backward()
                adam_step(params, adam, 1e-2)
            models[task, init_seed] = params
        return models[task, init_seed], cfg, corpus.test

    return get


def teacher_forced_logp(params, cfg, examples, task, hyps):
    """Sum of the teacher-forced log-probs of each hypothesis' tokens."""
    t = max(len(h.tokens) for h in hyps)
    inputs = np.full((len(hyps), t), PAD, dtype=np.int64)
    pad = np.ones((len(hyps), t), dtype=bool)
    for b, h in enumerate(hyps):
        inputs[b, : len(h.tokens)] = (BOS,) + h.tokens[:-1]
        pad[b, : len(h.tokens)] = False
    src = build_source_batch(examples, task, cfg.max_positions)
    with T.no_grad():
        enc, grid = encode_source(params, cfg, src, None)
        states = decode_states(params, cfg, enc, grid, inputs, None, tgt_pad_mask=pad)
        logits = output_logits(params, states).data.astype(np.float64)
    lp = logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))
    return np.array([sum(lp[b, i, tok] for i, tok in enumerate(h.tokens))
                     for b, h in enumerate(hyps)])


@pytest.mark.parametrize("task", [NMT, MMT])
@pytest.mark.parametrize("init_seed", [0, 1, 2])
def test_beam_one_is_greedy(task, init_seed, fitted):
    """Replaying the emitted tokens through the cached step, on the batch
    translate decodes (a sentence leaves it after its last token): each
    token is the argmax of its step distribution, and logp is their
    float64 sum."""
    params, cfg, examples = fitted(task, init_seed)
    hyps = translate(params, cfg, examples, task, beam=1, max_len=16)
    assert len({len(h.tokens) for h in hyps}) > 1
    src = build_source_batch(examples, task, cfg.max_positions)
    with T.no_grad():
        enc, grid = encode_source(params, cfg, src, None)
    cache: dict = {}
    live = np.arange(len(examples))
    tokens = np.full(len(examples), BOS, dtype=np.int64)
    logp = [0.0] * len(examples)
    for t in range(max(len(h.tokens) for h in hyps)):
        lp = step_logprobs(params, cfg, enc, grid, tokens, t, cache)
        for row, i in enumerate(live):
            tok = hyps[i].tokens[t]
            assert tok == int(lp[row].argmax())
            logp[i] += float(lp[row, tok])
        keep = np.flatnonzero([len(hyps[i].tokens) > t + 1 for i in live])
        select_cache_rows(cache, keep, keep)
        live, grid = live[keep], T.Grid.of(grid.pad[keep])  # enc is read at step 0 only
        tokens = np.array([hyps[i].tokens[t] for i in live], dtype=np.int64)
    for hyp, want in zip(hyps, logp):
        assert hyp.logp == want
        assert hyp.finished == (hyp.tokens[-1] == EOS)


@pytest.mark.parametrize("task", [NMT, MMT])
@pytest.mark.parametrize("init_seed", [0, 1, 2])
@pytest.mark.parametrize("beam", [1, 3, 8])
def test_batched_beam_matches_rescore_and_single_sentences(task, init_seed, beam, fitted):
    """Every hypothesis' logp is its teacher-forced log-prob within the
    benchmark's 1e-4 nats per token, and decoding each sentence alone
    gives the same tokens as decoding the list together."""
    params, cfg, examples = fitted(task, init_seed)
    hyps = translate(params, cfg, examples, task, beam=beam, max_len=16)
    assert len({len(h.tokens) for h in hyps}) > 1
    rescored = teacher_forced_logp(params, cfg, examples, task, hyps)
    for hyp, want in zip(hyps, rescored):
        assert abs(hyp.logp - want) <= 1e-4 * len(hyp.tokens)
    for ex, hyp in zip(examples, hyps):
        (alone,) = translate(params, cfg, [ex], task, beam=beam, max_len=16)
        assert (alone.tokens, alone.finished) == (hyp.tokens, hyp.finished)
        assert alone.logp == pytest.approx(hyp.logp, abs=1e-4 * len(hyp.tokens))


def test_early_stop_keeps_every_hypothesis(fitted, monkeypatch):
    """A sentence leaves the decoded batch once no live hypothesis can
    beat its best finished one: the hypotheses (tokens, `finished`, logp
    bytes) are those of a search that never stops early, in fewer
    decoder steps."""
    steps = []
    real_step = seq2seq.step_logprobs

    def counted(*args, **kwargs):
        steps[-1] += 1
        return real_step(*args, **kwargs)

    monkeypatch.setattr(seq2seq, "step_logprobs", counted)

    def decode(params, cfg, examples, task, beam):
        steps.append(0)
        hyps = translate(params, cfg, examples, task, beam=beam, max_len=16)
        return [(h.tokens, h.finished, np.float64(h.logp).tobytes()) for h in hyps]

    saved = []
    for task, init_seed, beam in itertools.product((NMT, MMT), (0, 1, 2), (3, 8)):
        params, cfg, examples = fitted(task, init_seed)
        got = decode(params, cfg, examples, task, beam)
        with monkeypatch.context() as m:
            m.setattr(seq2seq, "_cannot_improve", lambda best, logp, max_len: best < -np.inf)
            expect = decode(params, cfg, examples, task, beam)
        assert got == expect
        assert steps[-2] <= steps[-1]
        saved.append(steps[-1] - steps[-2])
    assert max(saved) > 0


def test_beam_wider_than_vocab_is_exhaustive(corpus):
    """With 6 tokens, max_len 2 and beam 40 >= 6 * 6, beam search keeps
    every prefix, so it must return the best of all sequences. The first
    step has 6 candidates for 40 slots: a padded slot (score -inf) that
    were selected or emitted would show up as a wrong or -inf result."""
    cfg = replace(tiny_cfg(corpus), vocab_size=6)
    params = init_mt_params(cfg, Pcg32(3).split("init"))
    examples = [replace(ex, src_tokens=[4 + t % 2 for t in ex.src_tokens])
                for ex in corpus.test[:3]]
    hyps = translate(params, cfg, examples, MMT, beam=40, max_len=2)
    seqs = [(EOS,)] + [(a, b) for a, b in itertools.product(range(6), repeat=2) if a != EOS]
    for ex, hyp in zip(examples, hyps):
        assert np.isfinite(hyp.logp) and all(0 <= tok < 6 for tok in hyp.tokens)
        cands = [seq2seq.Hypothesis(seq, 0.0, seq[-1] == EOS) for seq in seqs]
        scores = teacher_forced_logp(params, cfg, [ex] * len(seqs), MMT, cands)
        cands = [replace(h, logp=float(s)) for h, s in zip(cands, scores)]
        best = min(cands, key=lambda h: (-h.score(), h.tokens))
        assert (hyp.tokens, hyp.finished) == (best.tokens, best.finished)
        assert hyp.logp == pytest.approx(best.logp, abs=1e-4 * len(best.tokens))


def test_translate_edge_cases(corpus):
    cfg = tiny_cfg(corpus)
    params = init_mt_params(cfg, Pcg32(0).split("init"))
    assert translate(params, cfg, [], MMT) == []
    with pytest.raises(ConfigError):
        translate(params, cfg, corpus.test[:2], MMT, beam=0)


def test_translate_keeps_the_traced_call_contract(fitted, monkeypatch):
    """The benchmark's tracer wraps these module globals and reads the
    target ids of decode_states as its 5th positional argument; translate
    draws no random numbers. Sources are decoded in equal chunks of at
    most CHUNK sentences, with the same result."""
    params, cfg, examples = fitted(MMT, 0)
    whole = translate(params, cfg, examples, MMT, beam=3, max_len=16)
    calls = {"encode_source": 0, "decode_states": 0, "beam_search": 0}

    def spy(name):
        real = getattr(seq2seq, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "decode_states":
                assert isinstance(args[4], np.ndarray)
            return real(*args, **kwargs)

        monkeypatch.setattr(seq2seq, name, wrapper)

    for name in calls:
        spy(name)

    def no_draws(*args, **kwargs):
        raise AssertionError("translate drew random numbers")

    monkeypatch.setattr(Pcg32, "u32", no_draws)
    monkeypatch.setattr(seq2seq, "CHUNK", 4)
    chunked = translate(params, cfg, examples, MMT, beam=3, max_len=16)
    assert len(examples) == 6
    assert calls["encode_source"] == calls["beam_search"] == 2  # 3 + 3 sentences
    assert calls["decode_states"] > 0
    assert [h.tokens for h in chunked] == [h.tokens for h in whole]


def _decode_chunk(params, cfg, task, beam):
    """One chunk's decode as translate runs it, at max_len 16."""
    def decode(chunk):
        src = build_source_batch(chunk, task, cfg.max_positions)
        with T.no_grad():
            enc, grid = encode_source(params, cfg, src, None)
            return seq2seq.beam_search(params, cfg, enc, grid, beam, 16)
    return decode


def _bits(hyps):
    return [(h.tokens, h.finished, np.float64(h.logp).tobytes()) for h in hyps]


@pytest.mark.parametrize("beam", [1, 8])
@pytest.mark.parametrize("chunk, n, k", [(64, 6, 1), (3, 6, 2), (2, 6, 3), (1, 5, 5)])
def test_two_thread_translate_equals_serial_chunk_loop(chunk, n, k, beam, fitted, monkeypatch):
    """translate's k chunks of n sentences at CHUNK `chunk`, split
    between the calling thread and the worker, give the tokens,
    `finished` flags and logp bytes of decoding the same chunks one after
    the other on one thread, under a switch interval short enough to
    interleave the threads; the odd-numbered chunks ran on the worker."""
    params, cfg, examples = fitted(MMT, 1)
    examples = examples[:n]
    decode = _decode_chunk(params, cfg, MMT, beam)
    size = -(-n // k)
    expect = [hyp for lo in range(0, n, size) for hyp in decode(examples[lo: lo + size])]
    threads = []
    real = seq2seq.beam_search

    def spy(*args, **kwargs):
        threads.append(threading.current_thread().name)
        return real(*args, **kwargs)

    monkeypatch.setattr(seq2seq, "CHUNK", chunk)
    monkeypatch.setattr(seq2seq, "beam_search", spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = translate(params, cfg, examples, MMT, beam=beam, max_len=16)
    finally:
        sys.setswitchinterval(interval)
    main = threading.current_thread().name
    assert sorted(threads) == sorted(main if i % 2 == 0 else "vtlm-grad" for i in range(k))
    assert _bits(got) == _bits(expect)


def test_failed_chunk_error_surfaces_and_next_backward_is_clean(corpus, monkeypatch):
    """A DataError raised in a chunk on the worker (chunk 1 of four)
    surfaces from translate; when two chunks fail, on either thread, the
    lower chunk's error is raised, as a serial loop would raise it; and
    a backward after a failed translate has the gradients of a clean
    one."""
    cfg = tiny_cfg(corpus)
    params = init_mt_params(cfg, Pcg32(0).split("init"))
    monkeypatch.setattr(seq2seq, "CHUNK", 1)  # four chunks of one sentence

    def with_bad(chunks):
        """corpus.test[:4] with an id outside the vocabulary, distinct
        per chunk, in each of `chunks`."""
        out = list(corpus.test[:4])
        for c in chunks:
            out[c] = replace(out[c], src_tokens=[cfg.vocab_size + c] + list(out[c].src_tokens))
        return out

    src = build_source_batch(corpus.train[:4], MMT, cfg.max_positions)
    tgt = build_target_batch(corpus.train[:4], cfg.max_positions)

    def grads():
        clear_grads(params)
        mt_loss(params, cfg, src, tgt, None).loss.backward()
        return {name: p.grad.tobytes() for name, p in params.items()}

    clean = grads()
    for bad, first in [((1,), 1), ((0, 1), 0), ((1, 2), 1), ((2, 3), 2)]:
        with pytest.raises(DataError, match=f"token id {cfg.vocab_size + first} outside"):
            translate(params, cfg, with_bad(bad), MMT, beam=2, max_len=4)
    assert grads() == clean


def _translate_in_child(params, cfg, examples, expect):
    got = translate(params, cfg, examples, MMT, beam=3, max_len=16)
    sys.exit(0 if _bits(got) == expect else 1)


# fork in a process with threads warns from Python 3.12 on; the worker is
# forgotten in the child, so this fork is the case under test
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_translates(fitted):
    """A child forked after a two-thread translate, while the parent's
    worker thread is alive, decodes its own chunks on two threads with
    the parent's result."""
    params, cfg, examples = fitted(MMT, 0)
    expect = _bits(translate(params, cfg, examples, MMT, beam=3, max_len=16))
    assert T._worker is not None
    child = multiprocessing.get_context("fork").Process(
        target=_translate_in_child, args=(params, cfg, examples, expect))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join(timeout=10)
        pytest.fail("the forked child's translate hung")
    assert child.exitcode == 0


def test_cross_attention_cache_kept_when_no_sentence_leaves(corpus):
    """select_cache_rows without memory rows gathers the self-attention
    rows and leaves the cross-attention entries as they are."""
    cfg = tiny_cfg(corpus)
    params = init_mt_params(cfg, Pcg32(0).split("init"))
    src = build_source_batch(corpus.test[:2], MMT, cfg.max_positions)
    with T.no_grad():
        enc, grid = encode_source(params, cfg, src, None)
    cache: dict = {}
    step_logprobs(params, cfg, enc, grid, np.full(2, BOS), 0, cache)
    before = dict(cache)
    select_cache_rows(cache, np.array([1, 1]))
    for name, (k, v) in cache.items():
        if name.endswith(".cross_attn"):
            assert (k, v) == before[name]
        else:
            assert np.array_equal(k.data, before[name][0].data[[1, 1]])
            assert np.array_equal(v.data, before[name][1].data[[1, 1]])
    assert any(name.endswith(".cross_attn") for name in cache)


def test_mixed_region_counts_raise_data_error(corpus):
    a, b = corpus.train[:2]
    b = replace(b, feats=b.feats[:-1], bboxes=b.bboxes[:-1], labels=b.labels[:-1])
    with pytest.raises(DataError, match=f"{len(a.labels)} and {len(b.labels)} regions"):
        build_source_batch([a, b], MMT)
    assert build_source_batch([a, b], NMT).feats is None


@pytest.mark.parametrize("build", [
    lambda: build_source_batch([], NMT),
    lambda: build_source_batch([], MMT),
    lambda: build_target_batch([]),
], ids=["source-nmt", "source-mmt", "target"])
def test_empty_example_list_raises_data_error(build):
    with pytest.raises(DataError, match="an empty batch"):
        build()


def test_translate_max_len_bounded_by_positions(corpus):
    # 11 positions: 8 regions, [BOS], [EOS] and one source token
    cfg = tiny_cfg(corpus, max_positions=11)
    params = init_mt_params(cfg, Pcg32(0).split("init"))
    with pytest.raises(ConfigError, match="max_len=12 needs 12 target positions"):
        translate(params, cfg, corpus.test[:1], MMT, beam=2, max_len=12)
    # never ending a hypothesis, decoding feeds [BOS] + 10 tokens at the last step
    params["dec.mlm_bias"].data[EOS] = -1.0e4
    (hyp,) = translate(params, cfg, corpus.test[:1], MMT, beam=2, max_len=11)
    assert len(hyp.tokens) == 11 and not hyp.finished


@pytest.mark.parametrize("max_len", [9, 10])
def test_no_room_for_a_source_token_raises_config_error(max_len, corpus):
    """8 regions, [BOS] and [EOS] leave max_len - 10 slots for source
    tokens: none at 10, where every source would be [BOS] [EOS], and a
    negative count at 9, which would slice from the end of the source."""
    examples = corpus.test[:2]
    assert len(examples[0].labels) == 8
    with pytest.raises(ConfigError, match=f"max_len={max_len} cannot fit 8 regions"):
        build_source_batch(examples, MMT, max_len)
    cfg = tiny_cfg(corpus, max_positions=max_len)
    params = init_mt_params(cfg, Pcg32(0).split("init"))
    with pytest.raises(ConfigError, match=f"max_len={max_len} cannot fit 8 regions"):
        translate(params, cfg, examples, MMT, beam=2, max_len=max_len)
    # one slot left: each row is [BOS], the first source token and [EOS]
    src = build_source_batch(examples, MMT, 11)
    assert src.token_ids.tolist() == [[BOS, ex.src_tokens[0], EOS] for ex in examples]
    assert build_source_batch(examples, NMT, max_len).text_len == max_len


def test_positions_past_max_positions_raise_config_error(corpus):
    """Source or target rows longer than the model's positions, and a
    decoder step past them, fail at the embedding with a ConfigError."""
    cfg = tiny_cfg(corpus)
    assert cfg.max_positions == 64
    params = init_mt_params(cfg, Pcg32(0).split("init"))
    ex = corpus.train[0]
    # [BOS] + 80 source tokens + [EOS]: positions 0 .. 81; [BOS] + 80 target tokens: 0 .. 80
    for long_ex, top in ((replace(ex, src_tokens=(ex.src_tokens * 80)[:80]), 81),
                         (replace(ex, tgt_tokens=(ex.tgt_tokens * 80)[:80]), 80)):
        src = build_source_batch([long_ex], MMT)
        tgt = build_target_batch([long_ex])
        with pytest.raises(ConfigError, match=f"position {top} >= max_positions 64"):
            mt_loss(params, cfg, src, tgt, None)
    src = build_source_batch([ex], MMT, cfg.max_positions)
    enc, grid = encode_source(params, cfg, src, None)
    with pytest.raises(ConfigError, match="position 64 >= max_positions 64"):
        decode_states(params, cfg, enc, grid, np.full((1, 1), BOS), None,
                      cache={}, start=cfg.max_positions)


@pytest.mark.parametrize("copy_cross_attn", [True, False])
def test_transfer_copies_by_name(copy_cross_attn, corpus):
    cfg = replace(tiny_cfg(corpus), n_layers=2)
    pre = init_encoder_params(cfg, Pcg32(1).split("init"))
    fresh = init_mt_params(cfg, Pcg32(2).split("transfer"))
    params = transfer_weights(pre, cfg, copy_cross_attn, Pcg32(2).split("transfer"))
    assert list(params) == list(fresh)
    checked = set()

    def same(name, want):
        np.testing.assert_array_equal(params[name].data, want, err_msg=name)
        checked.add(name)

    for name, t in pre.items():
        if not name.startswith("mrc.") and name != "mlm_bias":
            same(f"enc.{name}", t.data)
    dec_copied = [n for n in params if n.startswith("dec.") and n[4:] in pre]
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
    for name in set(params) - checked:
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
    names = [*pre, *init_mt_params(cfg, Pcg32(2))]
    assert any(name in str(err.value) for name in names)


@pytest.mark.parametrize("task", [NMT, MMT])
def test_decoder_is_causal(task, corpus):
    """Changing target token j leaves the decoder states before j alone."""
    cfg = tiny_cfg(corpus)
    params = init_mt_params(cfg, Pcg32(0).split("init"))
    examples = corpus.train[:3]
    src = build_source_batch(examples, task, cfg.max_positions)
    tgt = build_target_batch(examples, cfg.max_positions)
    enc, grid = encode_source(params, cfg, src, None)

    def run(ids):
        return decode_states(params, cfg, enc, grid, ids, None,
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
    base = mt_loss(params, cfg, src, tgt, None).loss.item()

    extra = 3

    def pad(a, value):
        return np.concatenate([a, np.full((a.shape[0], extra), value, dtype=a.dtype)], axis=1)

    src2 = replace(src, token_ids=pad(src.token_ids, PAD), pos_ids=pad(src.pos_ids, 0),
                   lang_ids=pad(src.lang_ids, 0), pad_mask=pad(src.pad_mask, True))
    tgt2 = replace(tgt, input_ids=pad(tgt.input_ids, PAD), output_ids=pad(tgt.output_ids, PAD),
                   pad_mask=pad(tgt.pad_mask, True))
    padded = mt_loss(params, cfg, src2, tgt2, None).loss.item()
    assert padded == pytest.approx(base, abs=1e-5)


def test_mt_loss_gradcheck_64bit(corpus):
    """Teacher-forced MMT loss vs central finite differences, sampled over
    encoder, decoder self-attention, cross-attention, FFN and embeddings."""
    cfg = tiny_cfg(corpus)
    params = float64_params(init_mt_params(cfg, Pcg32(5).split("init")))
    examples = corpus.train[:2]
    src = build_source_batch(examples, MMT, cfg.max_positions)
    tgt = build_target_batch(examples, cfg.max_positions)
    names = ["enc.token_emb", "enc.feat_proj.w", "enc.layers.0.attn.wq",
             "enc.layers.0.ffn.w1", "dec.token_emb", "dec.layers.0.attn.wk",
             "dec.layers.0.norm1.g", "dec.layers.0.cross_attn.wq",
             "dec.layers.0.cross_attn.wv", "dec.layers.0.norm_cross.g",
             "dec.layers.0.ffn.w1", "dec.layers.0.ffn.w2", "dec.mlm_bias"]

    def build():
        return mt_loss(params, cfg, src, tgt, None).loss

    err = gradcheck(build, [params[n] for n in names], n_samples=39,
                    rng=Pcg32(8), h=1e-3)
    assert err < 1e-4


@pytest.mark.parametrize("max_len", [0, -2])
def test_max_len_below_one_raises_config_error(max_len, corpus):
    """Also for a target batch, which at max_len 0 used to cut the last
    target token off silently."""
    cfg = tiny_cfg(corpus)
    params = init_mt_params(cfg, Pcg32(0).split("init"))
    with pytest.raises(ConfigError, match="max_len must be >= 1"):
        translate(params, cfg, corpus.test[:2], MMT, beam=2, max_len=max_len)
    with pytest.raises(ConfigError, match=f"max_len must be >= 1, got {max_len}"):
        build_target_batch(corpus.test[:2], max_len)
    src = build_source_batch(corpus.test[:2], MMT, cfg.max_positions)
    enc, grid = encode_source(params, cfg, src, None)
    with pytest.raises(ConfigError, match="max_len must be >= 1"):
        seq2seq.beam_search(params, cfg, enc, grid, 2, max_len)


@pytest.mark.parametrize("bad", [-1, None])
def test_source_id_outside_vocabulary_raises_data_error(bad, corpus):
    """A negative id used to read the last embedding row; one past the
    vocabulary raised numpy's IndexError. `None` stands for vocab_size."""
    cfg = tiny_cfg(corpus)
    bad = cfg.vocab_size if bad is None else bad
    params = init_mt_params(cfg, Pcg32(0).split("init"))
    ex = corpus.test[0]
    bad_ex = replace(ex, src_tokens=[bad] + list(ex.src_tokens))
    with pytest.raises(DataError, match=f"token id {bad} outside the vocabulary"):
        translate(params, cfg, [ex, bad_ex], MMT, beam=2, max_len=4)


@pytest.mark.parametrize("drop", ["stream", "pair"])
def test_training_false_discards_drop(drop, corpus):
    """The benchmark's teacher-forced calls, `training=False` with a
    `Pcg32(0)` stream (or a (rate, stream) pair), give the bits of the
    calls with `drop=None` and draw nothing."""
    cfg = tiny_cfg(corpus)
    params = init_mt_params(cfg, Pcg32(1).split("init"))
    src = build_source_batch(corpus.train[:4], MMT, cfg.max_positions)
    tgt = build_target_batch(corpus.train[:4], cfg.max_positions)
    rng = Pcg32(0)
    given = rng if drop == "stream" else (0.3, rng)
    with T.no_grad():
        enc, grid = encode_source(params, cfg, src, given, training=False)
        states = decode_states(params, cfg, enc, grid, tgt.input_ids, given,
                               training=False, tgt_pad_mask=tgt.pad_mask)
        enc0, grid0 = encode_source(params, cfg, src, None)
        states0 = decode_states(params, cfg, enc0, grid0, tgt.input_ids, None,
                                tgt_pad_mask=tgt.pad_mask)
    assert draws_left(rng, 0)
    assert enc.data.tobytes() == enc0.data.tobytes()
    assert np.array_equal(grid.pad, grid0.pad) and np.array_equal(grid.cells, grid0.cells)
    assert states.data.tobytes() == states0.data.tobytes()


def test_rate_zero_forward_equals_no_dropout(corpus):
    """An MT forward at (0.0, stream) has the bits of the `None` forward
    and leaves the stream where it was; at rate 0.1 it draws."""
    cfg = tiny_cfg(corpus)
    params = init_mt_params(cfg, Pcg32(1).split("init"))
    src = build_source_batch(corpus.train[:4], MMT, cfg.max_positions)
    tgt = build_target_batch(corpus.train[:4], cfg.max_positions)
    rng = Pcg32(7)
    got = mt_loss(params, cfg, src, tgt, (0.0, rng))
    want = mt_loss(params, cfg, src, tgt, None)
    assert draws_left(rng, 7)
    assert got.loss.data.tobytes() == want.loss.data.tobytes()
    mt_loss(params, cfg, src, tgt, (0.1, rng))
    assert not draws_left(rng, 7)


def test_incremental_decoder_takes_no_target_padding(corpus):
    """A cached decoder's own keys are never masked, so a pad mask with a
    cache is refused rather than ignored."""
    cfg = tiny_cfg(corpus)
    params = init_mt_params(cfg, Pcg32(0).split("init"))
    src = build_source_batch(corpus.train[:2], MMT, cfg.max_positions)
    enc, grid = encode_source(params, cfg, src, None)
    with pytest.raises(ConfigError, match="never padding"):
        decode_states(params, cfg, enc, grid, np.full((2, 1), BOS), None,
                      tgt_pad_mask=np.zeros((2, 1), bool), cache={})
