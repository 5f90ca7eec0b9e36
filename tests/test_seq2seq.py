import pytest

from vtlm.bpe import EOS
from vtlm.errors import ConfigError
from vtlm.model import EncoderConfig
from vtlm.rng import Pcg32
from vtlm.seq2seq import MMT, NMT, init_mt_params, make_step_fn, translate
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
    params["dec.out_bias"].data[EOS] = -1.0e4
    (hyp,) = translate(params, cfg, corpus.test[:1], MMT, beam=2, max_len=10)
    assert len(hyp.tokens) == 10 and not hyp.finished
