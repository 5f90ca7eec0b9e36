"""Wrong types and out-of-range values at the package's boundaries raise
a typed `VtlmError` (ROADMAP item 17), not a bare TypeError or
ValueError from deep inside numpy or Python."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtlm import tensor as T
from vtlm.errors import ConfigError, DataError
from vtlm.masking import VTLM, MaskPolicy, build_stream
from vtlm.model import EncoderConfig, init_encoder_params
from vtlm.rng import Pcg32
from vtlm.seq2seq import MMT, init_mt_params, translate
from vtlm.synthetic import GenConfig, generate_corpus
from vtlm.trainer import TrainConfig, evaluate_mt, evaluate_pretrain

GEN = GenConfig(num_examples=8, num_valid=2, num_test=2, feat_dim=8, num_merges=50)
ENCODER = dict(vocab_size=50, label_vocab_size=10, feat_dim=8, d_model=16, ffn_dim=32,
               n_layers=1, n_heads=2, max_positions=64)


@pytest.fixture(scope="module")
def model():
    """(corpus, cfg, MT parameters, encoder parameters) of a tiny model."""
    corpus = generate_corpus(GEN, 1)
    cfg = EncoderConfig.desk(len(corpus.codec.vocab), GEN.num_labels, GEN.feat_dim,
                             d_model=16, ffn_dim=32, n_layers=1, n_heads=2)
    return (corpus, cfg, init_mt_params(cfg, Pcg32(0).split("init")),
            init_encoder_params(cfg, Pcg32(0).split("init")))


def _translate(**kw):
    def run(model):
        corpus, cfg, mt, _ = model
        translate(mt, cfg, corpus.test, MMT, **kw)
    return run


def _evaluate_pretrain(model):
    corpus, cfg, _, encoder = model
    streams = [build_stream(ex, VTLM) for ex in corpus.valid]
    evaluate_pretrain(encoder, cfg, streams, corpus.valid, VTLM, MaskPolicy(), 1, 2.5)


def _evaluate_mt(model):
    corpus, cfg, mt, _ = model
    evaluate_mt(mt, cfg, corpus.valid, MMT, 2.5)


CASES = {
    "translate beam=2.5": (_translate(beam=2.5), ConfigError),
    "translate beam=True": (_translate(beam=True), ConfigError),
    "translate max_len=2.5": (_translate(beam=2, max_len=2.5), ConfigError),
    "evaluate_pretrain batch_size=2.5": (_evaluate_pretrain, ConfigError),
    "evaluate_mt batch_size=2.5": (_evaluate_mt, ConfigError),
    "GenConfig num_valid=1.5": (lambda _: GenConfig(num_valid=1.5), ConfigError),
    "GenConfig feat_dim=8.0": (lambda _: GenConfig(feat_dim=8.0), ConfigError),
    "EncoderConfig d_model=16.0": (lambda _: EncoderConfig(**{**ENCODER, "d_model": 16.0}),
                                   ConfigError),
    "EncoderConfig n_layers=1.5": (lambda _: EncoderConfig(**{**ENCODER, "n_layers": 1.5}),
                                   ConfigError),
    "derangement n=0": (lambda _: Pcg32(1).derangement(0), DataError),
    "derangement n=1": (lambda _: Pcg32(1).derangement(1), DataError),
    "generate_corpus seed='1'": (lambda _: generate_corpus(GEN, "1"), ConfigError),
    "generate_corpus seed=1.5": (lambda _: generate_corpus(GEN, 1.5), ConfigError),
    "generate_corpus seed=True": (lambda _: generate_corpus(GEN, True), ConfigError),
    "dropout rate='0.1'": (lambda _: T.dropout(T.Tensor(np.ones(4)), ("0.1", Pcg32(1))),
                           ConfigError),
    "TrainConfig lr=True": (lambda _: TrainConfig(True, 0.1, 1), ConfigError),
    "TrainConfig lr='0.1'": (lambda _: TrainConfig("0.1", 0.1, 1), ConfigError),
    "TrainConfig dropout=False": (lambda _: TrainConfig(1e-3, False, 1), ConfigError),
    "TrainConfig dropout='0.1'": (lambda _: TrainConfig(1e-3, "0.1", 1), ConfigError),
    "GenConfig cluster_sigma=True": (lambda _: GenConfig(cluster_sigma=True), ConfigError),
    "GenConfig cluster_sigma='0.1'": (lambda _: GenConfig(cluster_sigma="0.1"), ConfigError),
    "MaskPolicy visual_select_ratio=True": (lambda _: MaskPolicy(True), ConfigError),
    "MaskPolicy visual_select_ratio='0.1'": (lambda _: MaskPolicy("0.1"), ConfigError),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_argument_raises_a_typed_error(case, model):
    run, error = CASES[case]
    with pytest.raises(error):
        run(model)


def _int_fields(cls):
    return [f.name for f in dataclasses.fields(cls) if f.type == "int"]


NOT_INTS = st.one_of(st.booleans(), st.floats(allow_nan=True), st.text(max_size=3), st.none())


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(_int_fields(GenConfig)), value=NOT_INTS)
def test_gen_config_integer_fields_take_only_ints(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be an int"):
        GenConfig(**{name: value})


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(_int_fields(EncoderConfig)), value=NOT_INTS)
def test_encoder_config_integer_fields_take_only_ints(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be an int"):
        EncoderConfig(**{**ENCODER, name: value})


# one constructor per float field, taking the field's value
REAL_FIELDS = {
    "TrainConfig lr": lambda v: TrainConfig(lr=v, dropout=0.1, max_steps=1),
    "TrainConfig dropout": lambda v: TrainConfig(lr=1e-3, dropout=v, max_steps=1),
    "GenConfig cluster_sigma": lambda v: GenConfig(cluster_sigma=v),
    "MaskPolicy visual_select_ratio": lambda v: MaskPolicy(visual_select_ratio=v),
}


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from(sorted(REAL_FIELDS)),
       value=st.one_of(st.booleans(), st.text(max_size=3), st.none()))
def test_float_fields_take_only_real_numbers(field, value):
    with pytest.raises(ConfigError, match="must be a real number"):
        REAL_FIELDS[field](value)
    REAL_FIELDS[field](np.float32(0.5))  # a numpy float is a real number
