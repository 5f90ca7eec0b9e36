"""Wrong types and out-of-range values at the package's boundaries raise
a typed `VtlmError` (ROADMAP item 17), not a bare TypeError or
ValueError from deep inside numpy or Python."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vtlm import errors
from vtlm import tensor as T
from vtlm.bpe import learn_bpe
from vtlm.errors import ConfigError, DataError
from vtlm.masking import VTLM, MaskPolicy, build_stream
from vtlm.model import EncoderConfig, init_encoder_params
from vtlm.rng import Pcg32
from vtlm.seq2seq import (
    MMT,
    beam_search,
    build_source_batch,
    build_target_batch,
    encode_source,
    init_mt_params,
    translate,
)
from vtlm.synthetic import GenConfig, generate_corpus, generate_raw, label_centers
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


def _translate(model, beam=2, max_len=8):
    corpus, cfg, mt, _ = model
    translate(mt, cfg, corpus.test, MMT, beam=beam, max_len=max_len)


def _beam_search(model, beam=2, max_len=8):
    corpus, cfg, mt, _ = model
    enc, grid = encode_source(mt, cfg, build_source_batch(corpus.test, MMT, cfg.max_positions),
                              None)
    beam_search(mt, cfg, enc, grid, beam, max_len)


def _evaluate_pretrain(model, seed=1, batch_size=2):
    corpus, cfg, _, encoder = model
    streams = [build_stream(ex, VTLM) for ex in corpus.valid]
    evaluate_pretrain(encoder, cfg, streams, corpus.valid, VTLM, MaskPolicy(), seed, batch_size)


def _evaluate_mt(model, batch_size=2):
    corpus, cfg, mt, _ = model
    evaluate_mt(mt, cfg, corpus.valid, MMT, batch_size)


# one call per function that takes an integer argument, valid by default
CALLS = {
    "TrainConfig": lambda _, **kw: TrainConfig(**{"lr": 1e-3, "dropout": 0.1, "max_steps": 1,
                                                  **kw}),
    "translate": _translate,
    "beam_search": _beam_search,
    "build_source_batch": lambda model, max_len=64: build_source_batch(model[0].test, MMT,
                                                                       max_len),
    "build_target_batch": lambda model, max_len=64: build_target_batch(model[0].test, max_len),
    "build_stream": lambda model, max_len=64: build_stream(model[0].test[0], VTLM, max_len),
    "learn_bpe": lambda _, num_merges=4: learn_bpe(["ab abc"], num_merges),
    "generate_raw": lambda _, seed=1, count=3: generate_raw(GEN, seed, label_centers(GEN, 1),
                                                            count=count),
    "evaluate_pretrain": _evaluate_pretrain,
    "evaluate_mt": _evaluate_mt,
}

# "function argument" -> the argument's lower bound, None for an unbounded int
INT_ARGS = {
    "TrainConfig max_steps": 1,
    "TrainConfig batch_size": 1,
    "TrainConfig eval_interval": 1,
    "TrainConfig seed": None,
    "translate beam": 1,
    "translate max_len": 1,
    "beam_search beam": 1,
    "beam_search max_len": 1,
    "build_source_batch max_len": None,
    "build_target_batch max_len": 1,
    "build_stream max_len": None,
    "learn_bpe num_merges": 1,
    "generate_raw count": 0,
    "generate_raw seed": None,
    "evaluate_pretrain batch_size": 1,
    "evaluate_pretrain seed": None,
    "evaluate_mt batch_size": 1,
}


def _call(arg, model, value):
    """Run the call of CALLS that `arg` ("function argument") names with
    `value` for that argument."""
    function, name = arg.split()
    CALLS[function](model, **{name: value})


def _with(arg, value):
    """A CASES runner: `_call` of `arg` with `value`."""
    return lambda model: _call(arg, model, value)


CASES = {
    "translate beam=2.5": (_with("translate beam", 2.5), ConfigError),
    "translate beam=True": (_with("translate beam", True), ConfigError),
    "translate max_len=2.5": (_with("translate max_len", 2.5), ConfigError),
    "evaluate_pretrain batch_size=2.5": (_with("evaluate_pretrain batch_size", 2.5),
                                         ConfigError),
    "evaluate_mt batch_size=2.5": (_with("evaluate_mt batch_size", 2.5), ConfigError),
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
    "dropout rate=False": (lambda _: T.dropout(T.Tensor(np.ones(4)), (False, Pcg32(1))),
                           ConfigError),
    "TrainConfig lr=True": (lambda _: TrainConfig(True, 0.1, 1), ConfigError),
    "TrainConfig lr='0.1'": (lambda _: TrainConfig("0.1", 0.1, 1), ConfigError),
    "TrainConfig dropout=False": (lambda _: TrainConfig(1e-3, False, 1), ConfigError),
    "TrainConfig dropout='0.1'": (lambda _: TrainConfig(1e-3, "0.1", 1), ConfigError),
    "GenConfig cluster_sigma=True": (lambda _: GenConfig(cluster_sigma=True), ConfigError),
    "GenConfig cluster_sigma='0.1'": (lambda _: GenConfig(cluster_sigma="0.1"), ConfigError),
    "MaskPolicy visual_select_ratio=True": (lambda _: MaskPolicy(True), ConfigError),
    "MaskPolicy visual_select_ratio='0.1'": (lambda _: MaskPolicy("0.1"), ConfigError),
    # each of these raised a bare TypeError from slicing, numpy or Pcg32,
    # or was taken: a bool as 1, a float max_len by build_stream
    "build_target_batch max_len=2.5": (_with("build_target_batch max_len", 2.5), ConfigError),
    "build_target_batch max_len=True": (_with("build_target_batch max_len", True), ConfigError),
    "beam_search beam=2.5": (_with("beam_search beam", 2.5), ConfigError),
    "beam_search max_len=True": (_with("beam_search max_len", True), ConfigError),
    "learn_bpe num_merges=2.5": (_with("learn_bpe num_merges", 2.5), ConfigError),
    "learn_bpe num_merges=True": (_with("learn_bpe num_merges", True), ConfigError),
    "generate_raw count=2.5": (_with("generate_raw count", 2.5), ConfigError),
    "generate_raw count=True": (_with("generate_raw count", True), ConfigError),
    "generate_raw seed=1.5": (_with("generate_raw seed", 1.5), ConfigError),
    "build_source_batch max_len=20.5": (_with("build_source_batch max_len", 20.5), ConfigError),
    "build_stream max_len=40.5": (_with("build_stream max_len", 40.5), ConfigError),
    "evaluate_pretrain seed=1.5": (_with("evaluate_pretrain seed", 1.5), ConfigError),
    "evaluate_pretrain seed='1'": (_with("evaluate_pretrain seed", "1"), ConfigError),
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


@settings(max_examples=60, deadline=None)
@given(arg=st.sampled_from(sorted(INT_ARGS)), value=NOT_INTS)
def test_integer_arguments_take_only_ints(arg, value, model):
    assume(not (arg == "generate_raw count" and value is None))  # None: cfg.num_examples
    with pytest.raises(ConfigError, match=f"{arg.split()[1]} must be an int"):
        _call(arg, model, value)


@settings(max_examples=60, deadline=None)
@given(arg=st.sampled_from(sorted(a for a, low in INT_ARGS.items() if low is not None)),
       below=st.integers(min_value=1, max_value=2**64))
def test_integer_arguments_take_their_lower_bound_and_no_less(arg, below, model):
    low = INT_ARGS[arg]
    for value in (low - 1, low - below):
        with pytest.raises(ConfigError, match=f"^{arg.split()[1]} must be >= {low}, got {value}$"):
            _call(arg, model, value)
    _call(arg, model, low)


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


SRC = Path(__file__).resolve().parent.parent / "src" / "vtlm"
CONFIG_ERRORS = {name for name, obj in vars(errors).items()
                 if isinstance(obj, type) and issubclass(obj, ConfigError)}


def _literal_text(node):
    """The text of a string or f-string node, each replacement field as
    {}; None for any other node."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in node.values)
    return None


def test_only_errors_words_range_and_choice_errors():
    """`errors.check_int` and `errors.check_choice` are the one home of
    "must be >= N" and "unknown X": no other module raises a ConfigError
    worded so. A relational check, such as a position against
    max_positions, is worded otherwise and stays where it is."""
    worded = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and node.args and CONFIG_ERRORS & {
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)}):
                continue
            text = _literal_text(node.args[0]) or ""
            if text.startswith("unknown ") or any(
                    words in text for words in ("must be >= ", "must be positive",
                                                "must not be negative")):
                worded.append(f"{path.name}:{node.lineno}: {text}")
    assert worded == []
