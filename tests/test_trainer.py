import dataclasses
import math
import os
import sys
import threading
import weakref

import numpy as np
import pytest

from helpers import float64_params, pool_thread_name
from vtlm import tensor as T, trainer
from vtlm.errors import ConfigError, DataError
from vtlm.checkpoint import load_checkpoint, save_checkpoint
from vtlm.masking import TLM, VTLM, MaskPolicy, build_masked_batch, build_stream
from vtlm.model import EncoderConfig, init_encoder_params, vtlm_loss
from vtlm.rng import Pcg32, RowWindow
from vtlm.seq2seq import MMT, NMT, build_source_batch, build_target_batch, init_mt_params, mt_loss
from vtlm.synthetic import GenConfig, generate_corpus

GEN = GenConfig(num_examples=24, num_valid=8, num_test=2, feat_dim=8, num_merges=150)

# phase -> (param init, TrainConfig phase, validation metric)
PHASES = {
    "pretrain": (init_encoder_params, "pretrain", "val_acc"),
    "mt": (init_mt_params, "finetune", "val_ppl"),
}


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(GEN, 2)


def tiny_cfg(corpus):
    return EncoderConfig.desk(len(corpus.codec.vocab), GEN.num_labels, GEN.feat_dim,
                              d_model=16, ffn_dim=32, n_layers=1, n_heads=2)


def train(phase, cfg, train_data, valid_data, max_steps, out_dir, resume_from=None,
          eval_interval=2):
    init, tphase, _ = PHASES[phase]
    params = init(cfg, Pcg32(5).split("init"))
    tcfg = trainer.TrainConfig.for_phase(tphase, lr=1e-3, max_steps=max_steps,
                                         batch_size=8, eval_interval=eval_interval,
                                         seed=4)
    kw = dict(out_dir=out_dir, resume_from=resume_from)
    if phase == "pretrain":
        result = trainer.train_pretrain(train_data, valid_data, params, cfg, tcfg,
                                        VTLM, MaskPolicy(), **kw)
    else:
        result = trainer.train_mt(train_data, valid_data, params, cfg, tcfg, MMT, **kw)
    return params, result


def bits(params):
    return {name: t.data.tobytes() for name, t in params.items()}


@pytest.mark.parametrize("phase", sorted(PHASES))
def test_resume_4_plus_4_equals_8(phase, corpus, tmp_path):
    cfg = tiny_cfg(corpus)
    full_dir, split_dir = tmp_path / "full", tmp_path / "split"
    full_dir.mkdir()
    split_dir.mkdir()
    params8, res8 = train(phase, cfg, corpus.train, corpus.valid, 8, str(full_dir))
    train(phase, cfg, corpus.train, corpus.valid, 4, str(split_dir))
    params44, res44 = train(phase, cfg, corpus.train, corpus.valid, 8, str(split_dir),
                            resume_from=str(split_dir / "last.ckpt"))
    assert res44.final_step == res8.final_step == 8
    assert bits(params44) == bits(params8)
    assert bits(res44.best_params) == bits(res8.best_params)
    assert (res44.best_metric, res44.best_step) == (res8.best_metric, res8.best_step)
    assert res44.history == res8.history[-len(res44.history):]


@pytest.mark.parametrize("objective, seed, n_heads, key", [
    (TLM, 4, 2, "kind"),
    (VTLM, 5, 2, "train_config.seed"),
    (VTLM, 4, 4, "model_config.n_heads"),
])
def test_resume_refuses_a_run_it_cannot_continue(objective, seed, n_heads, key,
                                                 corpus, tmp_path):
    """A 2-step VTLM run resumed as TLM, with another seed, or with
    another head count (same parameter shapes) raises ConfigError naming
    the first key that differs, and loads nothing into the params."""
    train("pretrain", tiny_cfg(corpus), corpus.train, corpus.valid, 2, str(tmp_path))
    cfg = dataclasses.replace(tiny_cfg(corpus), n_heads=n_heads)
    params = init_encoder_params(cfg, Pcg32(5).split("init"))
    fresh = bits(params)
    tcfg = trainer.TrainConfig.for_phase("pretrain", lr=1e-3, max_steps=4, batch_size=8,
                                         eval_interval=2, seed=seed)
    with pytest.raises(ConfigError, match=f"another run: {key}:"):
        trainer.train_pretrain(corpus.train, corpus.valid, params, cfg, tcfg, objective,
                               MaskPolicy(), resume_from=str(tmp_path / "last.ckpt"))
    assert bits(params) == fresh


@pytest.mark.parametrize("phase", sorted(PHASES))
def test_resume_refuses_a_checkpoint_with_the_warmup_settings(phase, corpus, tmp_path,
                                                              monkeypatch):
    """A last.ckpt whose train_config still holds the `phase` and
    `warmup_steps` that TrainConfig no longer has is another run: the
    resume raises ConfigError naming train_config.phase, before any
    tensor is loaded."""
    cfg = tiny_cfg(corpus)
    train(phase, cfg, corpus.train, corpus.valid, 2, str(tmp_path))
    path = tmp_path / "last.ckpt"
    header, tensors = load_checkpoint(path)
    header["train_config"] = {"phase": PHASES[phase][1], **header["train_config"],
                              "warmup_steps": 4_000}
    save_checkpoint(path, header, tensors)
    monkeypatch.setattr(trainer, "restore_train_checkpoint", None)  # loading would call it
    with pytest.raises(ConfigError, match="another run: train_config.phase: checkpoint has"):
        train(phase, cfg, corpus.train, corpus.valid, 4, str(tmp_path), resume_from=str(path))


@pytest.mark.parametrize("phase", sorted(PHASES))
@pytest.mark.parametrize("stream, bad", [("src_tokens", -1), ("tgt_tokens", -3),
                                         ("tgt_tokens", None)])
def test_token_id_outside_vocabulary_raises_data_error(phase, stream, bad, corpus,
                                                       tmp_path):
    """One training example with an id outside [0, vocab_size) (`None`
    stands for vocab_size) stops the run with a DataError, in both
    phases."""
    cfg = tiny_cfg(corpus)
    bad = cfg.vocab_size if bad is None else bad
    ex = corpus.train[0]
    tokens = list(getattr(ex, stream))
    tokens[1] = bad
    data = [dataclasses.replace(ex, **{stream: tokens})] + corpus.train[1:]
    with pytest.raises(DataError, match=f"token id {bad} outside the vocabulary"):
        train(phase, cfg, data, corpus.valid, 4, str(tmp_path))


def test_region_label_outside_label_vocabulary_raises_data_error(corpus, tmp_path):
    """A VTLM run whose corpus has more detector labels than the region
    head stops with a DataError naming the label and the bound."""
    cfg = dataclasses.replace(tiny_cfg(corpus), label_vocab_size=10)
    assert max(ex.labels.max() for ex in corpus.train) >= 10
    with pytest.raises(DataError, match=r"region label \d+ outside the label vocabulary \[0, 10\)"):
        train("pretrain", cfg, corpus.train, corpus.valid, 4, str(tmp_path))


@pytest.mark.parametrize("phase", sorted(PHASES))
def test_skipped_update_still_evaluates(phase, corpus, tmp_path, monkeypatch):
    """The schedule is by step: step 2 skips its update and step 4 its
    batch (the step's loss function returns None), and both evaluate;
    step 4's history entry records no train loss."""
    real_adam_step, real_fit = trainer.adam_step, trainer._fit
    calls, batches = [], []

    def skip_update_2(params, state, lr, **kw):
        calls.append(lr)
        if len(calls) == 2:
            state.skipped += 1
            return False
        return real_adam_step(params, state, lr, **kw)

    def skip_batch_4(params, cfg, tcfg, n, step_fn, *args):
        def step_or_skip(idx, split):
            batches.append(idx)
            return None if len(batches) == 4 else step_fn(idx, split)

        return real_fit(params, cfg, tcfg, n, step_or_skip, *args)

    monkeypatch.setattr(trainer, "adam_step", skip_update_2)
    monkeypatch.setattr(trainer, "_fit", skip_batch_4)
    cfg = tiny_cfg(corpus)
    _, result = train(phase, cfg, corpus.train, corpus.valid, 4, str(tmp_path))
    assert len(batches) == 4 and len(calls) == 3
    assert [h["step"] for h in result.history] == [2, 4]
    assert math.isfinite(result.history[0]["train_loss"])
    assert result.history[1]["train_loss"] is None
    header, _ = load_checkpoint(os.path.join(tmp_path, "last.ckpt"))
    assert header["step"] == 4 and header["adam_skipped"] == 1
    metric = PHASES[phase][2]
    assert header["metrics"][metric] == result.history[-1][metric]


@pytest.mark.parametrize("phase, case", [("pretrain", "no_examples"),
                                         ("pretrain", "no_maskable_token"),
                                         ("mt", "no_examples")])
def test_evaluating_nothing_raises_data_error(phase, case, corpus):
    """No perfect score from nothing: an MT perplexity of 1.0 over no
    examples, or a pretraining `val_loss` of 0.0 over no masked target.
    (Every MT example has a target token, its [EOS].)"""
    cfg = tiny_cfg(corpus)
    params = PHASES[phase][0](cfg, Pcg32(5).split("init"))
    examples = [] if case == "no_examples" else [
        dataclasses.replace(ex, src_tokens=[], tgt_tokens=[]) for ex in corpus.valid[:3]]
    with pytest.raises(DataError, match="nothing to evaluate"):
        if phase == "pretrain":
            streams = [build_stream(ex, VTLM) for ex in examples]
            trainer.evaluate_pretrain(params, cfg, streams, examples, VTLM, MaskPolicy(), 1, 8)
        else:
            trainer.evaluate_mt(params, cfg, examples, MMT, 8)


@pytest.mark.parametrize("phase", sorted(PHASES))
def test_target_longer_than_max_positions(phase, corpus, tmp_path):
    cfg = tiny_cfg(corpus)
    assert cfg.max_positions == 64
    ex = corpus.train[0]
    long_ex = dataclasses.replace(ex, tgt_tokens=(ex.tgt_tokens * 80)[:80])
    data = [long_ex] + corpus.train[1:8]
    _, result = train(phase, cfg, data, [long_ex], 2, str(tmp_path), eval_interval=1)
    assert [h["step"] for h in result.history] == [1, 2]
    assert not result.diverged


@pytest.mark.parametrize("phase", sorted(PHASES))
def test_checkpoint_bytes_do_not_depend_on_out_dir(phase, corpus, tmp_path):
    cfg = tiny_cfg(corpus)
    short, long = tmp_path / "a", tmp_path / "a_much_longer_run_directory_name"
    for out_dir in (short, long):
        out_dir.mkdir()
        train(phase, cfg, corpus.train, corpus.valid, 2, str(out_dir))
    for name in ("last.ckpt", "best.ckpt"):
        assert (short / name).read_bytes() == (long / name).read_bytes()


@pytest.mark.parametrize("phase", sorted(PHASES))
def test_moved_run_resumes_with_its_best_params(phase, corpus, tmp_path):
    """A resume finds best.ckpt next to last.ckpt after the run directory
    moved. The moved best.ckpt is marked (+1 on every tensor), so its
    params cannot be mistaken for the last ones."""
    cfg = tiny_cfg(corpus)
    old, new = tmp_path / "run", tmp_path / "moved" / "run"
    old.mkdir()
    train(phase, cfg, corpus.train, corpus.valid, 4, str(old))
    new.parent.mkdir()
    os.rename(old, new)
    header, tensors = load_checkpoint(new / "best.ckpt")
    marked = {name: t + 1.0 for name, t in tensors.items()}
    save_checkpoint(new / "best.ckpt", header, marked)
    _, result = train(phase, cfg, corpus.train, corpus.valid, 4, str(new),
                      resume_from=str(new / "last.ckpt"))
    assert bits(result.best_params) == {name: t.tobytes() for name, t in marked.items()}


@pytest.mark.parametrize("phase", sorted(PHASES))
def test_resume_without_best_ckpt_raises_data_error(phase, corpus, tmp_path, monkeypatch):
    """Without the best.ckpt beside last.ckpt a resume could not return
    the best parameters that the best_step and best_metric it reports
    belong to: it raises DataError naming best.ckpt, before any tensor
    is loaded."""
    cfg = tiny_cfg(corpus)
    train(phase, cfg, corpus.train, corpus.valid, 4, str(tmp_path))
    os.remove(tmp_path / "best.ckpt")
    monkeypatch.setattr(trainer, "load_checkpoint", None)  # loading would call it
    with pytest.raises(DataError, match="best.ckpt"):
        train(phase, cfg, corpus.train, corpus.valid, 8, str(tmp_path),
              resume_from=str(tmp_path / "last.ckpt"))


@pytest.mark.parametrize("phase", sorted(PHASES))
def test_resume_with_nothing_to_do_keeps_the_metrics(phase, corpus, tmp_path):
    """Resuming a finished 4-step run with max_steps=4 runs no step and
    rewrites last.ckpt with the metrics it had."""
    cfg = tiny_cfg(corpus)
    train(phase, cfg, corpus.train, corpus.valid, 4, str(tmp_path))
    before, _ = load_checkpoint(tmp_path / "last.ckpt")
    assert PHASES[phase][2] in before["metrics"]
    _, result = train(phase, cfg, corpus.train, corpus.valid, 4, str(tmp_path),
                      resume_from=str(tmp_path / "last.ckpt"))
    after, _ = load_checkpoint(tmp_path / "last.ckpt")
    assert result.history == [] and after["step"] == 4
    assert after["metrics"] == before["metrics"]


@pytest.mark.parametrize("phase", sorted(PHASES))
@pytest.mark.parametrize("empty", ["train_data", "valid_data"])
def test_empty_split_raises_before_any_step(phase, empty, corpus, tmp_path, monkeypatch):
    cfg = tiny_cfg(corpus)
    splits = {"train_data": corpus.train, "valid_data": corpus.valid, empty: []}
    monkeypatch.setattr(trainer, "adam_step", None)  # a step would call it
    with pytest.raises(DataError, match=f"{empty} is empty"):
        train(phase, cfg, splits["train_data"], splits["valid_data"], 2, str(tmp_path))
    assert os.listdir(tmp_path) == []


def test_epoch_order_is_drawn_once_per_epoch(corpus, monkeypatch):
    """24 examples in batches of 8 make 3 steps an epoch, so 8 steps
    draw the orders of epochs 0, 1 and 2, once each."""
    cfg = tiny_cfg(corpus)
    drawn = []
    real = trainer._epoch_order

    def spy(seed, epoch, n):
        drawn.append(epoch)
        return real(seed, epoch, n)

    monkeypatch.setattr(trainer, "_epoch_order", spy)
    train("mt", cfg, corpus.train, corpus.valid, 8, None, eval_interval=8)
    assert drawn == [0, 1, 2]


def test_unmaskable_validation_split_raises_before_any_step(corpus, tmp_path, monkeypatch):
    """A validation split without a maskable token could never be
    scored: pretraining stops before its first update, not at its first
    evaluation."""
    cfg = tiny_cfg(corpus)
    valid = [dataclasses.replace(ex, src_tokens=[], tgt_tokens=[]) for ex in corpus.valid]
    monkeypatch.setattr(trainer, "adam_step", None)  # a step would call it
    monkeypatch.setattr(trainer, "vtlm_loss", None)
    with pytest.raises(DataError, match="no maskable token in valid_data"):
        train("pretrain", cfg, corpus.train, valid, 4, str(tmp_path), eval_interval=3)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("rate", [1.0, 1.5, -0.1, math.nan])
def test_dropout_rate_outside_unit_interval_raises(rate):
    """The rate is checked where a run sets it, and where a forward pass
    is handed it; the model config holds no rate."""
    x = T.Tensor(np.ones((1, 2, 2), dtype=np.float32))
    with pytest.raises(ConfigError):
        T.dropout(x, (rate, Pcg32(1)))
    with pytest.raises(ConfigError):
        T.attention(x, x, x, 1, (rate, Pcg32(1)))
    with pytest.raises(ConfigError):
        trainer.TrainConfig.for_phase("pretrain", dropout=rate)
    with pytest.raises(TypeError, match="dropout"):
        EncoderConfig.desk(10, 5, 8, dropout=0.1)


def test_unknown_phase_raises():
    with pytest.raises(ConfigError, match="^unknown phase 'bogus'$"):
        trainer.TrainConfig.for_phase("bogus")


@pytest.mark.parametrize("phase", sorted(PHASES))
def test_checkpoints_record_the_rate_in_train_config_only(phase, corpus, tmp_path):
    """`model_config` is the architecture; the run's dropout rate is in
    `train_config`. A last.ckpt whose `model_config` still holds a
    dropout rate, as those written before the rate left EncoderConfig
    do, is another run."""
    cfg = tiny_cfg(corpus)
    train(phase, cfg, corpus.train, corpus.valid, 2, str(tmp_path))
    path = tmp_path / "last.ckpt"
    header, tensors = load_checkpoint(path)
    assert header["model_config"] == dataclasses.asdict(cfg)
    assert "dropout" not in header["model_config"]
    assert header["train_config"]["dropout"] == 0.1
    header["model_config"]["dropout"] = 0.1
    save_checkpoint(path, header, tensors)
    with pytest.raises(ConfigError, match="another run: model_config.dropout: checkpoint has"):
        train(phase, cfg, corpus.train, corpus.valid, 4, str(tmp_path), resume_from=str(path))


@pytest.mark.parametrize("phase", sorted(PHASES))
@pytest.mark.parametrize("batch_size", [0, -1])
def test_evaluation_batch_size_below_one_raises_config_error(phase, batch_size, corpus):
    cfg = tiny_cfg(corpus)
    params = PHASES[phase][0](cfg, Pcg32(5).split("init"))
    with pytest.raises(ConfigError, match=f"batch_size must be >= 1, got {batch_size}"):
        if phase == "pretrain":
            streams = [build_stream(ex, VTLM) for ex in corpus.valid]
            trainer.evaluate_pretrain(params, cfg, streams, corpus.valid, VTLM, MaskPolicy(),
                                      1, batch_size)
        else:
            trainer.evaluate_mt(params, cfg, corpus.valid, MMT, batch_size)


@pytest.mark.parametrize("field, value", [
    ("max_steps", 0), ("max_steps", -3),
    ("batch_size", 0), ("eval_interval", 0),
    ("lr", 0.0), ("lr", -1e-4), ("lr", math.nan), ("lr", math.inf),
    # not ints: a float batch size used to die at the first batch with a
    # bare TypeError, and a bool seed was taken as 1
    ("max_steps", 2.5), ("batch_size", 2.5), ("eval_interval", 1.5), ("seed", 1.5),
    ("max_steps", True), ("batch_size", True), ("eval_interval", True), ("seed", True),
    ("seed", "1"),
])
def test_train_config_out_of_range_raises(field, value):
    for phase in trainer.PHASES:
        with pytest.raises(ConfigError, match=field):
            trainer.TrainConfig.for_phase(phase, **{field: value})


def training_window(args):
    """The `RowWindow` of a loss call's drop: None in evaluation, which
    passes no drop."""
    return next((a[1] for a in args if isinstance(a, tuple) and isinstance(a[-1], RowWindow)),
                None)


@pytest.mark.parametrize("phase", sorted(PHASES))
def test_nan_loss_stops_the_run(phase, corpus, tmp_path, monkeypatch):
    """A non-finite loss in the first half of step 3 ends the loop before
    the update; evaluations after it never run."""
    steps = []
    adam_calls = []
    real_adam_step = trainer.adam_step

    def nan_at_step_3(real):
        def loss_fn(*args):
            out = real(*args)
            window = training_window(args)
            if window is not None and window.lo == 0:  # a step's first half
                steps.append(len(steps) + 1)
                if len(steps) == 3:
                    out.loss = out.loss * float("nan")
            return out
        return loss_fn

    def counting_adam_step(*args, **kw):
        adam_calls.append(1)
        return real_adam_step(*args, **kw)

    monkeypatch.setattr(trainer, "vtlm_loss", nan_at_step_3(trainer.vtlm_loss))
    monkeypatch.setattr(trainer, "mt_loss", nan_at_step_3(trainer.mt_loss))
    monkeypatch.setattr(trainer, "adam_step", counting_adam_step)
    cfg = tiny_cfg(corpus)
    _, result = train(phase, cfg, corpus.train, corpus.valid, 6, str(tmp_path),
                      eval_interval=1)
    assert result.diverged
    assert result.final_step == 3 and steps == [1, 2, 3]
    assert len(adam_calls) == 2
    assert [h["step"] for h in result.history] == [1, 2]
    # last.ckpt holds the last step whose update ran, so a resume runs
    # step 3 again and, with the NaN still injected there, stops again
    header, _ = load_checkpoint(os.path.join(tmp_path, "last.ckpt"))
    assert header["step"] == header["adam_t"] == 2
    del steps[2:]
    _, resumed = train(phase, cfg, corpus.train, corpus.valid, 6, str(tmp_path),
                       resume_from=str(tmp_path / "last.ckpt"), eval_interval=1)
    assert resumed.diverged
    assert resumed.final_step == 3 and steps == [1, 2, 3]
    assert len(adam_calls) == 2 and resumed.history == []


@pytest.mark.parametrize("phase", sorted(PHASES))
def test_one_example_step_is_the_one_thread_step(phase, corpus, monkeypatch):
    """A one-example batch runs whole, as the window [0, 1), on the calling
    thread: its loss and every gradient have the bytes of the one-thread
    step, which draws dropout through `Pcg32.raw32`."""
    cfg = tiny_cfg(corpus)
    init = PHASES[phase][0]
    params, ref = (init(cfg, Pcg32(5).split("init")) for _ in range(2))
    examples = corpus.train[:1]
    if phase == "pretrain":
        batch = build_masked_batch(examples, VTLM, MaskPolicy(), cfg.vocab_size,
                                   Pcg32(1), Pcg32(2))
        step = trainer._pretrain_step(cfg, batch)
        loss = vtlm_loss(ref, cfg, batch, (0.1, Pcg32(3))).loss
    else:
        src = build_source_batch(examples, MMT, cfg.max_positions)
        tgt = build_target_batch(examples, cfg.max_positions)
        step = trainer._mt_step(cfg, src, tgt)
        loss = mt_loss(ref, cfg, src, tgt, (0.1, Pcg32(3))).loss
    loss.backward()
    threads = set()
    real_half_step = trainer._half_step

    def half_step(*args):
        threads.add(threading.current_thread())
        return real_half_step(*args)

    monkeypatch.setattr(trainer, "_half_step", half_step)
    got = trainer._step_grads(params, *step, 0.1, Pcg32(3))
    assert step[0] == 1 and threads == {threading.current_thread()}
    assert np.float32(got).tobytes() == loss.data.tobytes()
    assert {n: p.grad.tobytes() for n, p in params.items() if p.grad is not None} == {
        n: p.grad.tobytes() for n, p in ref.items() if p.grad is not None}


def adam_params(grads):
    """A parameter dict holding `grads` as float32 gradients of fixed values."""
    params = {}
    for name, g in grads.items():
        g = np.asarray(g, dtype=np.float32)
        p = T.Tensor(np.linspace(-1.0, 1.0, g.size, dtype=np.float32).reshape(g.shape),
                     requires_grad=True)
        p.grad = g
        params[name] = p
    return params


def test_adam_step_matches_float64_hand_computation():
    """Two bias-corrected updates on known gradients below the clip norm."""
    steps = [
        {"a": [[0.1, -0.2, 0.3], [0.0, 0.5, -0.4]], "b": [1.0, -2.0]},
        {"a": [[-0.3, 0.2, 0.3], [0.7, 0.0, 0.1]], "b": [0.5, 1.5]},
    ]
    lr = 1e-2
    params = adam_params(steps[0])
    state = trainer.AdamState.init(params)
    want_p = {n: p.data.astype(np.float64) for n, p in params.items()}
    want_m = {n: np.zeros_like(w) for n, w in want_p.items()}
    want_v = {n: np.zeros_like(w) for n, w in want_p.items()}
    for t, grads in enumerate(steps, start=1):
        for name, g in grads.items():
            params[name].grad = np.asarray(g, dtype=np.float32)
            g = np.asarray(g, dtype=np.float64)
            want_m[name] = 0.9 * want_m[name] + 0.1 * g
            want_v[name] = 0.999 * want_v[name] + 0.001 * g * g
            mhat = want_m[name] / (1 - 0.9 ** t)
            vhat = want_v[name] / (1 - 0.999 ** t)
            want_p[name] = want_p[name] - lr * mhat / (np.sqrt(vhat) + 1e-8)
        assert trainer.adam_step(params, state, lr)
        assert state.t == t and state.skipped == 0
        for name, p in params.items():
            np.testing.assert_allclose(p.data, want_p[name], rtol=0, atol=1e-6)
            np.testing.assert_allclose(state.m[name], want_m[name], rtol=1e-6, atol=1e-9)
            np.testing.assert_allclose(state.v[name], want_v[name], rtol=1e-6, atol=1e-12)


def test_adam_step_clips_the_global_norm_to_clip_norm():
    """A gradient of norm 85 enters the moments scaled to norm 5; the
    stored gradients are left as they were."""
    grads = {"a": [[3.0, 4.0], [0.0, 12.0]], "b": [0.0, 84.0]}
    params = adam_params(grads)
    state = trainer.AdamState.init(params)
    assert trainer.global_grad_norm(params) == 85.0
    assert trainer.CLIP_NORM == 5.0
    assert trainer.adam_step(params, state, 1e-3)
    used = {n: state.m[n].astype(np.float64) / (1 - trainer.ADAM_BETA1) for n in grads}
    norm = math.sqrt(sum(float(np.sum(u ** 2)) for u in used.values()))
    assert norm == pytest.approx(5.0, rel=1e-6)
    for name, g in grads.items():
        np.testing.assert_allclose(used[name], np.asarray(g) * (5.0 / 85.0), rtol=1e-6)
        np.testing.assert_array_equal(params[name].grad, np.asarray(g, dtype=np.float32))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_adam_step_skips_a_non_finite_norm(bad):
    """A non-finite gradient norm leaves t, the moments and the params
    untouched, returns False and counts the skip."""
    params = adam_params({"a": [[0.1, -0.2], [0.3, 0.4]], "b": [1.0, -2.0]})
    state = trainer.AdamState.init(params)

    def snapshot():
        return (bits(params), [m.tobytes() for m in state.m.values()],
                [v.tobytes() for v in state.v.values()])

    assert trainer.adam_step(params, state, 1e-2)
    before = snapshot()
    params["b"].grad = np.array([bad, 1.0], dtype=np.float32)
    assert trainer.adam_step(params, state, 1e-2) is False
    assert (state.t, state.skipped) == (1, 1)
    assert snapshot() == before


def restore_error(tmp_path, header, corrupt=None) -> tuple[str, str]:
    """The checkpoint path and the full DataError message of restoring a
    checkpoint of two parameters with zero Adam moments, under `header`,
    after `corrupt(tensors)`."""
    params = adam_params({"a": [[0.1, -0.2], [0.3, 0.4]], "b": [1.0, -2.0]})
    tensors = {n: p.data for n, p in params.items()}
    tensors.update({f"adam.{k}.{n}": np.zeros_like(p.data) for k in "mv"
                    for n, p in params.items()})
    if corrupt is not None:
        corrupt(tensors)
    path = tmp_path / "last.ckpt"
    save_checkpoint(path, header, tensors)
    with pytest.raises(DataError) as err:
        trainer.restore_train_checkpoint(path, *load_checkpoint(path), params)
    return str(path), str(err.value)


@pytest.mark.parametrize("corrupt, message", [
    (lambda tensors: tensors.pop("adam.m.b"), "missing tensor 'adam.m.b'"),
    (lambda tensors: tensors.update({"adam.v.a": np.zeros(4, np.float32)}),
     "shape mismatch for 'adam.v.a'"),
], ids=["missing", "shape"])
def test_restore_rejects_a_bad_adam_moment(corrupt, message, tmp_path):
    """A checkpoint whose header sets `adam_t` but whose Adam moment is
    missing, or not of its parameter's shape, raises DataError naming
    the file and the moment."""
    path, got = restore_error(tmp_path, {"adam_t": 1}, corrupt)
    assert got == f"{path}: {message}"


@pytest.mark.parametrize("key, value", [
    ("adam_t", -3), ("adam_t", 1.7), ("adam_t", "x"), ("adam_t", True),
    ("adam_skipped", [1]), ("adam_skipped", -1),
], ids=["t-negative", "t-float", "t-string", "t-bool", "skipped-list", "skipped-negative"])
def test_restore_rejects_a_bad_adam_counter(key, value, tmp_path):
    """An `adam_t` or `adam_skipped` that is not a non-negative int
    raises DataError naming the file, not a bare ValueError or
    TypeError, and is never truncated or taken as it stands."""
    header = {"adam_t": 1, "adam_skipped": 0, key: value}
    path, got = restore_error(tmp_path, header)
    assert got == f"{path}: corrupt header: {key} {value!r}"


@pytest.mark.parametrize("key, value", [
    ("step", -3), ("step", 1.7), ("step", "x"), ("step", True), ("step", None),
    ("best_step", "x"), ("best_step", -1),
    ("metrics", None), ("metrics", [1.0]),
    ("best_metric", "x"), ("best_metric", True), ("best_metric", math.nan),
], ids=["step-negative", "step-float", "step-string", "step-bool", "step-missing",
        "best-step-string", "best-step-negative", "metrics-missing", "metrics-list",
        "best-metric-string", "best-metric-bool", "best-metric-nan"])
def test_resume_rejects_a_corrupt_run_header(key, value, corpus, tmp_path, monkeypatch):
    """A last.ckpt whose `step`, `best_step`, `metrics` or `best_metric`
    is not what a run writes raises DataError naming the file before any
    tensor is restored: it is never truncated, run from a negative step
    or compared at the first evaluation. None stands for a missing key."""
    cfg = tiny_cfg(corpus)
    train("pretrain", cfg, corpus.train, corpus.valid, 2, str(tmp_path))
    path = tmp_path / "last.ckpt"
    header, tensors = load_checkpoint(path)
    if value is None:
        del header[key]
    else:
        header[key] = value
    save_checkpoint(path, header, tensors)

    def no_restore(*args):
        raise AssertionError("a tensor was restored")

    monkeypatch.setattr(trainer, "restore_train_checkpoint", no_restore)
    with pytest.raises(DataError) as err:
        train("pretrain", cfg, corpus.train, corpus.valid, 4, str(tmp_path),
              resume_from=str(path))
    found = "no step" if key == "step" and value is None else f"{key} {value!r}"
    assert str(err.value) == f"{path}: corrupt header: {found}"


def test_resume_accepts_the_best_metric_of_an_unimproved_run(corpus, tmp_path):
    """`best_metric` inf is what an MT run saves when no evaluation has
    improved on its starting value, as in a run that diverged before its
    first one; a resume takes it and improves on it."""
    cfg = tiny_cfg(corpus)
    train("mt", cfg, corpus.train, corpus.valid, 2, str(tmp_path), eval_interval=5)
    path = tmp_path / "last.ckpt"
    header, tensors = load_checkpoint(path)
    header.update(best_metric=math.inf, best_step=0, metrics={})
    save_checkpoint(path, header, tensors)
    _, result = train("mt", cfg, corpus.train, corpus.valid, 3, str(tmp_path),
                      resume_from=str(path), eval_interval=5)
    assert result.best_step == 3 and result.best_metric < math.inf


@pytest.mark.parametrize("phase", sorted(PHASES))
def test_training_stays_float32(phase, corpus, monkeypatch):
    """One step at the desk widths: every parameter, gradient and Adam
    moment, and every loss, training and validation, is float32. No op
    upcasts, which would change the bits and the memory a run takes."""
    cfg = EncoderConfig.desk(len(corpus.codec.vocab), GEN.num_labels, GEN.feat_dim)
    name = "vtlm_loss" if phase == "pretrain" else "mt_loss"
    real_loss, real_adam = getattr(trainer, name), trainer.adam_step
    dtypes, losses = set(), []

    def loss_spy(*args, **kwargs):
        out = real_loss(*args, **kwargs)
        losses.append(out.loss)
        return out

    def adam_spy(params, state, lr):
        ok = real_adam(params, state, lr)
        arrays = [*state.m.values(), *state.v.values()]
        for p in params.values():
            arrays += [p.data] if p.grad is None else [p.data, p.grad]
        dtypes.update(a.dtype for a in arrays)
        return ok

    monkeypatch.setattr(trainer, name, loss_spy)
    monkeypatch.setattr(trainer, "adam_step", adam_spy)
    params, _ = train(phase, cfg, corpus.train, corpus.valid, 1, None)
    assert len(losses) >= 2 and dtypes == {np.dtype(np.float32)}
    assert {loss.dtype for loss in losses} == {np.dtype(np.float32)}
    assert all(p.grad is not None for p in params.values() if p.requires_grad)


@pytest.mark.parametrize("phase", sorted(PHASES))
def test_float64_parameters_give_float64_losses_and_gradients(phase, corpus):
    """Cast to float64, the parameters carry a training step (dropout
    on) in float64: the loss and every gradient."""
    cfg = EncoderConfig.desk(len(corpus.codec.vocab), GEN.num_labels, GEN.feat_dim)
    init, _, _ = PHASES[phase]
    params = float64_params(init(cfg, Pcg32(5).split("init")))
    examples = corpus.train[:8]
    if phase == "pretrain":
        batch = build_masked_batch(examples, VTLM, MaskPolicy(), cfg.vocab_size,
                                   Pcg32(1), Pcg32(2))
        loss = vtlm_loss(params, cfg, batch, (0.1, Pcg32(3))).loss
    else:
        loss = mt_loss(params, cfg, build_source_batch(examples, MMT, cfg.max_positions),
                       build_target_batch(examples, cfg.max_positions), (0.1, Pcg32(3))).loss
    loss.backward()
    assert loss.dtype == np.float64
    grads = [p.grad for p in params.values() if p.grad is not None]
    assert len(grads) > len(params) // 2
    assert {g.dtype for g in grads} == {np.dtype(np.float64)}


# -- evaluation on two threads ------------------------------------------------


def serial_evaluate_pretrain(params, cfg, streams, examples, objective, policy, seed,
                             batch_size):
    """`trainer.evaluate_pretrain` as it was when evaluation ran on one
    thread: one loop that masks and scores each batch in turn."""
    rng_t = Pcg32(seed).split("val/mask_text")
    rng_v = Pcg32(seed).split("val/mask_visual")
    tot_correct = loss_sum = 0.0
    tot_targets = 0
    with T.no_grad():
        for lo in range(0, len(examples), batch_size):
            batch = build_masked_batch(examples[lo: lo + batch_size], objective, policy,
                                       cfg.vocab_size, rng_t, rng_v,
                                       streams=streams[lo: lo + batch_size])
            if batch is None:
                continue
            out = vtlm_loss(params, cfg, batch, None)
            n = out.n_text + out.n_vis
            tot_correct += out.masked_prediction_accuracy * n
            tot_targets += n
            loss_sum += out.loss.item() * n
    if not tot_targets:
        raise DataError("nothing to evaluate: no masked targets")
    return {"val_acc": tot_correct / tot_targets, "val_loss": loss_sum / tot_targets}


def serial_evaluate_mt(params, cfg, examples, task, batch_size):
    """`trainer.evaluate_mt` as it was when evaluation ran on one thread."""
    nll_sum, n_tok = 0.0, 0
    with T.no_grad():
        for lo in range(0, len(examples), batch_size):
            chunk = examples[lo: lo + batch_size]
            src = build_source_batch(chunk, task, cfg.max_positions)
            tgt = build_target_batch(chunk, cfg.max_positions)
            out = mt_loss(params, cfg, src, tgt, None)
            nll_sum += out.nll * out.n_tokens
            n_tok += out.n_tokens
    if not n_tok:
        raise DataError("nothing to evaluate: no examples")
    return math.exp(nll_sum / n_tok)


EVAL_BATCH = 3


def eval_examples(corpus, n_batches):
    """n_batches evaluation batches of EVAL_BATCH examples, the last one
    short by one."""
    return corpus.train[: n_batches * EVAL_BATCH - 1]


@pytest.fixture
def fast_switching():
    """Threads hand over the interpreter as often as they can."""
    prev = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(prev)


def evaluate_both_ways(arm, corpus, n_batches):
    """(two-thread result, serial reference) for one arm at a fresh
    initialisation."""
    cfg = tiny_cfg(corpus)
    examples = eval_examples(corpus, n_batches)
    if arm in (VTLM, TLM):
        params = init_encoder_params(cfg, Pcg32(5).split("init"))
        streams = [build_stream(ex, arm) for ex in examples]
        args = (params, cfg, streams, examples, arm, MaskPolicy(), 3, EVAL_BATCH)
        return trainer.evaluate_pretrain(*args), serial_evaluate_pretrain(*args)
    params = init_mt_params(cfg, Pcg32(5).split("init"))
    args = (params, cfg, examples, arm, EVAL_BATCH)
    return trainer.evaluate_mt(*args), serial_evaluate_mt(*args)


@pytest.mark.parametrize("arm", [VTLM, TLM, MMT, NMT])
@pytest.mark.parametrize("n_batches", [1, 2, 3, 5])
def test_two_thread_evaluation_equals_the_serial_loop(arm, n_batches, corpus):
    got, want = evaluate_both_ways(arm, corpus, n_batches)
    assert got == want


@pytest.mark.parametrize("arm", [VTLM, TLM, MMT, NMT])
def test_two_thread_evaluation_equals_the_serial_loop_switching_fast(arm, corpus,
                                                                    fast_switching):
    got, want = evaluate_both_ways(arm, corpus, 5)
    assert got == want


@pytest.mark.parametrize("phase", sorted(PHASES))
def test_odd_evaluation_batches_run_on_the_worker(phase, corpus, monkeypatch):
    """Of 5 batches, 0, 2 and 4 are scored on the calling thread, 1 and
    3 on the gradient worker."""
    cfg = tiny_cfg(corpus)
    examples = eval_examples(corpus, 5)
    ran = []  # (batch number, thread name)
    if phase == "pretrain":
        real_build, real_loss, built = trainer.build_masked_batch, trainer.vtlm_loss, []

        def build_spy(*args, **kwargs):
            built.append(real_build(*args, **kwargs))
            return built[-1]

        def loss_spy(params, cfg, batch, drop):
            number = next(i for i, b in enumerate(built) if b is batch)
            ran.append((number, threading.current_thread().name))
            return real_loss(params, cfg, batch, drop)

        monkeypatch.setattr(trainer, "build_masked_batch", build_spy)
        monkeypatch.setattr(trainer, "vtlm_loss", loss_spy)
        params = init_encoder_params(cfg, Pcg32(5).split("init"))
        trainer.evaluate_pretrain(params, cfg, [build_stream(ex, VTLM) for ex in examples],
                                  examples, VTLM, MaskPolicy(), 3, EVAL_BATCH)
    else:
        real_build = trainer.build_source_batch

        def build_spy(chunk, *args):
            number = next(i for i, ex in enumerate(examples) if ex is chunk[0]) // EVAL_BATCH
            ran.append((number, threading.current_thread().name))
            return real_build(chunk, *args)

        monkeypatch.setattr(trainer, "build_source_batch", build_spy)
        params = init_mt_params(cfg, Pcg32(5).split("init"))
        trainer.evaluate_mt(params, cfg, examples, MMT, EVAL_BATCH)
    main = threading.current_thread().name
    assert sorted(ran) == [(i, main if i % 2 == 0 else pool_thread_name()) for i in range(5)]


def test_bad_region_label_in_a_worker_batch_raises_and_leaves_the_worker_clean(corpus):
    """Batch 1 of 3, scored on the worker, holds region labels outside the
    label vocabulary: `evaluate_pretrain` raises the DataError the serial
    loop raises, and the next backward's gradients are byte-equal to
    those of a backward before it."""
    cfg = tiny_cfg(corpus)
    params = init_encoder_params(cfg, Pcg32(5).split("init"))
    examples = eval_examples(corpus, 3)
    bad = np.full_like(examples[0].labels, cfg.label_vocab_size)
    examples[EVAL_BATCH: 2 * EVAL_BATCH] = [dataclasses.replace(ex, labels=bad)
                                           for ex in examples[EVAL_BATCH: 2 * EVAL_BATCH]]
    streams = [build_stream(ex, VTLM) for ex in examples]

    def gradients():
        for p in params.values():
            p.grad = None
        batch = build_masked_batch(corpus.valid, VTLM, MaskPolicy(), cfg.vocab_size,
                                   Pcg32(1), Pcg32(2))
        vtlm_loss(params, cfg, batch, (0.1, Pcg32(3))).loss.backward()
        return {n: p.grad.tobytes() for n, p in params.items() if p.grad is not None}

    clean = gradients()
    args = (params, cfg, streams, examples, VTLM, MaskPolicy(), 3, EVAL_BATCH)
    message = rf"region label {cfg.label_vocab_size} outside the label vocabulary"
    with pytest.raises(DataError, match=message):
        serial_evaluate_pretrain(*args)
    with pytest.raises(DataError, match=message):
        trainer.evaluate_pretrain(*args)
    assert gradients() == clean


def test_stream_count_other_than_example_count_raises_data_error(corpus):
    """5 streams for 8 examples would score 5 examples; the evaluation
    raises instead, naming both counts."""
    cfg = tiny_cfg(corpus)
    params = init_encoder_params(cfg, Pcg32(5).split("init"))
    streams = [build_stream(ex, VTLM) for ex in corpus.valid[:5]]
    with pytest.raises(DataError, match="5 streams for 8 examples"):
        trainer.evaluate_pretrain(params, cfg, streams, corpus.valid, VTLM, MaskPolicy(), 1, 8)


@pytest.mark.parametrize("phase", sorted(PHASES))
def test_the_loop_holds_one_tape(phase, corpus, tmp_path, monkeypatch):
    """The loss tensors of both halves of step k, and so their tapes,
    are dead when step k+1's `step_fn` starts and when the evaluation
    after step k runs. The weak reference is to a loss's array, which
    the tensor holds, so a dead array means a dead tensor."""
    real_fit = trainer._fit
    losses, alive = [], []  # weakrefs to the loss arrays; (when, any alive)

    def checking_fit(params, cfg, tcfg, n, step_fn, eval_fn, *args):
        def step(idx, split):
            alive.append(("step", any(r() is not None for r in losses)))
            rows, loss_of = step_fn(idx, split)

            def tracked_loss(*loss_args):
                loss = loss_of(*loss_args)
                losses.append(weakref.ref(loss.data))
                return loss

            return rows, tracked_loss

        def evaluate():
            alive.append(("eval", any(r() is not None for r in losses)))
            return eval_fn()

        return real_fit(params, cfg, tcfg, n, step, evaluate, *args)

    monkeypatch.setattr(trainer, "_fit", checking_fit)
    train(phase, tiny_cfg(corpus), corpus.train, corpus.valid, 4, str(tmp_path),
          eval_interval=1)
    assert alive == [(when, False) for _ in range(4) for when in ("step", "eval")]
    assert len(losses) == 8
