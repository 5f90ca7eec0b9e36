import dataclasses
import math
import os

import numpy as np
import pytest

from vtlm import tensor as T, trainer
from vtlm.errors import ConfigError
from vtlm.checkpoint import load_checkpoint, save_checkpoint
from vtlm.masking import TLM, VTLM, MaskPolicy
from vtlm.model import EncoderConfig, ParamStore, init_encoder_params
from vtlm.rng import Pcg32
from vtlm.seq2seq import MMT, init_mt_params
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
def test_skipped_update_still_evaluates(phase, corpus, tmp_path, monkeypatch):
    real_adam_step = trainer.adam_step
    calls = []

    def skip_step_4(params, state, lr, **kw):
        calls.append(lr)
        if len(calls) == 4:
            state.skipped += 1
            return False
        return real_adam_step(params, state, lr, **kw)

    monkeypatch.setattr(trainer, "adam_step", skip_step_4)
    cfg = tiny_cfg(corpus)
    _, result = train(phase, cfg, corpus.train, corpus.valid, 4, str(tmp_path))
    assert len(calls) == 4
    assert [h["step"] for h in result.history] == [2, 4]
    header, _ = load_checkpoint(os.path.join(tmp_path, "last.ckpt"))
    assert header["adam_skipped"] == 1
    metric = PHASES[phase][2]
    assert header["metrics"][metric] == result.history[-1][metric]


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


@pytest.mark.parametrize("rate", [1.0, 1.5, -0.1, math.nan])
def test_dropout_rate_outside_unit_interval_raises(rate):
    x = T.Tensor(np.ones(4, dtype=np.float32))
    for training in (True, False):
        with pytest.raises(ConfigError):
            T.dropout(x, rate, Pcg32(1), training)
    with pytest.raises(ConfigError):
        EncoderConfig.desk(10, 5, 8, dropout=rate)
    with pytest.raises(ConfigError):
        trainer.TrainConfig.for_phase("pretrain", dropout=rate)


@pytest.mark.parametrize("field, value", [
    ("batch_size", 0), ("eval_interval", 0), ("warmup_steps", 0),
    ("lr", 0.0), ("lr", -1e-4), ("lr", math.nan), ("lr", math.inf),
])
def test_train_config_out_of_range_raises(field, value):
    for phase in trainer.PHASES:
        with pytest.raises(ConfigError, match=field):
            trainer.TrainConfig.for_phase(phase, **{field: value})


def test_lr_schedules():
    tcfg = trainer.TrainConfig.for_phase("scratch", lr=1e-3, warmup_steps=10)
    assert trainer.lr_at(1, tcfg) == pytest.approx(0.9 * 1e-7 + 0.1 * 1e-3)
    assert trainer.lr_at(5, tcfg) == pytest.approx(0.5 * 1e-7 + 0.5 * 1e-3)
    warm = [trainer.lr_at(s, tcfg) for s in range(1, 11)]
    assert all(a < b for a, b in zip(warm, warm[1:]))
    assert trainer.lr_at(10, tcfg) == pytest.approx(1e-3)
    assert trainer.lr_at(40, tcfg) == pytest.approx(1e-3 * math.sqrt(10 / 40))
    for phase in ("pretrain", "finetune"):
        tcfg = trainer.TrainConfig.for_phase(phase, lr=2e-4, warmup_steps=10)
        assert {trainer.lr_at(s, tcfg) for s in (1, 5, 10, 40, 10_000)} == {2e-4}
    for phase in trainer.PHASES:
        with pytest.raises(ConfigError):
            trainer.lr_at(0, trainer.TrainConfig.for_phase(phase))


@pytest.mark.parametrize("phase", sorted(PHASES))
def test_nan_loss_stops_the_run(phase, corpus, tmp_path, monkeypatch):
    """A non-finite training loss at step 3 ends the loop before its
    backward pass and update; evaluations after it never run."""
    steps = []
    adam_calls = []
    real_adam_step = trainer.adam_step

    def nan_at_step_3(real):
        def loss_fn(*args, training):
            out = real(*args, training=training)
            if training:
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


def adam_params(grads):
    """A ParamStore holding `grads` as float32 gradients of fixed values."""
    params = ParamStore()
    for name, g in grads.items():
        g = np.asarray(g, dtype=np.float32)
        p = params.add(name, np.linspace(-1.0, 1.0, g.size, dtype=np.float32).reshape(g.shape))
        p.grad = g
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
