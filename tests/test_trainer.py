import dataclasses
import math
import os

import numpy as np
import pytest

from vtlm import tensor as T, trainer
from vtlm.errors import ConfigError
from vtlm.checkpoint import load_checkpoint, save_checkpoint
from vtlm.masking import VTLM, MaskPolicy
from vtlm.model import EncoderConfig, init_encoder_params
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
