"""Adam optimisation, learning-rate schedules, and the training loop.

`train_pretrain` (masked TLM/VTLM pretraining) and `train_mt` (NMT/MMT
fine-tuning) share one loop, `_fit`: it owns resume, the epoch order,
the per-step random streams, divergence checks, the Adam update, the
evaluation schedule, best tracking, the metrics CSV and the two
checkpoints; each phase supplies only its training step and its
validation metric. Text is laid out within the model's
`max_positions`.

Every random stream a training step consumes (shuffling, masking,
dropout) is derived statelessly from (seed, purpose, step), so resuming
from a checkpoint at step k reproduces the un-resumed run bit for bit.
Checkpoints store parameters and optimizer moments in float32 and
round-trip exactly.
"""

from __future__ import annotations

import csv
import logging
import math
import operator
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import BUILD_ID
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError, DataError
from .masking import MaskPolicy, TLM, VTLM, build_masked_batch, build_stream
from .model import EncoderConfig, ParamStore, vtlm_loss
from .rng import Pcg32
from .seq2seq import build_source_batch, build_target_batch, mt_loss
from . import tensor as T

log = logging.getLogger(__name__)

PHASES = ("pretrain", "finetune", "scratch")

_PHASE_DEFAULTS = {
    # lr is the (peak) rate; scratch warms up from warmup_init_lr to lr
    "pretrain": dict(lr=1e-4, dropout=0.1, max_steps=30_000),
    "finetune": dict(lr=1e-5, dropout=0.1, max_steps=5_000),
    "scratch": dict(lr=1e-4, dropout=0.4, max_steps=10_000),
}


@dataclass(frozen=True)
class TrainConfig:
    phase: str
    lr: float
    dropout: float
    max_steps: int
    batch_size: int = 64
    warmup_steps: int = 4_000
    warmup_init_lr: float = 1e-7
    eval_interval: int = 500
    seed: int = 1
    clip_norm: float = 5.0

    def __post_init__(self):
        T.check_dropout_rate(self.dropout)

    @classmethod
    def for_phase(cls, phase: str, **overrides) -> "TrainConfig":
        if phase not in PHASES:
            raise ConfigError(f"unknown phase {phase!r}")
        kw = dict(_PHASE_DEFAULTS[phase])
        kw.update(overrides)
        return cls(phase=phase, **kw)


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Learning rate for 1-indexed optimisation step `step`."""
    if step < 1:
        raise ConfigError("steps are 1-indexed")
    if cfg.phase != "scratch":
        return cfg.lr
    w = cfg.warmup_steps
    if step < w:
        f = step / w
        return (1.0 - f) * cfg.warmup_init_lr + f * cfg.lr
    return cfg.lr * math.sqrt(w / step)


# -- Adam ---------------------------------------------------------------------


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    skipped: int = 0

    @classmethod
    def init(cls, params: ParamStore) -> "AdamState":
        return cls(
            m={n: np.zeros_like(p.data) for n, p in params.items()},
            v={n: np.zeros_like(p.data) for n, p in params.items()},
        )


def global_grad_norm(params: ParamStore) -> float:
    total = 0.0
    for p in params.tensors():
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    return math.sqrt(total)


def adam_step(params: ParamStore, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
              clip_norm: float = 5.0) -> bool:
    """One bias-corrected Adam update; returns False when skipped."""
    norm = global_grad_norm(params)
    if not math.isfinite(norm):
        state.skipped += 1
        log.warning("non-finite gradient norm; step skipped (%d so far)", state.skipped)
        return False
    scale = 1.0
    if clip_norm > 0 and norm > clip_norm:
        scale = clip_norm / norm
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for name, p in params.items():
        if p.grad is None:
            continue
        g = p.grad if scale == 1.0 else p.grad * p.grad.dtype.type(scale)
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        mhat = m / bc1
        vhat = v / bc2
        p.data -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(p.data.dtype)
    return True


# -- checkpoints --------------------------------------------------------------


def _checkpoint_tensors(params: ParamStore, adam: AdamState | None) -> dict[str, np.ndarray]:
    tensors: dict[str, np.ndarray] = {n: p.data for n, p in params.items()}
    if adam is not None:
        for n in params.names():
            tensors[f"adam.m.{n}"] = adam.m[n]
            tensors[f"adam.v.{n}"] = adam.v[n]
    return tensors


def save_train_checkpoint(path, kind: str, step: int, metrics: dict,
                          params: ParamStore, adam: AdamState | None,
                          model_config: dict, run_config: dict,
                          vocab_fingerprint: str, extra: dict | None = None) -> None:
    header = {
        "build": BUILD_ID,
        "kind": kind,
        "step": step,
        "metrics": metrics,
        "model_config": model_config,
        "config": run_config,
        "vocab_fingerprint": vocab_fingerprint,
        "adam_t": adam.t if adam is not None else None,
        "adam_skipped": adam.skipped if adam is not None else 0,
        "param_names": list(params.names()),
    }
    if extra:
        header.update(extra)
    save_checkpoint(path, header, _checkpoint_tensors(params, adam))


def load_train_checkpoint(path, params: ParamStore):
    """Load a checkpoint into an existing (shape-compatible) ParamStore.

    Returns (header, AdamState or None).
    """
    header, tensors = load_checkpoint(path)
    for name, p in params.items():
        if name not in tensors:
            raise DataError(f"{path}: missing parameter {name!r}")
        if tensors[name].shape != p.data.shape:
            raise DataError(f"{path}: shape mismatch for {name!r}")
        p.data[...] = tensors[name]
    adam = None
    if header.get("adam_t") is not None:
        adam = AdamState(
            m={n: tensors[f"adam.m.{n}"].copy() for n in params.names()},
            v={n: tensors[f"adam.v.{n}"].copy() for n in params.names()},
            t=int(header["adam_t"]),
            skipped=int(header.get("adam_skipped", 0)),
        )
    return header, adam


# -- metrics log --------------------------------------------------------------

METRIC_COLUMNS = ["step", "phase", "mlm_loss", "mrc_loss", "total", "lr",
                  "val_acc", "val_ppl"]


def append_metrics(path, row: dict) -> None:
    if path is None:
        return
    new = not os.path.exists(path)
    with open(path, "a", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=METRIC_COLUMNS)
        if new:
            writer.writeheader()
        writer.writerow({k: row.get(k, "") for k in METRIC_COLUMNS})


# -- training loops -----------------------------------------------------------


@dataclass
class TrainResult:
    best_params: ParamStore
    best_metric: float
    best_step: int
    final_step: int
    diverged: bool = False
    history: list[dict] = field(default_factory=list)


def _epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    return Pcg32(seed).split(f"shuffle/{epoch}").permutation(n)


def evaluate_pretrain(params: ParamStore, cfg: EncoderConfig, streams,
                      examples, objective: str, policy: MaskPolicy,
                      seed: int, batch_size: int) -> dict:
    """Deterministic masked-prediction metrics on a validation set."""
    rng_t = Pcg32(seed).split("val/mask_text")
    rng_v = Pcg32(seed).split("val/mask_visual")
    rng_d = Pcg32(seed).split("val/dropout")
    tot_correct = 0.0
    tot_targets = 0
    loss_sum = 0.0
    loss_n = 0
    with T.no_grad():
        for lo in range(0, len(examples), batch_size):
            batch_ex = examples[lo: lo + batch_size]
            batch_streams = streams[lo: lo + batch_size]
            batch = build_masked_batch(batch_ex, objective, policy,
                                       cfg.vocab_size, rng_t, rng_v,
                                       streams=batch_streams)
            if batch is None:
                continue
            out = vtlm_loss(params, cfg, batch, rng_d, training=False)
            n = out.n_text + out.n_vis
            tot_correct += out.masked_prediction_accuracy * n
            tot_targets += n
            loss_sum += out.loss.item() * n
            loss_n += n
    acc = tot_correct / tot_targets if tot_targets else float("nan")
    return {"val_acc": acc, "val_loss": loss_sum / max(1, loss_n)}


def _fit(params: ParamStore, cfg: EncoderConfig, tcfg: TrainConfig, n: int,
         step_fn, eval_fn, metric: str, better, worst: float, kind: str,
         tag: dict, out_dir, metrics_path, run_config: dict | None,
         vocab_fingerprint: str, resume_from) -> TrainResult:
    """The training loop of every phase.

    Step k trains on batch k of the seeded epoch order: `step_fn(idx,
    split)` receives the example indices and `split(purpose)`, the
    step's random stream for a purpose, and returns the loss tensor and
    the phase's metrics-CSV columns, or None to skip the batch.
    `eval_fn()` returns the validation metrics; the best parameters are
    those whose `metric` is `better` than every earlier evaluation's
    (starting from `worst`). `out_dir` receives last.ckpt and best.ckpt
    when the loop ends; resuming from a last.ckpt continues the run
    bit for bit. last.ckpt names best.ckpt relative to its own
    directory, so the bytes do not depend on `out_dir` and a moved run
    directory still resumes with its best parameters.
    """
    run_config = run_config or {}
    model_config = cfg.__dict__.copy()
    adam = AdamState.init(params)
    root = Pcg32(tcfg.seed)
    start_step = 0
    best_params = params.copy()
    best_metric = worst
    best_step = 0
    if resume_from is not None:
        header, adam_loaded = load_train_checkpoint(resume_from, params)
        adam = adam_loaded or adam
        start_step = int(header["step"])
        best_metric = header.get("best_metric", worst)
        best_step = int(header.get("best_step", 0))
        best_path = header.get("best_path")
        if best_path:  # relative to the directory of last.ckpt
            best_path = os.path.join(os.path.dirname(resume_from), best_path)
            if os.path.exists(best_path):
                load_train_checkpoint(best_path, best_params)

    epoch_len = max(1, math.ceil(n / tcfg.batch_size))
    history: list[dict] = []
    diverged = False
    last_metrics: dict = {}

    step = start_step
    for step in range(start_step + 1, tcfg.max_steps + 1):
        epoch, off = divmod(step - 1, epoch_len)
        order = _epoch_order(tcfg.seed, epoch, n)
        idx = order[off * tcfg.batch_size: (off + 1) * tcfg.batch_size]
        params.zero_grads()
        out = step_fn(idx, lambda purpose, step=step: root.split(f"{purpose}/{step}"))
        if out is None:
            continue
        loss, row = out
        if not math.isfinite(loss.item()):
            log.error("loss diverged at step %d; aborting", step)
            diverged = True
            break
        loss.backward()
        # a skipped update still evaluates: the schedule is by step
        adam_step(params, adam, lr_at(step, tcfg), clip_norm=tcfg.clip_norm)
        if step % tcfg.eval_interval == 0 or step == tcfg.max_steps:
            val = eval_fn()
            append_metrics(metrics_path, {
                "step": step, "phase": tcfg.phase, **row,
                "total": f"{loss.item():.6f}",
                "lr": f"{lr_at(step, tcfg):.3e}",
                **{k: f"{v:.6f}" for k, v in val.items()},
            })
            history.append({"step": step, "train_loss": loss.item(), **val})
            last_metrics = val
            if better(val[metric], best_metric):
                best_metric = val[metric]
                best_step = step
                best_params = params.copy()

    if out_dir is not None:
        extra = {
            "best_metric": best_metric,
            "best_step": best_step,
            "best_path": "best.ckpt",
            **tag,
        }
        save_train_checkpoint(
            os.path.join(out_dir, "last.ckpt"), kind, step, last_metrics,
            params, adam, model_config, run_config, vocab_fingerprint, extra)
        save_train_checkpoint(
            os.path.join(out_dir, "best.ckpt"), kind, best_step,
            {metric: best_metric}, best_params, None, model_config,
            run_config, vocab_fingerprint, tag)
    return TrainResult(best_params, best_metric, best_step, step, diverged,
                       history)


def train_pretrain(train_data, valid_data, params: ParamStore,
                   cfg: EncoderConfig, tcfg: TrainConfig, objective: str,
                   policy: MaskPolicy, out_dir=None, metrics_path=None,
                   run_config: dict | None = None, vocab_fingerprint: str = "",
                   resume_from=None) -> TrainResult:
    """Masked pretraining; best checkpoint by validation accuracy over
    all masked predictions."""
    if objective not in (TLM, VTLM):
        raise ConfigError(f"unknown objective {objective!r}")
    train_cfg = replace(cfg, dropout=tcfg.dropout)
    streams = [build_stream(ex, objective, cfg.max_positions) for ex in train_data]
    val_streams = [build_stream(ex, objective, cfg.max_positions) for ex in valid_data]

    def step_fn(idx, split):
        batch = build_masked_batch(
            [train_data[i] for i in idx], objective, policy, cfg.vocab_size,
            split("mask_text"), split("mask_visual"),
            streams=[streams[i] for i in idx])
        if batch is None:
            return None
        out = vtlm_loss(params, train_cfg, batch, split("dropout"), training=True)
        return out.loss, {
            "mlm_loss": f"{out.mlm_loss:.6f}",
            "mrc_loss": "" if out.mrc_loss is None else f"{out.mrc_loss:.6f}",
        }

    def eval_fn():
        return evaluate_pretrain(params, cfg, val_streams, valid_data,
                                 objective, policy, tcfg.seed, tcfg.batch_size)

    return _fit(params, cfg, tcfg, len(train_data), step_fn, eval_fn,
                "val_acc", operator.gt, -math.inf, f"pretrain-{objective}",
                {"objective": objective}, out_dir, metrics_path, run_config,
                vocab_fingerprint, resume_from)


def evaluate_mt(params: ParamStore, cfg: EncoderConfig, examples, task: str,
                seed: int, batch_size: int, max_len: int) -> float:
    """Teacher-forced validation perplexity."""
    rng = Pcg32(seed).split("val/dropout")
    nll_sum = 0.0
    n_tok = 0
    with T.no_grad():
        for lo in range(0, len(examples), batch_size):
            chunk = examples[lo: lo + batch_size]
            src = build_source_batch(chunk, task, max_len)
            tgt = build_target_batch(chunk, max_len)
            out = mt_loss(params, cfg, src, tgt, rng, training=False)
            nll_sum += out.nll * out.n_tokens
            n_tok += out.n_tokens
    return math.exp(nll_sum / max(1, n_tok))


def train_mt(train_data, valid_data, params: ParamStore, cfg: EncoderConfig,
             tcfg: TrainConfig, task: str, out_dir=None, metrics_path=None,
             run_config: dict | None = None, vocab_fingerprint: str = "",
             resume_from=None) -> TrainResult:
    """NMT/MMT training; best checkpoint by lowest validation perplexity."""
    train_cfg = replace(cfg, dropout=tcfg.dropout)

    def step_fn(idx, split):
        chunk = [train_data[i] for i in idx]
        src = build_source_batch(chunk, task, cfg.max_positions)
        tgt = build_target_batch(chunk, cfg.max_positions)
        out = mt_loss(params, train_cfg, src, tgt, split("dropout"), training=True)
        return out.loss, {}

    def eval_fn():
        return {"val_ppl": evaluate_mt(params, cfg, valid_data, task, tcfg.seed,
                                       tcfg.batch_size, cfg.max_positions)}

    return _fit(params, cfg, tcfg, len(train_data), step_fn, eval_fn,
                "val_ppl", operator.lt, math.inf, f"mt-{task}", {"task": task},
                out_dir, metrics_path, run_config, vocab_fingerprint,
                resume_from)
