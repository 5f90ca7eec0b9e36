"""Adam optimisation and the training loop.

`train_pretrain` (masked TLM/VTLM pretraining) and `train_mt` (NMT/MMT
fine-tuning) share one loop, `_fit`: it owns resume, the epoch order,
the per-step random streams, divergence checks, the Adam update, the
evaluation schedule, best tracking and the two checkpoints; each phase
supplies only its training step and its validation metric. Text is
laid out within the model's `max_positions`.

A step runs its batch as two half-batches on two threads
(`tensor.split_map`): rows [0, ⌈B/2⌉) on the calling thread and
[⌈B/2⌉, B) on `tensor`'s pool thread, each a row window of the one
padded batch, so both keep the batch's widths. Each half runs its
forward and backward on shadow leaf tensors that share the parameters'
arrays, and the calling thread sums the two gradients and runs Adam:
synchronous data parallelism within one step (Goyal et al. 2017, arXiv
1706.02677). A one-example batch is the one window [0, 1), on the
calling thread.

Every random draw is that of the whole batch. Masking draws the whole
batch on the calling thread, before the halves, and dropout is
addressed by rows (`rng.RowWindow`), so a half reads the words that the
whole batch's draw gives its rows. Each half divides its summed losses
by the whole batch's target counts (`vtlm_loss`'s `counts`, `mt_loss`'s
`n_targets`), so the two half losses add up to the batch's loss and
their gradients to its gradient. Only sums over rows are re-associated:
the loss, the weight, bias and layer-norm gradient sums and the
embedding scatter-adds. A halved step's loss is within 1e-6 relative of
the one-thread step's, and each gradient within 5e-6 of its largest
magnitude (the step rule, `test_halved_step_matches_the_one_thread_step`;
2.2e-6 at worst on the desk batches it was measured on).

The loop holds one step's tapes at a time: each half drops its loss
tensor, and with it its tape, once its backward is done, so neither
half's tape is alive when the loop evaluates or the next step starts.

Evaluation (`evaluate_pretrain`, `evaluate_mt`) scores its batches on
two threads, the calling thread and `tensor`'s pool thread
(`tensor.split_map`), and sums their metrics in batch order on the
calling thread, so every metric keeps the bits of a one-thread loop.

Every random stream a training step consumes (shuffling, masking,
dropout) is derived statelessly from (seed, purpose, step), so resuming
from a checkpoint at step k reproduces the un-resumed run bit for bit.
Training steps drop out by (`TrainConfig.dropout`, a row window of the
step's dropout stream); evaluation passes None and draws only its
masking streams.

A run writes two checkpoints into its output directory: `last.ckpt`,
the parameters and Adam moments at the end of the run, and `best.ckpt`
beside it, the best parameters. Their headers hold `build`, `kind`
("pretrain-<objective>" or "mt-<task>"), `step`, `metrics`,
`model_config` (the `EncoderConfig` fields), `adam_t` and
`adam_skipped` (None and 0 in best.ckpt); last.ckpt adds
`best_metric`, `best_step` and `train_config`, every `TrainConfig`
field but `max_steps` and `eval_interval`. A resume
refuses a last.ckpt whose `kind`, `model_config` or `train_config`
differs from the run's, since it could not continue that run bit for
bit. Tensors are stored in float32 and round-trip exactly.
"""

from __future__ import annotations

import logging
import math
import operator
import os
from dataclasses import dataclass, field

import numpy as np

from . import BUILD_ID
from .checkpoint import header_count, load_checkpoint, save_checkpoint
from .errors import ConfigError, DataError, check_choice, check_int, check_real
from .masking import MaskPolicy, build_masked_batch, build_stream, eligible_positions
from .model import EncoderConfig, ParamStore, take_rows, target_counts, vtlm_loss
from .rng import Pcg32
from .seq2seq import build_source_batch, build_target_batch, mt_loss
from . import tensor as T

log = logging.getLogger(__name__)

PHASES = ("pretrain", "finetune", "scratch")

_PHASE_DEFAULTS = {
    "pretrain": dict(lr=1e-4, dropout=0.1, max_steps=30_000),
    "finetune": dict(lr=1e-5, dropout=0.1, max_steps=5_000),
    "scratch": dict(lr=1e-4, dropout=0.4, max_steps=10_000),
}


@dataclass(frozen=True)
class TrainConfig:
    lr: float
    dropout: float
    max_steps: int
    batch_size: int = 64
    eval_interval: int = 500
    seed: int = 1

    def __post_init__(self):
        T.check_dropout_rate(self.dropout)
        check_real("lr", self.lr)
        if not 0.0 < self.lr < math.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        for name in ("max_steps", "batch_size", "eval_interval"):
            check_int(name, getattr(self, name), 1)
        check_int("seed", self.seed)

    @classmethod
    def for_phase(cls, phase: str, **overrides) -> "TrainConfig":
        check_choice("phase", phase, PHASES)
        kw = dict(_PHASE_DEFAULTS[phase])
        kw.update(overrides)
        return cls(**kw)


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
    for p in params.values():
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    return math.sqrt(total)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
CLIP_NORM = 5.0


def adam_step(params: ParamStore, state: AdamState, lr: float) -> bool:
    """One bias-corrected Adam update after clipping the global gradient
    norm to CLIP_NORM; a non-finite norm skips the update and returns
    False."""
    norm = global_grad_norm(params)
    if not math.isfinite(norm):
        state.skipped += 1
        log.warning("non-finite gradient norm; step skipped (%d so far)", state.skipped)
        return False
    scale = 1.0
    if norm > CLIP_NORM:
        scale = CLIP_NORM / norm
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for name, p in params.items():
        if p.grad is None:
            continue
        g = p.grad if scale == 1.0 else p.grad * p.grad.dtype.type(scale)
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        mhat = m / bc1
        vhat = v / bc2
        p.data -= (lr * mhat / (np.sqrt(vhat) + ADAM_EPS)).astype(p.data.dtype)
    return True


# -- checkpoints --------------------------------------------------------------


def _checkpoint_tensors(params: ParamStore, adam: AdamState | None) -> dict[str, np.ndarray]:
    tensors: dict[str, np.ndarray] = {n: p.data for n, p in params.items()}
    if adam is not None:
        for n in params:
            tensors[f"adam.m.{n}"] = adam.m[n]
            tensors[f"adam.v.{n}"] = adam.v[n]
    return tensors


def save_train_checkpoint(path, kind: str, step: int, metrics: dict,
                          params: ParamStore, adam: AdamState | None,
                          model_config: dict, extra: dict | None = None) -> None:
    header = {
        "build": BUILD_ID,
        "kind": kind,
        "step": step,
        "metrics": metrics,
        "model_config": model_config,
        "adam_t": adam.t if adam is not None else None,
        "adam_skipped": adam.skipped if adam is not None else 0,
    }
    if extra:
        header.update(extra)
    save_checkpoint(path, header, _checkpoint_tensors(params, adam))


def restore_train_checkpoint(path, header: dict, tensors: dict[str, np.ndarray],
                             params: ParamStore) -> AdamState | None:
    """Copy the tensors `load_checkpoint(path)` returned into the arrays
    of an existing (shape-compatible) parameter dict; returns its
    AdamState, or None when it holds none. A parameter or Adam moment
    that is missing, or whose shape differs from its parameter's, or an
    `adam_t` or `adam_skipped` that is not a non-negative int, raises
    DataError."""

    def fetch(name: str, shape: tuple) -> np.ndarray:
        if name not in tensors:
            raise DataError(f"{path}: missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise DataError(f"{path}: shape mismatch for {name!r}")
        return tensors[name]

    for name, p in params.items():
        p.data[...] = fetch(name, p.data.shape)
    adam = None
    if header.get("adam_t") is not None:
        adam = AdamState(
            m={n: fetch(f"adam.m.{n}", p.data.shape).copy() for n, p in params.items()},
            v={n: fetch(f"adam.v.{n}", p.data.shape).copy() for n, p in params.items()},
            t=header_count(path, header, "adam_t"),
            skipped=header_count(path, header, "adam_skipped"),
        )
    return adam


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


def _half_step(params: ParamStore, loss_of, drop) -> tuple[float, dict]:
    """The forward and backward of the rows of `drop`'s row window, on
    shadow leaf tensors that share the parameters' arrays: (loss value,
    {name: gradient or None}). A non-finite loss skips the backward. The
    loss tensor, and with it the window's tape, is dropped on return."""
    window = drop[1]
    shadow = {n: T.Tensor(p.data, requires_grad=p.requires_grad) for n, p in params.items()}
    loss = loss_of(shadow, window.lo, window.hi, drop)
    value = loss.item()
    if math.isfinite(value):
        loss.backward()
    return value, {n: s.grad for n, s in shadow.items()}


def _pretrain_step(cfg: EncoderConfig, batch):
    """(B, loss_of) of a masked batch, for `_step_grads`: the loss of
    rows [lo, hi) with the batch's text and region target counts. Every
    row holds a text target (`build_masked_batch` drops the others), so
    no window is without targets."""
    counts = target_counts(batch)

    def loss_of(params, lo, hi, drop):
        return vtlm_loss(params, cfg, take_rows(batch, lo, hi), drop, counts).loss

    return len(batch.token_ids), loss_of


def _mt_step(cfg: EncoderConfig, src, tgt):
    """(B, loss_of) of a source and a target batch, for `_step_grads`:
    the loss of rows [lo, hi) with the batch's real target count."""
    n_targets = int((~tgt.pad_mask).sum())

    def loss_of(params, lo, hi, drop):
        return mt_loss(params, cfg, take_rows(src, lo, hi), take_rows(tgt, lo, hi), drop,
                       n_targets).loss

    return len(tgt.input_ids), loss_of


def _step_grads(params: ParamStore, rows: int, loss_of, dropout: float, stream: Pcg32) -> float:
    """One step's forward and backward: its batch of B = `rows` rows
    runs as rows [0, ⌈B/2⌉) and [⌈B/2⌉, B), or [0, 1), on two threads
    (`_half_step`), each dropping out by (`dropout`, its `RowWindow` of
    `stream`). Sets each parameter's .grad to the sum of the halves'
    gradients and returns the sum of their losses."""
    mid = (rows + 1) // 2
    bounds = [(0, rows)] if rows < 2 else [(0, mid), (mid, rows)]
    halves = T.split_map(lambda drop: _half_step(params, loss_of, drop),
                         [(dropout, w) for w in stream.windows(bounds, rows)])
    for name, p in params.items():
        grads = [g[name] for _, g in halves if g[name] is not None]
        p.grad = grads[0] if grads else None
        for g in grads[1:]:
            p.grad += g
    return sum(value for value, _ in halves)


def evaluate_pretrain(params: ParamStore, cfg: EncoderConfig, streams,
                      examples, objective: str, policy: MaskPolicy,
                      seed: int, batch_size: int) -> dict:
    """Deterministic masked-prediction metrics on a validation set, one
    stream per example; ConfigError when `seed` is not an int or
    `batch_size` not an int of at least 1, DataError when the stream and
    example counts differ or there is no masked target to score (no
    examples, or no maskable token).

    Every batch's masks are drawn first, on the calling thread and in
    batch order, so the masking streams are consumed as by one loop over
    the batches. The batches are then scored on two threads
    (`tensor.split_map`) and the sums taken in batch order, so every
    metric has the bits of scoring them one after the other."""
    check_int("batch_size", batch_size, 1)
    check_int("seed", seed)
    if len(streams) != len(examples):
        raise DataError(f"{len(streams)} streams for {len(examples)} examples")
    rng_t = Pcg32(seed).split("val/mask_text")
    rng_v = Pcg32(seed).split("val/mask_visual")
    batches = [build_masked_batch(examples[lo: lo + batch_size], objective, policy,
                                  cfg.vocab_size, rng_t, rng_v,
                                  streams=streams[lo: lo + batch_size])
               for lo in range(0, len(examples), batch_size)]

    def score(batch):
        with T.no_grad():  # per thread
            out = vtlm_loss(params, cfg, batch, None)
        n = out.n_text + out.n_vis
        return out.masked_prediction_accuracy * n, n, out.loss.item() * n

    tot_correct = loss_sum = 0.0
    tot_targets = 0
    for correct, n, loss in T.split_map(score, [b for b in batches if b is not None]):
        tot_correct += correct
        tot_targets += n
        loss_sum += loss
    if not tot_targets:
        raise DataError("nothing to evaluate: no masked targets")
    return {"val_acc": tot_correct / tot_targets, "val_loss": loss_sum / tot_targets}


def _first_difference(saved: dict, run: dict, prefix: str = "") -> str | None:
    """The first key of `run`, dotted into nested dicts, whose value
    differs from `saved`'s, with both values; None if all agree."""
    for key in list(run) + [k for k in saved if k not in run]:
        have, want = saved.get(key), run.get(key)
        if isinstance(have, dict) and isinstance(want, dict):
            found = _first_difference(have, want, f"{prefix}{key}.")
            if found is not None:
                return found
        elif have != want:
            return f"{prefix}{key}: checkpoint has {have!r}, run has {want!r}"
    return None


def _resume_header(path, header: dict, worst: float) -> tuple[int, dict, float, int]:
    """(step, metrics, best_metric, best_step) of a last.ckpt header.
    Raises DataError naming `path` unless `step` is present and it and
    `best_step` (0 when absent) are non-negative ints, `metrics` is a
    JSON object and `best_metric` (`worst` when absent) is a number
    other than NaN or a bool; ±inf is what an unimproved run saves."""
    if "step" not in header:
        raise DataError(f"{path}: corrupt header: no step")
    metrics = header.get("metrics")
    if not isinstance(metrics, dict):
        raise DataError(f"{path}: corrupt header: metrics {metrics!r}")
    best = header.get("best_metric", worst)
    if isinstance(best, bool) or not isinstance(best, (int, float)) or math.isnan(best):
        raise DataError(f"{path}: corrupt header: best_metric {best!r}")
    return (header_count(path, header, "step"), metrics, best,
            header_count(path, header, "best_step"))


def _fit(params: ParamStore, cfg: EncoderConfig, tcfg: TrainConfig, n: int,
         step_fn, eval_fn, metric: str, better, worst: float, kind: str,
         out_dir, resume_from) -> TrainResult:
    """The training loop of every phase.

    Step k trains on batch k of the seeded epoch order: `step_fn(idx,
    split)` receives the example indices and `split(purpose)`, the
    step's random stream for a purpose, and returns None to skip the
    batch, or (B, loss_of): the batch's row count and a function
    `loss_of(params, lo, hi, drop)` giving the loss tensor of rows
    [lo, hi) with the whole batch's loss weights. `_step_grads` runs it
    on two threads, dropping out by `TrainConfig.dropout` and the step's
    "dropout" stream; `train_loss` is the sum of the halves' losses.
    Every `eval_interval` steps and at the last, whether the step
    trained or skipped its batch or update, `eval_fn()` returns the
    validation metrics, which `history` records with the step and its
    `train_loss`: None when the step skipped its batch, as no batch was
    trained. The best parameters, copied
    into a new dict, are those whose `metric` is `better` than every
    earlier evaluation's (starting from `worst`). `out_dir` receives
    last.ckpt and best.ckpt when the loop ends (header fields in the
    module docstring); resuming from a last.ckpt continues the run bit
    for bit (one that runs no step keeps its metrics), and takes the
    best parameters from the best.ckpt beside it, so a moved run
    directory still resumes with them. Before any tensor is loaded, the
    resume raises DataError when that best.ckpt is missing, and
    ConfigError, naming the first key that differs, unless last.ckpt's
    `kind`, `model_config` and `train_config` (every `tcfg` field but
    `max_steps` and `eval_interval`, which a continued run may change)
    equal this run's. Before any tensor is restored, it raises DataError
    for a corrupt `step`, `metrics`, `best_metric` or `best_step`
    (`_resume_header`). A non-finite half loss ends the loop before the
    update; last.ckpt then records the step before it, so a resume runs
    the diverging step again.
    """
    model_config = cfg.__dict__.copy()
    train_config = {k: v for k, v in vars(tcfg).items()
                    if k not in ("max_steps", "eval_interval")}
    adam = AdamState.init(params)
    root = Pcg32(tcfg.seed)
    start_step = 0
    last_metrics: dict = {}

    def snapshot() -> ParamStore:
        return {n: T.Tensor(p.data.copy(), requires_grad=True) for n, p in params.items()}

    best_params = snapshot()
    best_metric = worst
    best_step = 0
    if resume_from is not None:
        best_ckpt = os.path.join(os.path.dirname(resume_from), "best.ckpt")
        if not os.path.exists(best_ckpt):
            raise DataError(f"cannot resume {resume_from}: no {best_ckpt} beside it")
        header, tensors = load_checkpoint(resume_from)
        run = {"kind": kind, "model_config": model_config, "train_config": train_config}
        differs = _first_difference({k: header.get(k) for k in run}, run)
        if differs is not None:
            raise ConfigError(f"{resume_from} is another run: {differs}")
        # last_metrics are kept if the resume runs no step
        start_step, last_metrics, best_metric, best_step = _resume_header(
            resume_from, header, worst)
        adam = restore_train_checkpoint(resume_from, header, tensors, params) or adam
        restore_train_checkpoint(best_ckpt, *load_checkpoint(best_ckpt), best_params)

    epoch_len = max(1, math.ceil(n / tcfg.batch_size))
    history: list[dict] = []
    diverged = False

    order_epoch, order = -1, None  # drawn once per epoch
    step = start_step
    for step in range(start_step + 1, tcfg.max_steps + 1):
        epoch, off = divmod(step - 1, epoch_len)
        if epoch != order_epoch:
            order_epoch, order = epoch, _epoch_order(tcfg.seed, epoch, n)
        idx = order[off * tcfg.batch_size: (off + 1) * tcfg.batch_size]
        for p in params.values():
            p.grad = None

        def split(purpose, step=step):
            return root.split(f"{purpose}/{step}")

        step_batch = step_fn(idx, split)
        train_loss = None
        if step_batch is not None:
            train_loss = _step_grads(params, *step_batch, tcfg.dropout, split("dropout"))
            if not math.isfinite(train_loss):
                log.error("loss diverged at step %d; aborting", step)
                diverged = True
                break
            adam_step(params, adam, tcfg.lr)
        # a skipped batch or update still evaluates: the schedule is by step
        if step % tcfg.eval_interval == 0 or step == tcfg.max_steps:
            val = eval_fn()
            history.append({"step": step, "train_loss": train_loss, **val})
            last_metrics = val
            if better(val[metric], best_metric):
                best_metric = val[metric]
                best_step = step
                best_params = snapshot()

    if out_dir is not None:
        last_step = step - 1 if diverged else step  # the diverged update never ran
        save_train_checkpoint(
            os.path.join(out_dir, "last.ckpt"), kind, last_step, last_metrics,
            params, adam, model_config,
            {"best_metric": best_metric, "best_step": best_step,
             "train_config": train_config})
        save_train_checkpoint(
            os.path.join(out_dir, "best.ckpt"), kind, best_step,
            {metric: best_metric}, best_params, None, model_config)
    return TrainResult(best_params, best_metric, best_step, step, diverged,
                       history)


def _require_examples(train_data, valid_data) -> None:
    """Raise DataError when either split is empty: no batch to train on,
    or no metric to pick the best checkpoint by."""
    for name, data in (("train_data", train_data), ("valid_data", valid_data)):
        if len(data) == 0:
            raise DataError(f"{name} is empty")


def train_pretrain(train_data, valid_data, params: ParamStore,
                   cfg: EncoderConfig, tcfg: TrainConfig, objective: str,
                   policy: MaskPolicy, out_dir=None, resume_from=None) -> TrainResult:
    """Masked pretraining; best checkpoint by validation accuracy over
    all masked predictions. Raises DataError, before the first step, when
    a split is empty or no validation stream has a maskable token."""
    _require_examples(train_data, valid_data)
    streams = [build_stream(ex, objective, cfg.max_positions) for ex in train_data]
    val_streams = [build_stream(ex, objective, cfg.max_positions) for ex in valid_data]
    if not any(len(eligible_positions(s.token_ids)) for s in val_streams):
        raise DataError("nothing to evaluate: no maskable token in valid_data")

    def step_fn(idx, split):
        batch = build_masked_batch(
            [train_data[i] for i in idx], objective, policy, cfg.vocab_size,
            split("mask_text"), split("mask_visual"),
            streams=[streams[i] for i in idx])
        return None if batch is None else _pretrain_step(cfg, batch)

    def eval_fn():
        return evaluate_pretrain(params, cfg, val_streams, valid_data,
                                 objective, policy, tcfg.seed, tcfg.batch_size)

    return _fit(params, cfg, tcfg, len(train_data), step_fn, eval_fn,
                "val_acc", operator.gt, -math.inf, f"pretrain-{objective}",
                out_dir, resume_from)


def evaluate_mt(params: ParamStore, cfg: EncoderConfig, examples, task: str,
                batch_size: int) -> float:
    """Teacher-forced validation perplexity, text within
    `cfg.max_positions`; ConfigError when `batch_size` is not an int or
    is below 1, DataError when there are no examples. The batches are
    scored on two threads (`tensor.split_map`) and the sums taken in
    batch order, so the perplexity has the bits of scoring them one
    after the other."""
    check_int("batch_size", batch_size, 1)

    def score(chunk):
        with T.no_grad():  # per thread
            src = build_source_batch(chunk, task, cfg.max_positions)
            tgt = build_target_batch(chunk, cfg.max_positions)
            out = mt_loss(params, cfg, src, tgt, None)
        return out.nll * out.n_tokens, out.n_tokens

    nll_sum, n_tok = 0.0, 0
    chunks = [examples[lo: lo + batch_size] for lo in range(0, len(examples), batch_size)]
    for nll, n in T.split_map(score, chunks):
        nll_sum += nll
        n_tok += n
    if not n_tok:
        raise DataError("nothing to evaluate: no examples")
    return math.exp(nll_sum / n_tok)


def train_mt(train_data, valid_data, params: ParamStore, cfg: EncoderConfig,
             tcfg: TrainConfig, task: str, out_dir=None,
             resume_from=None) -> TrainResult:
    """NMT/MMT training; best checkpoint by lowest validation perplexity.
    Raises DataError when a split is empty."""
    _require_examples(train_data, valid_data)

    def step_fn(idx, split):
        chunk = [train_data[i] for i in idx]
        return _mt_step(cfg, build_source_batch(chunk, task, cfg.max_positions),
                        build_target_batch(chunk, cfg.max_positions))

    def eval_fn():
        return {"val_ppl": evaluate_mt(params, cfg, valid_data, task, tcfg.batch_size)}

    return _fit(params, cfg, tcfg, len(train_data), step_fn, eval_fn,
                "val_ppl", operator.lt, math.inf, f"mt-{task}",
                out_dir, resume_from)
