"""The benchmark workloads: set-up, training and decoding through the public
`vtlm` entry points, the end-to-end metrics, and the checks that the
outputs are correct.

Every input comes from the workload seed. The amount of work is a fixed
function of `--seconds` (train steps and test sentences per second of
budget, sized on a 2-core x86-64 machine at one BLAS thread), never of
the clock, so equal seeds give equal quality metrics and outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from vtlm import checkpoint, masking, model, seq2seq, synthetic, trainer
from vtlm import tensor as T
from vtlm.bpe import BOS, PAD
from vtlm.rng import Pcg32

BATCH = 64
BEAM = 8
DROPOUT = 0.1
SETUP_REPEATS = 3
# The test split is decoded in this many equal slices, one call each, and
# decode throughput is the median over slices. On a shared 2-vCPU machine
# speed drifts +-20% over periods of 10-20 s, so every workload decodes
# for 15-20 s of its budget.
DECODE_SLICES = 9
NUM_VALID = 256
MAX_TRAIN_EXAMPLES = 2000
MIN_STEPS = 4
MIN_TEST = 4
# |beam log-prob - teacher-forced log-prob| allowed per hypothesis, in
# nats per generated token: float32 logits scored in two batch shapes.
RESCORE_TOL_PER_TOKEN = 1e-4


@dataclass(frozen=True)
class Workload:
    name: str
    task: str | None        # None: VTLM pretraining, else the MT task
    lr: float
    steps_per_s: float      # train steps per second of --seconds
    sents_per_s: float      # test sentences per second of --seconds
    decode_passes: int      # decodes of the test split (identical outputs)


WORKLOADS = {w.name: w for w in (
    Workload("pretrain-vtlm", None, 1e-3, 2.33, 45.0, 14),
    Workload("mmt-desk", seq2seq.MMT, 3e-3, 2.44, 13.3, 1),
)}


@dataclass(frozen=True)
class Plan:
    steps: int
    n_train: int
    n_test: int


def plan_for(w: Workload, seconds: float) -> Plan:
    steps = max(MIN_STEPS, round(seconds * w.steps_per_s))
    return Plan(steps, min(MAX_TRAIN_EXAMPLES, BATCH * steps),
                max(MIN_TEST, round(seconds * w.sents_per_s)))


@dataclass
class Setup:
    corpus: synthetic.SyntheticCorpus
    cfg: model.EncoderConfig
    params: model.ParamStore


def set_up(w: Workload, plan: Plan, seed: int) -> Setup:
    """Corpus generation, BPE learning, parameter init and transfer, on the
    desk corpus shape: 2-4 objects per caption, 8 regions, feat_dim 64."""
    gen = synthetic.GenConfig(num_examples=plan.n_train, num_valid=NUM_VALID,
                              num_test=plan.n_test, num_regions=8, feat_dim=64,
                              min_objects=2, max_objects=4)
    corpus = synthetic.generate_corpus(gen, seed)
    cfg = model.EncoderConfig.desk(len(corpus.codec.vocab), gen.num_labels, gen.feat_dim)
    params = model.init_encoder_params(cfg, Pcg32(seed).split("init"))
    if w.task is not None:
        params = seq2seq.transfer_weights(params, cfg, True, Pcg32(seed).split("transfer"))
    return Setup(corpus, cfg, params)


def setup_digest(s: Setup) -> str:
    h = hashlib.sha256()
    for split in (s.corpus.train, s.corpus.valid, s.corpus.test):
        for ex in split:
            h.update(np.asarray(ex.src_tokens + ex.tgt_tokens, dtype=np.int64).tobytes())
    for name, p in s.params.items():
        h.update(name.encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


def train(w: Workload, plan: Plan, seed: int, s: Setup, out_dir: str) -> trainer.TrainResult:
    phase = "pretrain" if w.task is None else "finetune"
    tcfg = trainer.TrainConfig.for_phase(
        phase, lr=w.lr, dropout=DROPOUT, max_steps=plan.steps, batch_size=BATCH,
        eval_interval=max(1, plan.steps // 4), seed=seed)
    c = s.corpus
    if w.task is None:
        return trainer.train_pretrain(c.train, c.valid, s.params, s.cfg, tcfg,
                                      masking.VTLM, masking.MaskPolicy(), out_dir=out_dir)
    return trainer.train_mt(c.train, c.valid, s.params, s.cfg, tcfg, w.task,
                            out_dir=out_dir)


def decode(w: Workload, seed: int, s: Setup, examples):
    """The inference step with the trained parameters: beam-8 translation,
    or for pretraining, masked prediction."""
    if w.task is not None:
        return seq2seq.translate(s.params, s.cfg, examples, w.task, beam=BEAM)
    streams = [masking.build_stream(ex, masking.VTLM) for ex in examples]
    return trainer.evaluate_pretrain(s.params, s.cfg, streams, examples, masking.VTLM,
                                     masking.MaskPolicy(), seed, BATCH)


# -- teacher-forced scoring (checks and MT accuracy; never timed) -----------


def _teacher_forced_logprobs(params, cfg, examples, task, inputs, pad_mask) -> np.ndarray:
    """(B, T, V) next-token log-probs, computed as the beam step does."""
    src = seq2seq.build_source_batch(examples, task, cfg.max_positions)
    rng = Pcg32(0)
    with T.no_grad():
        enc, key_mask = seq2seq.encode_source(params, cfg, src, rng, training=False)
        states = seq2seq.decode_states(params, cfg, enc, key_mask, inputs, rng,
                                       training=False, tgt_pad_mask=pad_mask)
        logits = seq2seq.output_logits(params, states).data
    m = logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(logits - m).sum(axis=-1, keepdims=True)) + m
    return (logits - lse).astype(np.float64)


def rescore(params, cfg, examples, task, hyps) -> np.ndarray:
    """Teacher-forced log-prob of each hypothesis' tokens."""
    out = []
    for lo in range(0, len(examples), BATCH):
        hs = hyps[lo: lo + BATCH]
        t = max(len(h.tokens) for h in hs)
        inputs = np.full((len(hs), t), PAD, dtype=np.int64)
        targets = np.full((len(hs), t), PAD, dtype=np.int64)
        pad = np.ones((len(hs), t), dtype=bool)
        for b, h in enumerate(hs):
            n = len(h.tokens)
            inputs[b, :n] = (BOS,) + h.tokens[:-1]
            targets[b, :n] = h.tokens
            pad[b, :n] = False
        lp = _teacher_forced_logprobs(params, cfg, examples[lo: lo + BATCH], task, inputs, pad)
        picked = np.take_along_axis(lp, targets[..., None], axis=-1)[..., 0]
        out.extend(np.where(pad, 0.0, picked).sum(axis=1))
    return np.asarray(out)


def token_accuracy(params, cfg, examples, task) -> float:
    """Teacher-forced next-token accuracy over non-pad target positions."""
    hits = total = 0
    for lo in range(0, len(examples), BATCH):
        chunk = examples[lo: lo + BATCH]
        tgt = seq2seq.build_target_batch(chunk)
        lp = _teacher_forced_logprobs(params, cfg, chunk, task, tgt.input_ids, tgt.pad_mask)
        keep = ~tgt.pad_mask
        hits += int(((lp.argmax(axis=-1) == tgt.output_ids) & keep).sum())
        total += int(keep.sum())
    return hits / total


# -- one run ------------------------------------------------------------------


def warm_up() -> None:
    """First BLAS and special-function calls pay one-off costs; pay them
    before any timed region."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((BATCH * 16, 64)).astype(np.float32)
    wt = rng.standard_normal((64, 256)).astype(np.float32)
    for _ in range(3):
        h = x @ wt
        _ = x.T @ h
        _ = erf(h)


@dataclass
class RunResult:
    metrics: dict[str, tuple[float, str]]
    checks: dict[str, tuple[bool, str]]
    attempted: int
    failed: int
    output_digest: str
    plan: Plan
    phase_times: dict[str, list[float]]

    @property
    def correct(self) -> bool:
        return all(ok for ok, _ in self.checks.values())


def run(w: Workload, seed: int, seconds: float, work_dir: str, tracer=None) -> RunResult:
    """Set up SETUP_REPEATS times, train once, decode the test split
    `decode_passes` times in DECODE_SLICES calls each, then check.

    With a tracer, spans are recorded for the three phases and the tracer
    is uninstalled before the checks run.
    """
    plan = plan_for(w, seconds)
    phase = tracer.phase_span if tracer is not None else (lambda name: contextlib.nullcontext())
    warm_up()
    if tracer is not None:
        tracer.install()
    try:
        setup_times, digests = [], []
        for _ in range(SETUP_REPEATS):
            with phase("setup"):
                t0 = time.perf_counter()
                s = set_up(w, plan, seed)
                setup_times.append(time.perf_counter() - t0)
            digests.append(setup_digest(s))
        with tempfile.TemporaryDirectory(dir=work_dir) as ckpt_dir:
            with phase("train"):
                t0 = time.perf_counter()
                result = train(w, plan, seed, s, ckpt_dir)
                train_s = time.perf_counter() - t0
            header, saved = checkpoint.load_checkpoint(os.path.join(ckpt_dir, "last.ckpt"))
        slices = [[s.corpus.test[i] for i in idx] for idx in
                  np.array_split(np.arange(len(s.corpus.test)), DECODE_SLICES) if len(idx)]
        passes, decode_times = [], []
        with phase("decode"):
            for _ in range(w.decode_passes):
                passes.append([])
                for part in slices:
                    t0 = time.perf_counter()
                    passes[-1].append(decode(w, seed, s, part))
                    decode_times.append(time.perf_counter() - t0)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = {}
    hist = result.history
    finite = (not result.diverged and hist != []
              and all(math.isfinite(h["train_loss"]) for h in hist))
    checks["setup_deterministic"] = (len(set(digests)) == 1, f"{len(set(digests))} digest(s)")
    checks["losses_finite"] = (finite, f"diverged={result.diverged}")
    checks["two_or_more_evals"] = (len(hist) >= 2, f"{len(hist)} evals")
    key, sign = ("val_acc", 1) if w.task is None else ("val_ppl", -1)
    first, last = (hist[0][key], hist[-1][key]) if hist else (math.nan, math.nan)
    checks["validation_improves"] = (sign * (last - first) > 0, f"{key} {first:.4f} -> {last:.4f}")
    same = all(np.array_equal(saved[n], p.data) for n, p in s.params.items())
    checks["checkpoint_roundtrip"] = (header["step"] == result.final_step and same,
                                      f"step {header['step']}, params equal: {same}")
    decoded = passes[0]
    checks["decode_repeatable"] = (all(p == decoded for p in passes),
                                   f"{len(passes)} identical pass(es)")
    skipped = int(header["adam_skipped"])
    failed = skipped + (plan.steps - result.final_step + 1 if result.diverged else 0)

    n_test = len(s.corpus.test)
    if w.task is None:
        # tokens: text-stream tokens read; decode_ppl: as val_ppl, with the
        # loss averaged over slices by sentence count
        tokens = [sum(len(masking.build_stream(ex, masking.VTLM).token_ids) for ex in part)
                  for part in slices]
        loss = sum(d["val_loss"] * len(part) for d, part in zip(decoded, slices)) / n_test
        decode_ppl = math.exp(loss / 2)
        ok = math.isfinite(decode_ppl) and all(0.0 < d["val_acc"] <= 1.0 for d in decoded)
        checks["test_prediction_finite"] = (ok, f"test loss {loss:.4f}")
        failed += 0 if ok else n_test
        # the loss sums the MLM and MRC terms: report the geometric mean
        # of the two perplexities
        val_acc = hist[-1]["val_acc"]
        val_ppl = math.exp(hist[-1]["val_loss"] / 2)
        digest = hashlib.sha256(repr(decoded).encode()).hexdigest()
    else:
        tokens = [sum(len(h.tokens) for h in hyps) for hyps in decoded]
        decoded = [h for hyps in decoded for h in hyps]
        beam_logp = np.array([h.logp for h in decoded])
        lengths = np.array([len(h.tokens) for h in decoded])
        diff = np.abs(rescore(s.params, s.cfg, s.corpus.test, w.task, decoded) - beam_logp)
        mismatches = int(np.sum(diff > RESCORE_TOL_PER_TOKEN * lengths))
        checks["beam_logp_rescored"] = (
            mismatches == 0,
            f"{mismatches} mismatches, max |d| {diff.max():.2e} nats "
            f"(tol {RESCORE_TOL_PER_TOKEN:g}/token)")
        unfinished = sum(not h.finished for h in decoded)
        failed += mismatches + unfinished
        decode_ppl = math.exp(-float(np.mean(beam_logp / lengths)))
        val_acc = token_accuracy(s.params, s.cfg, s.corpus.valid, w.task)
        val_ppl = hist[-1]["val_ppl"]
        digest = hashlib.sha256(repr([h.tokens for h in decoded]).encode()).hexdigest()

    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "train_steps_per_s": (result.final_step / train_s, "steps/s"),
        "val_acc": (val_acc, "ratio"),
        "val_ppl": (val_ppl, "ppl"),
        "decode_sents_per_s": (statistics.median(
            len(part) / t for part, t in zip(slices * w.decode_passes, decode_times)), "sent/s"),
        "decode_tokens_per_s": (statistics.median(
            n / t for n, t in zip(tokens * w.decode_passes, decode_times)), "tok/s"),
        "decode_ppl": (decode_ppl, "ppl"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "wall_s": (setup_times[-1] + train_s + sum(decode_times) / w.decode_passes, "s"),
    }
    times = {"setup_s": setup_times, "train_s": [train_s], "decode_slice_s": decode_times}
    return RunResult(metrics, checks, plan.steps + n_test, failed, digest, plan, times)
