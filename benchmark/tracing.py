"""Span tracing and the per-layer metrics of a traced benchmark run.

A traced run wraps the public functions each `vtlm` layer exposes, at the
module attribute through which the caller reaches them (a `from`-import
is wrapped in the importing module), and records one span per call:
name, start, end and parent. Spans stay in memory and are written out
when the run ends. A span's self time is its duration minus the time its
direct children cover.

`Pcg32.u32` runs tens of thousands of times per set-up, so it is counted
(calls, values drawn, time) per benchmark phase instead of spanned.

`LAYER_METRICS` is the per-layer table: where each value is read, which
end-to-end metric it should move on which workload, and on which
workloads its span is predicted to fire at all. A traced run fails when
a span predicted to fire records no call, so that a rename or an import
change cannot silently zero a layer.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

_EVAL_SPANS = ("trainer.evaluate_pretrain", "trainer.evaluate_mt")

ALL = ("pretrain-vtlm", "mmt-desk")
PRE = ("pretrain-vtlm",)
MT = ("mmt-desk",)


@dataclass
class Span:
    name: str
    parent: int          # index of the enclosing span, -1 at the root
    start: float
    end: float = 0.0
    counts: dict | None = None


def _u32_draws(args, kwargs):
    n = args[1] if len(args) > 1 else kwargs.get("n")
    return 1 if n is None else int(n)


def _checkpoint_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


# (span name, "module:attribute" the caller reaches, counts from (args, result))
HOOKS = [
    ("synthetic.generate_raw", "vtlm.synthetic:generate_raw", None),
    ("bpe.learn", "vtlm.bpe:BpeCodec.learn", None),
    ("synthetic.encode_examples", "vtlm.synthetic:encode_examples", None),
    ("seq2seq.transfer_weights", "vtlm.seq2seq:transfer_weights", None),
    ("trainer.train_pretrain", "vtlm.trainer:train_pretrain", None),
    ("trainer.train_mt", "vtlm.trainer:train_mt", None),
    ("masking.build_stream", "vtlm.trainer:build_stream", None),
    ("masking.build_masked_batch", "vtlm.trainer:build_masked_batch", None),
    ("model.vtlm_loss", "vtlm.trainer:vtlm_loss", None),
    ("seq2seq.build_source_batch", "vtlm.trainer:build_source_batch", None),
    ("seq2seq.build_target_batch", "vtlm.trainer:build_target_batch", None),
    ("seq2seq.mt_loss", "vtlm.trainer:mt_loss", None),
    ("tensor.backward", "vtlm.tensor:Tensor.backward", None),
    ("tensor.topo_order", "vtlm.tensor:topo_order",
     lambda args, result: {"nodes": len(result)}),
    ("trainer.adam_step", "vtlm.trainer:adam_step",
     lambda args, result: {"skipped": 0 if result else 1}),
    ("trainer.evaluate_pretrain", "vtlm.trainer:evaluate_pretrain", None),
    ("trainer.evaluate_mt", "vtlm.trainer:evaluate_mt", None),
    ("trainer.save_train_checkpoint", "vtlm.trainer:save_train_checkpoint", None),
    ("checkpoint.save_checkpoint", "vtlm.trainer:save_checkpoint", _checkpoint_bytes),
    ("seq2seq.translate", "vtlm.seq2seq:translate", None),
    ("seq2seq.encode_source", "vtlm.seq2seq:encode_source", None),
    ("seq2seq.decode_states", "vtlm.seq2seq:decode_states",
     lambda args, result: {"positions": int(args[4].size)}),
    ("seq2seq.beam_search", "vtlm.seq2seq:beam_search", None),
]
U32_HOOK = "vtlm.rng:Pcg32.u32"


def _resolve(target: str):
    """Owner object, attribute name and raw attribute of 'module:a.b'."""
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"cannot trace {target}: no such attribute")
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Records spans while installed; `install` and `uninstall` patch and
    restore the hooked attributes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = ""
        self.u32: dict[str, list[float]] = {}   # phase -> [calls, draws, seconds]
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording -----------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def phase_span(self, phase: str):
        """Root span of one benchmark phase; u32 counts go to `phase`."""
        self.phase = phase
        idx = self.open(f"bench.{phase}")
        try:
            yield
        finally:
            self.close(idx)
            self.phase = ""

    def _traced(self, name, fn, count):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                tracer.spans[idx].counts = count(args, result)
            return result

        return traced

    def _counted_u32(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            acc = tracer.u32.setdefault(tracer.phase, [0, 0, 0.0])
            acc[0] += 1
            acc[1] += _u32_draws(args, kwargs)
            acc[2] += dt
            return result

        return counted

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, target, count in HOOKS:
            owner, attr, raw = _resolve(target)
            if isinstance(raw, classmethod):
                new = classmethod(self._traced(name, raw.__func__, count))
            else:
                new = self._traced(name, raw, count)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        owner, attr, raw = _resolve(U32_HOOK)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, self._counted_u32(raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "parent": s.parent,
                                    "start": s.start, "end": s.end,
                                    "counts": s.counts}) + "\n")


# -- per-layer metrics ----------------------------------------------------


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    span: str            # span read; "rng.u32" reads the u32 counters
    stat: str            # how the value is read: see the note above LAYER_METRICS
    phase: str           # bench phase whose spans are read
    fires: tuple         # workloads on which the span is predicted to fire
    moves: str           # end-to-end metric it should move, and where


_m = LayerMetric


_SETUP = "setup_s on every workload"
_TRAIN_PRE = "train_steps_per_s on pretrain-vtlm; no change predicted on mmt-desk (0 calls)"
_TRAIN_MT = "train_steps_per_s on mmt-desk; no change predicted on pretrain-vtlm (0 calls)"
_TRAIN_ALL = "train_steps_per_s on both workloads"
_DECODE = ("decode_sents_per_s and decode_tokens_per_s on mmt-desk; "
           "no change predicted on pretrain-vtlm (0 calls)")

# Stats: "setup_sum" = seconds per set-up (median over set-ups);
# "setup_calls" = calls per set-up; "sum" = total seconds in the phase;
# "p50"/"p50_self" = median duration/self time per call; "calls";
# "count_p50:k"/"count_sum:k" = median/total of a per-call count;
# "u32_calls"/"u32_draws"/"u32_ms" = per train step; "u32_decode_draws".
# Per-step train metrics skip the calls made inside an evaluation.
LAYER_METRICS = [
    _m("synthetic.generate_raw.s", "s", "synthetic.generate_raw", "setup_sum", "setup", ALL, _SETUP),
    _m("synthetic.generate_raw.calls", "count", "synthetic.generate_raw", "setup_calls", "setup", ALL, _SETUP),
    _m("bpe.learn.s", "s", "bpe.learn", "setup_sum", "setup", ALL, _SETUP),
    _m("bpe.learn.calls", "count", "bpe.learn", "setup_calls", "setup", ALL, _SETUP),
    _m("synthetic.encode_examples.s", "s", "synthetic.encode_examples", "setup_sum", "setup", ALL, _SETUP),
    _m("synthetic.encode_examples.calls", "count", "synthetic.encode_examples", "setup_calls", "setup", ALL, _SETUP),
    _m("seq2seq.transfer_weights.s", "s", "seq2seq.transfer_weights", "setup_sum", "setup", MT,
       "setup_s on mmt-desk; no change predicted on pretrain-vtlm (0 calls)"),
    _m("seq2seq.transfer_weights.calls", "count", "seq2seq.transfer_weights", "setup_calls", "setup", MT,
       "setup_s on mmt-desk; no change predicted on pretrain-vtlm (0 calls)"),
    _m("masking.build_stream.s", "s", "masking.build_stream", "sum", "train", PRE, _TRAIN_PRE),
    _m("masking.build_stream.calls", "count", "masking.build_stream", "calls", "train", PRE, _TRAIN_PRE),
    _m("masking.build_masked_batch.ms", "ms", "masking.build_masked_batch", "p50", "train", PRE, _TRAIN_PRE),
    _m("masking.build_masked_batch.calls", "count", "masking.build_masked_batch", "calls", "train", PRE, _TRAIN_PRE),
    _m("model.vtlm_loss.ms", "ms", "model.vtlm_loss", "p50", "train", PRE, _TRAIN_PRE),
    _m("model.vtlm_loss.calls", "count", "model.vtlm_loss", "calls", "train", PRE, _TRAIN_PRE),
    _m("seq2seq.build_source_batch.ms", "ms", "seq2seq.build_source_batch", "p50", "train", MT, _TRAIN_MT),
    _m("seq2seq.build_source_batch.calls", "count", "seq2seq.build_source_batch", "calls", "train", MT, _TRAIN_MT),
    _m("seq2seq.build_target_batch.ms", "ms", "seq2seq.build_target_batch", "p50", "train", MT, _TRAIN_MT),
    _m("seq2seq.build_target_batch.calls", "count", "seq2seq.build_target_batch", "calls", "train", MT, _TRAIN_MT),
    _m("seq2seq.mt_loss.ms", "ms", "seq2seq.mt_loss", "p50", "train", MT, _TRAIN_MT),
    _m("seq2seq.mt_loss.calls", "count", "seq2seq.mt_loss", "calls", "train", MT, _TRAIN_MT),
    _m("tensor.backward.ms", "ms", "tensor.backward", "p50", "train", ALL, _TRAIN_ALL),
    _m("tensor.backward.calls", "count", "tensor.backward", "calls", "train", ALL, _TRAIN_ALL),
    _m("tensor.tape_nodes", "count", "tensor.topo_order", "count_p50:nodes", "train", ALL, _TRAIN_ALL),
    _m("rng.u32.calls", "count", "rng.u32", "u32_calls", "train", ALL, _TRAIN_ALL),
    _m("rng.u32.draws", "count", "rng.u32", "u32_draws", "train", ALL, _TRAIN_ALL),
    _m("rng.u32.ms", "ms", "rng.u32", "u32_ms", "train", ALL, _TRAIN_ALL),
    _m("rng.u32.decode_draws", "count", "rng.u32", "u32_decode_draws", "decode", PRE,
       "decode throughput on pretrain-vtlm (masked prediction draws masks); "
       "predicted 0 on mmt-desk, where translate draws nothing"),
    _m("trainer.adam_step.ms", "ms", "trainer.adam_step", "p50", "train", ALL, _TRAIN_ALL),
    _m("trainer.adam_step.calls", "count", "trainer.adam_step", "calls", "train", ALL, _TRAIN_ALL),
    _m("trainer.adam_step.skipped", "count", "trainer.adam_step", "count_sum:skipped", "train", ALL, _TRAIN_ALL),
    _m("trainer.evaluate_pretrain.s", "s", "trainer.evaluate_pretrain", "p50", "train", PRE, _TRAIN_PRE),
    _m("trainer.evaluate_pretrain.calls", "count", "trainer.evaluate_pretrain", "calls", "train", PRE, _TRAIN_PRE),
    _m("trainer.evaluate_mt.s", "s", "trainer.evaluate_mt", "p50", "train", MT, _TRAIN_MT),
    _m("trainer.evaluate_mt.calls", "count", "trainer.evaluate_mt", "calls", "train", MT, _TRAIN_MT),
    _m("trainer.save_train_checkpoint.ms", "ms", "trainer.save_train_checkpoint", "p50", "train", ALL, _TRAIN_ALL),
    _m("trainer.save_train_checkpoint.calls", "count", "trainer.save_train_checkpoint", "calls", "train", ALL,
       _TRAIN_ALL),
    _m("checkpoint.bytes", "bytes", "checkpoint.save_checkpoint", "count_sum:bytes", "train", ALL, _TRAIN_ALL),
    _m("seq2seq.encode_source.ms", "ms", "seq2seq.encode_source", "p50", "decode", MT, _DECODE),
    _m("seq2seq.encode_source.calls", "count", "seq2seq.encode_source", "calls", "decode", MT, _DECODE),
    _m("seq2seq.decode_states.ms", "ms", "seq2seq.decode_states", "p50", "decode", MT, _DECODE),
    _m("seq2seq.decode_states.calls", "count", "seq2seq.decode_states", "calls", "decode", MT, _DECODE),
    _m("seq2seq.decode_states.positions", "count", "seq2seq.decode_states", "count_sum:positions", "decode", MT,
       _DECODE),
    _m("seq2seq.beam_search.self_ms", "ms", "seq2seq.beam_search", "p50_self", "decode", MT, _DECODE),
    _m("seq2seq.beam_search.calls", "count", "seq2seq.beam_search", "calls", "decode", MT, _DECODE),
]

_CALL_STATS = ("calls", "setup_calls")


def _span_table(spans: list[Span]):
    """Per span: index of its root (a bench phase span), whether it runs
    inside an evaluation, and self time. Parents precede children."""
    root, in_eval = [], []
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.parent < 0:
            root.append(i)
            in_eval.append(False)
            continue
        root.append(root[s.parent])
        in_eval.append(in_eval[s.parent] or spans[s.parent].name in _EVAL_SPANS)
        child[s.parent] += s.end - s.start
    self_time = [s.end - s.start - c for s, c in zip(spans, child)]
    return root, in_eval, self_time


def layer_values(tracer: Tracer, train_steps: int) -> dict[str, float]:
    """Every per-layer metric of LAYER_METRICS from the recorded spans."""
    spans = tracer.spans
    root, in_eval, self_time = _span_table(spans)
    setups = [i for i, s in enumerate(spans) if s.name == "bench.setup"]
    out: dict[str, float] = {}
    for m in LAYER_METRICS:
        stat, _, key = m.stat.partition(":")
        scale = 1e3 if m.unit == "ms" else 1.0
        if stat.startswith("u32"):
            calls, draws, secs = tracer.u32.get(m.phase, [0, 0, 0.0])
            steps = max(1, train_steps)
            out[m.name] = {"u32_calls": calls / steps, "u32_draws": draws / steps,
                           "u32_ms": secs * 1e3 / steps, "u32_decode_draws": draws}[stat]
            continue
        idx = [i for i, s in enumerate(spans)
               if s.name == m.span and spans[root[i]].name == f"bench.{m.phase}"
               and not in_eval[i]]
        if stat in ("setup_sum", "setup_calls"):
            per_setup = []
            for setup in setups:
                mine = [i for i in idx if root[i] == setup]
                per_setup.append(len(mine) if stat == "setup_calls"
                                 else sum(spans[i].end - spans[i].start for i in mine))
            out[m.name] = statistics.median(per_setup) if per_setup else 0.0
        elif stat == "calls":
            out[m.name] = len(idx)
        elif stat == "sum":
            out[m.name] = sum(spans[i].end - spans[i].start for i in idx) * scale
        elif stat == "p50":
            out[m.name] = _median([spans[i].end - spans[i].start for i in idx]) * scale
        elif stat == "p50_self":
            out[m.name] = _median([self_time[i] for i in idx]) * scale
        elif stat == "count_p50":
            out[m.name] = _median([spans[i].counts[key] for i in idx])
        elif stat == "count_sum":
            out[m.name] = sum(spans[i].counts[key] for i in idx)
        else:
            raise ValueError(f"unknown stat {m.stat!r}")
    return out


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def missing_spans(values: dict[str, float], workload: str) -> list[str]:
    """Call-count metrics predicted to fire on `workload` that read 0."""
    return [m.name for m in LAYER_METRICS
            if m.stat in _CALL_STATS and workload in m.fires and values[m.name] == 0]


def format_table(values: dict[str, float], workload: str) -> str:
    lines = [f"{'per-layer metric':40s} {'value':>14s} {'unit':6s} predicted"]
    for m in LAYER_METRICS:
        pred = "fires" if workload in m.fires else "0 calls"
        lines.append(f"{m.name:40s} {values[m.name]:14.6g} {m.unit:6s} {pred}")
    return "\n".join(lines)
