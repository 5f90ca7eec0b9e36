"""Benchmark of the vtlm pretrain -> fine-tune -> beam-decode pipeline.

One workload, in this process, with BLAS pinned to one thread:

    python3 benchmark/run.py --workload mmt-desk --seed 1 --seconds 45 --trace 0

`--trace 0` prints every end-to-end metric with its unit; `--trace 1`
wraps the layers of `vtlm` in spans and prints the per-layer table
instead, and fails when a span predicted to fire recorded no call.
`--workload all` runs every workload, each in a fresh process, and with
`--trace 1` runs each both ways and reports the tracing overhead as
traced / untraced `wall_s`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A report with the run
environment, the checks and all metrics, and the spans of a traced run,
are written under `--out` (default: `benchmark/out`).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import ALL as WORKLOAD_NAMES  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    def blas(mod):
        b = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{b['name']} {b['version']}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__, "numpy_blas": blas(numpy),
        "scipy": scipy.__version__, "scipy_blas": blas(scipy),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "git_sha": git_sha(ROOT),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
    }


def result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed),
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def run_one(args) -> int:
    import pipeline
    import tracing

    w = pipeline.WORKLOADS[args.workload]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    tracer = tracing.Tracer() if args.trace else None
    res = pipeline.run(w, args.seed, args.seconds, str(out), tracer)
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    report = {"env": env, "plan": res.plan.__dict__, "correct": res.correct,
              "attempted": res.attempted, "failed": res.failed,
              "checks": {k: {"ok": ok, "detail": d} for k, (ok, d) in res.checks.items()},
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res.metrics.items()},
              "output_digest": res.output_digest, "phase_times": res.phase_times}
    for name, (ok, detail) in res.checks.items():
        print(f"check {name:24s} {'ok' if ok else 'FAILED'}  {detail}")
    print(f"plan {res.plan.__dict__}; output digest {res.output_digest[:16]}")
    for name, (value, unit) in res.metrics.items():
        print(f"{name:24s} {value:14.6g} {unit}")
    metrics = res.metrics
    status = 0
    if tracer is not None:
        tracer.write(out / f"spans-{w.name}-seed{args.seed}.jsonl")
        layers = tracing.layer_values(tracer, res.plan.steps)
        print(tracing.format_table(layers, w.name))
        units = {m.name: m.unit for m in tracing.LAYER_METRICS}
        metrics = {k: (v, units[k]) for k, v in layers.items()}
        report["per_layer"] = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
        missing = tracing.missing_spans(layers, w.name)
        if missing:
            print(f"error: spans predicted to fire on {w.name} recorded no call: "
                  + ", ".join(missing), file=sys.stderr)
            status = 4
    (out / f"result-{tag}.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    if status == 0:
        print(result_line(res.correct, res.attempted, res.failed, metrics))
    return status


def run_all(args) -> int:
    """Each workload in a fresh process; traced runs also run untraced."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        walls = {}
        for trace in ((0, 1) if args.trace else (0,)):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", args.out]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(f"== {name} trace={trace}\n{proc.stdout}")
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            correct &= res["correct"]
            if trace == 0:
                attempted += res["attempted"]
                failed += res["failed"]
            for k, m in res["metrics"].items():
                metrics[f"{name}.{k}"] = (m["value"], m["unit"])
            report = Path(args.out) / f"result-{name}-seed{args.seed}-trace{trace}.json"
            walls[trace] = json.loads(report.read_text())["metrics"]["wall_s"]["value"]
        if args.trace:
            metrics[f"{name}.trace_overhead"] = (walls[1] / walls[0], "ratio")
    print("== summary")
    for k, (v, u) in metrics.items():
        print(f"{k:48s} {v:14.6g} {u}")
    print(result_line(correct, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(ROOT / "benchmark" / "out"))
    args = ap.parse_args(argv)
    if not (SRC / "vtlm" / "__init__.py").is_file():
        print(f"error: no vtlm package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
