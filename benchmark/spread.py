"""Run one workload once per seed, each in a fresh process, and report
for every end-to-end metric the median, the quartiles and the spread
(quartile distance / median, as `statistics.quantiles(values, n=4)`
gives them) against the metric's bound in BENCHMARK.json.

    python3 benchmark/spread.py --workload mmt-desk --seeds 1-10

`--json PATH` also writes the per-seed values and the summary there.
Exits 1 when a run is incorrect or a spread (other than `setup_s`)
exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--json")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    status = 0
    for seed in parse_seeds(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            status = 1
        for name, m in res["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed} correct={res['correct']} failed={res['failed']} "
              + " ".join(f"{k}={m['value']:.5g}" for k, m in res["metrics"].items()), flush=True)
    summary = {}
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                              "spread": spread, "bound": m["bound"], "unit": m["unit"]}
        flag = ""
        if spread > m["bound"] and m["name"] != "setup_s":
            flag, status = "  EXCEEDS BOUND", 1
        print(f"{m['name']:22s} median {med:12.6g} {m['unit']:8s} "
              f"spread {spread:.4f} (bound {m['bound']}){flag}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "seeds": parse_seeds(args.seeds),
             "values": values, "summary": summary}, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
