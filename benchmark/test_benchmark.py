"""Smoke tests of the benchmark itself, on a tiny budget.

    python3 -m pytest -q benchmark

Each workload runs once untraced and once traced with `--seconds 1`
(a few train steps, a few test sentences), in fresh processes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
QUALITY = ("val_acc", "val_ppl", "decode_ppl")
SEED = 3


def _run(root: Path, out: Path, *args):
    cmd = [sys.executable, str(root / "benchmark" / "run.py"), *args, "--out", str(out)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=root)


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request, tmp_path_factory):
    """(result line, report) of an untraced and a traced run."""
    out = tmp_path_factory.mktemp(request.param)
    got = {}
    for trace in (0, 1):
        proc = _run(ROOT, out, "--workload", request.param, "--seed", str(SEED),
                    "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        report = json.loads((out / f"result-{request.param}-seed{SEED}-trace{trace}.json").read_text())
        got[trace] = (line, report)
    return request.param, got


def _check_line(line, spec_metrics):
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert isinstance(line["failed"], int)
    assert set(line["metrics"]) == {m["name"] for m in spec_metrics}
    for m in spec_metrics:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(line["metrics"][m["name"]]["value"], (int, float))


def test_untraced_run_emits_end_to_end_metrics_and_passes_checks(runs):
    _, got = runs
    line, report = got[0]
    _check_line(line, SPEC["end_to_end"])
    assert all(c["ok"] for c in report["checks"].values()), report["checks"]
    for m in SPEC["end_to_end"]:
        assert line["metrics"][m["name"]]["value"] > 0


def test_traced_run_emits_per_layer_metrics(runs):
    _, got = runs
    line, report = got[1]
    _check_line(line, SPEC["per_layer"])
    assert report["correct"]


def test_same_seed_gives_same_quality_and_outputs(runs):
    """The traced run repeats the untraced one: tracing must not change
    what is computed."""
    _, got = runs
    (_, a), (_, b) = got[0], got[1]
    for name in QUALITY:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"], name
    assert a["output_digest"] == b["output_digest"]
    assert a["plan"] == b["plan"]


def test_predicted_zero_spans_read_zero(runs):
    import tracing
    name, got = runs
    layers = {k: v["value"] for k, v in got[1][0]["metrics"].items()}
    for m in tracing.LAYER_METRICS:
        if m.stat in ("calls", "setup_calls"):
            assert (layers[m.name] > 0) == (name in m.fires), m.name


def test_spec_matches_code():
    import tracing
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        [(m.name, m.unit) for m in tracing.LAYER_METRICS]
    assert tuple(WORKLOADS) == tracing.ALL
    sys.path.insert(0, str(ROOT / "src"))
    import pipeline
    assert tuple(pipeline.WORKLOADS) == tracing.ALL


def test_missing_span_is_reported():
    import tracing
    values = {m.name: 1 for m in tracing.LAYER_METRICS}
    values["masking.build_masked_batch.calls"] = 0
    assert tracing.missing_spans(values, "pretrain-vtlm") == ["masking.build_masked_batch.calls"]
    assert tracing.missing_spans(values, "mmt-desk") == []


def test_self_time_subtracts_children():
    import tracing
    spans = [tracing.Span("bench.decode", -1, 0.0, 10.0),
             tracing.Span("seq2seq.beam_search", 0, 1.0, 9.0),
             tracing.Span("seq2seq.decode_states", 1, 2.0, 4.0),
             tracing.Span("seq2seq.decode_states", 1, 5.0, 8.0)]
    root, in_eval, self_time = tracing._span_table(spans)
    assert root == [0, 0, 0, 0]
    assert self_time == [2.0, 3.0, 2.0, 3.0]


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark cannot produce a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, tmp_path / "out", "--workload", "mmt-desk", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
