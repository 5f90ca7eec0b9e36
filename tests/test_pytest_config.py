"""The repository's pytest configuration reports a failing Hypothesis
test as one failure and runs the tests after it: its warning filters do
not turn Hypothesis's failure report into an internal error that ends
the session."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

CASES = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_is_reported_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_cases.py").write_text(CASES)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_cases.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
