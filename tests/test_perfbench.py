"""A short traced run of every benchmark workload, checked against its
goldens, and the benchmark's self-test.

The traced run reads the obstacle graph's ``vertices``, ``marked``, ``edges``
and each edge's ``blocking`` flag from outside the package, so a change to
what it reads fails here, not first in a full benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_checks_goldens(workload):
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert "golden routes checked: 8" in lines
    assert any(line.startswith("error_rate = 0.0 ") for line in lines), run.stdout


def test_selftest_passes():
    """The benchmark's self-test proves its route check and tracing against
    the package; a change to what it calls fails here."""
    run = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert not any(line.startswith("FAIL") for line in run.stdout.splitlines()), run.stdout
