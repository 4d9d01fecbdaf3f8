"""Every script under ``demos/`` runs to completion against the package.

The demos are copied to a temporary directory first, because some write an
``output/`` directory next to themselves.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    shutil.copytree(ROOT / "demos", tmp_path / "demos",
                    ignore=shutil.ignore_patterns("output", "__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, demo], cwd=tmp_path / "demos", env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    if demo == "random_maps_oracle.py":
        assert not any("MISMATCH" in line for line in run.stdout.splitlines()), run.stdout
