"""Smoke test: every demo script runs to completion against the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    if script.name == "reproduce_reference_values.py":
        summary = proc.stdout.rstrip("\n").rsplit("\n", 1)[-1]
        # the one known-defective published cell (criterion 02a)
        assert summary.endswith(" 1 failing: ['table4.k1']"), summary
