"""Smoke test: the experiments in scripts/ run against the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("flawed_vs_corrected.py", ["--n-cap", "20", "--budget", "16", "--interval", "1:40"]),
        ("gap_report.py",
         ["--max-len", "1", "--block-len", "2", "--budget", "16", "--interval", "1:200"]),
        ("bb_layers.py", ["--max-states", "1", "--start-budget", "4"]),
        ("overshoot_search.py", ["--max-len", "1", "--max-budget-log2", "4"]),
    ],
)
def test_script_runs(script, args):
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
