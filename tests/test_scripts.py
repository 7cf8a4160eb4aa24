"""Smoke test: the experiments in scripts/ run against the library."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

FVC_SMOKE = ["--n-cap", "20", "--budget", "16", "--interval", "1:40"]
GAP_SMOKE = ["--max-len", "1", "--block-len", "2", "--budget", "16", "--interval", "1:200"]


def _run_script(script, args):
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "script, args",
    [
        ("flawed_vs_corrected.py", FVC_SMOKE),
        ("gap_report.py", GAP_SMOKE),
        ("bb_layers.py", ["--max-states", "1", "--start-budget", "4"]),
        ("overshoot_search.py", ["--max-len", "1", "--max-budget-log2", "4"]),
    ],
)
def test_script_runs(script, args):
    assert _run_script(script, args).strip()


@pytest.mark.parametrize(
    "script, args, digest",
    [
        ("flawed_vs_corrected.py", FVC_SMOKE,
         "c48d96f1f7e560495f2e691e4c919207343630a1a51232e503d5026f74b5d91d"),
        ("gap_report.py", GAP_SMOKE,
         "0fd703441dd47591b939766334e70ae1e8b971e4962bcada17b767f61511afed"),
        ("gap_report.py", ["--max-len", "2", "--budget", "64", "--interval", "1:400"],
         "f7e0bf2ed1ca93ea67672178cd79dcab06f4ad377f8a6bce2aeeb8b38b16d42b"),
    ],
)
def test_script_output_pinned(script, args, digest):
    """The mixture scripts print exact masses and estimates, so their stdout
    is pinned byte for byte (bb_layers.py prints wall time and is left out)."""
    assert hashlib.sha256(_run_script(script, args).encode()).hexdigest() == digest
