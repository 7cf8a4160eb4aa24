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
OVERSHOOT_SMOKE = ["--max-len", "1", "--max-budget-log2", "4"]


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
        ("overshoot_search.py", OVERSHOOT_SMOKE),
    ],
)
def test_script_runs(script, args):
    assert _run_script(script, args).strip()


@pytest.mark.parametrize(
    "script, args, digest",
    [
        ("flawed_vs_corrected.py", FVC_SMOKE,
         "c7ad38af4832cb619789637582c883a1ae479612c2426c8552e34dbe1c349936"),
        ("gap_report.py", GAP_SMOKE,
         "0fd703441dd47591b939766334e70ae1e8b971e4962bcada17b767f61511afed"),
        ("gap_report.py", ["--max-len", "2", "--budget", "64", "--interval", "1:400"],
         "f7e0bf2ed1ca93ea67672178cd79dcab06f4ad377f8a6bce2aeeb8b38b16d42b"),
        ("gap_report.py", ["--max-len", "5"],
         "3a70d042ed5d277cda04133cdd8fe2d91c9fab559e0c8fa16ff3fd278658bd4d"),
        ("overshoot_search.py", OVERSHOOT_SMOKE,
         "558b982414b4f34edac6a4d5c73ed7ae4c67205638c974aec35d5d866c156db2"),
        ("overshoot_search.py", [],
         "0f96d00c28c8d078ff37c05035ab99895b34fc3fda9147a65ee00e4e9831f62f"),
    ],
)
def test_script_output_pinned(script, args, digest):
    """The mixture and estimator scripts print exact masses, bounds and phi
    values, so their stdout is pinned byte for byte (bb_layers.py prints
    wall time and is left out)."""
    assert hashlib.sha256(_run_script(script, args).encode()).hexdigest() == digest
