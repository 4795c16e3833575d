"""Smoke test of the benchmark harness: ``perfbench/selfcheck.py`` runs every
workload at a tiny size and checks each output against the independent
references (the ranking calculus and the path oracle)."""

import subprocess
import sys

from conftest import REPO


def test_perfbench_selfcheck_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
