"""Smoke tests of the benchmark harness: ``perfbench/selfcheck.py`` runs every
workload at a tiny size and checks each output against the independent
references (the ranking calculus and the path oracle), and a traced run
still sees the engine through the CLI."""

import subprocess
import sys

import pytest

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


@pytest.mark.parametrize("workload", ["observe_wide", "fuzz"])
def test_the_tracer_sees_the_engine(monkeypatch, workload):
    # selfcheck.py only checks that traced counts repeat, which a CLI that
    # stopped calling rankpl.cli.enumerate_outcomes would pass with zeros
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    from run import run_workload

    result = run_workload(workload, seed=1, seconds=0, trace=True, tiny=True)
    assert result["correct"], result["notes"]
    metrics = {key: metric["value"] for key, metric in result["metrics"].items()}
    assert metrics["engine.outcomes"] > 0
    assert metrics["engine.stream_s"] > 0
