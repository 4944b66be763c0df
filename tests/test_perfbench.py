"""Smoke test: the benchmark in perfbench/ runs end to end against the
source tree, so that a change to an API it calls fails the suite."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_benchmark_runs(trace):
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1",
                           "--seconds", "1", "--trace", trace],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    assert "# FAILED" not in done.stdout, done.stdout[-2000:]
