"""The benchmark harness under perfbench/ reads kcn's suites, their fields
and the KEM functions; its self-test runs here, so a library change that
breaks the harness fails the test suite rather than a benchmark run."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    run = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.endswith("all checks passed\n"), run.stdout
