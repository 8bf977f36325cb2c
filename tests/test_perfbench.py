"""The benchmark harness under perfbench/ reads kcn's suites, their fields
and the KEM functions; its self-test runs here, so a library change that
breaks the harness fails the test suite rather than a benchmark run."""

import importlib
import importlib.util
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# The tracer's targets that kcn no longer defines, as "<span prefix>.<name>".
# The tracer skips them, so a deletion that blinds it to a function shows up
# as an edit to this set.
UNDEFINED_TARGETS = {
    "algebra.poly_add", "wire.pack_bits", "wire.unpack_bits",
    "pmf.iid_sum_mod", "pmf.pmf_add", "pmf.pmf_product_var", "pmf.pmf_merge", "pmf.tail_ge",
    "pmf.step_trim", "pmf.cyclic_fail_prob",
}


def test_benchmark_selftest_passes():
    run = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.endswith("all checks passed\n"), run.stdout


def test_tracer_targets_kcn_does_not_define_are_listed():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines the recorder; installs nothing
    undefined = {f"{prefix}.{name}" for module, prefix, names in tracer.TARGETS for name in names
                 if not hasattr(importlib.import_module(module), name)}
    assert undefined == UNDEFINED_TARGETS
