"""Self-test of the kcn benchmark at a tiny size.

    python3 perfbench/selftest.py

For every workload, at one cycle per run (two sessions per key on
kem-reuse, two suites on analysis), it checks that:

- an untraced and a traced run report every metric BENCHMARK.json lists,
  with no failed op;
- two traced runs with one seed give identical counts;
- a flipped bit in msg2 and a truncated msg2 (exchange workloads) and a
  perturbed reference figure (analysis) each count as failed ops, and
  the run goes on to the end;
- the benchmark exits non-zero, printing nothing, where there is no kcn
  source tree.

Prints one line per check and exits 1 if any failed.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import run

os.environ.update(dict.fromkeys(run.BLAS_THREAD_VARS, "1"))
sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from tracer import Recorder  # noqa: E402

SEED = 7
COUNT_METRICS = ("algebra.shake_bytes_per_op", "algebra.gen_matrix.calls_per_op",
                 "algebra.gen_matrix.repeat_seed_share", "algebra.matmul.calls_per_op",
                 "algebra.matmul.flops_per_op", "algebra.ntt.calls_per_op",
                 "noise.samples_per_op", "wire.bytes_packed_per_op",
                 "pmf.conv.calls_per_pass", "pmf.conv.mults_per_pass")
TINY = {
    "kx-matrix": workloads.SPECS["kx-matrix"],
    "kx-ring": workloads.SPECS["kx-ring"],
    "kem-reuse": replace(workloads.SPECS["kem-reuse"], sessions_per_key=2),
    "analysis": replace(workloads.SPECS["analysis"], suites=("lwr-recommended", "okcn-t2")),
}

failures = []


def check(name: str, ok: bool, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}{'  ' + str(detail) if detail and not ok else ''}")
    if not ok:
        failures.append(name)


def tiny(workload: str, reference=None):
    wl = workloads.Workload(TINY[workload], SEED, reference)
    wl.warm_up()
    return wl


def traced(workload: str):
    metrics, _, tallies = run.collect(tiny(workload), 0, Recorder())
    return metrics, {m: metrics[m] for m in COUNT_METRICS}, tallies


def untraced(wl):
    return run.collect(wl, 0, setups=lambda: [(1.0, 1.0)])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for w in TINY:
        metrics, _, tallies = untraced(tiny(w))
        missing = [m for m in end_to_end if m not in metrics]
        check(f"{w}: every end-to-end metric", not missing, missing)
        check(f"{w}: untraced ops all succeed", tallies[0].failed == 0, tallies[0].errors)
        metrics, first, tallies = traced(w)
        _, again, _ = traced(w)
        missing = [m for m in per_layer if m not in metrics]
        check(f"{w}: every per-layer metric", not missing, missing)
        check(f"{w}: traced ops all succeed", all(t.failed == 0 for t in tallies))
        check(f"{w}: same seed, same counts", first == again, (first, again))

    for w in ("kx-matrix", "kx-ring", "kem-reuse"):
        for tamper in (workloads.flip_bit, workloads.truncate):
            wl = tiny(w)
            wl.tamper = tamper
            _, _, (tally,) = untraced(wl)
            check(f"{w}: {tamper.__name__} fails every op",
                  tally.attempted > 0 and tally.failed == tally.attempted,
                  f"{tally.failed} of {tally.attempted}")

    for field, bump in (("log2_overall", lambda r: r + 0.01),
                        ("attacks", lambda rows: [[rows[0][0], [rows[0][1][0] + 1] + rows[0][1][1:],
                                                   rows[0][2]]] + rows[1:])):
        reference = copy.deepcopy(workloads.REFERENCE)
        entry = reference["suites"]["okcn-t2"]
        entry[field] = bump(entry[field])
        _, _, (tally,) = untraced(tiny("analysis", reference))
        check(f"analysis: perturbed {field} fails its op only",
              (tally.attempted, tally.failed) == (2, 1), f"{tally.failed} of {tally.attempted}")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    shutil.copy(run.HERE / "reference.json", bare / "perfbench")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kx-ring",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    check("no source tree: non-zero exit, empty stdout",
          done.returncode != 0 and not done.stdout, (done.returncode, done.stdout))

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
