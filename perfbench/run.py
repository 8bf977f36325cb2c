"""kcn benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload kx-matrix --seed 1 --seconds 10 --trace 0

Run from the root of a kcn checkout; the package is imported from
`src/`.  The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.  With `--trace 0`
the metrics are the end-to-end ones listed in BENCHMARK.json, their times
scaled to a reference machine speed (see speed.py); set-up is measured
here and in SETUP_PROBES child processes started one after the other,
and `setup_s` is their median.  With `--trace 1` untraced and
traced cycles alternate, the metrics are the per-layer ones, and every
span is written to perfbench/out/.  Lines before the last carry the
environment record and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc keeps freed heap memory and serves arrays up to 32 MiB from the
# heap, so large temporaries do not page-fault afresh on every op.  Left
# to its adaptive defaults it trims or not depending on allocation order,
# and the same exchange ran 25% slower in some processes than in others.
MALLOC_TUNABLES = "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=1073741824"
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120


def set_up(workload: str, seed: int):
    """Import kcn, resolve the suites and warm up.  Returns the workload,
    the set-up time scaled to the reference speed, and the wall time."""
    before = speed.calibrate_median()
    t0 = time.perf_counter()
    import workloads

    wl = workloads.Workload(workloads.SPECS[workload], seed)
    wl.warm_up()
    wall = time.perf_counter() - t0
    return wl, speed.scale(wall, before, speed.calibrate_median()), wall


def probe_setup(workload: str, seed: int) -> tuple:
    """Scaled and wall set-up time of a fresh process, which this one waits for."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return tuple(json.loads(done.stdout.strip().splitlines()[-1]))


def measure(wl, seconds: float, recorder=None):
    """Run whole cycles until `seconds` have passed.  With a recorder, odd
    cycles are traced and the run ends after an even number of cycles.
    Returns the untraced and traced tallies."""
    from workloads import Tally

    plain, traced = Tally(), Tally()
    start = time.perf_counter()
    cycles = 0
    while True:
        if recorder is not None and cycles % 2:
            wl.recorder = recorder
            recorder.install()
            try:
                wl.cycle(traced)
            finally:
                recorder.uninstall()
                wl.recorder = None
        else:
            wl.cycle(plain)
        cycles += 1
        if time.perf_counter() - start >= seconds and (recorder is None or cycles % 2 == 0):
            return plain, traced


def nearest_rank(values, share: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def ops_per_s(tally) -> float:
    """Ops per second of wall time, unscaled."""
    return tally.attempted / sum(tally.cycle_times)


def unscaled(start: float, end: float) -> float:
    return 1.0


def end_to_end(tally, factor, setups) -> dict:
    """End-to-end metrics, every timed stretch scaled to the reference
    speed by `factor(start, end)` (see speed.py).  `op_ms_p50` averages the suites' median
    latencies: every suite runs equally often, and a pooled median would
    fall in the gap between the latency clusters of different suites,
    where it jumps from run to run.  `op_ms_p90` is pooled over all ops."""
    latencies = {suite: [t * factor(a, b) for t, a, b in lat]
                 for suite, lat in tally.latencies.items()}
    passes = [sum(t * factor(a, b) for t, a, b in cycle) for cycle in tally.stretches]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": tally.attempted / sum(passes),
        "op_ms_p50": statistics.fmean(statistics.median(lat) for lat in latencies.values()) * 1e3,
        "op_ms_p90": nearest_rank([t for lat in latencies.values() for t in lat], 0.9) * 1e3,
        "pass_s": statistics.median(passes),
        "wire_bytes_per_op": tally.wire_bytes / tally.messages if tally.messages else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1 - tally.failed / tally.attempted,
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "kcn").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "glibc_tunables": os.environ.get("GLIBC_TUNABLES"),
        "process_threads": threads,
        "git_sha": git_sha(),
        "src_kcn_lines": lines,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def collect(wl, seconds: float, recorder=None, setups=None):
    """Measure a set-up workload: returns (metrics, info, tallies).
    Untraced, `setups()` gives the set-up times once the measuring is done;
    with a recorder the per-layer metrics are returned instead."""
    if recorder is None:
        sampler = wl.sampler
        if wl.spec.kind == "analysis":
            # Analysis ops spend seconds at a time in vectorised C code, where
            # the sampler's signal handler cannot run, and a kernel run right
            # after such code reads slow: scaling made these runs spread more
            # than wall time does, so they are left unscaled.
            tally, _ = measure(wl, seconds)
            factor = unscaled
        else:
            with sampler:
                tally, _ = measure(wl, seconds)
            factor = sampler.factor
        scaled, walls = zip(*setups())
        metrics = end_to_end(tally, factor, scaled)
        wall = end_to_end(tally, unscaled, walls)
        above = sum(t * factor(a, b) * 1e3 > metrics["op_ms_p90"]
                    for lat in tally.latencies.values() for t, a, b in lat)
        info = {"ops": tally.attempted, "cycles": len(tally.cycle_times),
                "samples_above_p90": above, "fail_ratio": tally.failed / tally.attempted,
                "setups_s": scaled, "speed_samples": len(sampler.kernel),
                "kernel_ms_median": (statistics.median(sampler.kernel) * 1e3
                                     if sampler.kernel else None),
                "sampling_share": sampler.spent / sum(tally.cycle_times),
                "unscaled": {k: wall[k] for k in ("setup_s", "ops_per_s", "op_ms_p50",
                                                  "op_ms_p90", "pass_s")}}
        return metrics, info, [tally]

    from workloads import SPECS

    plain, traced = measure(wl, seconds, recorder)
    metrics = recorder.metrics(traced.attempted, len(traced.cycle_times),
                               SPECS["analysis"].suites)
    metrics["trace.overhead_ops_per_s"] = ops_per_s(traced) - ops_per_s(plain)
    metrics["trace.overhead_pass_s"] = (statistics.median(traced.cycle_times)
                                        - statistics.median(plain.cycle_times))
    info = {"traced_ops": traced.attempted, "untraced_ops": plain.attempted,
            "traced_cycles": len(traced.cycle_times), "spans": len(recorder.spans),
            "unwrapped": recorder.unwrapped,
            "fail_ratio": (plain.failed + traced.failed) / (plain.attempted + traced.attempted),
            "count_basis": "counts are computed from call arguments, flops as 2*m*k*n"}
    return metrics, info, [plain, traced]


def run(args) -> tuple[dict, dict, list]:
    """Set up, measure and return (metrics, info, tallies)."""
    wl, setup_s, setup_wall = set_up(args.workload, args.seed)
    if not args.trace:
        return collect(wl, args.seconds, setups=lambda: [(setup_s, setup_wall)] + [
            probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)])

    from tracer import Recorder

    rec = Recorder()
    metrics, info, tallies = collect(wl, args.seconds, rec)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    rec.dump(path)
    info["span_file"] = str(path.relative_to(ROOT))
    return metrics, info, tallies


def report(metrics: dict, declared: list, tallies: list) -> dict:
    """Print every declared metric with its unit; return the result object."""
    out = {}
    for m in declared:
        value = float(metrics[m["name"]])
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"# {m['name']:<44} {value:>16.6g} {m['unit']}")
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for t in tallies:
        for err in t.errors:
            print(err, file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "kcn" / "__init__.py").is_file():
        print(f"perfbench: no kcn package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    pinned = dict.fromkeys(BLAS_THREAD_VARS, "1") | {"GLIBC_TUNABLES": MALLOC_TUNABLES}
    if any(os.environ.get(k) != v for k, v in pinned.items()):
        # the allocator reads its settings at start-up: restart this same
        # process (exec keeps the pid) with the pinned environment
        os.execve(sys.executable, [sys.executable, *sys.argv], os.environ | pinned)
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(json.dumps(set_up(args.workload, args.seed)[1:]))
        return 0
    metrics, info, tallies = run(args)
    print("# env " + json.dumps(environment(args)))
    print("# run " + json.dumps(info))
    result = report(metrics, spec["per_layer" if args.trace else "end_to_end"], tallies)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
