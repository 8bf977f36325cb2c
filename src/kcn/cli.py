"""Command-line front door.

Subcommands: params, validate, kx, error-rate, sec-est, tables.
Human-readable tables by default, JSON behind --json; exit code 0 on
success, 2 on bad arguments, 1 on failures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

from kcn import protocols as proto
from kcn.analysis.bandwidth import bandwidth
from kcn.analysis import error_rates, security
from kcn.noise import TABLES
from kcn.suites import get_suite, suite_names


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(text)


def _resolve(name: str):
    try:
        return get_suite(name)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def cmd_params(args) -> int:
    names = [args.suite] if args.suite else suite_names()
    rows = []
    for name in names:
        s = _resolve(name)
        row = s.describe()
        row["bandwidth_bytes"] = bandwidth(s).total_bytes
        rows.append(row)
    header = f"{'suite':26s} {'family':7s} {'n':>5} {'q':>6} {'variant/mode':>14} {'|K|':>5} {'bw(B)':>7}"
    lines = [header, "-" * len(header)]
    for r in rows:
        vm = r.get("variant", r.get("mode", ""))
        lines.append(
            f"{r['name']:26s} {r['family']:7s} {r['n']:>5} {r['q']:>6} {vm:>14} "
            f"{r['key_bits']:>5} {r['bandwidth_bytes']:>7}"
        )
    _emit(args, {"suites": rows}, "\n".join(lines))
    return 0


def cmd_validate(args) -> int:
    s = _resolve(args.suite)
    if s.kc is None:
        _emit(args, {"suite": s.name, "ok": True, "note": "code-based mode, no scalar KC params"},
              f"{s.name}: code mode {s.mode.name}, nothing to validate")
        return 0
    # a Suite is built only from kc params that pass kcn.kc.validate_params
    _emit(args, {"suite": s.name, "variant": s.variant.value, "ok": True}, f"{s.name}: ok")
    return 0


def cmd_kx(args) -> int:
    s = _resolve(args.suite)
    rng = np.random.default_rng(args.seed)
    agree = 0
    times = {"initiate": [], "respond": [], "finish": []}
    sizes = None
    for _ in range(args.trials):
        t0 = time.perf_counter_ns()
        sess, msg1 = proto.initiate(s, rng)
        t1 = time.perf_counter_ns()
        kb, msg2 = proto.respond(s, msg1, rng)
        t2 = time.perf_counter_ns()
        ka = proto.finish(sess, msg2)
        t3 = time.perf_counter_ns()
        times["initiate"].append(t1 - t0)
        times["respond"].append(t2 - t1)
        times["finish"].append(t3 - t2)
        sizes = (len(msg1), len(msg2))
        agree += ka == kb
    stats = {
        phase: {"median_us": statistics.median(v) / 1e3, "mean_us": statistics.fmean(v) / 1e3}
        for phase, v in times.items()
    }
    payload = {
        "suite": s.name,
        "trials": args.trials,
        "agree": agree,
        "key_bits": s.key_bits,
        "msg1_bytes": sizes[0],
        "msg2_bytes": sizes[1],
        "phase_us": stats,
    }
    total = sizes[0] + sizes[1]
    lines = [
        f"{s.name}: {agree}/{args.trials} exchanges agree, |K| = {s.key_bits} bits",
        f"  msg1 {sizes[0]} B, msg2 {sizes[1]} B, "
        f"total {total} B = {total / 1000:.3f} kB = {total / 1024:.3f} KiB",
    ]
    for phase, st in stats.items():
        lines.append(f"  {phase:8s} median {st['median_us']:9.1f} us   mean {st['mean_us']:9.1f} us")
    _emit(args, payload, "\n".join(lines))
    return 0 if agree == args.trials else 1


def cmd_error_rate(args) -> int:
    s = _resolve(args.suite)
    try:
        rep = error_rates.error_rate(s)
    except ValueError as exc:  # no model for the suite's mode
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if isinstance(rep, error_rates.ZarzarReport):
        payload = {
            "suite": s.name,
            "norm_bound": rep.norm_bound,
            "threshold": rep.threshold,
            "log2_tail": rep.log2_tail,
            "log2_overall": rep.log2_overall,
        }
        text = (f"{s.name}: group-norm bound {rep.norm_bound}, threshold {rep.threshold}, "
                f"tail 2^{rep.log2_tail:.1f}, overall 2^{rep.log2_overall:.1f}")
    else:
        payload = {
            "suite": s.name,
            "log2_per_symbol": rep.log2_per_symbol,
            "log2_overall": rep.log2_overall,
        }
        text = (f"{s.name}: per-symbol 2^{rep.log2_per_symbol:.1f}, "
                f"overall 2^{rep.log2_overall:.1f}")
    _emit(args, payload, text)
    return 0


def cmd_sec_est(args) -> int:
    s = _resolve(args.suite)
    rows = security.suite_security(s)
    payload = {"suite": s.name, "attacks": []}
    lines = [f"{s.name}:", f"  {'problem':8s} {'attack':7s} {'m':>5} {'b':>5} {'C':>5} {'Q':>5} {'P':>5}"]
    for label, primal, dual in rows:
        for est in (primal, dual):
            m, b, c, qq, p = est.rounded()
            payload["attacks"].append(
                {"problem": label, "attack": est.attack, "m": m, "b": b, "C": c, "Q": qq, "P": p}
            )
            mark = " *" if qq >= 128 else ""
            lines.append(f"  {label:8s} {est.attack:7s} {m:>5} {b:>5} {c:>5} {qq:>5} {p:>5}{mark}")
    lines.append("  (* = at least 128-bit quantum)")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_tables(args) -> int:
    payload = {"tables": []}
    lines = [f"{'name':6s} {'bits':>4} {'var':>5} counts (0, +-1, ...)  checksum"]
    # NoiseTable refuses counts that do not sum to 2^bits, so every checksum passes
    for name, t in TABLES.items():
        payload["tables"].append(
            {"name": name, "bits": t.bits, "variance": t.variance,
             "counts": list(t.counts), "checksum": "PASS"}
        )
        lines.append(f"{name:6s} {t.bits:>4} {t.variance:>5.2f} {str(list(t.counts)):40s} PASS")
    _emit(args, payload, "\n".join(lines))
    return 0


def int_at_least(low: int):
    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n
    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kcn", description="lattice key-consensus toolkit")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="show suite parameters")
    p.add_argument("suite", nargs="?", help="suite name (all if omitted)")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("validate", help="check a suite's consensus parameters")
    p.add_argument("suite")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("kx", help="run full key exchanges")
    p.add_argument("suite")
    p.add_argument("--trials", type=int_at_least(1), default=100)
    p.add_argument("--seed", type=int_at_least(0), default=None)
    p.set_defaults(func=cmd_kx)

    p = sub.add_parser("error-rate", help="numerical failure probability")
    p.add_argument("suite")
    p.set_defaults(func=cmd_error_rate)

    p = sub.add_parser("sec-est", help="core-SVP attack cost estimates")
    p.add_argument("suite")
    p.set_defaults(func=cmd_sec_est)

    p = sub.add_parser("tables", help="noise sampling tables and checksums")
    p.set_defaults(func=cmd_tables)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
