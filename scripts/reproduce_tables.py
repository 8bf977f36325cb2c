#!/usr/bin/env python3
"""Regenerate the parameter-table numbers: the noise-table divergences,
then the bandwidth, failure rate and attack costs of every shipped suite,
then every published figure (`published.py`, beside this script) against
what kcn computes for it.

Each suite goes through `bandwidth`, `error_rate` and `suite_security`, so
a suite or failure model added to the library shows up here unedited; a
suite without a failure model prints one line saying so.

Usage: python scripts/reproduce_tables.py
"""

import math
import sys
import time
from collections import Counter
from functools import cache

from kcn.analysis.bandwidth import bandwidth
from kcn.analysis.error_rates import ZarzarReport, error_rate, hybrid_error_rate
from kcn.analysis.security import security_estimate, suite_security
from kcn.noise import TABLES, renyi_divergence, rounded_gaussian_pmf
from kcn.suites import get_suite, suite_names

import published


def section(title):
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


@cache
def suite_error_rate(name):
    return error_rate(get_suite(name))


@cache
def estimates(n, q, sigma_s_sq, sigma_e_sq, model):
    return security_estimate(n, q, sigma_s_sq, sigma_e_sq, model=model)


def renyi(fig):
    t = TABLES[fig.row]
    return renyi_divergence(t.pmf(), rounded_gaussian_pmf(math.sqrt(t.variance)), fig.at[0])


# kcn's value of a published figure, by its quantity
REPRODUCE = {
    "renyi": renyi,
    "log2 failure": lambda fig: suite_error_rate(fig.row).log2_overall,
    "log2 tail": lambda fig: suite_error_rate(fig.row).log2_tail,
    "norm bound": lambda fig: suite_error_rate(fig.row).norm_bound,
    "threshold": lambda fig: suite_error_rate(fig.row).threshold,
    "primal": lambda fig: estimates(*fig.at)[0].rounded(),
    "dual": lambda fig: estimates(*fig.at)[1].rounded(),
    "bandwidth": lambda fig: bandwidth(get_suite(fig.row)).total_bytes,
    "matrix bytes": lambda fig: bandwidth(get_suite(fig.row)).matrix_bytes,
}

ZARZAR_TAIL = next(fig for fig in published.ZARZAR if fig.quantity == "log2 tail")


def deviation(fig, got):
    """How far `got` lies from the figure, measured as its test measures it."""
    if isinstance(got, tuple):  # an attack row: b, C, Q and P
        return max(abs(a - b) for a, b in zip(got[1:], fig.value[1:]))
    if fig.quantity == "bandwidth":
        return abs(got - fig.value) / fig.value
    return abs(got - fig.value)


def status(fig, got) -> str:
    if fig.tol is None:
        return "reported"
    if fig.below:
        return "matched" if got < fig.value else "not reproduced"
    printed = got if isinstance(got, tuple) else math.ceil(got) if fig.ceil else round(got, fig.places)
    if deviation(fig, printed) == 0:
        return "matched"
    return "within tolerance" if deviation(fig, got) <= fig.tol else "not reproduced"


def show(x, decimals: int, sign: str = "") -> str:
    if isinstance(x, tuple):
        return "/".join(map(str, x))
    return f"{x:{sign}.{decimals}f}" if isinstance(x, float) else f"{x:{sign}d}"


def difference(fig, got) -> str:
    """got - published; an attack row gives its deviation, bandwidth adds it."""
    dev = deviation(fig, got)
    if isinstance(got, tuple):
        return f"max {dev}"
    diff = show(got - fig.value, max(fig.places, 0) + 2, "+")
    return f"{diff} ({100 * dev:.2f}%)" if fig.quantity == "bandwidth" else diff


def failure(suite) -> str:
    """The suite's failure rates in log2, or why it has none."""
    try:
        rep = suite_error_rate(suite.name)
    except ValueError as exc:  # no model for the suite's mode
        return str(exc)
    if isinstance(rep, ZarzarReport):
        return (f"bound {rep.norm_bound} T {rep.threshold} tail 2^{rep.log2_tail:.2f} "
                f"overall 2^{rep.log2_overall:.2f} "
                f"(published tail < 2^{ZARZAR_TAIL.value} is not reproducible; see README)")
    line = f"per 2^{rep.log2_per_symbol:7.2f}  overall 2^{rep.log2_overall:7.2f}"
    if suite.family == "hybrid":  # overall above is the table's convention
        exact = hybrid_error_rate(suite, exact_region=True)
        line += f"  exact-region 2^{exact.log2_overall:7.2f}"
    return line


def main():
    t0 = time.time()

    section("Noise tables and Renyi divergences")
    for fig in published.RENYI:
        t = TABLES[fig.row]
        print(f"{fig.row:5s} bits={t.bits:2d} var={t.variance:4.2f} "
              f"R_{fig.at[0]:5.1f} = {renyi(fig):.7f} (published {fig.value})")

    print("\nPer suite: bandwidth in bytes (kB = 1000 B), failure probabilities in log2, "
          "attack costs as (m', b, C, Q, P).")
    for name in suite_names():
        suite = get_suite(name)
        section(name)
        bw = bandwidth(suite)
        print(f"bandwidth msg1 {bw.msg1_bytes:6d}  msg2 {bw.msg2_bytes:6d}  "
              f"total {bw.total_bytes:6d} ({bw.total_kb:.3f} kB)  |A| {bw.matrix_bytes}")
        print(f"failure   {failure(suite)}")
        for label, primal, dual in suite_security(suite):
            for est in (primal, dual):
                m, b, c, q, p = est.rounded()
                print(f"attack    {label:5s} {est.attack:6s} "
                      f"m'={m:4d} b={b:4d} C={c:3d} Q={q:3d} P={p:3d}")

    section("Published figures against kcn")
    print("Each figure's status: matched as printed, within its test's tolerance, "
          "not reproduced, or reported and not asserted.")
    counts = Counter()
    for fig in published.FIGURES:
        got = REPRODUCE[fig.quantity](fig)
        verdict = status(fig, got)
        counts[verdict] += 1
        pub = ("< " if fig.below else "") + show(fig.value, max(fig.places, 0))
        print(f"{fig.source:8s} {fig.row:22s} {fig.quantity:12s} "
              f"kcn {show(got, max(fig.places, 0) + 2):>19s}  paper {pub:>19s}  "
              f"diff {difference(fig, got):>15s}  {verdict}")
    print(f"\n{len(published.FIGURES)} figures: {counts['matched']} matched, "
          f"{counts['within tolerance']} within tolerance, {counts['not reproduced']} not reproduced (zarzar's tail), "
          f"{counts['reported']} reported and not asserted")

    print(f"\ndone in {time.time() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
