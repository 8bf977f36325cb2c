#!/usr/bin/env python3
"""Regenerate the parameter-table numbers: the noise-table divergences,
then the bandwidth, failure rate and attack costs of every shipped suite.

Each suite goes through `bandwidth`, `error_rate` and `suite_security`, so
a suite or failure model added to the library shows up here unedited; a
suite without a failure model prints one line saying so.

Usage: python scripts/reproduce_tables.py
"""

import math
import sys
import time

from kcn.analysis.bandwidth import bandwidth
from kcn.analysis.error_rates import ZarzarReport, error_rate, hybrid_error_rate
from kcn.analysis.security import suite_security
from kcn.noise import TABLES, renyi_divergence, rounded_gaussian_pmf
from kcn.suites import get_suite, suite_names


def section(title):
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def failure(suite) -> str:
    """The suite's failure rates in log2, or why it has none."""
    try:
        rep = error_rate(suite)
    except ValueError as exc:  # no model for the suite's mode
        return str(exc)
    if isinstance(rep, ZarzarReport):
        return (f"bound {rep.norm_bound} T {rep.threshold} tail 2^{rep.log2_tail:.2f} "
                f"overall 2^{rep.log2_overall:.2f} "
                "(published tail < 2^-64.6 is not reproducible; see README)")
    line = f"per 2^{rep.log2_per_symbol:7.2f}  overall 2^{rep.log2_overall:7.2f}"
    if suite.family == "hybrid":  # overall above is the table's convention
        exact = hybrid_error_rate(suite, exact_region=True)
        line += f"  exact-region 2^{exact.log2_overall:7.2f}"
    return line


def main():
    t0 = time.time()

    section("Noise tables and Renyi divergences")
    for name, t in TABLES.items():
        q = rounded_gaussian_pmf(math.sqrt(t.variance))
        r = renyi_divergence(t.pmf(), q, t.renyi_order)
        print(f"{name:5s} bits={t.bits:2d} var={t.variance:4.2f} "
              f"R_{t.renyi_order:5.1f} = {r:.7f} (published {t.renyi_divergence})")

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

    print(f"\ndone in {time.time() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
