#!/usr/bin/env python3
"""Regenerate the parameter-table numbers: failure rates, attack costs,
bandwidth, and the noise-table divergences.

Usage: python scripts/reproduce_tables.py
"""

import math
import sys
import time

from kcn.analysis.bandwidth import bandwidth
from kcn.analysis.error_rates import (
    hybrid_error_rate,
    lwe_error_rate,
    lwr_error_rate,
    rlwe_error_rate,
    zarzar_error_rate,
)
from kcn.analysis.security import suite_security
from kcn.noise import TABLES, renyi_divergence, rounded_gaussian_pmf
from kcn.suites import get_suite, suite_names


def section(title):
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def main():
    t0 = time.time()

    section("Noise tables and Renyi divergences")
    for name, t in TABLES.items():
        q = rounded_gaussian_pmf(math.sqrt(t.variance))
        r = renyi_divergence(t.pmf(), q, t.renyi_order)
        print(f"{name:5s} bits={t.bits:2d} var={t.variance:4.2f} "
              f"R_{t.renyi_order:5.1f} = {r:.7f} (published {t.renyi_divergence})")

    section("Bandwidth (bytes; kB = 1000 B)")
    for name in suite_names():
        bw = bandwidth(get_suite(name))
        print(f"{name:26s} msg1 {bw.msg1_bytes:6d}  msg2 {bw.msg2_bytes:6d}  "
              f"total {bw.total_bytes:6d} ({bw.total_kb:.3f} kB)  |A| {bw.matrix_bytes}")

    section("Failure probabilities (log2)")
    lwe_rows = ["lwe-challenge", "lwe-classical", "lwe-recommended", "lwe-paranoid",
                "lwe-paranoid-512", "okcn-t2", "okcn-t1",
                "frodo-challenge", "frodo-classical", "frodo-recommended", "frodo-paranoid",
                "okcn-frodo-challenge", "okcn-frodo-classical",
                "okcn-frodo-recommended", "okcn-frodo-paranoid"]
    for name in lwe_rows:
        rep = lwe_error_rate(get_suite(name))
        print(f"{name:26s} per 2^{rep.log2_per_symbol:7.2f}  overall 2^{rep.log2_overall:7.2f}")
    for name in ["okcn-rlwe-16", "okcn-rlwe-64", "akcn-rlwe-16", "akcn-rlwe-64",
                 "okcn-sec-765", "okcn-sec-837", "akcn-sec-765", "akcn-sec-837"]:
        rep = rlwe_error_rate(get_suite(name))
        print(f"{name:26s} per 2^{rep.log2_per_symbol:7.2f}  overall 2^{rep.log2_overall:7.2f}")
    for name in ("lwr-recommended", "lwr-paranoid"):
        rep = lwr_error_rate(get_suite(name))
        print(f"{name:26s} per 2^{rep.log2_per_symbol:7.2f}  overall 2^{rep.log2_overall:7.2f}")
    for name in ("hybrid-recommended", "hybrid-paranoid"):
        rep = hybrid_error_rate(get_suite(name))
        rex = hybrid_error_rate(get_suite(name), exact_region=True)
        print(f"{name:26s} table-convention 2^{rep.log2_overall:7.2f}  "
              f"exact-region 2^{rex.log2_overall:7.2f}")
    z = zarzar_error_rate(22.0, 12289, 2**6, 512)
    print(f"{'zarzar':26s} bound {z.norm_bound} T {z.threshold} "
          f"tail 2^{z.log2_tail:.2f} overall 2^{z.log2_overall:.2f} "
          "(published tail < 2^-64.6 is not reproducible; see README)")

    section("Attack cost estimates (m', b, C, Q, P)")
    for name in suite_names():
        for label, primal, dual in suite_security(get_suite(name)):
            for est in (primal, dual):
                m, b, c, q, p = est.rounded()
                print(f"{name:26s} {label:5s} {est.attack:6s} "
                      f"m'={m:4d} b={b:4d} C={c:3d} Q={q:3d} P={p:3d}")

    print(f"\ndone in {time.time() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
