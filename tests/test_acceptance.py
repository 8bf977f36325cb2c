"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line,
and a check of the abstract's public-matrix sizes.  The published figures
come from `scripts/published.py`, except criterion 6's.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 6's inequality
targets are asserted exactly as published and fail; the failure message
carries the supporting analysis.
"""

import itertools
import math
import time

import numpy as np
import pytest

import published
import sweeps
from kcn import algebra, codes
from kcn import protocols as proto
from kcn.analysis.bandwidth import bandwidth
from kcn.analysis.error_rates import error_rate, zarzar_error_rate
from kcn.analysis.security import security_estimate
from kcn.kc import KcParams, KcVariant
from kcn.suites import SUITES, get_suite
from oracles import ntt_mul, schoolbook_negacyclic


def _report(num: int, ok: bool, detail: str, t0: float):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} - {detail} [{time.time() - t0:.1f}s]")


KC_VARIANTS = (KcVariant.OKCN_GENERIC, KcVariant.OKCN_POWER2, KcVariant.OKCN_SIMPLE,
               KcVariant.FRODO)
AKC_VARIANTS = (KcVariant.AKCN_GENERIC, KcVariant.AKCN_POWER2)


def test_criterion_1_exhaustive_correctness():
    """All six variants, every valid (q<=64, m, g, d): zero disagreements."""
    t0 = time.time()
    nsets = 0
    for variant in KC_VARIANTS + AKC_VARIANTS:
        check = (sweeps.akc_correct_exhaustive if variant.is_akc
                 else sweeps.kc_correct_exhaustive)
        for params in sweeps.enumerate_sets(variant):
            assert check(variant, params), (variant, params)
            nsets += 1
    _report(1, True, f"exhaustive KC/AKC correctness over {nsets} parameter sets", t0)


def test_criterion_2_exhaustive_kc_security():
    """OKCN variants: exact (k1, v) independence and k1 uniformity by counting."""
    t0 = time.time()
    nsets = 0
    for variant in (KcVariant.OKCN_GENERIC, KcVariant.OKCN_POWER2, KcVariant.OKCN_SIMPLE):
        for params in sweeps.enumerate_sets(variant):
            assert sweeps.kc_secure_exhaustive(variant, params), (variant, params)
            nsets += 1
    _report(2, True, f"exact KC security over {nsets} parameter sets", t0)


def test_criterion_3_exhaustive_akc_security():
    """AKCN variants: identical hint-count profiles across all key values."""
    t0 = time.time()
    nsets = 0
    for variant in AKC_VARIANTS:
        for params in sweeps.enumerate_sets(variant):
            assert sweeps.akc_secure_exhaustive(variant, params), (variant, params)
            nsets += 1
    _report(3, True, f"exact AKC security over {nsets} parameter sets", t0)


def test_criterion_4_upper_bounds():
    """Accepted sets respect the KC/AKC efficiency bounds, and a q=16 brute
    force finds no correct-and-secure assignment violating them."""
    t0 = time.time()
    for variant in KC_VARIANTS + AKC_VARIANTS:
        for p in sweeps.enumerate_sets(variant):
            if variant.is_akc:
                assert 2 * p.m * p.d * p.g <= p.q * (p.g - p.m), (variant, p)
            else:
                assert 2 * p.m * p.d * p.g <= p.q * (p.g - 1), (variant, p)

    # brute force at q = 16: empirical correctness + security for arbitrary
    # (m, g, d), independent of what the validator thinks
    def structurally_ok(variant, q, m, g):
        # requirements without which Con/Rec are not even well defined
        pow2 = sweeps._is_pow2
        if variant is KcVariant.OKCN_POWER2:
            return pow2(m) and pow2(g) and m * g <= q
        if variant is KcVariant.OKCN_SIMPLE:
            return pow2(m) and q == m * g
        if variant is KcVariant.AKCN_POWER2:
            return pow2(m) and g == q
        if variant is KcVariant.FRODO:
            return pow2(m) and g == 2 and 4 * m <= q
        return True  # the generic schemes run on any (m, g)

    q = 16
    searched = violated = 0
    for variant in KC_VARIANTS + AKC_VARIANTS:
        for m, g in itertools.product(range(2, q + 1), repeat=2):
            if not structurally_ok(variant, q, m, g):
                continue
            for d in range(0, q // 2 + 1):
                params = KcParams(q, m, g, d)
                searched += 1
                if variant.is_akc:
                    good = (sweeps.akc_correct_exhaustive(variant, params)
                            and sweeps.akc_secure_exhaustive(variant, params))
                    bound = 2 * m * d * g <= q * (g - m)
                else:
                    good = (sweeps.kc_correct_exhaustive(variant, params)
                            and sweeps.kc_secure_exhaustive(variant, params))
                    bound = 2 * m * d * g <= q * (g - 1)
                if good and not bound:
                    violated += 1
    assert violated == 0
    _report(4, True, f"bounds hold; q=16 brute force over {searched} assignments "
            "found no correct-and-secure violation", t0)


def test_criterion_5_error_rate_tables():
    """LWR/LWE/hybrid failure rates reproduce the published table values."""
    t0 = time.time()
    results = []
    for fig in published.FAILURE:
        lg = error_rate(get_suite(fig.row)).log2_overall
        results.append(f"{fig.row} 2^{lg:.2f}")
        assert abs(lg - fig.value) <= fig.tol, (fig.row, lg, fig.value)
        # a figure printed as a ceiling is reproduced exactly as printed
        assert not fig.ceil or math.ceil(lg) == fig.value, (fig.row, lg, fig.value)
    _report(5, True, "; ".join(results), t0)


def test_criterion_6_zarzar_pipeline():
    """ZarZar chi-square pipeline; the published tail bound is asserted as
    stated and is expected to fail (see the failure message)."""
    t0 = time.time()
    rep = zarzar_error_rate(22.0, 12289, 2**6, 512)
    assert rep.norm_bound == 5824
    assert rep.threshold == 17520  # reproduced exactly
    ok = rep.tail < 2.0**-64.6 and rep.overall < 2.0**-58
    _report(6, ok, f"T=17520 exact; tail 2^{rep.log2_tail:.2f} (claimed < 2^-64.6), "
            f"overall 2^{rep.log2_overall:.2f} (claimed < 2^-58)", t0)
    assert rep.tail < 2.0**-64.6 and rep.overall < 2.0**-58, (
        "The faithful pipeline (chi2(2)@0.02 x chi2(256)@0.1, merge 4, add twice) "
        f"gives Pr[distr > 17456] = 2^{rep.log2_tail:.2f}, not < 2^-64.6. "
        "The product stage matches a semi-analytic oracle to 0.01 bits and the "
        "whole model matches chi-square and direct ring Monte Carlo; the "
        "published endpoint appears to undercount the per-group product terms "
        "(a df=128 pipeline lands at 2^-67.4)."
    )


def test_criterion_7_security_tables():
    """Every published security row: (b, C, Q, P) within +-2."""
    t0 = time.time()
    cache = {}
    worst = 0
    for fig in published.SECURITY:
        if fig.at not in cache:
            n, q, ss, se, model = fig.at
            cache[fig.at] = security_estimate(n, q, ss, se, model=model)
        est = cache[fig.at][0 if fig.quantity == "primal" else 1]
        _, b, c, qq, p = est.rounded()
        _, rb, rc, rq, rp = fig.value
        dev = max(abs(b - rb), abs(c - rc), abs(qq - rq), abs(p - rp))
        worst = max(worst, dev)
        assert dev <= fig.tol, (fig.row, fig.quantity, est.rounded(), fig.value)
    _report(7, True, f"{len(published.SECURITY)} security rows within +-2 (worst dev {worst})", t0)


def test_criterion_8_bandwidth():
    """Serialized sizes match the paper's bandwidth columns within 3%."""
    t0 = time.time()
    rng = np.random.default_rng(8)
    worst = 0.0
    for fig in published.BANDWIDTH:
        suite = get_suite(fig.row)
        bw = bandwidth(suite)
        # the closed form equals the real serialization
        sess, m1 = proto.initiate(suite, rng)
        _, m2 = proto.respond(suite, m1, rng)
        assert (len(m1), len(m2)) == (bw.msg1_bytes, bw.msg2_bytes), fig.row
        rel = abs(bw.total_bytes - fig.value) / fig.value
        worst = max(worst, rel)
        assert rel <= fig.tol, (fig.row, bw.total_bytes, fig.value)
    _report(8, True, f"all {len(published.BANDWIDTH)} suites within 3% (worst {100*worst:.2f}%)", t0)


def test_abstract_matrix_sizes():
    """The public matrices' sizes in the abstract, exact to the printed digit."""
    figs = [fig for fig in published.ABSTRACT if fig.quantity == "matrix bytes"]
    assert [fig.row for fig in figs] == ["okcn-t2", "frodo-recommended"]
    for fig in figs:  # 887,152 B is printed 887.15 kB
        got = bandwidth(get_suite(fig.row)).matrix_bytes
        assert round(got, fig.places) == fig.value, (fig.row, got, fig.value)


def test_criterion_9_code_oracles():
    """cvp_d4 and decode_e8 match brute force; SEC recovers all single flips."""
    t0 = time.time()
    q = 12289
    rng = np.random.default_rng(9)

    # 10^4 random rational points vs brute-force CVP (vectorized enumeration)
    num = rng.integers(-6 * q, 6 * q, (10**4, 4))
    den = 2 * q
    ours = codes.d4_point(codes.cvp_d4(num, den))
    base = np.round(num / den).astype(np.int64)
    shifts = np.array(list(itertools.product((-1, 0, 1), repeat=4)))
    ints = (base[:, None, :] + shifts[None, :, :]) * 2
    halfbase = np.floor(num / den - 0.5).astype(np.int64) * 2 + 1
    halves = halfbase[:, None, :] + 2 * shifts[None, :, :]
    cands = np.concatenate([ints, halves], axis=1)  # (N, 162, 4) scaled by 2
    dist = np.sum((2 * num[:, None, :] - den * cands) ** 2, axis=2)
    best = np.argmin(dist, axis=1)
    mind = dist[np.arange(len(dist)), best]
    ties = np.sum(dist == mind[:, None], axis=1) > 1
    chosen = cands[np.arange(len(cands)), best]
    agree = np.all(ours[~ties] == chosen[~ties])
    assert agree and ties.mean() < 0.01
    n_cvp = int((~ties).sum())

    # 10^5 random points vs the 16-codeword search
    x = rng.integers(0, q, (10**5, 8))
    msgs = np.array([[(i >> j) & 1 for j in range(4)] for i in range(16)])
    cws = (q - 1) // 2 * codes.e8_encode(msgs)
    delta = (x[:, None, :] + cws[None, :, :]) % q
    cost = np.sum(np.minimum(delta, q - delta) ** 2, axis=2)
    best = np.argmin(cost, axis=1)
    mind = cost[np.arange(len(cost)), best]
    ties = np.sum(cost == mind[:, None], axis=1) > 1
    ours = codes.decode_e8(x, q)
    assert np.array_equal(ours[~ties], msgs[best[~ties]])
    n_e8 = int((~ties).sum())

    # SEC single-flip recovery: exhaustive messages for n_H in {3, 4}; for
    # n_H = 5 exhaustive flip positions over 2*10^5 random messages (the
    # code is linear, so flip behavior is message-independent)
    for n_h in (3, 4, 5):
        c = codes.SecCode(n_h)
        if n_h < 5:
            nmsg = 1 << c.message_bits
            msgs_b = ((np.arange(nmsg)[:, None] >> np.arange(c.message_bits)) & 1).astype(np.uint8)
        else:
            msgs_b = rng.integers(0, 2, (2 * 10**5, c.message_bits)).astype(np.uint8)
        cw = codes.sec_encode(msgs_b, c)
        for pos in range(c.big_n):
            bad = cw.copy()
            bad[:, pos] ^= 1
            assert np.array_equal(codes.sec_decode(bad, c), msgs_b), (n_h, pos)
    _report(9, True, f"cvp oracle {n_cvp} pts, e8 oracle {n_e8} pts, "
            "SEC single-flip recovery n_H in {3,4,5}", t0)


def test_criterion_10_protocol_agreement():
    """10^3 randomized executions per shipped suite, zero key mismatches,
    plus the RLWE error-independence correlation check."""
    t0 = time.time()
    rng = np.random.default_rng(10)
    for name in sorted(SUITES):
        suite = get_suite(name)
        for _ in range(1000):
            sess, m1 = proto.initiate(suite, rng)
            kb, m2 = proto.respond(suite, m1, rng)
            assert proto.finish(sess, m2) == kb, name

    # error-independence: correlation of the pre-consensus error at
    # coefficient pairs (0,1) and (0,256) over 10^4 draws at n = 512
    n, q = 512, 12289
    spec = get_suite("zarzar").noise
    rng = np.random.default_rng(20260809)
    errs = np.empty((10**4, 3))
    for i in range(len(errs)):
        x1, x2, e1, e2 = (algebra.ntt_forward(algebra.RingPoly(n, q, spec.sample(rng, n)))
                          for _ in range(4))
        es = spec.sample(rng, n)
        d = algebra.ntt_inverse(algebra.RingPoly(
            n, q, (e2.coeffs * x1.coeffs - e1.coeffs * x2.coeffs) % q, "ntt")).coeffs
        d = (d - es) % q
        d = np.where(d > q // 2, d - q, d)
        errs[i] = d[[0, 1, 256]]
    c01 = abs(np.corrcoef(errs[:, 0], errs[:, 1])[0, 1])
    c0256 = abs(np.corrcoef(errs[:, 0], errs[:, 2])[0, 1])
    assert c01 < 0.02 and c0256 < 0.02
    _report(10, True, f"{len(SUITES)} suites x 1000 runs all agree; "
            f"|corr| = {c01:.4f}, {c0256:.4f}", t0)


def test_criterion_11_ntt():
    """Round-trip and schoolbook equivalence at (16, 97) seeded densely and
    (512/1024, 12289) randomized."""
    t0 = time.time()
    n, q = 16, 97
    # dense deterministic coverage: constants, unit vectors, seeded randoms
    polys = [np.full(n, c, dtype=np.int64) for c in range(q)]
    polys += [np.eye(n, dtype=np.int64)[i] * (i + 1) for i in range(n)]
    rng = np.random.default_rng(11)
    polys += list(rng.integers(0, q, (500, n)))
    for a in polys:
        pa = algebra.RingPoly(n, q, a)
        assert np.array_equal(algebra.ntt_inverse(algebra.ntt_forward(pa)).coeffs, pa.coeffs)
    for _ in range(300):
        a = rng.integers(0, q, n)
        b = rng.integers(0, q, n)
        fast = ntt_mul(algebra.RingPoly(n, q, a), algebra.RingPoly(n, q, b))
        assert np.array_equal(fast.coeffs, schoolbook_negacyclic(a, b, q))
    for big_n in (512, 1024):
        for _ in range(50):
            a = rng.integers(0, 12289, big_n)
            pa = algebra.RingPoly(big_n, 12289, a)
            assert np.array_equal(algebra.ntt_inverse(algebra.ntt_forward(pa)).coeffs, a)
        a = rng.integers(0, 12289, big_n)
        b = rng.integers(0, 12289, big_n)
        fast = ntt_mul(algebra.RingPoly(big_n, 12289, a),
                       algebra.RingPoly(big_n, 12289, b))
        assert np.array_equal(fast.coeffs, schoolbook_negacyclic(a, b, 12289))
    _report(11, True, "NTT round-trip and schoolbook equivalence", t0)
