"""Distribution engine and error-rate machinery.

The expensive full-table reproductions live in test_acceptance; here the
pipelines are checked against independent oracles at small sizes.
"""

import hashlib
import itertools
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.stats import binom, chi2

from kcn.analysis import pmf as pm
from kcn.analysis.error_rates import (
    ZarzarReport,
    _fail_prob,
    error_rate,
    hybrid_error_rate,
    lwe_error_rate,
    lwr_diff_distribution,
    rlwe_error_rate,
    zarzar_error_rate,
)
from kcn.codes import SecCode
from kcn.kc import KcParams, KcVariant
from kcn.noise import TABLES, Pmf
from kcn.protocols import Sec
from kcn.suites import SUITES, Suite
from oracles import BINARY, lwr_diff_conditioned, product_pmf_rows


# --- pmf operations ----------------------------------------------------------

def test_point_mass_arithmetic():
    p2 = Pmf(2, np.array([1.0]))
    p3 = Pmf(3, np.array([1.0]))
    s = pm.conv(p2, p3)
    assert s.support[np.argmax(s.probs)] == 5
    prod = pm.product_pmf(Pmf(0, np.array([1.0])), p3)
    assert prod.support[np.argmax(prod.probs)] == 0


def test_mass_conservation():
    a = Pmf(0, np.array([0.25, 0.5, 0.25]))
    b = Pmf(-1, np.array([0.5, 0.25, 0.25]))
    assert abs(pm.conv(a, b).mass - 1.0) < 2**-40
    assert abs(pm.product_pmf(a, b).mass - 1.0) < 2**-40
    # steps 0.5 and 0.5 onto the grid of step 2
    assert abs(pm.product_pmf(a, b, 0.5 * 0.5 / 2.0).mass - 1.0) < 2**-40


def test_non_normalized_rejected():
    bad = Pmf(0, np.array([0.7, 0.7]))
    good = Pmf(0, np.array([1.0]))
    with pytest.raises(ValueError):
        pm.product_pmf(bad, good)
    with pytest.raises(ValueError):
        pm.product_pmf(good, bad)


def test_merge_matches_exact_product():
    a = pm.discretize_chisq(2, 0.5)
    b = pm.discretize_chisq(4, 0.5)
    scale = 0.125  # steps 0.5 and 0.5 onto the grid of step 2
    want = {}
    for x, px in zip(a.support.tolist(), a.probs.tolist()):
        for y, py in zip(b.support.tolist(), b.probs.tolist()):
            k = math.floor(scale * x * y + 0.5)
            want[k] = want.get(k, 0.0) + px * py
    got = pm.product_pmf(a, b, scale)
    assert got.offset == min(want) and len(got.probs) == max(want) - min(want) + 1
    assert np.allclose(got.probs, [want.get(k, 0.0) for k in got.support.tolist()],
                       rtol=0, atol=1e-15)


def _random_pmf(rng):
    n = int(rng.integers(1, 80))
    probs = rng.random(n) ** 4
    return Pmf(int(rng.integers(-200, 200)), probs / probs.sum(), float(rng.random()) * 2.0**-200)


def test_product_pmf_matches_row_oracle():
    # signed offsets put lo below 0; scales with and without exact halves
    rng = np.random.default_rng(20231)
    for i in range(100):
        px, py = _random_pmf(rng), _random_pmf(rng)
        scale = (1.0, 0.125, 1 / 3, 0.3, 7.77, 0.0005)[i % 6]
        got, want = pm.product_pmf(px, py, scale), product_pmf_rows(px, py, scale)
        assert got.offset == want.offset, i
        assert np.array_equal(got.probs, want.probs), i
        assert got.dropped == want.dropped, i


def test_product_pmf_near_tie_shifts_after_floor():
    # row -1 lands at -2^-53 after the + 0.5, so its bin is -1; a - lo folded
    # into the + 0.5 would round -0.5 - 2^-53 + 2.5 up to 2, past the last bin
    px, py, scale = Pmf(-4, [0.25] * 4), Pmf(1, [1.0]), 0.5 + 2**-53
    for got in (pm.product_pmf(px, py, scale), product_pmf_rows(px, py, scale)):
        assert got.offset == -2
        assert np.array_equal(got.probs, [0.5, 0.5])


# SHA-256 of the zarzar product law, chi2(2) at step 0.02 times chi2(256)
# at step 0.1 onto the grid of step 4: its offset, dropped and probabilities
ZARZAR_PRODUCT_DIGEST = "cc543e62e2c08b1d1c874c5078b904dbb037f323ad07e231140dc9003ff0b4c1"


def test_zarzar_product_pinned():
    p = pm.product_pmf(pm.discretize_chisq(2, 0.02), pm.discretize_chisq(256, 0.1), 0.02 * 0.1 / 4)
    blob = f"{p.offset} {p.dropped.hex()} ".encode() + p.probs.astype("<f8").tobytes()
    assert hashlib.sha256(blob).hexdigest() == ZARZAR_PRODUCT_DIGEST


def test_discretize_chisq_moments():
    d = pm.discretize_chisq(256, 0.1)
    assert abs(0.1 * d.mean() - 256) < 0.1
    assert abs(d.mass - 1.0) < 2**-60
    d2 = pm.discretize_chisq(2, 0.02)
    assert abs(0.02 * d2.mean() - 2) < 0.02
    # grid probabilities agree with the chi-square cdf cell by cell
    k = 50
    want = chi2.cdf(0.02 * (k + 0.5), 2) - chi2.cdf(0.02 * (k - 0.5), 2)
    assert abs(d2.probs[k] - want) < 1e-15
    # the survival mass past the last cell is carried as the error bar
    for dist, df, step in ((d, 256, 0.1), (d2, 2, 0.02)):
        sf = chi2.sf(step * (len(dist.probs) - 0.5), df)
        assert math.isclose(dist.dropped, sf, rel_tol=1e-12)
        assert 0 < dist.dropped <= pm.PROB_FLOOR


def test_integer_pmf_helpers():
    p = Pmf(-1, np.array([0.25, 0.5, 0.25]))
    s = pm.iid_sum(p, 4)
    assert s.offset == -4 and abs(s.mass - 1) < 1e-12
    assert abs(pm.iid_sum(p, 5).variance() - 5 * p.variance()) < 1e-9
    folded = pm.fold_mod(pm.iid_sum(p, 100), 7)
    # the 100-fold sum of p is Binomial(200, 1/2) - 100
    direct = pm.fold_mod(Pmf(-100, binom.pmf(np.arange(201), 200, 0.5)), 7)
    assert np.allclose(folded, direct, atol=1e-14)
    prod = pm.product_pmf(p, Pmf(2, np.array([1.0])))
    assert prod.offset == -2 and abs(prod.variance() - 4 * p.variance()) < 1e-12


def _fold_every_doubling(p, n, q):
    """Fold onto Z_q first, then take cyclic convolutions."""
    def cyclic(a, b):
        full = np.convolve(a, b)
        out = full[:q].copy()
        out[: len(full) - q] += full[q:]
        return out

    acc, sq = None, pm.fold_mod(p, q)
    while n:
        if n & 1:
            acc = sq if acc is None else cyclic(acc, sq)
        n >>= 1
        if n:
            sq = cyclic(sq, sq)
    return acc


@pytest.mark.parametrize("n, q", [(100, 7), (37, 12289)])
def test_iid_sum_mod_matches_fold_every_doubling(n, q):
    if q == 7:
        p = Pmf(-1, np.array([0.25, 0.5, 0.25]))
    else:
        chi = SUITES["okcn-sec-837"].noise.pmf()
        p = pm.trim(pm.product_pmf(chi, chi))
    want = _fold_every_doubling(p, n, q)
    got = pm.fold_mod(pm.iid_sum(p, n), q)
    assert len(got) == q
    assert np.allclose(got, want, rtol=1e-12, atol=2.0**-190)


def test_trimmed_iid_sum_within_dropped_of_untrimmed():
    chi = SUITES["lwe-recommended"].noise.pmf()
    term = pm.product_pmf(chi, chi)
    ref = term.probs
    for _ in range(63):
        ref = np.convolve(ref, term.probs)
    ref_offset = 64 * term.offset
    i = int(np.argmax(np.cumsum(ref[::-1])[::-1] <= 2.0**-100))  # tail near 2^-100
    want = float(np.sum(ref[i:]))
    got = pm.iid_sum(pm.trim(term), 64)
    assert 0 < got.dropped <= 2.0**-190
    have = float(np.sum(got.probs[i + ref_offset - got.offset:]))
    assert 2.0**-101 < want <= 2.0**-100
    assert -1e-12 * want <= want - have <= got.dropped + 1e-12 * want


def test_iid_sum_tail_against_mpmath():
    # centered binomial with support +-2: dyadic probabilities, exact in float
    chi = Pmf(-2, np.array([1, 4, 6, 4, 1]) / 16.0)
    term = pm.product_pmf(chi, chi)
    got = pm.iid_sum(pm.trim(term), 64)
    with mpmath.workdps(50):
        one = [mpmath.mpf(float(x)) for x in term.probs]
        exact = one
        for _ in range(63):
            nxt = [mpmath.mpf(0)] * (len(exact) + len(one) - 1)
            for j, y in enumerate(one):
                for i, x in enumerate(exact):
                    nxt[i + j] += x * y
            exact = nxt
        tails = list(itertools.accumulate(reversed(exact)))[::-1]
        i = next(k for k, t in enumerate(tails) if t <= mpmath.mpf(2) ** -100)
        want = tails[i]
        have = mpmath.mpf(float(np.sum(got.probs[i + 64 * term.offset - got.offset:])))
        assert want > mpmath.mpf(2) ** -101
        assert -1e-12 * want <= want - have <= got.dropped + 1e-12 * want


def test_error_reports_carry_dropped_mass():
    for name, suite in SUITES.items():
        if suite.family == "lwr":
            assert error_rate(suite).dropped is None
        elif suite.family in ("lwe", "hybrid") or suite.mode.name in ("plain", "sec"):
            rep = error_rate(suite)
            assert 0 < rep.dropped <= 2.0**-190, name


def test_zarzar_report_carries_dropped_mass():
    rep = error_rate(SUITES["zarzar"])
    assert 0 < rep.dropped < 2.0**-150


def test_trim_sums_the_cut_tails():
    p = Pmf(0, np.array([2.0**-210, 2.0**-205, 0.5, 0.5 - 2.0**-204, 2.0**-204]), 2.0**-230)
    t = pm.trim(p)
    assert t.offset == 2 and len(t.probs) == 2
    assert t.dropped == 2.0**-210 + 2.0**-205 + 2.0**-204 + 2.0**-230
    assert pm.conv(t, pm.negate(t)).dropped == 2 * t.dropped
    assert pm.product_pmf(t, p).dropped == t.dropped + p.dropped


# One toy suite per sigma-difference: D itself (lwe, ring) or its LWR rounding (lwr)
FAIL_PROB_SUITES = {
    "lwe": Suite(name="toy-lwe-8", family="lwe", n=4, l_a=1, l_b=1, q=8, noise=BINARY,
                 variant=KcVariant.OKCN_SIMPLE, kc=KcParams(q=8, m=2, g=4, d=1)),
    "lwr": Suite(name="toy-lwr-16", family="lwr", n=4, l_a=1, l_b=1, q=16, p=4, noise=BINARY,
                 variant=KcVariant.OKCN_SIMPLE, kc=KcParams(q=4, m=2, g=2, d=0)),
    "ring": Suite(name="toy-ring-17", family="rlwe", n=4, l_a=1, l_b=1, q=17, noise=BINARY,
                  variant=KcVariant.OKCN_GENERIC, kc=KcParams(q=17, m=2, g=4, d=2)),
}


@pytest.mark.parametrize("name", FAIL_PROB_SUITES)
def test_fail_prob(name, rng):
    suite = FAIL_PROB_SUITES[name]
    q, qk, d = suite.q, suite.kc.q, suite.kc.d
    fails = []
    for r in range(q):
        s = (r * qk + q // 2) // q % qk  # round(qk r / q) mod qk, halves up; r when qk = q
        fails.append(min(s, qk - s) > d)
    # each residue alone, then a random law over all of them
    assert [_fail_prob(suite, np.eye(q)[r], d) for r in range(q)] == fails
    folded = rng.dirichlet(np.ones(q))
    assert _fail_prob(suite, folded, d) == pytest.approx(float(np.dot(folded, fails)), rel=1e-14, abs=0)


@pytest.mark.parametrize("df, step", [(2, 0.02), (256, 0.1)])
def test_discretize_chisq_pinned_to_scipy_stats(df, step):
    # the chi-square grid, written out with scipy.stats.chi2
    kmax = int(np.ceil(float(chi2.isf(pm.PROB_FLOOR, df)) / step)) + 1
    sf = chi2.sf((np.arange(kmax + 1) + 0.5) * step, df)
    want = np.concatenate([[1.0 - sf[0]], sf[:-1] - sf[1:]])
    got = pm.discretize_chisq(df, step)
    assert got.offset == 0
    assert np.array_equal(got.probs, want)
    assert np.array_equal(got.dropped, sf[-1])


# --- LWR micro-oracle: exact brute force vs the conditional pipeline ---------

def brute_lwr_folded(n, q, p, chi_vals, chi_wts):
    w = q // p
    As = np.array(list(itertools.product(range(q), repeat=n * n))).reshape(-1, n, n)
    eps_rng = range(-q // (2 * p), q // (2 * p))
    folded = np.zeros(q)

    def frac(x):
        return x - w * ((2 * p * np.asarray(x) + q) // (2 * q))

    def has_unit(v):
        return any(x % 2 for x in v)

    for x1 in itertools.product(chi_vals, repeat=n):
        for x2 in itertools.product(chi_vals, repeat=n):
            if not (has_unit(x1) and has_unit(x2)):
                continue
            weight = np.prod([chi_wts[v] for v in x1]) * np.prod([chi_wts[v] for v in x2])
            c1 = frac(np.einsum("nij,i->nj", As, np.array(x2))) @ np.array(x1)
            y1tx2 = frac(As @ np.array(x1)) @ np.array(x2)
            for eps in itertools.product(eps_rng, repeat=n):
                c2 = y1tx2 - np.dot(eps, x2)
                np.add.at(folded, (c1 - c2) % q, weight)
    return folded / folded.sum()


def test_lwr_pipeline_matches_brute_force():
    n, q, p = 2, 16, 4
    chi = Pmf(-1, np.array([0.25, 0.5, 0.25]))
    bf = brute_lwr_folded(n, q, p, [-1, 0, 1], {-1: 0.25, 0: 0.5, 1: 0.25})
    eng = lwr_diff_conditioned(n, q, p, chi)
    assert np.abs(bf - eng).max() < 1e-13


def test_lwr_production_path_matches_brute_force():
    # with +-1 noise every secret holds a unit of Z_4, so the unconditioned
    # decomposition is exact
    n, q, p = 2, 16, 4
    chi = Pmf(-1, np.array([0.5, 0.0, 0.5]))
    bf = brute_lwr_folded(n, q, p, [-1, 1], {-1: 0.5, 1: 0.5})
    eng = lwr_diff_distribution(n, q, p, chi)
    assert np.abs(bf - eng).max() < 1e-13


# --- LWE toy Monte-Carlo cross-check -----------------------------------------

def _toy_lwe_suite():
    return Suite(
        name="toy-lwe", family="lwe", n=16, l_a=1, l_b=1, q=2**8,
        noise=TABLES["D1"], variant=KcVariant.OKCN_SIMPLE,
        kc=KcParams(q=2**8, m=2, g=2**7, d=63),
    )


def test_lwe_error_rate_monte_carlo(rng):
    suite = _toy_lwe_suite()
    rep = lwe_error_rate(suite)
    n, q, d = suite.n, suite.q, suite.kc.d
    trials = 10**7
    fails = 0
    chunk = 10**5
    spec = suite.noise
    for _ in range(trials // chunk):
        x1 = spec.sample(rng, (chunk, n))
        e2 = spec.sample(rng, (chunk, n))
        e1 = spec.sample(rng, (chunk, n))
        x2 = spec.sample(rng, (chunk, n))
        es = spec.sample(rng, chunk)
        s = np.sum(x1 * e2, axis=1) - np.sum(e1 * x2, axis=1) - es
        r = s % q
        fails += int(np.sum(np.minimum(r, q - r) > d))
    p_hat = fails / trials
    se = math.sqrt(rep.per_symbol * (1 - rep.per_symbol) / trials)
    assert abs(p_hat - rep.per_symbol) < 3 * se


def test_lwe_binary_noise_never_fails():
    # with chi = U({0,1}) and d >= n+1 the failure region has zero mass
    suite = Suite(
        name="toy-binary", family="lwe", n=8, l_a=1, l_b=1, q=2**8,
        noise=BINARY, variant=KcVariant.OKCN_SIMPLE,
        kc=KcParams(q=2**8, m=2, g=2**7, d=9),
    )
    rep = lwe_error_rate(suite)
    assert rep.overall == 0.0


def test_union_bound_consistency():
    suite = _toy_lwe_suite()
    rep = lwe_error_rate(suite)
    assert abs(rep.overall - min(1.0, rep.per_symbol * suite.key_bits)) <= 1e-15


# --- RLWE and zarzar ----------------------------------------------------------

def test_rlwe_union_bound_identity():
    toy = Suite(
        name="toy-rlwe", family="rlwe", n=64, l_a=1, l_b=1, q=257,
        noise=TABLES["D1"], variant=KcVariant.OKCN_GENERIC,
        kc=KcParams(q=257, m=2, g=4, d=47),
    )
    rep = rlwe_error_rate(toy)
    assert abs(rep.overall - min(1.0, toy.n * rep.per_symbol)) / rep.overall < 0.01
    # SEC: a block of 6 bits fails when two of its bits do, 10 blocks
    sec = replace(toy, name="toy-rlwe-sec", mode=Sec(SecCode(2)))
    rep = rlwe_error_rate(sec)
    assert 0 < rep.overall < 1
    assert rep.overall == min(1.0, rep.per_symbol**2 * (64 // 6 * math.comb(6, 2)))


def test_zarzar_report_structure():
    # scaled-down pipeline: n = 64 -> chi2(32), 8 groups
    rep = zarzar_error_rate(4.0, 12289, 2**6, 64)
    assert rep.threshold == math.floor(rep.norm_bound**2 / (4 * 16.0))
    assert 0 <= rep.tail <= 1
    assert rep.overall <= min(1.0, 8 * rep.tail) + 1e-18
    zero = zarzar_error_rate(1e-6, 12289, 2**6, 64)  # sigma -> 0
    assert zero.tail == 0.0
    assert zero.log2_tail == zero.log2_overall == -math.inf


# --- pinned figures ------------------------------------------------------------

# (log2_overall, log2_per_symbol) per suite; log2_tail in place of the
# per-symbol figure for the zarzar chi-square pipeline.
PINNED_FIGURES = {
    "lwr-recommended": (-35.439570393359475, -41.439570393359475),
    "lwr-paranoid": (-34.838100575766184, -40.838100575766184),
    "lwe-challenge": (-47.88869456809372, -53.88869456809372),
    "lwe-classical": (-39.394794246165205, -46.394794246165205),
    "lwe-recommended": (-37.86331605172429, -45.86331605172429),
    "lwe-paranoid": (-32.632714613359134, -40.632714613359134),
    "lwe-paranoid-512": (-33.61821099096072, -42.61821099096072),
    "okcn-t2": (-39.03347446362304, -47.03347446362304),
    "okcn-t1": (-52.26443397255644, -60.26443397255644),
    "frodo-challenge": (-41.79863747505612, -47.79863747505612),
    "frodo-classical": (-36.23296174643675, -43.23296174643675),
    "frodo-recommended": (-38.94387621686893, -46.94387621686893),
    "frodo-paranoid": (-33.78413408186755, -41.78413408186755),
    "okcn-frodo-challenge": (-80.05858804190487, -86.05858804190487),
    "okcn-frodo-classical": (-70.32180126062866, -77.32180126062866),
    "okcn-frodo-recommended": (-105.90327551660928, -113.90327551660928),
    "okcn-frodo-paranoid": (-91.92075031848361, -99.92075031848361),
    "hybrid-recommended": (-63.30989101191406, -69.30989101191406),
    "hybrid-paranoid": (-52.31388280383642, -58.31388280383642),
    "okcn-rlwe-16": (-38.352598374760134, -48.352598374760134),
    "okcn-rlwe-64": (-42.966522710493976, -52.966522710493976),
    "akcn-rlwe-16": (-32.52281785915974, -42.52281785915974),
    "akcn-rlwe-64": (-41.40563940123555, -51.40563940123555),
    "okcn-sec-765": (-71.80335476801703, -42.52281785915974),
    "okcn-sec-837": (-70.91136984908475, -42.52281785915974),
    "akcn-sec-765": (-71.80335476801703, -42.52281785915974),
    "akcn-sec-837": (-70.91136984908475, -42.52281785915974),
    "zarzar": (-28.488988731592926, -34.488988731592926),
}


def test_error_rate_figures_pinned():
    unsupported = {"newhope", "akcn-4to1"}
    assert set(PINNED_FIGURES) == set(SUITES) - unsupported
    for name, (overall, second) in PINNED_FIGURES.items():
        rep = error_rate(SUITES[name])
        got = rep.log2_tail if isinstance(rep, ZarzarReport) else rep.log2_per_symbol
        assert abs(rep.log2_overall - overall) <= 1e-9, (name, rep.log2_overall, overall)
        assert abs(got - second) <= 1e-9, (name, got, second)
    for name in unsupported:
        with pytest.raises(ValueError):
            error_rate(SUITES[name])


# (per_symbol, overall, dropped) as float.hex of the protocol's true rate,
# which averages over the hint offsets instead of the table's threshold.
PINNED_EXACT_REGION = {
    "hybrid-recommended": ("0x1.059792367cdfcp-65", "0x1.059792367cdfcp-59",
                           "0x1.756beac3986fep-200"),
    "hybrid-paranoid": ("0x1.fee7e7d1cacb6p-56", "0x1.fee7e7d1cacb6p-50",
                        "0x1.a48d081dc4022p-200"),
}


@pytest.mark.parametrize("name", sorted(PINNED_EXACT_REGION))
def test_hybrid_exact_region_pinned(name):
    rep = hybrid_error_rate(SUITES[name], exact_region=True)
    got = tuple(x.hex() for x in (rep.per_symbol, rep.overall, rep.dropped))
    assert got == PINNED_EXACT_REGION[name]


# float.hex of every field of error_rate(suite): (per_symbol, overall,
# dropped) for an ErrorReport, whose dropped is None for LWR, and (tail,
# overall, dropped, norm_bound, threshold) for the zarzar report
PINNED_REPORTS = {
    "lwr-recommended": ("0x1.79867b8b0c74cp-42", "0x1.79867b8b0c74cp-36", None),
    "lwr-paranoid": ("0x1.1e66ff299e340p-41", "0x1.1e66ff299e340p-35", None),
    "lwe-challenge": ("0x1.14885462b096cp-54", "0x1.14885462b096cp-48", "0x1.295b9557a6510p-203"),
    "lwe-classical": ("0x1.856d149f48cf9p-47", "0x1.856d149f48cf9p-40", "0x1.49be18711030cp-202"),
    "lwe-recommended": ("0x1.1970a893e6ef6p-46", "0x1.1970a893e6ef6p-38", "0x1.8b38b2179accep-202"),
    "lwe-paranoid": ("0x1.4a386b5d08153p-41", "0x1.4a386b5d08153p-33", "0x1.c1e1cf3179204p-202"),
    "lwe-paranoid-512": ("0x1.4d8e8fff1c5e6p-43", "0x1.4d8e8fff1c5e6p-34", "0x1.207305341c0a6p-201"),
    "okcn-t2": ("0x1.f441c8692a4e4p-48", "0x1.f441c8692a4e4p-40", "0x1.6c685f65bbab7p-201"),
    "okcn-t1": ("0x1.aa40c1b2a2170p-61", "0x1.aa40c1b2a2170p-53", "0x1.8035295a750a9p-201"),
    "frodo-challenge": ("0x1.26583a0abcfd4p-48", "0x1.26583a0abcfd4p-42", "0x1.0d9f76d154406p-203"),
    "frodo-classical": ("0x1.b3a75e2ed03dep-44", "0x1.b3a75e2ed03dep-37", "0x1.14be30322bfb6p-202"),
    "frodo-recommended": ("0x1.0a27b94153c1ap-47", "0x1.0a27b94153c1ap-39", "0x1.5fc32f054d312p-202"),
    "frodo-paranoid": ("0x1.29518fe26f4eap-42", "0x1.29518fe26f4eap-34", "0x1.59a1857c89305p-201"),
    "okcn-frodo-challenge": ("0x1.eb9fc7e1b19d6p-87", "0x1.eb9fc7e1b19d6p-81", "0x1.0d9f76d154406p-203"),
    "okcn-frodo-classical": ("0x1.99a2d1a61f990p-78", "0x1.99a2d1a61f990p-71", "0x1.14be30322bfb6p-202"),
    "okcn-frodo-recommended": ("0x1.11c0740249f6cp-114", "0x1.11c0740249f6cp-106", "0x1.5fc32f054d312p-202"),
    "okcn-frodo-paranoid": ("0x1.0e74b75ae1623p-100", "0x1.0e74b75ae1623p-92", "0x1.59a1857c89305p-201"),
    "hybrid-recommended": ("0x1.9d0822dc796bcp-70", "0x1.9d0822dc796bcp-64", "0x1.756beac3986fep-200"),
    "hybrid-paranoid": ("0x1.9be3fab3b2d5fp-59", "0x1.9be3fab3b2d5fp-53", "0x1.a48d081dc4022p-200"),
    "okcn-rlwe-16": ("0x1.90fbf55651b54p-49", "0x1.90fbf55651b54p-39", "0x1.98c2ef6fe5be1p-201"),
    "okcn-rlwe-64": ("0x1.06028620b92d8p-53", "0x1.06028620b92d8p-43", "0x1.98c2ef6fe5be1p-201"),
    "akcn-rlwe-16": ("0x1.645b8fda52f00p-43", "0x1.645b8fda52f00p-33", "0x1.98c2ef6fe5be1p-201"),
    "akcn-rlwe-64": ("0x1.828277f9d7ab2p-52", "0x1.828277f9d7ab2p-42", "0x1.98c2ef6fe5be1p-201"),
    "okcn-sec-765": ("0x1.645b8fda52f00p-43", "0x1.25623e784a03cp-72", "0x1.98c2ef6fe5be1p-201"),
    "okcn-sec-837": ("0x1.645b8fda52f00p-43", "0x1.10385cfebfffep-71", "0x1.98c2ef6fe5be1p-201"),
    "akcn-sec-765": ("0x1.645b8fda52f00p-43", "0x1.25623e784a03cp-72", "0x1.98c2ef6fe5be1p-201"),
    "akcn-sec-837": ("0x1.645b8fda52f00p-43", "0x1.10385cfebfffep-71", "0x1.98c2ef6fe5be1p-201"),
    "zarzar": ("0x1.6ccffe999ea60p-35", "0x1.6ccffe999ea60p-29", "0x1.7f98a2e94ae5bp-158",
               "0x1.6c00000000000p+12", "0x1.11c0000000000p+14"),
}


def _report_fields(rep):
    if isinstance(rep, ZarzarReport):
        fields = (rep.tail, rep.overall, rep.dropped, rep.norm_bound, rep.threshold)
    else:
        fields = (rep.per_symbol, rep.overall, rep.dropped)
    return tuple(None if x is None else float(x).hex() for x in fields)


@pytest.mark.parametrize("name", list(PINNED_REPORTS))
def test_error_rate_reports_pinned(name):
    assert _report_fields(error_rate(SUITES[name])) == PINNED_REPORTS[name]


# SHA-256 of lwr_diff_distribution(n, q, p, chi) as little-endian float64:
# the whole folded law of the LWR suites, not just its failure sum
LWR_DIFF_DIGESTS = {
    "lwr-recommended": "ba5257dd5cc7459c3e82e15e9087ae239ead8085752c6420523e25446077c7df",
    "lwr-paranoid": "b3f9cf40329e95e64456834e79decac2cee79f247446713e8bd69b480467b1c7",
}


@pytest.mark.parametrize("name", list(LWR_DIFF_DIGESTS))
def test_lwr_diff_distribution_pinned(name):
    s = SUITES[name]
    folded = lwr_diff_distribution(s.n, s.q, s.p, s.noise.pmf())
    assert folded.dtype == np.float64 and folded.shape == (s.q,)
    assert hashlib.sha256(folded.astype("<f8").tobytes()).hexdigest() == LWR_DIFF_DIGESTS[name]
