"""Failure-probability computations for the four protocol families.

Each family function builds the exact law of the difference D between the
two parties' pre-consensus values for one coordinate, mod q.  `_fail_prob`
is the one consensus test (the sigma-difference in Z_{kc.q} lies farther
than d from 0) and `_report` the one union rule, chosen by the mode.  The
LWR law is assembled per residue a = X1^T A^T X2 mod (q/p): conditioned on
a, the two halves of D are independent, so two per-residue convolutions
replace one intractable joint one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from kcn import algebra
from kcn.noise import Pmf, uniform_pmf
from kcn.analysis import pmf as pm
from kcn.kc import KcVariant, dist_mod
from kcn.protocols import Plain, Sec
from kcn.suites import Suite

__all__ = [
    "ErrorReport",
    "lwr_error_rate",
    "lwe_error_rate",
    "hybrid_error_rate",
    "rlwe_error_rate",
    "zarzar_error_rate",
    "error_rate",
    "lwr_diff_distribution",
]


@dataclass(frozen=True)
class ErrorReport:
    per_symbol: float  # one coordinate (matrix families) or one bit (ring)
    overall: float
    # Bound on the per-symbol mass lost to trimming: the exact per-symbol
    # rate lies in [per_symbol, per_symbol + dropped].  None: not tracked.
    dropped: float | None = None

    @property
    def log2_overall(self) -> float:
        return _log2(self.overall)

    @property
    def log2_per_symbol(self) -> float:
        return _log2(self.per_symbol)


def _log2(p: float) -> float:
    return math.log2(p) if p > 0 else -math.inf


def _report(suite: Suite, p_coord: float, dropped: float | None) -> ErrorReport:
    """The whole-key rate by the mode's union rule, over the terms each published table counted."""
    if isinstance(suite.mode, Sec):  # a block fails when two of its bits do
        block = suite.mode.code.block_bits
        p, terms = p_coord**2, suite.n // block * math.comb(block, 2)
    elif suite.family in ("lwr", "hybrid"):  # one term per coordinate
        p, terms = p_coord, suite.l_a * suite.l_b
    else:  # one term per key bit
        p, terms = p_coord, suite.key_bits
    return ErrorReport(p_coord, min(1.0, p * terms), dropped)


def _inner(x: Pmf, y: Pmf, n: int) -> Pmf:
    """Law of the inner product of n iid coordinate pairs (x_i, y_i)."""
    return pm.iid_sum(pm.trim(pm.product_pmf(x, y)), n)


def _rounding_pmf(w: int) -> Pmf:
    """Uniform LWR rounding noise over [-w/2, w/2 - 1], w = q/p."""
    return uniform_pmf(-w // 2, w // 2 - 1)


def _sigma_diff(suite: Suite) -> np.ndarray:
    """Sigma2 - Sigma1 in Z_{kc.q} for each D in Z_q: D itself when kc.q = q,
    else its LWR rounding (lwr and hybrid, where `Suite` makes kc.q = p)."""
    x = np.arange(suite.q)
    return x if suite.kc.q == suite.q else algebra.lwr_round(x, suite.q, suite.kc.q)


def _fail_prob(suite: Suite, folded: np.ndarray, d: int) -> float:
    """Mass of D mod q whose sigma-difference lies farther than d from 0 in Z_{kc.q}."""
    return float(np.sum(folded[dist_mod(_sigma_diff(suite), suite.kc.q) > d]))


# ---------------------------------------------------------------------------
# LWE protocol, optional bit cutting

def _cut_noise_pmf(t: int) -> Pmf:
    # uncut(cut(y)) - y for uniform y: uniform over (-2^(t-1), 2^(t-1)]
    if t == 0:
        return Pmf(0, np.ones(1))
    half = 1 << (t - 1)
    return uniform_pmf(-half + 1, half)


def _frodo_fail_prob(folded: np.ndarray, q: int, m: int) -> float:
    """Exact per-coordinate failure of the Frodo reconciliation.

    Averaged over the uniform position of sigma1 inside its signal block of
    length L = q/(2m), the failure fraction at centered offset c is the
    trapezoid clip((|c| - L/2) / L, 0, 1): offsets up to L/2 always
    round back, offsets beyond 3L/2 never do.
    """
    big_l = q // (2 * m)
    c = dist_mod(np.arange(q), q)
    frac = np.clip((c - big_l / 2) / big_l, 0.0, 1.0)
    return float(np.dot(folded, frac))


def lwe_error_rate(suite: Suite) -> ErrorReport:
    """Failure probability of the LWE protocol from the coordinate difference
    X1^T (E2 + eps(Y2)) - E1^T X2 - E_sigma, with Y2 treated as uniform.

    The whole-key rate is `_report`'s union bound over key bits.
    """
    if suite.family != "lwe":
        raise ValueError("lwe suite required")
    chi = suite.noise.pmf()
    q, n, d = suite.q, suite.n, suite.kc.d
    dist = pm.conv(_inner(chi, pm.conv(chi, _cut_noise_pmf(suite.t)), n), pm.negate(_inner(chi, chi, n)))
    dist = pm.conv(dist, pm.negate(chi))  # E_sigma
    folded = pm.fold_mod(dist, q)
    p_coord = (_frodo_fail_prob(folded, q, suite.kc.m) if suite.variant is KcVariant.FRODO
               else _fail_prob(suite, folded, d))
    return _report(suite, p_coord, dist.dropped)


# ---------------------------------------------------------------------------
# LWR protocol

def _residue_value_joint(chi: Pmf, w: int) -> tuple[np.ndarray, int]:
    """Joint measure of (y x mod w, (y - e) x) per coordinate.

    y and e are independent uniform over [-w/2, w/2 - 1], x ~ chi.  Returns
    (array of shape (w, L), value offset).
    """
    kmax = max(abs(int(chi.support[0])), abs(int(chi.support[-1])))
    vmax = (w - 1) * kmax
    arr = np.zeros((w, 2 * vmax + 1))
    us = np.arange(-w // 2, w // 2)
    pu = 1.0 / w
    for x, px in zip(chi.support, chi.probs):
        for y in us:
            res = (y * x) % w
            vals = (y - us) * x + vmax
            np.add.at(arr[res], vals, px * pu * pu)
    return arr, -vmax


def _joint_conv(a, b, w: int):
    (pa, oa), (pb, ob) = a, b
    out = np.zeros((w, pa.shape[1] + pb.shape[1] - 1))
    for r1 in range(w):
        for r2 in range(w):
            out[(r1 + r2) % w] += np.convolve(pa[r1], pb[r2])
    lo, hi = pm.kept(out.sum(axis=0), pm.PROB_FLOOR)
    return out[:, lo:hi].copy(), oa + ob + lo


def _lwr_sides(chi: Pmf, n: int, w: int):
    """Side 1, the law of c1 = X^T y2, and side 2, the (residue, value) joint of c2's y-part."""
    side1 = _inner(chi, _rounding_pmf(w), n)  # residue of c1 is c1 mod w
    side2 = pm.power(_residue_value_joint(chi, w), n, lambda a, b: _joint_conv(a, b, w))
    return side1, side2


def _lwr_fold(side1: Pmf, side2, q: int, w: int) -> np.ndarray:
    """Law of D mod q from its two halves, one convolution per residue class."""
    j2, off2 = side2
    res = (side1.offset + np.arange(len(side1.probs))) % w
    lo = side1.offset - (off2 + j2.shape[1] - 1)
    idx = (lo + np.arange(len(side1.probs) + j2.shape[1] - 1)) % q
    folded = np.zeros(q)
    for a in range(w):
        # side 1 masked to residue class a; side 2 carries all values
        conv = np.convolve(np.where(res == a, side1.probs, 0.0), j2[a][::-1])
        np.add.at(folded, idx, conv * w)  # divide by Pr[a] = 1/w
    return folded


def lwr_diff_distribution(n: int, q: int, p: int, chi: Pmf) -> np.ndarray:
    """Distribution of D = X1^T{A^T X2}_p - ({A X1}_p^T X2 - eps^T X2) mod q,
    as a length-q array; Sigma2 - Sigma1 = round((p/q) D) mod p.

    Conditioned on the residue a = X1^T A^T X2 mod (q/p), the two halves
    c1 = X1^T y2 (with c1 = a mod q/p) and c2 = y1^T X2 - eps^T X2 (whose
    y-part has residue a) are independent, so D's law is assembled from one
    convolution per residue class.  This is exact when both secrets hold a
    unit of Z_{q/p}; that all n coordinates of a secret are zero divisors
    has probability P(zero divisor)^n, negligible at production sizes.
    """
    w = q // p
    return _lwr_fold(*_lwr_sides(chi, n, w), q, w)


def lwr_error_rate(suite: Suite) -> ErrorReport:
    """|Sigma1 - Sigma2|_p > d failure, union over the l_A l_B coordinates."""
    if suite.family != "lwr":
        raise ValueError("lwr suite required")
    folded = lwr_diff_distribution(suite.n, suite.q, suite.p, suite.noise.pmf())
    return _report(suite, _fail_prob(suite, folded, suite.kc.d), None)


# ---------------------------------------------------------------------------
# Hybrid public-key construction

def hybrid_error_rate(suite: Suite, exact_region: bool = False) -> ErrorReport:
    """Hybrid failure from Sigma2 - Sigma1 = round((p/q)(E1^T X2 + X1^T u)).

    The default threshold is |.|_p > q_kc/2m - 1, the distance the
    published table is computed at.  The reconciliation here has
    m | g | q_kc, so round(k1 q/m) is exact and the only rounding loss is
    the hint's; exact_region=True averages over the q_kc/g equally likely
    hint offsets, giving the protocol's true (slightly higher) failure
    rate instead of the table's accounting.
    """
    if suite.family != "hybrid":
        raise ValueError("hybrid suite required")
    chi = suite.noise.pmf()
    q, p, qk, m, g = suite.q, suite.p, suite.kc.q, suite.kc.m, suite.kc.g
    dist = pm.conv(_inner(chi, chi, suite.n_b), _inner(chi, _rounding_pmf(q // p), suite.n))
    folded = pm.fold_mod(dist, q)
    step, half = qk // g, qk // (2 * m)
    if exact_region:
        s = _sigma_diff(suite)
        # hint offset (q_kc/g) eps2 ranges over [-(q_kc/2g - 1), q_kc/2g]
        s_c = np.where(s < qk // 2, s, s - qk)
        frac = np.zeros(q)
        for u in range(-(step // 2 - 1), step // 2 + 1):
            frac += (s_c + u < -half) | (s_c + u >= half)
        p_coord = float(np.dot(folded, frac / step))
    else:
        p_coord = _fail_prob(suite, folded, half - 1)
    return _report(suite, p_coord, dist.dropped)


# ---------------------------------------------------------------------------
# RLWE protocol, plain or SEC

def rlwe_error_rate(suite: Suite) -> ErrorReport:
    """Per-coefficient failure of e2 x1 - e1 x2 - e_sigma, and `_report`'s
    union bound (plain: n-fold; SEC: one corrected bit per block)."""
    if suite.family != "rlwe" or not isinstance(suite.mode, Plain):  # Sec is a Plain
        raise ValueError("rlwe suite in plain or sec mode required")
    chi = suite.noise.pmf()
    dist = pm.conv(_inner(chi, chi, 2 * suite.n), pm.negate(chi))
    return _report(suite, _fail_prob(suite, pm.fold_mod(dist, suite.q), suite.kc.d), dist.dropped)


# ---------------------------------------------------------------------------
# ZarZar (E8 mode) chi-square pipeline

@dataclass(frozen=True)
class ZarzarReport:
    norm_bound: int  # floor of (q-1)/2 - sqrt(2)(q/g+1) - 10 sigma
    threshold: int  # floor of norm_bound^2 / (4 sigma^4)
    tail: float  # P(distr > threshold - 64)
    overall: float
    # Bound on the mass lost to truncation and trimming: the exact tail
    # lies in [tail, tail + dropped].
    dropped: float

    @property
    def log2_tail(self) -> float:
        return _log2(self.tail)

    @property
    def log2_overall(self) -> float:
        return _log2(self.overall)


def zarzar_error_rate(sigma_sq: float, q: int, g: int, n: int) -> ZarzarReport:
    """Tail bound for the E8-coded ring protocol via the chi-square pipeline:
    discretize chi^2(2) at 0.02 and chi^2(n/2) at 0.1, multiply onto the
    grid of step 4, add twice, then evaluate the norm-bound tail and the
    block union bound.
    """
    if n % 8:
        raise ValueError("n must be divisible by 8")
    step = 4.0
    d2 = pm.discretize_chisq(2, 0.02)
    dbig = pm.discretize_chisq(n // 2, 0.1)
    prod = pm.trim(pm.product_pmf(d2, dbig, 0.02 * 0.1 / step), 2.0**-160)
    distr = pm.trim(pm.conv(prod, prod), 2.0**-160)
    distr = pm.conv(distr, distr)
    sigma = math.sqrt(sigma_sq)
    norm_bound = math.floor((q - 1) / 2 - math.sqrt(2) * (q / g + 1) - 10 * sigma)
    threshold = math.floor(norm_bound**2 / (4 * sigma_sq**2))
    tail = float(np.sum(distr.probs[step * distr.support > threshold - 64]))
    overall = min(1.0, tail * (n // 8))
    return ZarzarReport(norm_bound, threshold, tail, overall, distr.dropped)


# One failure model per (family, mode name), looked up in this module when called,
# so replacing a model here (as perfbench/tracer.py does) reaches error_rate.
_MODELS = {
    ("lwr", "plain"): lambda s: lwr_error_rate(s),
    ("lwe", "plain"): lambda s: lwe_error_rate(s),
    ("hybrid", "plain"): lambda s: hybrid_error_rate(s),
    ("rlwe", "plain"): lambda s: rlwe_error_rate(s),
    ("rlwe", "sec"): lambda s: rlwe_error_rate(s),
    ("rlwe", "e8"): lambda s: zarzar_error_rate(s.noise.variance, s.q, s.mode.g, s.n),
}


def error_rate(suite: Suite):
    """The suite's failure model; returns ErrorReport or ZarzarReport."""
    model = _MODELS.get((suite.family, suite.mode.name))
    if model is None:
        raise ValueError(f"no numerical error model for mode {suite.mode.name}")
    return model(suite)
