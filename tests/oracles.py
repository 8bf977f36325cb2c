"""Reference implementations and test-only helpers that the tests check kcn
against: reference arithmetic (`frac_part`, `schoolbook_negacyclic`), the
coefficient-domain ring product through the NTT (`ntt_mul`), the efficiency
slack of a consensus instance (`bound_slack`), the post-reduction security
left by a sampling table (`post_reduction_costs`), the LWR difference
law conditioned on both secrets holding a unit (`lwr_diff_conditioned`),
built from the two private stages of `lwr_diff_distribution`, the product
law built with fresh per-row temporaries (`product_pmf_rows`), and the
uniform {0, 1} noise law of the toy suites (`BINARY`)."""

import math

import numpy as np

from kcn.algebra import RingPoly, ntt_forward, ntt_inverse, poly_mul
from kcn.analysis.error_rates import _lwr_fold, _lwr_sides
from kcn.analysis.pmf import _check_mass
from kcn.kc import KcParams, KcVariant, div_round
from kcn.noise import Law, Pmf, uniform_pmf


# Uniform noise on {0, 1}: with it a toy suite's consensus distance bounds
# every possible difference, so the toy exchanges always agree
BINARY = Law("U({0,1})", 0.25, lambda: uniform_pmf(0, 1), lambda rng, size: rng.integers(0, 2, size=size),
             lambda: 1)


def frac_part(x, q: int, p: int):
    """Centered residue {x}_p = x - (q/p) round(p x / q), in [-q/2p, q/2p - 1]."""
    if q % p:
        raise ValueError("p must divide q")
    x = np.asarray(x, dtype=np.int64)
    return x - (q // p) * div_round(x, q // p)


def schoolbook_negacyclic(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Reference negacyclic convolution, quadratic time."""
    n = len(a)
    full = np.convolve(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
    out = full[:n].copy()
    out[: n - 1] -= full[n:]
    return out % q


def ntt_mul(a: RingPoly, b: RingPoly) -> RingPoly:
    """Negacyclic product of two coefficient-domain polys, through the NTT."""
    return ntt_inverse(poly_mul(ntt_forward(a), ntt_forward(b)))


def bound_slack(variant: KcVariant, p: KcParams) -> int:
    """Slack q(1-1/g) - 2md (KC) or q(1-m/g) - 2md (AKC), scaled by g.

    Zero means the efficiency upper bound is exactly saturated.
    """
    if variant.is_akc:
        return p.q * (p.g - p.m) - 2 * p.m * p.d * p.g
    return p.q * (p.g - 1) - 2 * p.m * p.d * p.g


def post_reduction_costs(cost_bits: float, order: float, divergence: float,
                         n: int, l_a: int, l_b: int) -> float:
    """Security left after replacing the rounded Gaussian by a table.

    Probability preservation under Renyi divergence: an attack with success
    probability 2^-lambda against the table distribution yields one with
    probability (2^-lambda)^(a/(a-1)) / R_a^N against the Gaussian, where
    N = n(l_A + l_B) + l_A l_B samples are drawn per protocol run.
    """
    big_n = n * (l_a + l_b) + l_a * l_b
    return (order - 1) / order * cost_bits - big_n * math.log2(divergence)


def lwr_diff_conditioned(n: int, q: int, p: int, chi: Pmf) -> np.ndarray:
    """`lwr_diff_distribution` conditioned on both secrets holding a unit of
    Z_{q/p}, the regime where its decomposition is exact.

    Inclusion-exclusion over secrets whose coordinates are all zero
    divisors: with z the law of chi on the zero divisors, renormalized, and
    p0^n the chance a secret is all zero divisors,
    P(D | both have a unit) = (F(chi, chi) - p0^n F(z, chi) - p0^n F(chi, z)
    + p0^2n F(z, z)) / (1 - p0^n)^2, where F(x1, x2) folds side 1 of x1
    with side 2 of x2.
    """
    w = q // p
    zero_divisor = np.array([math.gcd(int(x), w) != 1 for x in chi.support])
    p0 = float(np.sum(chi.probs[zero_divisor]))
    f1, f2 = _lwr_sides(chi, n, w)
    if p0 == 0:
        return _lwr_fold(f1, f2, q, w)
    z1, z2 = _lwr_sides(Pmf(chi.offset, np.where(zero_divisor, chi.probs, 0.0) / p0), n, w)
    p0n = p0**n
    terms = [(f1, f2, 1.0), (z1, f2, -p0n), (f1, z2, -p0n), (z1, z2, p0n**2)]
    return sum(wt * _lwr_fold(s1, s2, q, w) for s1, s2, wt in terms) / (1.0 - p0n) ** 2


def product_pmf_rows(px: Pmf, py: Pmf, scale: float = 1.0) -> Pmf:
    """`kcn.analysis.pmf.product_pmf` as it was before its rows shared
    buffers: each row builds its bin indices and weights in fresh arrays.
    `product_pmf` must match it bit for bit."""
    _check_mass(px), _check_mass(py)
    ka, kb = px.support, py.support
    corners = np.multiply.outer([ka[0], ka[-1]], [kb[0], kb[-1]]) * scale
    lo = int(np.floor(corners.min() + 0.5))
    hi = int(np.floor(corners.max() + 0.5))
    out = np.zeros(hi - lo + 1)
    for i in range(len(ka)):
        idx = np.floor(ka[i] * kb * scale + 0.5).astype(np.int64) - lo
        np.add.at(out, idx, px.probs[i] * py.probs)
    return Pmf(lo, out, px.dropped + py.dropped)
