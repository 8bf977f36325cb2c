"""Scalar key-consensus (KC) and asymmetric key-consensus (AKC) schemes.

Two parties holding close values sigma1, sigma2 in Z_q agree on a value in
Z_m with the help of a public hint in Z_g.  Six variants are provided: the
generic OKCN scheme with sampled noise, its two power-of-two
simplifications, the generic and power-of-two AKCN schemes (where the key
is chosen rather than produced), and the reconciliation used by Frodo as a
comparison baseline.

All arithmetic is plain integer arithmetic (round-half-up implemented as
floor((2a+b)/(2b))), so every function here accepts either Python ints or
numpy integer arrays and is exact either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "KcVariant",
    "KcParams",
    "ConOutput",
    "Violation",
    "dist_mod",
    "div_round",
    "validate_params",
    "kc_con",
    "kc_rec",
    "akc_con",
    "akc_rec",
    "con_grid",
    "akc_hint_counts",
    "rec_table",
]


class KcVariant(str, Enum):
    OKCN_GENERIC = "okcn-generic"
    OKCN_POWER2 = "okcn-power2"
    OKCN_SIMPLE = "okcn-simple"
    AKCN_GENERIC = "akcn-generic"
    AKCN_POWER2 = "akcn-power2"
    FRODO = "frodo"

    @property
    def is_akc(self) -> bool:
        return self in (KcVariant.AKCN_GENERIC, KcVariant.AKCN_POWER2)


def dist_mod(x, t):
    """Cyclic distance |x|_t = min(x mod t, t - x mod t), mod results in [0, t-1]."""
    if np.any(np.asarray(t) < 1):
        raise ValueError("modulus t must be >= 1")
    r = x % t
    return np.minimum(r, t - r) if isinstance(r, np.ndarray) else min(r, t - r)


def div_round(a, b):
    """Round-half-up division: floor(a/b + 1/2) for b > 0, exact in integers."""
    return (2 * a + b) // (2 * b)


def _is_pow2(x: int) -> bool:
    return x >= 1 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class KcParams:
    """Parameters (q, m, g, d) of one consensus instance.

    Derived values for the generic scheme: qp = lcm(q, m), alpha = qp/q,
    beta = qp/m.  The power-of-two variants use beta = q/m, gamma = beta/g
    and G = q/m instead; those are exposed as properties and only make
    sense when the corresponding variant's validation passes.
    """

    q: int
    m: int
    g: int
    d: int

    def __post_init__(self):
        if not (2 <= self.m <= self.q and 2 <= self.g <= self.q):
            raise ValueError("require 2 <= m, g <= q")
        if not (0 <= self.d <= self.q // 2):
            raise ValueError("require 0 <= d <= floor(q/2)")

    @property
    def qp(self) -> int:
        return math.lcm(self.q, self.m)

    @property
    def alpha(self) -> int:
        return self.qp // self.q

    @property
    def beta(self) -> int:
        return self.qp // self.m

    @property
    def gamma(self) -> int:
        return self.q // self.m // self.g

    @property
    def big_g(self) -> int:
        return self.q // self.m


@dataclass(frozen=True)
class ConOutput:
    k1: int
    v: int


@dataclass(frozen=True)
class Violation:
    """A failed correctness condition, named by its inequality."""

    condition: str
    detail: str

    def __bool__(self) -> bool:  # a violation is falsy as an "ok" flag
        return False


def validate_params(variant: KcVariant, p: KcParams):
    """Check the variant's correctness condition on (q, m, g, d).

    Returns True when the condition holds, otherwise a Violation naming the
    failed inequality.  The generic KC/AKC efficiency upper bounds
    2md <= q(1-1/g) and 2md <= q(1-m/g) are implied by every condition
    below; saturation of those bounds is diagnostic only and can be read
    off with `bound_slack`.
    """
    q, m, g, d = p.q, p.m, p.g, p.d
    if variant is KcVariant.OKCN_GENERIC:
        if not (2 * d + 1) * m * g < q * (g - 1):
            return Violation("(2d+1)m < q(1-1/g)", f"(2*{d}+1)*{m} >= {q}*(1-1/{g})")
    elif variant is KcVariant.OKCN_POWER2:
        if not (_is_pow2(q) and _is_pow2(m) and _is_pow2(g)):
            return Violation("q, m, g powers of two", f"q={q} m={m} g={g}")
        if m * g > q:
            return Violation("mg <= q", f"{m}*{g} > {q}")
        if not 2 * m * d * g < q * (g - 1):
            return Violation("2md < q(1-1/g)", f"2*{m}*{d} >= {q}*(1-1/{g})")
    elif variant is KcVariant.OKCN_SIMPLE:
        if not (_is_pow2(m) and _is_pow2(g) and q == m * g):
            return Violation("q = m*g powers of two", f"q={q} m={m} g={g}")
        if not 2 * m * d < q:
            return Violation("2md < q", f"2*{m}*{d} >= {q}")
    elif variant is KcVariant.AKCN_GENERIC:
        if not (2 * d + 1) * m * g < q * (g - m):
            return Violation("(2d+1)m < q(1-m/g)", f"(2*{d}+1)*{m} >= {q}*(1-{m}/{g})")
    elif variant is KcVariant.AKCN_POWER2:
        if not (_is_pow2(q) and _is_pow2(m) and q == g and m <= q):
            return Violation("q = g, powers of two", f"q={q} m={m} g={g}")
        if not 2 * m * d < q:
            return Violation("2md < q", f"2*{m}*{d} >= {q}")
    elif variant is KcVariant.FRODO:
        if not (_is_pow2(q) and _is_pow2(m) and g == 2 and m * 4 <= q):
            return Violation("q, m powers of two, g = 2", f"q={q} m={m} g={g}")
        if not 4 * m * d < q:
            return Violation("4md < q", f"4*{m}*{d} >= {q}")
    else:  # pragma: no cover
        raise ValueError(f"unknown variant {variant}")
    return True


def bound_slack(variant: KcVariant, p: KcParams) -> int:
    """Slack q(1-1/g) - 2md (KC) or q(1-m/g) - 2md (AKC), scaled by g.

    Zero means the efficiency upper bound is exactly saturated.
    """
    if variant.is_akc:
        return p.q * (p.g - p.m) - 2 * p.m * p.d * p.g
    return p.q * (p.g - 1) - 2 * p.m * p.d * p.g


def _check_range(x, bound, what: str):
    if np.any(np.asarray(x) < 0) or np.any(np.asarray(x) >= bound):
        raise ValueError(f"{what} out of range [0, {bound})")


def kc_con(variant: KcVariant, sigma1, params: KcParams, rng=None):
    """Con of a KC-family variant: (key in Z_m, hint in Z_g) from sigma1 in Z_q.

    The generic variant draws its smoothing noise e uniformly from
    [-floor((alpha-1)/2), floor(alpha/2)] using `rng`; the power-of-two
    variants and Frodo are deterministic.  Accepts scalars or arrays.
    """
    if variant.is_akc:
        raise ValueError("akc_con takes a chosen key; use it for AKC variants")
    q, m, g = params.q, params.m, params.g
    _check_range(sigma1, q, "sigma1")
    if variant is KcVariant.OKCN_GENERIC:
        alpha, beta, qp = params.alpha, params.beta, params.qp
        lo, hi = -((alpha - 1) // 2), alpha // 2
        if alpha == 1:
            e = np.zeros(np.shape(sigma1), dtype=np.int64) if np.ndim(sigma1) else 0
        else:
            if rng is None:
                raise ValueError("generic OKCN needs a randomness source")
            e = rng.integers(lo, hi + 1, size=np.shape(sigma1) or None)
        sigma_a = (alpha * np.asarray(sigma1, dtype=np.int64) + e) % qp if np.ndim(sigma1) \
            else (alpha * sigma1 + int(e)) % qp
        k1 = sigma_a // beta
        vp = sigma_a % beta
        v = vp * g // beta
    elif variant is KcVariant.OKCN_POWER2:
        beta, gamma = params.beta, params.gamma
        k1 = sigma1 // beta
        v = (sigma1 % beta) // gamma
    elif variant is KcVariant.OKCN_SIMPLE:
        k1 = sigma1 // g
        v = sigma1 % g
    elif variant is KcVariant.FRODO:
        half = params.big_g // 2  # 2^(Bbar-1)
        v = (sigma1 // half) % 2
        k1 = div_round(sigma1, params.big_g) % m
    else:  # pragma: no cover
        raise ValueError(f"unknown variant {variant}")
    if np.ndim(sigma1):
        return k1, v
    return ConOutput(int(k1), int(v))


def kc_rec(variant: KcVariant, sigma2, v, params: KcParams):
    """Rec of a KC-family variant: recover the key from sigma2 and the hint v."""
    if variant.is_akc:
        raise ValueError("use akc_rec for AKC variants")
    q, m, g = params.q, params.m, params.g
    _check_range(sigma2, q, "sigma2")
    _check_range(v, g, "v")
    if variant in (KcVariant.OKCN_GENERIC, KcVariant.OKCN_POWER2):  # power2: m | q, so alpha = 1
        alpha, beta = params.alpha, params.beta
        k2 = div_round(2 * g * alpha * np.asarray(sigma2, dtype=np.int64) - beta * (2 * np.asarray(v, dtype=np.int64) + 1),
                       2 * beta * g) % m
    elif variant is KcVariant.OKCN_SIMPLE:
        k2 = div_round(np.asarray(sigma2, dtype=np.int64) - v, g) % m
    elif variant is KcVariant.FRODO:
        k2 = _frodo_rec(sigma2, v, params)
    else:  # pragma: no cover
        raise ValueError(f"unknown variant {variant}")
    return k2 if np.ndim(sigma2) else int(k2)


def _frodo_rec(sigma2, v, params: KcParams):
    # Nearest x to sigma2 with floor(x / 2^(Bbar-1)) mod 2 = v, then round.
    period = params.big_g  # 2^Bbar
    half = period // 2
    sigma2 = np.asarray(sigma2, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    r = sigma2 % period
    lo = v * half
    inside = (r >= lo) & (r < lo + half)
    up = np.where(r < lo, lo - r, lo + 2 * half - r)
    down = np.where(r < lo, r - lo + half + 1, r - (lo + half - 1))
    x = np.where(inside, sigma2, np.where(up < down, sigma2 + up, sigma2 - down))
    return div_round(x, period) % params.m


def akc_con(variant: KcVariant, sigma1, k1, params: KcParams):
    """Con of an AKC-family variant: hint in Z_g transporting the chosen key k1."""
    if not variant.is_akc:
        raise ValueError("use kc_con for KC variants")
    q, m, g = params.q, params.m, params.g
    _check_range(sigma1, q, "sigma1")
    _check_range(k1, m, "k1")
    sigma1 = np.asarray(sigma1, dtype=np.int64) if np.ndim(sigma1) else sigma1
    if variant is KcVariant.AKCN_GENERIC:
        v = div_round(g * (sigma1 + div_round(np.asarray(k1, dtype=np.int64) * q, m)), q) % g
    else:  # AKCN_POWER2
        v = (sigma1 + np.asarray(k1, dtype=np.int64) * params.big_g) % q
    return v if np.ndim(v) else int(v)


def akc_rec(variant: KcVariant, sigma2, v, params: KcParams):
    """Rec of an AKC-family variant: recover the transported key from (sigma2, v)."""
    if not variant.is_akc:
        raise ValueError("use kc_rec for KC variants")
    q, m, g = params.q, params.m, params.g
    _check_range(sigma2, q, "sigma2")
    _check_range(v, g, "v")
    sigma2 = np.asarray(sigma2, dtype=np.int64) if np.ndim(sigma2) else sigma2
    if variant is KcVariant.AKCN_GENERIC:
        k2 = div_round(m * (np.asarray(v, dtype=np.int64) * q - g * sigma2), g * q) % m
    else:  # AKCN_POWER2
        k2 = div_round(np.asarray(v, dtype=np.int64) - sigma2, params.big_g) % m
    return k2 if np.ndim(k2) else int(k2)


# ---------------------------------------------------------------------------
# Exhaustive enumeration helpers.  These walk every (sigma1, randomness) pair
# of a variant with vectorized arithmetic; the exhaustive correctness and
# security tests are built on them.

def con_grid(variant: KcVariant, params: KcParams):
    """All Con evaluations of a KC-family variant.

    Returns (sigma1, k1, v) as flat int64 arrays covering every sigma1 in Z_q
    and, for the generic variant, every admissible noise value e.
    """
    q = params.q
    sigma1 = np.arange(q, dtype=np.int64)
    if variant is KcVariant.OKCN_GENERIC:
        alpha, beta, qp = params.alpha, params.beta, params.qp
        e = np.arange(-((alpha - 1) // 2), alpha // 2 + 1, dtype=np.int64)
        sigma_a = (alpha * sigma1[:, None] + e[None, :]) % qp
        k1 = sigma_a // beta
        vp = sigma_a % beta
        v = vp * params.g // beta
        return (np.repeat(sigma1, alpha), k1.ravel(), v.ravel())
    k1, v = kc_con(variant, sigma1, params)
    return sigma1, np.asarray(k1), np.asarray(v)


def akc_hint_counts(variant: KcVariant, params: KcParams) -> np.ndarray:
    """Exact counts #{sigma1 : Con(sigma1, k1) = v} as an (m, g) array."""
    q, m, g = params.q, params.m, params.g
    sigma1 = np.arange(q, dtype=np.int64)
    counts = np.zeros((m, g), dtype=np.int64)
    for k in range(m):
        v = akc_con(variant, sigma1, np.full(q, k, dtype=np.int64), params)
        counts[k] = np.bincount(v, minlength=g)
    return counts


def rec_table(variant: KcVariant, params: KcParams) -> np.ndarray:
    """Rec evaluated on all (sigma2, v), as a (q, g) array of keys."""
    q, g = params.q, params.g
    sigma2 = np.repeat(np.arange(q, dtype=np.int64), g)
    v = np.tile(np.arange(g, dtype=np.int64), q)
    rec = akc_rec if variant.is_akc else kc_rec
    return np.asarray(rec(variant, sigma2, v, params)).reshape(q, g)
