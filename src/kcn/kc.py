"""Scalar key-consensus (KC) and asymmetric key-consensus (AKC) schemes.

Two parties holding close values sigma1, sigma2 in Z_q agree on a value in
Z_m with the help of a public hint in Z_g.  Six variants are provided: the
generic OKCN and AKCN schemes (in AKCN the key is chosen rather than
produced), their power-of-two forms, and the reconciliation used by Frodo
as a comparison baseline.

`_SCHEMES` has one entry per variant: its correctness condition, Con and
Rec.  The six reduce to four formulas: generic OKCN, generic AKCN, Frodo,
and the OKCN_SIMPLE Rec, which rounds half a cell apart.  Generic OKCN
draws its noise e from [-floor((alpha-1)/2), floor(alpha/2)], alpha =
lcm(q, m)/q.  Every other condition implies m | q, so alpha = 1 and e = 0,
and the power-of-two forms are the generic formulas with beta = q/m.

All arithmetic is integer arithmetic in int64 (round-half-up as
floor((2a+b)/(2b))), so every function here accepts Python ints or numpy
integer arrays alike and is exact for q up to 2^20.  Con and Rec return
int64 numpy values shaped like sigma, whatever the input: a scalar sigma
gives numpy scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "KcVariant",
    "KcParams",
    "Violation",
    "dist_mod",
    "div_round",
    "validate_params",
    "kc_con",
    "kc_rec",
    "akc_con",
    "akc_rec",
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
        return _SCHEMES[self].akc


def dist_mod(x, t):
    """Cyclic distance |x|_t = min(x mod t, t - x mod t), mod results in [0, t-1]."""
    if (np.asarray(t) < 1).any():
        raise ValueError("modulus t must be >= 1")
    r = x % t
    return np.minimum(r, t - r)


def div_round(a, b):
    """Round-half-up division: floor(a/b + 1/2) for b > 0, exact in integers."""
    return (2 * a + b) // (2 * b)


def _pow2(*xs: int) -> bool:
    return all(x >= 1 and (x & (x - 1)) == 0 for x in xs)


@dataclass(frozen=True)
class KcParams:
    """Parameters (q, m, g, d) of one consensus instance.

    Derived values: qp = lcm(q, m), alpha = qp/q and beta = qp/m for the
    OKCN formulas; G = q/m (`big_g`) is Frodo's period and only makes sense
    when Frodo's validation passes.
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
    def big_g(self) -> int:
        return self.q // self.m


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
    first failed inequality.  The generic KC/AKC efficiency upper bounds
    2md <= q(1-1/g) and 2md <= q(1-m/g) are implied by every condition in
    `_SCHEMES`.
    """
    for holds, condition, detail in _SCHEMES[variant].conditions:
        if not holds(p.q, p.m, p.g, p.d):
            return Violation(condition, detail.format(q=p.q, m=p.m, g=p.g, d=p.d))
    return True


def _check_range(x, bound, what: str):
    x = np.asarray(x)
    if x.size and (x.min() < 0 or x.max() >= bound):
        raise ValueError(f"{what} out of range [0, {bound})")


def _scheme(variant: KcVariant, akc: bool, op: str) -> _Scheme:
    if _SCHEMES[variant].akc != akc:
        family = "akc" if _SCHEMES[variant].akc else "kc"
        raise ValueError(f"{variant.value} takes {family}_{op}")
    return _SCHEMES[variant]


def _e_range(p: KcParams) -> tuple[int, int]:  # half-open; just {0} when alpha = 1
    return -((p.alpha - 1) // 2), p.alpha // 2 + 1


def kc_con(variant: KcVariant, sigma1, params: KcParams, rng=None):
    """Con of a KC-family variant: the pair (key in Z_m, hint in Z_g) from
    sigma1 in Z_q.

    When m does not divide q (only generic OKCN accepts that) the smoothing
    noise e is drawn uniformly from `_e_range` using `rng`; otherwise e = 0
    and nothing is drawn.  Accepts scalars or arrays.
    """
    con = _scheme(variant, False, "con").con
    _check_range(sigma1, params.q, "sigma1")
    e = 0
    if params.alpha > 1:
        if rng is None:
            raise ValueError("Con needs a randomness source when m does not divide q")
        e = rng.integers(*_e_range(params), size=np.shape(sigma1) or None)
    return con(np.asarray(sigma1, dtype=np.int64), e, params)


def kc_rec(variant: KcVariant, sigma2, v, params: KcParams):
    """Rec of a KC-family variant: recover the key from sigma2 and the hint v."""
    return _rec(_scheme(variant, False, "rec"), sigma2, v, params)


def akc_con(variant: KcVariant, sigma1, k1, params: KcParams):
    """Con of an AKC-family variant: hint in Z_g transporting the chosen key k1."""
    con = _scheme(variant, True, "con").con
    _check_range(sigma1, params.q, "sigma1")
    _check_range(k1, params.m, "k1")
    return con(np.asarray(sigma1, dtype=np.int64), np.asarray(k1, dtype=np.int64), params)


def akc_rec(variant: KcVariant, sigma2, v, params: KcParams):
    """Rec of an AKC-family variant: recover the transported key from (sigma2, v)."""
    return _rec(_scheme(variant, True, "rec"), sigma2, v, params)


def _rec(scheme: _Scheme, sigma2, v, params: KcParams):
    _check_range(sigma2, params.q, "sigma2")
    _check_range(v, params.g, "v")
    return scheme.rec(np.asarray(sigma2, dtype=np.int64), np.asarray(v, dtype=np.int64), params)


# The formulas, on int64 arrays (0-d for scalars): a KC Con maps (sigma1, e)
# to (k1, v), an AKC Con (sigma1, k1) to v, and a Rec (sigma2, v) to the key.

def _okcn_con(sigma1, e, p: KcParams):
    beta = p.beta
    sigma_a = (p.alpha * sigma1 + e) % p.qp
    return sigma_a // beta, (sigma_a % beta) * p.g // beta


def _okcn_rec(sigma2, v, p: KcParams):
    return div_round(2 * p.g * p.alpha * sigma2 - p.beta * (2 * v + 1), 2 * p.beta * p.g) % p.m


def _okcn_simple_rec(sigma2, v, p: KcParams):
    return div_round(sigma2 - v, p.g) % p.m


def _frodo_con(sigma1, e, p: KcParams):  # e = 0: Frodo's condition implies m | q
    return div_round(sigma1, p.big_g) % p.m, (sigma1 // (p.big_g // 2)) % 2


def _frodo_rec(sigma2, v, p: KcParams):
    # Round the nearest x to sigma2 with floor(x / half) mod 2 = v; a gap midpoint goes down.
    period, half = p.big_g, p.big_g // 2
    return ((sigma2 - v * half + period - 1 - (period + half - 1) // 2) // period + v) % p.m


def _akcn_con(sigma1, k1, p: KcParams):
    return div_round(p.g * (sigma1 + div_round(k1 * p.q, p.m)), p.q) % p.g


def _akcn_rec(sigma2, v, p: KcParams):
    return div_round(p.m * (v * p.q - p.g * sigma2), p.g * p.q) % p.m


class _Scheme(NamedTuple):
    akc: bool  # the responder chooses the key
    # (test on q, m, g, d; inequality; detail template), checked in order
    conditions: tuple[tuple[Callable[..., bool], str, str], ...]
    con: Callable
    rec: Callable


_2MD_LT_Q = (lambda q, m, g, d: 2 * m * d < q, "2md < q", "2*{m}*{d} >= {q}")

_SCHEMES = {
    KcVariant.OKCN_GENERIC: _Scheme(False, (
        (lambda q, m, g, d: (2 * d + 1) * m * g < q * (g - 1),
         "(2d+1)m < q(1-1/g)", "(2*{d}+1)*{m} >= {q}*(1-1/{g})"),
    ), _okcn_con, _okcn_rec),
    KcVariant.OKCN_POWER2: _Scheme(False, (
        (lambda q, m, g, d: _pow2(q, m, g), "q, m, g powers of two", "q={q} m={m} g={g}"),
        (lambda q, m, g, d: m * g <= q, "mg <= q", "{m}*{g} > {q}"),
        (lambda q, m, g, d: 2 * m * d * g < q * (g - 1),
         "2md < q(1-1/g)", "2*{m}*{d} >= {q}*(1-1/{g})"),
    ), _okcn_con, _okcn_rec),
    KcVariant.OKCN_SIMPLE: _Scheme(False, (
        (lambda q, m, g, d: _pow2(m, g) and q == m * g,
         "q = m*g powers of two", "q={q} m={m} g={g}"),
        _2MD_LT_Q,
    ), _okcn_con, _okcn_simple_rec),
    KcVariant.AKCN_GENERIC: _Scheme(True, (
        (lambda q, m, g, d: (2 * d + 1) * m * g < q * (g - m),
         "(2d+1)m < q(1-m/g)", "(2*{d}+1)*{m} >= {q}*(1-{m}/{g})"),
    ), _akcn_con, _akcn_rec),
    KcVariant.AKCN_POWER2: _Scheme(True, (
        (lambda q, m, g, d: _pow2(q, m) and q == g and m <= q,
         "q = g, powers of two", "q={q} m={m} g={g}"),
        _2MD_LT_Q,
    ), _akcn_con, _akcn_rec),
    KcVariant.FRODO: _Scheme(False, (
        (lambda q, m, g, d: _pow2(q, m) and g == 2 and m * 4 <= q,
         "q, m powers of two, g = 2", "q={q} m={m} g={g}"),
        (lambda q, m, g, d: 4 * m * d < q, "4md < q", "4*{m}*{d} >= {q}"),
    ), _frodo_con, _frodo_rec),
}
