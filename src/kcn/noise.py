"""Discrete noise laws and closeness measures.

A noise law is one value carrying its name, its variance, its exact PMF,
its sampler and its support bound, the largest |x| a draw can take; every
suite holds one, and the same law drives both the exchange and the
analysis.  The laws are the exact sampling tables
(`TABLES`), NewHope's centered binomial `PSI16`, the bit-counting B^{a,b}
(`bab`) and the rounded Gaussian (`gauss`).  A sampling table is a law as
it stands: a draw takes `bits` random bits and looks up the value they
index, so the sampled distribution equals the table counts exactly.  The
rounded Gaussian reference PMF and the Renyi divergence justify the table
approximations.  Every sampler returns int64 draws of shape `size`, a
numpy scalar when size is None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "Law",
    "NoiseTable",
    "Pmf",
    "TABLES",
    "PSI16",
    "bab",
    "gauss",
    "sample_table",
    "sample_centered_binomial",
    "sample_bab",
    "rounded_gaussian_pmf",
    "renyi_divergence",
    "uniform_pmf",
    "table_from_pmf",
]


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over a contiguous integer support.

    `probs[i]` is the probability of `offset + i`.  Total mass is within
    2^-40 of 1 by construction.  `dropped` bounds the mass that trimming and
    truncation removed on the way here, so an event's true probability lies
    in [P, P + dropped].
    """

    offset: int
    probs: np.ndarray
    dropped: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=np.float64))

    @property
    def support(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + len(self.probs))

    @property
    def mass(self) -> float:
        return float(np.sum(self.probs))

    def p(self, x: int) -> float:
        i = x - self.offset
        return float(self.probs[i]) if 0 <= i < len(self.probs) else 0.0

    def mean(self) -> float:
        return float(np.dot(self.support, self.probs))

    def variance(self) -> float:
        mu = self.mean()
        return float(np.dot((self.support - mu) ** 2, self.probs))


@dataclass(frozen=True)
class NoiseTable:
    """Symmetric sampling table: counts out of 2^bits for values 0, ±1, ...;
    draw r in [0, 2^bits) yields `_draws[r]`."""

    name: str
    bits: int
    counts: tuple  # counts[k] is the count of +/-k (0 listed once)
    variance: float = 0.0

    def __post_init__(self):
        total = self.counts[0] + 2 * sum(self.counts[1:])
        if total != 1 << self.bits:
            raise ValueError(f"{self.name}: counts sum to {total}, not 2^{self.bits}")

    @property
    def support_bound(self) -> int:
        return len(self.counts) - 1

    @cached_property
    def _draws(self) -> np.ndarray:
        """Each value from -kmax up, repeated its count times; built on first use."""
        kmax = self.support_bound
        values = np.arange(-kmax, kmax + 1, dtype=np.int64)
        return np.repeat(values, [self.counts[abs(v)] for v in values])

    def pmf(self) -> Pmf:
        kmax = self.support_bound
        cnt = np.array([self.counts[abs(v)] for v in range(-kmax, kmax + 1)], dtype=np.float64)
        return Pmf(-kmax, cnt / (1 << self.bits))

    def sample(self, rng, size):
        return sample_table(self, rng, size)


# Table entries: counts of 0, +/-1, +/-2, ... out of 2^bits.
TABLES = {
    t.name: t
    for t in [
        NoiseTable("D_R", 16, (19572, 14792, 6383, 1570, 220, 17), 1.70),
        NoiseTable("D_P", 16, (21456, 15326, 5580, 1033, 97, 4), 1.40),
        NoiseTable("D1", 8, (94, 62, 17, 2), 1.10),
        NoiseTable("D2", 12, (1646, 992, 216, 17), 0.90),
        NoiseTable("D3", 12, (1238, 929, 393, 94, 12, 1), 1.66),
        NoiseTable("D4", 16, (19794, 14865, 6292, 1499, 200, 15), 1.66),
        NoiseTable("D5", 16, (22218, 15490, 5242, 858, 67, 2), 1.30),
        NoiseTable("DB1", 8, (88, 61, 20, 3), 1.25),
        NoiseTable("DB2", 12, (1570, 990, 248, 24, 1), 1.00),
        NoiseTable("DB3", 12, (1206, 919, 406, 104, 15, 1), 1.75),
        NoiseTable("DB4", 16, (19304, 14700, 6490, 1659, 245, 21, 1), 1.75),
    ]
}


def sample_table(table: NoiseTable, rng, size=None):
    """Draw from the table: `bits` random bits index its draw map."""
    return table._draws[rng.integers(0, 1 << table.bits, size=size, dtype=np.int64)]


def sample_centered_binomial(rng, size=None):
    """Psi_16: sum of 16 centered binomial terms, 32 bits per draw, variance 8.

    A draw is popcount(low 16 bits) - popcount(high 16 bits) of one 32-bit
    word r, counted in one pass as popcount(r ^ 0xFFFF0000) - 16, since
    flipping the high half counts its zeros, 16 - popcount(high)."""
    r = rng.integers(0, 1 << 32, size=size, dtype=np.uint64)
    return np.bitwise_count(r ^ np.uint64(0xFFFF0000)).astype(np.int64) - 16


def sample_bab(a: int, b: int, rng, size=None):
    """B^{a,b}: sum of a bits plus twice b bits, centered; variance a/4 + b."""
    if a % 2:
        raise ValueError("a must be even")
    if a + b > 63:
        raise ValueError("a + b must fit one 64-bit draw")
    r = rng.integers(0, 1 << (a + b), size=size, dtype=np.uint64)
    ones = np.bitwise_count(r & np.uint64((1 << a) - 1)).astype(np.int64)
    twos = np.bitwise_count(r >> np.uint64(a)).astype(np.int64)
    return ones + 2 * twos - (a // 2 + b)


class Law(NamedTuple):
    """A noise law: `pmf()` gives its exact `Pmf`, `sample(rng, size)`
    draws from it as int64, and `support_bound` is the largest |x| a draw
    can take (from `bound()`, which a law may build on first use).  Each
    sampler looks its `kcn.noise` function up when called, so a wrapper
    installed on this module reaches every suite.  A law compares its
    callables by identity: `bab(24, 16) != bab(24, 16)`.
    """

    name: str
    variance: float
    pmf: Callable[[], Pmf]
    sample: Callable[..., np.ndarray]  # (rng, size) -> draws
    bound: Callable[[], int]

    @property
    def support_bound(self) -> int:
        return self.bound()


def bab(a: int, b: int) -> Law:
    """B^{a,b}: a bits plus twice b bits, centered, all from one 64-bit draw."""
    if a < 0 or b < 0 or a % 2 or a + b > 63:
        raise ValueError(f"B^({a},{b}) needs a >= 0 even, b >= 0 and a + b <= 63")

    def pmf() -> Pmf:
        # exact, via convolution of the bit contributions
        pa = np.array([math.comb(a, k) for k in range(a + 1)], dtype=np.float64) / 2.0**a
        pb = np.zeros(2 * b + 1)
        pb[::2] = np.array([math.comb(b, k) for k in range(b + 1)], dtype=np.float64) / 2.0**b
        return Pmf(-(a // 2 + b), np.convolve(pa, pb))

    return Law(f"B^({a},{b})", a / 4 + b, pmf, lambda rng, size: sample_bab(a, b, rng, size),
               lambda: a // 2 + b)


# Psi_16 is B^(32,0) in law; its sampler draws other values from the same bits
PSI16 = Law("Psi16", 8.0, bab(32, 0).pmf, lambda rng, size: sample_centered_binomial(rng, size),
            lambda: 16)


def gauss(var: float) -> Law:
    """Rounded Gaussian of variance `var` (before rounding), sampled through
    a 16-bit table built from its PMF on first use.  The table's support,
    and so the law's bound, stops where the quantized counts reach zero,
    short of the PMF's: +-6 against +-12 nonzero masses for var = 2."""
    if not var > 0:
        raise ValueError(f"gauss needs var > 0, got {var}")
    return Law(f"gauss(var={var})", var, lambda: rounded_gaussian_pmf(math.sqrt(var)),
               lambda rng, size: sample_table(_gauss_table(var), rng, size),
               lambda: _gauss_table(var).support_bound)


@lru_cache(maxsize=None)
def _gauss_table(var: float) -> NoiseTable:
    pmf = rounded_gaussian_pmf(math.sqrt(var))
    return table_from_pmf(pmf, 16, f"gauss{var}")


def rounded_gaussian_pmf(sigma: float) -> Pmf:
    """Rounded Gaussian: mass of N(0, sigma^2) falling nearest to each integer.

    P(x) = Phi((x+1/2)/sigma) - Phi((x-1/2)/sigma), renormalized over
    [-cutoff, cutoff] with cutoff = ceil(12 sigma), far past any mass
    measured against it.  This is the reference the shipped tables
    approximate (their variance exceeds sigma^2 by the rounding term 1/12).
    """
    if sigma <= 0:
        raise ValueError("sigma > 0")
    cutoff = math.ceil(12 * sigma)  # at least 1, as sigma > 0
    edges = (np.arange(-cutoff, cutoff + 2, dtype=np.float64) - 0.5) / (sigma * math.sqrt(2))
    cdf = 0.5 * (1.0 + np.array([math.erf(z) for z in edges]))
    w = np.diff(cdf)
    return Pmf(-cutoff, w / np.sum(w))


def renyi_divergence(p: Pmf, q: Pmf, a: float) -> float:
    """R_a(P || Q) = (sum P(x)^a / Q(x)^(a-1))^(1/(a-1)), log-domain."""
    if a <= 1:
        raise ValueError("order a > 1")
    terms = []
    for x, px in zip(p.support, p.probs):
        if px == 0:
            continue
        qx = q.p(int(x))
        if qx == 0:
            raise ValueError(f"support violation: P({x}) > 0 but Q({x}) = 0")
        terms.append(a * math.log(px) - (a - 1) * math.log(qx))
    m = max(terms)
    lse = m + math.log(sum(math.exp(t - m) for t in terms))
    return math.exp(lse / (a - 1))


def uniform_pmf(lo: int, hi: int) -> Pmf:
    """Uniform over the integer range [lo, hi]."""
    n = hi - lo + 1
    return Pmf(lo, np.full(n, 1.0 / n))


def table_from_pmf(pmf: Pmf, bits: int, name: str) -> NoiseTable:
    """Quantize a symmetric PMF into an exact 2^bits sampling table."""
    kmax = max(abs(int(pmf.support[0])), abs(int(pmf.support[-1])))
    probs = np.array([pmf.p(k) for k in range(kmax + 1)])  # per-sign masses
    total = 1 << bits
    raw = probs * total
    counts = np.floor(raw).astype(np.int64)
    shortfall = total - (counts[0] + 2 * int(np.sum(counts[1:])))
    frac = raw - counts
    order = np.argsort(-frac)
    i = 0
    while shortfall > 0:
        k = int(order[i % len(order)])
        step = 1 if k == 0 else 2
        if step <= shortfall:
            counts[k] += 1
            shortfall -= step
        i += 1
    while (counts[-1] == 0) and len(counts) > 1:
        counts = counts[:-1]
    return NoiseTable(name, bits, tuple(int(c) for c in counts), pmf.variance())
