"""Named protocol parameter sets.

Every suite binds dimensions, moduli, the consensus variant and its
(q, m, g, d), the noise sampler, and (for the ring protocols) the
error-handling code mode.  The distance parameter d is always the largest
value passing the variant's correctness condition, which is how the
parameter tables were built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

from kcn import noise as noise_mod
from kcn.kc import KcParams, KcVariant, validate_params
from kcn.protocols import MODES

__all__ = ["NoiseSpec", "Suite", "SUITES", "get_suite", "suite_names"]


@dataclass(frozen=True)
class NoiseSpec:
    kind: str  # a key of _NOISE_KINDS
    name: str = ""
    a: int = 0
    b: int = 0
    var: float = 0.0

    def __post_init__(self):
        if self.kind not in _NOISE_KINDS:
            known = ", ".join(_NOISE_KINDS)
            raise ValueError(f"unknown noise kind {self.kind!r}; known kinds: {known}")
        if self.kind == "table" and self.name not in noise_mod.TABLES:
            known = ", ".join(noise_mod.TABLES)
            raise ValueError(f"unknown noise table {self.name!r}; known tables: {known}")

    def pmf(self) -> noise_mod.Pmf:
        return _NOISE_KINDS[self.kind].pmf(self)

    def variance(self) -> float:
        return _NOISE_KINDS[self.kind].variance(self)

    def sample(self, rng, size):
        return _NOISE_KINDS[self.kind].sample(self, rng, size)

    def describe(self) -> str:
        return _NOISE_KINDS[self.kind].describe.format_map(vars(self))


class _NoiseKind(NamedTuple):
    pmf: Callable[[NoiseSpec], noise_mod.Pmf]
    variance: Callable[[NoiseSpec], float]
    sample: Callable[..., object]  # (spec, rng, size) -> draws
    describe: str  # formatted with the spec's fields


# One entry per noise kind.  Each sampler is looked up in `kcn.noise` when
# called, so replacing it there (as perfbench/tracer.py does) reaches every
# suite.
_NOISE_KINDS = {
    "table": _NoiseKind(lambda s: noise_mod.TABLES[s.name].pmf(), lambda s: noise_mod.TABLES[s.name].variance,
                        lambda s, rng, n: noise_mod.sample_table(noise_mod.TABLES[s.name], rng, n),
                        "{name}"),
    "psi16": _NoiseKind(lambda s: noise_mod.psi16_pmf(), lambda s: 8.0,
                        lambda s, rng, n: noise_mod.sample_centered_binomial(rng, n), "Psi16"),
    "bab": _NoiseKind(lambda s: noise_mod.bab_pmf(s.a, s.b), lambda s: s.a / 4 + s.b,
                      lambda s, rng, n: noise_mod.sample_bab(s.a, s.b, rng, n), "B^({a},{b})"),
    "gauss": _NoiseKind(lambda s: noise_mod.rounded_gaussian_pmf(math.sqrt(s.var)), lambda s: s.var,
                        lambda s, rng, n: noise_mod.sample_table(_gauss_table(s.var), rng, n),
                        "gauss(var={var})"),
    "binary": _NoiseKind(lambda s: noise_mod.uniform_pmf(0, 1), lambda s: 0.25,
                         lambda s, rng, n: rng.integers(0, 2, size=n), "U({{0,1}})"),
}


@lru_cache(maxsize=None)
def _gauss_table(var: float) -> noise_mod.NoiseTable:
    pmf = noise_mod.rounded_gaussian_pmf(math.sqrt(var))
    return noise_mod.table_from_pmf(pmf, 16, f"gauss{var}")


@dataclass(frozen=True)
class Suite:
    """A fully-resolved protocol instance."""

    name: str
    family: str  # "lwr" | "lwe" | "hybrid" | "rlwe"
    n: int  # n_A for the hybrid family
    l_a: int
    l_b: int
    q: int
    noise: NoiseSpec
    variant: KcVariant | None = None
    kc: KcParams | None = None
    n_b: int = 0  # hybrid only
    p: int = 0  # rounding modulus (lwr / hybrid)
    t: int = 0  # cut bits (lwe)
    mode: str = "plain"  # a key of kcn.protocols.MODES; the matrix families use plain
    code_g: int = 0  # hint range for the code modes
    n_h: int = 0  # SEC parity dimension

    def __post_init__(self):
        if self.kc is not None and self.variant is not None:
            ok = validate_params(self.variant, self.kc)
            if ok is not True:
                raise ValueError(f"{self.name}: invalid kc params: {ok}")

    # -- derived quantities ------------------------------------------------

    @property
    def qbits(self) -> int:
        return (self.q - 1).bit_length()

    @property
    def key_bits(self) -> int:
        key = MODES[self.mode].fields(self)[0]
        return key.count * key.bits

    def describe(self) -> dict:
        out = {
            "name": self.name,
            "family": self.family,
            "n": self.n,
            "q": self.q,
            "l": self.l_a,
            "noise": self.noise.describe(),
            "key_bits": self.key_bits,
        }
        if self.family == "hybrid":
            out["n_b"] = self.n_b
        if self.p:
            out["p"] = self.p
        if self.t:
            out["t"] = self.t
        if self.kc is not None:
            out.update(variant=self.variant.value, m=self.kc.m, g=self.kc.g, d=self.kc.d)
        if self.mode != "plain":
            out["mode"] = self.mode
        if self.code_g:
            out["g"] = self.code_g
        if self.n_h:
            out["n_h"] = self.n_h
        return out


def _t(name):
    return NoiseSpec("table", name=name)


_PSI16 = NoiseSpec("psi16")
_RLWE_Q = 12289


def _lwr(name, n, dist):
    return Suite(
        name=name, family="lwr", n=n, l_a=8, l_b=8, q=2**15, p=2**12,
        noise=_t(dist), variant=KcVariant.OKCN_SIMPLE,
        kc=KcParams(q=2**12, m=2**4, g=2**8, d=127),
    )


def _lwe(name, n, q, l, m, g, d, dist, variant=KcVariant.OKCN_SIMPLE, t=0):
    return Suite(
        name=name, family="lwe", n=n, l_a=l, l_b=l, q=q, t=t,
        noise=_t(dist), variant=variant, kc=KcParams(q=q, m=m, g=g, d=d),
    )


def _rlwe(name, variant, g, d, mode="plain", n_h=0, n=1024, noise=_PSI16, code_g=0):
    kc = None
    if variant is not None:
        kc = KcParams(q=_RLWE_Q, m=2, g=g, d=d)
    return Suite(
        name=name, family="rlwe", n=n, l_a=1, l_b=1, q=_RLWE_Q,
        noise=noise, variant=variant, kc=kc, mode=mode, n_h=n_h, code_g=code_g,
    )


SUITES = {
    s.name: s
    for s in [
        _lwr("lwr-recommended", 680, "D_R"),
        _lwr("lwr-paranoid", 832, "D_P"),
        # LWE without bit cutting (t = 0)
        _lwe("lwe-challenge", 334, 2**10, 8, 2, 2**9, 255, "D1"),
        _lwe("lwe-classical", 554, 2**11, 8, 2**2, 2**9, 255, "D2"),
        _lwe("lwe-recommended", 718, 2**14, 8, 2**4, 2**10, 511, "D3"),
        _lwe("lwe-paranoid", 818, 2**14, 8, 2**4, 2**10, 511, "D4"),
        _lwe("lwe-paranoid-512", 700, 2**12, 16, 2**2, 2**10, 511, "DB4"),
        # LWE with t least significant bits cut
        _lwe("okcn-t2", 712, 2**14, 8, 2**4, 2**8, 509, "D5", KcVariant.OKCN_POWER2, t=2),
        _lwe("okcn-t1", 712, 2**14, 8, 2**4, 2**8, 509, "D5", KcVariant.OKCN_POWER2, t=1),
        # Frodo's reconciliation on Frodo's parameters, and ours on the same
        _lwe("frodo-challenge", 352, 2**11, 8, 2, 2, 255, "DB1", KcVariant.FRODO),
        _lwe("frodo-classical", 592, 2**12, 8, 2**2, 2, 255, "DB2", KcVariant.FRODO),
        _lwe("frodo-recommended", 752, 2**15, 8, 2**4, 2, 511, "DB3", KcVariant.FRODO),
        _lwe("frodo-paranoid", 864, 2**15, 8, 2**4, 2, 511, "DB4", KcVariant.FRODO),
        _lwe("okcn-frodo-challenge", 352, 2**11, 8, 2, 2**2, 383, "DB1", KcVariant.OKCN_POWER2),
        _lwe("okcn-frodo-classical", 592, 2**12, 8, 2**2, 2**2, 383, "DB2", KcVariant.OKCN_POWER2),
        _lwe("okcn-frodo-recommended", 752, 2**15, 8, 2**4, 2**3, 895, "DB3", KcVariant.OKCN_POWER2),
        _lwe("okcn-frodo-paranoid", 864, 2**15, 8, 2**4, 2**3, 895, "DB4", KcVariant.OKCN_POWER2),
        # Hybrid public-key construction (LWE public key, LWR ciphertext)
        Suite(
            name="hybrid-recommended", family="hybrid", n=712, n_b=704, l_a=8, l_b=8,
            q=2**15, p=2**12, noise=NoiseSpec("gauss", var=2.0),
            variant=KcVariant.AKCN_GENERIC, kc=KcParams(q=2**12, m=2**4, g=2**8, d=119),
        ),
        Suite(
            name="hybrid-paranoid", family="hybrid", n=864, n_b=832, l_a=8, l_b=8,
            q=2**15, p=2**12, noise=NoiseSpec("gauss", var=2.0),
            variant=KcVariant.AKCN_GENERIC, kc=KcParams(q=2**12, m=2**4, g=2**8, d=119),
        ),
        # RLWE, NewHope parameters
        _rlwe("okcn-rlwe-16", KcVariant.OKCN_GENERIC, 2**4, 2879),
        _rlwe("okcn-rlwe-64", KcVariant.OKCN_GENERIC, 2**6, 3023),
        _rlwe("akcn-rlwe-16", KcVariant.AKCN_GENERIC, 2**4, 2687),
        _rlwe("akcn-rlwe-64", KcVariant.AKCN_GENERIC, 2**6, 2975),
        _rlwe("okcn-sec-765", KcVariant.OKCN_GENERIC, 2**3, 2687, mode="sec", n_h=4),
        _rlwe("okcn-sec-837", KcVariant.OKCN_GENERIC, 2**3, 2687, mode="sec", n_h=5),
        _rlwe("akcn-sec-765", KcVariant.AKCN_GENERIC, 2**4, 2687, mode="sec", n_h=4),
        _rlwe("akcn-sec-837", KcVariant.AKCN_GENERIC, 2**4, 2687, mode="sec", n_h=5),
        _rlwe("newhope", None, 0, 0, mode="newhope", code_g=2**2),
        _rlwe("akcn-4to1", None, 0, 0, mode="akcn41", code_g=2**2),
        _rlwe("zarzar", None, 0, 0, mode="e8", code_g=2**6, n=512,
              noise=NoiseSpec("bab", a=24, b=16)),
    ]
}


def get_suite(name: str) -> Suite:
    try:
        return SUITES[name]
    except KeyError:
        known = ", ".join(sorted(SUITES))
        raise KeyError(f"unknown suite {name!r}; known suites: {known}") from None


def suite_names() -> list[str]:
    return sorted(SUITES)
