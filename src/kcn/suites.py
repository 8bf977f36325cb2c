"""Named protocol parameter sets.

Every suite binds dimensions, moduli, the consensus variant and its
(q, m, g, d), the noise law (a `kcn.noise` table or `Law`, which both the
exchange and the analysis read), and the consensus mode (a `kcn.protocols`
value holding its own code parameters; only the ring protocols leave
`Plain()`).  The distance parameter d is always the largest
value passing the variant's correctness condition, which is how the
parameter tables were built.
"""

from __future__ import annotations

from dataclasses import dataclass

from kcn.kc import KcParams, KcVariant, validate_params
from kcn.noise import PSI16, TABLES, Law, NoiseTable, bab, gauss
from kcn.codes import SecCode
from kcn.protocols import E8, FAMILIES, Akcn41, Mode, NewHope, Plain, Sec

__all__ = ["Suite", "SUITES", "get_suite", "suite_names"]


@dataclass(frozen=True)
class Suite:
    """A fully-resolved protocol instance.  It refuses an unknown family, a
    family field its family does not read (n_b, p or t), a dimension below 1
    (n, l_a, l_b, and n_b for hybrid), a t outside [0, qbits), a ring whose
    l_a or l_b is not 1, and a kc whose q is not the modulus sigma lives in
    (p for lwr and hybrid, q otherwise)."""

    name: str
    family: str  # a key of kcn.protocols.FAMILIES
    n: int  # n_A for the hybrid family
    l_a: int
    l_b: int
    q: int
    noise: NoiseTable | Law
    variant: KcVariant | None = None
    kc: KcParams | None = None
    n_b: int = 0  # hybrid only
    p: int = 0  # rounding modulus (lwr / hybrid)
    t: int = 0  # cut bits (lwe)
    mode: Mode = Plain()  # a kcn.protocols mode; Plain() and Sec(code) need variant and kc

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"{self.name}: unknown family {self.family!r}; "
                             f"known families: {', '.join(FAMILIES)}")
        if not isinstance(self.noise, (NoiseTable, Law)):
            raise TypeError(f"{self.name}: noise must be a kcn.noise law "
                            f"(a TABLES entry, PSI16, bab or gauss), got {self.noise!r}")
        if not isinstance(self.mode, Mode) or (self.family != "rlwe" and self.mode != Plain()):
            raise ValueError(f"{self.name}: the {self.family} family cannot run mode {self.mode!r}")
        if (self.kc is None) != (self.variant is None):
            raise ValueError(f"{self.name}: variant and kc are set together or not at all")
        if (self.kc is None) == isinstance(self.mode, Plain):
            raise ValueError(f"{self.name}: plain and sec modes need variant and kc, other modes take neither; "
                             f"mode is {self.mode.name}")
        for field, families in (("n_b", ("hybrid",)), ("p", ("lwr", "hybrid")), ("t", ("lwe",))):
            if (value := getattr(self, field)) and self.family not in families:
                raise ValueError(f"{self.name}: the {self.family} family does not read {field}, "
                                 f"got {field}={value}")
        dims = ("n", "l_a", "l_b") + (("n_b",) if self.family == "hybrid" else ())
        if small := [f"{dim}={getattr(self, dim)}" for dim in dims if getattr(self, dim) < 1]:
            raise ValueError(f"{self.name}: dimensions must be at least 1, got {', '.join(small)}")
        if not 0 <= self.t < self.qbits:
            raise ValueError(f"{self.name}: t must lie in [0, {self.qbits}), the bits of q, got t={self.t}")
        if self.family == "rlwe" and (self.l_a, self.l_b) != (1, 1):
            raise ValueError(f"{self.name}: the rlwe family runs l_a = l_b = 1, "
                             f"got l_a={self.l_a}, l_b={self.l_b}")
        if self.family == "rlwe" and self.noise.support_bound >= self.q:
            raise ValueError(f"{self.name}: the rlwe noise must stay below q = {self.q} in magnitude, "
                             f"as the NTT reads its samples centered; its support bound is "
                             f"{self.noise.support_bound}")
        if self.kc is not None:
            if self.kc.q != (self.p or self.q):
                raise ValueError(f"{self.name}: kc.q must be {self.p or self.q}, the modulus "
                                 f"sigma lives in, got {self.kc.q}")
            ok = validate_params(self.variant, self.kc)
            if ok is not True:
                raise ValueError(f"{self.name}: invalid kc params: {ok}")

    # -- derived quantities ------------------------------------------------

    @property
    def qbits(self) -> int:
        return (self.q - 1).bit_length()

    @property
    def key_bits(self) -> int:
        key = self.mode.fields(self)[0]
        return key.count * key.bits

    def describe(self) -> dict:
        out = {
            "name": self.name,
            "family": self.family,
            "n": self.n,
            "q": self.q,
            "l": self.l_a,
            "noise": self.noise.name,
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
        if isinstance(self.mode, Sec):
            out.update(mode=self.mode.name, n_h=self.mode.code.n_h)
        elif self.mode != Plain():
            out.update(mode=self.mode.name, g=self.mode.g)
        return out


_RLWE_Q = 12289


def _table(name: str) -> NoiseTable:
    try:
        return TABLES[name]
    except KeyError:
        raise ValueError(f"unknown noise table {name!r}; known tables: {', '.join(TABLES)}") from None


def _lwr(name, n, dist):
    return Suite(
        name=name, family="lwr", n=n, l_a=8, l_b=8, q=2**15, p=2**12,
        noise=_table(dist), variant=KcVariant.OKCN_SIMPLE,
        kc=KcParams(q=2**12, m=2**4, g=2**8, d=127),
    )


def _lwe(name, n, q, l, m, g, d, dist, variant=KcVariant.OKCN_SIMPLE, t=0):
    return Suite(
        name=name, family="lwe", n=n, l_a=l, l_b=l, q=q, t=t,
        noise=_table(dist), variant=variant, kc=KcParams(q=q, m=m, g=g, d=d),
    )


def _rlwe(name, variant, g, d, mode=Plain(), n=1024, noise=PSI16):
    kc = KcParams(q=_RLWE_Q, m=2, g=g, d=d) if variant is not None else None
    return Suite(
        name=name, family="rlwe", n=n, l_a=1, l_b=1, q=_RLWE_Q,
        noise=noise, variant=variant, kc=kc, mode=mode,
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
            q=2**15, p=2**12, noise=gauss(2.0),
            variant=KcVariant.AKCN_GENERIC, kc=KcParams(q=2**12, m=2**4, g=2**8, d=119),
        ),
        Suite(
            name="hybrid-paranoid", family="hybrid", n=864, n_b=832, l_a=8, l_b=8,
            q=2**15, p=2**12, noise=gauss(2.0),
            variant=KcVariant.AKCN_GENERIC, kc=KcParams(q=2**12, m=2**4, g=2**8, d=119),
        ),
        # RLWE, NewHope parameters
        _rlwe("okcn-rlwe-16", KcVariant.OKCN_GENERIC, 2**4, 2879),
        _rlwe("okcn-rlwe-64", KcVariant.OKCN_GENERIC, 2**6, 3023),
        _rlwe("akcn-rlwe-16", KcVariant.AKCN_GENERIC, 2**4, 2687),
        _rlwe("akcn-rlwe-64", KcVariant.AKCN_GENERIC, 2**6, 2975),
        _rlwe("okcn-sec-765", KcVariant.OKCN_GENERIC, 2**3, 2687, mode=Sec(SecCode(4))),
        _rlwe("okcn-sec-837", KcVariant.OKCN_GENERIC, 2**3, 2687, mode=Sec(SecCode(5))),
        _rlwe("akcn-sec-765", KcVariant.AKCN_GENERIC, 2**4, 2687, mode=Sec(SecCode(4))),
        _rlwe("akcn-sec-837", KcVariant.AKCN_GENERIC, 2**4, 2687, mode=Sec(SecCode(5))),
        _rlwe("newhope", None, 0, 0, mode=NewHope(2**2)),
        _rlwe("akcn-4to1", None, 0, 0, mode=Akcn41(2**2)),
        _rlwe("zarzar", None, 0, 0, mode=E8(2**6), n=512, noise=bab(24, 16)),
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
