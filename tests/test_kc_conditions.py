"""Every variant's correctness condition, one inequality at a time.

A `Suite` with a failing set is refused with "invalid kc params: ...", which
prints `Violation.condition` and `.detail`, so both strings are pinned
verbatim.  Each rejected set fails exactly one inequality and
passes the others, so the check order cannot hide a missing one.
"""

import pytest

from kcn.kc import KcParams, KcVariant, Violation, validate_params
from kcn.suites import SUITES
from sweeps import max_valid_d

V = KcVariant

ACCEPTED = [
    (V.OKCN_GENERIC, KcParams(14, 2, 2, 1)),
    (V.OKCN_POWER2, KcParams(32, 2, 8, 6)),
    (V.OKCN_SIMPLE, KcParams(16, 2, 8, 3)),
    (V.AKCN_GENERIC, KcParams(16, 2, 8, 2)),
    (V.AKCN_POWER2, KcParams(16, 2, 16, 3)),
    (V.FRODO, KcParams(2**15, 2**4, 2, 511)),
]

REJECTED = [
    (V.OKCN_GENERIC, KcParams(14, 2, 2, 2),
     "(2d+1)m < q(1-1/g)", "(2*2+1)*2 >= 14*(1-1/2)"),
    (V.OKCN_POWER2, KcParams(24, 2, 4, 1),
     "q, m, g powers of two", "q=24 m=2 g=4"),
    (V.OKCN_POWER2, KcParams(16, 4, 8, 1),
     "mg <= q", "4*8 > 16"),
    (V.OKCN_POWER2, KcParams(32, 2, 8, 7),
     "2md < q(1-1/g)", "2*2*7 >= 32*(1-1/8)"),
    (V.OKCN_SIMPLE, KcParams(32, 2, 8, 3),
     "q = m*g powers of two", "q=32 m=2 g=8"),
    (V.OKCN_SIMPLE, KcParams(16, 2, 8, 4),
     "2md < q", "2*2*4 >= 16"),
    (V.AKCN_GENERIC, KcParams(16, 2, 8, 3),
     "(2d+1)m < q(1-m/g)", "(2*3+1)*2 >= 16*(1-2/8)"),
    (V.AKCN_POWER2, KcParams(16, 2, 8, 3),
     "q = g, powers of two", "q=16 m=2 g=8"),
    (V.AKCN_POWER2, KcParams(16, 2, 16, 4),
     "2md < q", "2*2*4 >= 16"),
    (V.FRODO, KcParams(2**15, 2**4, 4, 511),
     "q, m powers of two, g = 2", "q=32768 m=16 g=4"),
    (V.FRODO, KcParams(2**15, 2**4, 2, 512),
     "4md < q", "4*16*512 >= 32768"),
]


@pytest.mark.parametrize("variant, params", ACCEPTED, ids=[v.value for v, _ in ACCEPTED])
def test_condition_accepts(variant, params):
    assert validate_params(variant, params) is True


@pytest.mark.parametrize("variant, params, condition, detail", REJECTED,
                         ids=[f"{v.value}:{c}" for v, _, c, _ in REJECTED])
def test_condition_rejects_one_inequality(variant, params, condition, detail):
    bad = validate_params(variant, params)
    assert isinstance(bad, Violation)
    assert (bad.condition, bad.detail) == (condition, detail)
    assert not bad


def test_every_variant_has_an_accepted_set():
    assert {v for v, _ in ACCEPTED} == set(KcVariant)


SCALAR_SUITES = [s for s in SUITES.values() if s.kc is not None]


@pytest.mark.parametrize("suite", SCALAR_SUITES, ids=[s.name for s in SCALAR_SUITES])
def test_suite_d_is_the_largest_the_condition_accepts(suite):
    # how the parameter tables were built, as the kcn.suites docstring says
    assert len(SCALAR_SUITES) == 27
    kc = suite.kc
    assert kc.d == max_valid_d(suite.variant, kc.q, kc.m, kc.g)
