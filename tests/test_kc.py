import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcn.kc import (
    KcParams,
    KcVariant,
    Violation,
    akc_con,
    akc_rec,
    dist_mod,
    div_round,
    kc_con,
    kc_rec,
    validate_params,
)
from oracles import bound_slack
from sweeps import akc_hint_counts, con_grid, rec_table

SIMPLE = KcParams(q=16, m=2, g=8, d=3)


def test_dist_mod_examples():
    assert dist_mod(-1, 7) == 1
    assert dist_mod(0, 5) == 0
    assert dist_mod(13, 16) == 3


def test_dist_mod_rejects_zero_modulus():
    with pytest.raises(ValueError):
        dist_mod(3, 0)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_dist_mod_range_and_symmetry(x, t):
    d = dist_mod(x, t)
    assert 0 <= d <= t // 2
    assert d == dist_mod(-x, t)


@given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
def test_div_round_is_round_half_up(a, b):
    import math
    from fractions import Fraction

    assert div_round(a, b) == math.floor(Fraction(a, b) + Fraction(1, 2))


def test_validate_examples():
    assert validate_params(KcVariant.OKCN_SIMPLE, SIMPLE) is True
    bad = validate_params(KcVariant.OKCN_SIMPLE, KcParams(16, 2, 8, 4))
    assert isinstance(bad, Violation)
    assert bad.condition == "2md < q"
    assert not bad  # violations are falsy
    assert validate_params(KcVariant.FRODO, KcParams(2**15, 2**4, 2, 511)) is True
    assert isinstance(validate_params(KcVariant.FRODO, KcParams(2**15, 2**4, 2, 512)), Violation)


def test_bound_slack_sign():
    assert bound_slack(KcVariant.OKCN_SIMPLE, SIMPLE) >= 0
    assert bound_slack(KcVariant.AKCN_POWER2, KcParams(16, 2, 16, 3)) >= 0


def test_okcn_simple_example():
    k1, v = kc_con(KcVariant.OKCN_SIMPLE, 13, SIMPLE)
    assert (k1, v) == (1, 5)
    assert kc_con(KcVariant.OKCN_SIMPLE, 0, SIMPLE)[0] == 0
    assert kc_rec(KcVariant.OKCN_SIMPLE, 0, 5, SIMPLE) == 1  # |13-0|_16 = 3 <= d


def test_okcn_generic_example():
    p = KcParams(q=14, m=2, g=2, d=1)  # alpha = 1 forces e = 0
    assert kc_con(KcVariant.OKCN_GENERIC, 3, p) == (0, 0)
    assert kc_rec(KcVariant.OKCN_GENERIC, 4, 0, p) == 0


def test_akcn_examples():
    pa = KcParams(q=16, m=2, g=8, d=2)
    assert akc_con(KcVariant.AKCN_GENERIC, 5, 1, pa) == 7
    assert akc_rec(KcVariant.AKCN_GENERIC, 6, 7, pa) == 1
    pp = KcParams(q=16, m=2, g=16, d=3)
    assert akc_con(KcVariant.AKCN_POWER2, 5, 1, pp) == 13
    assert akc_con(KcVariant.AKCN_POWER2, 0, 0, pp) == 0
    assert akc_rec(KcVariant.AKCN_POWER2, 7, 13, pp) == 1


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        kc_con(KcVariant.OKCN_SIMPLE, 16, SIMPLE)
    with pytest.raises(ValueError):
        kc_rec(KcVariant.OKCN_SIMPLE, 3, 8, SIMPLE)
    with pytest.raises(ValueError):
        akc_con(KcVariant.AKCN_POWER2, 3, 2, KcParams(16, 2, 16, 3))


def test_family_mixups_rejected():
    with pytest.raises(ValueError):
        kc_con(KcVariant.AKCN_GENERIC, 3, SIMPLE)
    with pytest.raises(ValueError):
        akc_rec(KcVariant.OKCN_SIMPLE, 3, 1, SIMPLE)


def _max_d(variant, q, m, g):
    """Largest d passing validate_params, or -1."""
    lo = -1
    for d in range(q // 2 + 1):
        if validate_params(variant, KcParams(q, m, g, d)) is True:
            lo = d
        else:
            break
    return lo


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 48), st.data())
def test_kc_roundtrip_within_distance(q, data):
    m = data.draw(st.integers(2, q), label="m")
    g = data.draw(st.integers(2, q), label="g")
    d = _max_d(KcVariant.OKCN_GENERIC, q, m, g)
    if d < 0:
        return
    params = KcParams(q, m, g, d)
    sigma1, k1, v = con_grid(KcVariant.OKCN_GENERIC, params)
    delta = data.draw(st.integers(-d, d), label="delta")
    sigma2 = (sigma1 + delta) % q
    k2 = kc_rec(KcVariant.OKCN_GENERIC, sigma2, v, params)
    assert np.array_equal(k1, k2)


def test_zero_distance_identity(rng):
    # Rec(sigma1, v) always returns Con's key at distance zero
    for variant, params in [
        (KcVariant.OKCN_SIMPLE, SIMPLE),
        (KcVariant.OKCN_POWER2, KcParams(32, 2, 8, 6)),
        (KcVariant.OKCN_GENERIC, KcParams(19, 3, 4, 0)),
        (KcVariant.FRODO, KcParams(2**11, 2**2, 2, 127)),
    ]:
        sigma1, k1, v = con_grid(variant, params)
        assert np.array_equal(kc_rec(variant, sigma1, v, params), k1)


# SHA-256 over con_grid's (sigma1, k1, v) as little-endian int64, for the
# test_zero_distance_identity sets; OKCN_GENERIC there has alpha = 3, so
# every smoothing value e is enumerated
CON_GRID_DIGESTS = {
    (KcVariant.OKCN_SIMPLE, SIMPLE):
        "e700ade745899d6d7d87a596d2ae0fe0f16cd27833f5c1858493353a49e1a78b",
    (KcVariant.OKCN_POWER2, KcParams(32, 2, 8, 6)):
        "238c64998983c4e7ef010d66e1363cc9a1c5ed0f420a196e1223eb59b38d122f",
    (KcVariant.OKCN_GENERIC, KcParams(19, 3, 4, 0)):
        "b70ed0e8bc4a97163fc54eaa79e984f46facb1c16e631ab17deb3787119efe56",
    (KcVariant.FRODO, KcParams(2**11, 2**2, 2, 127)):
        "ceeb8ff931807bd0cbc08bbeb8e3b1c874308d9b08d4fb305c18e22b90247698",
}


@pytest.mark.parametrize("variant, params", list(CON_GRID_DIGESTS))
def test_con_grid_pinned(variant, params):
    h = hashlib.sha256()
    for x in con_grid(variant, params):
        assert x.dtype == np.int64 and x.shape == (params.q * params.alpha,)
        h.update(x.astype("<i8").tobytes())
    assert h.hexdigest() == CON_GRID_DIGESTS[variant, params]


# SHA-256 of akc_hint_counts as little-endian int64
AKC_HINT_COUNT_DIGESTS = {
    (KcVariant.AKCN_GENERIC, KcParams(19, 3, 7, 1)):
        "0b313cf3ff612bb4bccd010a4650164c84c2ffdaa3b1865ab0e2c8a98afd968a",
    (KcVariant.AKCN_GENERIC, KcParams(50, 3, 11, 1)):
        "43ef45f862a6fdde43fcac4d44e50a8cd566fd6c00c74ed9965f59cd2b9c114a",
    (KcVariant.AKCN_POWER2, KcParams(16, 2, 16, 3)):
        "6ba64591dc5d5fa6ab9e575602829ad02f0fe517616bda69e4fe87b55b9d9836",
    (KcVariant.AKCN_POWER2, KcParams(64, 4, 64, 7)):
        "924ae03b6111734d8ab1d2d4c88ec6a7da5ba6612c50b2f0e3c27d0511980e0f",
}


@pytest.mark.parametrize("variant, params", list(AKC_HINT_COUNT_DIGESTS))
def test_akc_hint_counts_pinned(variant, params):
    c = akc_hint_counts(variant, params)
    assert c.dtype == np.int64 and c.shape == (params.m, params.g)
    digest = hashlib.sha256(c.astype("<i8").tobytes()).hexdigest()
    assert digest == AKC_HINT_COUNT_DIGESTS[variant, params]


def test_frodo_parameter_example():
    # the Frodo-Recommended row satisfies 4md < q with d = 511
    assert validate_params(KcVariant.FRODO, KcParams(2**15, 2**4, 2, 511)) is True
    assert 4 * 16 * 511 == 32704 < 32768


def test_frodo_cross_check_q2048():
    # q = 2^11, m = 2^2: round-trips for every |sigma1 - sigma2|_q < 2^(Bbar-2)
    q, m = 2**11, 2**2
    radius = q // (4 * m)  # 2^(Bbar-2)
    params = KcParams(q, m, 2, radius - 1)
    sigma1, k1, v = con_grid(KcVariant.FRODO, params)
    for delta in range(-(radius - 1), radius):
        sigma2 = (sigma1 + delta) % q
        assert np.array_equal(kc_rec(KcVariant.FRODO, sigma2, v, params), k1), delta


# SHA-256 of rec_table(FRODO, (q, m, 2, 0)) as little-endian int64, for the
# Frodo suites' (q, m) and every valid m at q = 16 and 64
FRODO_REC_DIGESTS = {
    (2048, 2): "fa364da2fe57f7d391d5f342eb6555a98755cd90df582b95f02e04155ffe791d",
    (4096, 4): "c808df46a42a171ad6f6cd0e25813411f8bea13f3b009709e22aa7f8cb179f53",
    (32768, 16): "d71c81757b3d57ca32f4da14300ae8ec251106b094d2f7743488a53ddad005c9",
    (16, 2): "68c9e7afb1cd7116774f70b6b2e44afdc00e860d9ffee533fba1ac1e2b95006d",
    (16, 4): "90f9f60f4b2cfc893c3ae269d4c8caec2675066c982d9f2c09aff6d76705fb93",
    (64, 2): "d5a818231e2264dfe97feef7838a7e30cacdc0f9a5fde160cd10993a5d28bb7b",
    (64, 4): "dcbee7ed5ce04ccf05f5c3637bd5fdaf9c4c81830317e9dc4982fb01273b333c",
    (64, 8): "9e16a7d551797d35ff45a8ab8a3ca3f6b5077d5e34ebb8d506f3fc1f0eadabf8",
    (64, 16): "5f81cb1c92731d9a51911a64c565c778afa6db71cc45817b64b9657566cf5ae1",
}


@pytest.mark.parametrize("q, m", sorted(FRODO_REC_DIGESTS))
def test_frodo_rec_table_pinned(q, m):
    t = rec_table(KcVariant.FRODO, KcParams(q, m, 2, 0))
    assert t.dtype == np.int64
    assert hashlib.sha256(t.astype("<i8").tobytes()).hexdigest() == FRODO_REC_DIGESTS[q, m]


def test_rec_table_shape():
    t = rec_table(KcVariant.OKCN_SIMPLE, SIMPLE)
    assert t.shape == (16, 8)
    assert t.min() >= 0 and t.max() < 2
