"""Exhaustive enumeration helpers for the consensus acceptance criteria.

`con_grid`, `akc_hint_counts` and `rec_table` walk every (sigma1,
randomness) pair or every (sigma2, v) of a variant with vectorized
arithmetic; the exhaustive correctness and security checks below are
built on them.

Correctness is monotone in d (the sigma2 set at a smaller distance is a
subset), so each (q, m, g) is checked once at its maximal valid d, which
covers every smaller d the validator accepts.
"""

import numpy as np

from kcn.kc import (
    KcParams,
    KcVariant,
    _e_range,
    _scheme,
    akc_con,
    akc_rec,
    kc_rec,
    validate_params,
)

QMAX = 64


def con_grid(variant: KcVariant, params: KcParams):
    """All Con evaluations of a KC-family variant.

    Returns (sigma1, k1, v) as flat int64 arrays covering every sigma1 in Z_q
    and every admissible noise value e (only e = 0 when m divides q).
    """
    con = _scheme(variant, False, "con").con
    sigma1, e = np.broadcast_arrays(np.arange(params.q, dtype=np.int64)[:, None],
                                    np.arange(*_e_range(params), dtype=np.int64))
    k1, v = con(sigma1, e, params)
    return sigma1.ravel(), k1.ravel(), v.ravel()


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


def _is_pow2(x):
    return x >= 1 and (x & (x - 1)) == 0


def max_valid_d(variant, q, m, g):
    """Largest d accepted by validate_params, or -1; closed form."""
    if variant is KcVariant.OKCN_GENERIC:
        top = (q * (g - 1) - 1) // (m * g)
        d = (top - 1) // 2
    elif variant is KcVariant.OKCN_POWER2:
        if not (_is_pow2(q) and _is_pow2(m) and _is_pow2(g) and m * g <= q):
            return -1
        d = (q * (g - 1) - 1) // (2 * m * g)
    elif variant is KcVariant.OKCN_SIMPLE:
        if not (_is_pow2(m) and _is_pow2(g) and q == m * g):
            return -1
        d = (q - 1) // (2 * m)
    elif variant is KcVariant.AKCN_GENERIC:
        if g <= m:
            return -1
        top = (q * (g - m) - 1) // (m * g)
        d = (top - 1) // 2
    elif variant is KcVariant.AKCN_POWER2:
        if not (_is_pow2(q) and _is_pow2(m) and q == g and m <= q):
            return -1
        d = (q - 1) // (2 * m)
    elif variant is KcVariant.FRODO:
        if not (_is_pow2(q) and _is_pow2(m) and g == 2 and 4 * m <= q):
            return -1
        d = (q - 1) // (4 * m)
    else:
        raise ValueError(variant)
    return min(d, q // 2)


def enumerate_sets(variant, qmax=QMAX):
    """Yield every (q, m, g, d_max) the validator accepts, q <= qmax."""
    for q in range(2, qmax + 1):
        for m in range(2, q + 1):
            for g in range(2, q + 1):
                d = max_valid_d(variant, q, m, g)
                if d < 0:
                    continue
                params = KcParams(q, m, g, d)
                assert validate_params(variant, params) is True
                if d + 1 <= q // 2:
                    assert validate_params(variant, KcParams(q, m, g, d + 1)) is not True
                yield params


def kc_correct_exhaustive(variant, params) -> bool:
    """Every (sigma1, randomness, sigma2 within d) recovers Con's key."""
    q, d = params.q, params.d
    sigma1, k1, v = con_grid(variant, params)
    table = rec_table(variant, params)
    deltas = np.arange(-d, d + 1)
    sigma2 = (sigma1[None, :] + deltas[:, None]) % q
    return bool(np.all(table[sigma2, v[None, :]] == k1[None, :]))


def akc_correct_exhaustive(variant, params) -> bool:
    q, m, d = params.q, params.m, params.d
    sigma1 = np.broadcast_to(np.arange(q, dtype=np.int64), (m, q))
    k1 = np.broadcast_to(np.arange(m, dtype=np.int64)[:, None], (m, q))
    v = akc_con(variant, sigma1, k1, params)
    table = rec_table(variant, params)
    deltas = np.arange(-d, d + 1)
    sigma2 = (sigma1[None, :, :] + deltas[:, None, None]) % q
    return bool(np.all(table[sigma2, v[None, :, :]] == k1[None, :, :]))


def kc_secure_exhaustive(variant, params) -> bool:
    """Exact counting: (k1, v) factorizes and k1 is exactly uniform."""
    m, g = params.m, params.g
    _, k1, v = con_grid(variant, params)
    total = len(k1)
    joint = np.bincount(k1 * g + v, minlength=m * g).reshape(m, g)
    rows = joint.sum(axis=1)
    cols = joint.sum(axis=0)
    if total % m or np.any(rows != total // m):
        return False
    return bool(np.all(joint * total == np.outer(rows, cols)))


def akc_secure_exhaustive(variant, params) -> bool:
    """Hint-count profiles #{sigma1 : Con(sigma1, k1) = v} equal across k1."""
    counts = akc_hint_counts(variant, params)
    return bool(np.all(counts == counts[0]))
