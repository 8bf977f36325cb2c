import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcn import codes

Q = 12289


# --- SEC code ---------------------------------------------------------------

def test_sec_encode_examples():
    c = codes.SecCode(3)
    zero = codes.sec_encode(np.zeros(7, dtype=np.uint8), c)
    assert np.array_equal(zero, np.zeros(11, dtype=np.uint8))

    x5 = np.zeros(7, dtype=np.uint8)
    x5[4] = 1  # message bit x_5
    cw = codes.sec_encode(x5, c)
    assert cw[0] == 1
    assert c.parity(x5) == 5

    x35 = np.zeros(7, dtype=np.uint8)
    x35[2] = x35[4] = 1  # bits x_3 and x_5
    assert codes.sec_encode(x35, c)[0] == 0
    assert c.parity(x35) == 3 ^ 5 == 6


def test_sec_single_flip_examples():
    c = codes.SecCode(3)
    x5 = np.zeros(7, dtype=np.uint8)
    x5[4] = 1
    cw = codes.sec_encode(x5, c)
    assert np.array_equal(codes.sec_decode(cw, c), x5)  # no-error path
    flip3 = cw.copy()
    flip3[3] ^= 1  # position x_3
    assert np.array_equal(codes.sec_decode(flip3, c), x5)
    flip0 = cw.copy()
    flip0[0] ^= 1  # parity bit x_0
    assert np.array_equal(codes.sec_decode(flip0, c), x5)


@pytest.mark.parametrize("n_h", [3, 4])
def test_sec_exhaustive_single_flip(n_h):
    c = codes.SecCode(n_h)
    nmsg = 1 << c.message_bits
    msgs = (np.arange(nmsg)[:, None] >> np.arange(c.message_bits)) & 1
    cws = codes.sec_encode(msgs.astype(np.uint8), c)
    for pos in range(c.big_n):  # flips anywhere in (x0, x)
        bad = cws.copy()
        bad[:, pos] ^= 1
        assert np.array_equal(codes.sec_decode(bad, c), msgs)


@pytest.mark.parametrize("n_h, digest", [
    (3, "9d6e196e55bdeebed11fb605e44d14a48f4e845238ca8ccca4f51993a6abd1a1"),
    (4, "0f3b784ddf55983d9d04bcc2ad54135f55ba79435d4f8e2191a539278a43a6d6"),
])
def test_sec_decode_every_word_pinned(n_h, digest):
    # SHA-256 of the decoded bytes of every block word, in counting order
    c = codes.SecCode(n_h)
    h = hashlib.sha256()
    chunk = 1 << 16
    for start in range(0, 1 << c.block_bits, chunk):
        w = np.arange(start, min(start + chunk, 1 << c.block_bits))
        out = codes.sec_decode(((w[:, None] >> np.arange(c.block_bits)) & 1).astype(np.uint8), c)
        assert out.dtype == np.uint8
        h.update(out.tobytes())
    assert h.hexdigest() == digest


def test_sec_wrap_bijection_and_flips(rng):
    for n_h in (3, 4):
        c = codes.SecCode(n_h)
        total = 1 << c.block_bits
        k = ((np.arange(total)[:, None] >> np.arange(c.block_bits)) & 1).astype(np.uint8)
        x, vp = codes.sec_wrap(k, c)
        # decomposition is a bijection: (x, v') jointly hits every value once
        xi = x.astype(np.int64) @ (1 << np.arange(c.message_bits, dtype=np.int64))
        vi = vp.astype(np.int64) @ (1 << np.arange(c.n_h + 1, dtype=np.int64))
        joint = xi * (1 << (c.n_h + 1)) + vi
        assert len(np.unique(joint)) == total
        # and each side is exactly uniform (so x and v' are independent)
        assert np.array_equal(np.unique(np.bincount(xi)), [1 << (c.n_h + 1)])
        assert np.array_equal(np.unique(np.bincount(vi)), [1 << c.message_bits])
        assert np.array_equal(codes.sec_unwrap(k, vp, c), x)

    c = codes.SecCode(3)
    k1 = rng.integers(0, 2, 11).astype(np.uint8)
    x, vp = codes.sec_wrap(k1, c)
    for i in range(11):
        k2 = k1.copy()
        k2[i] ^= 1
        assert np.array_equal(codes.sec_unwrap(k2, vp, c), x)


def test_sec_length_mismatch():
    c = codes.SecCode(3)
    with pytest.raises(ValueError):
        codes.sec_encode(np.zeros(6, dtype=np.uint8), c)
    with pytest.raises(ValueError):
        codes.sec_decode(np.zeros(10, dtype=np.uint8), c)


# --- D4-tilde lattice -------------------------------------------------------

def brute_cvp_scaled(num, den):
    """Closest D4 point (scaled by 2) by enumeration; None on a tie."""
    x2 = 2 * num
    best, bestd, tie = None, None, False
    base = np.round(num / den).astype(np.int64)
    cands = []
    for dz in itertools.product((-1, 0, 1), repeat=4):
        cands.append((base + dz) * 2)
    half = np.floor(num / den - 0.5).astype(np.int64) * 2 + 1
    for dz in itertools.product((-2, 0, 2), repeat=4):
        cands.append(half + dz)
    for z in cands:
        dist = int(np.sum((x2 - den * z) ** 2))
        if bestd is None or dist < bestd:
            best, bestd, tie = z, dist, False
        elif dist == bestd and not np.array_equal(z, best):
            tie = True
    return None if tie else best


def test_cvp_examples():
    assert np.array_equal(codes.cvp_d4(np.zeros(4, dtype=np.int64)), [0, 0, 0, 0])
    # x = g = (1/2, 1/2, 1/2, 1/2) decodes to the g basis vector
    assert np.array_equal(codes.cvp_d4(np.array([1, 1, 1, 1]), 2), [0, 0, 0, 1])


def test_cvp_matches_brute_force(rng):
    checked = 0
    while checked < 1000:
        num = rng.integers(-6 * Q, 6 * Q, 4)
        bf = brute_cvp_scaled(num, 2 * Q)
        if bf is None:
            continue
        assert np.array_equal(codes.d4_point(codes.cvp_d4(num, 2 * Q)), bf)
        checked += 1


def test_newhope_roundtrip(rng):
    sig = rng.integers(0, Q, (4000, 4))
    b = rng.integers(0, 2, 4000)
    k1, v = codes.newhope_con(sig, b, 2, Q)
    assert v.min() >= 0 and v.max() < 4
    # zero case
    k0, v0 = codes.newhope_con(np.zeros((1, 4), dtype=np.int64), np.zeros(1, dtype=np.int64), 2, Q)
    assert k0[0] == 0 and np.array_equal(v0, np.zeros((1, 4)))
    # close sigma2 agrees (NewHope tolerates ||.||_1 noise well below q)
    noise = rng.integers(-300, 301, (4000, 4))
    assert np.array_equal(codes.newhope_rec((sig + noise) % Q, v, 2, Q), k1)


def test_akcn41_roundtrip(rng):
    g = 4
    z = np.zeros((1, 4), dtype=np.int64)
    assert np.array_equal(codes.akcn41_con(z, np.zeros(1, dtype=np.int64), g, Q), z)
    assert codes.akcn41_rec(z, z, g, Q)[0] == 0
    sig = rng.integers(0, Q, (5000, 4))
    k1 = rng.integers(0, 2, 5000)
    v = codes.akcn41_con(sig, k1, g, Q)
    assert v[:, :3].max() < g and v[:, 3].max() < 2 * g
    # noise within the correctness bound ||.||_(q,1) < q(1 - 1/g) - 2
    noise = rng.integers(-500, 501, (5000, 4))
    assert np.array_equal(codes.akcn41_rec((sig + noise) % Q, v, g, Q), k1)


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 1), st.lists(st.integers(0, Q - 1), min_size=4, max_size=4))
def test_akcn41_exact_distance_theorem(k1, sig1):
    # whenever ||sigma1 - sigma2||_(q,1) < q(1 - 1/g) - 2 the bit survives
    g = 4
    sig1 = np.array([sig1])
    v = codes.akcn41_con(sig1, np.array([k1]), g, Q)
    budget = int(Q * (1 - 1 / g) - 2) - 1
    rng = np.random.default_rng(abs(hash((k1, tuple(sig1[0])))) % 2**32)
    noise = rng.integers(-budget // 4, budget // 4 + 1, (1, 4))
    if int(np.abs(noise).sum()) <= budget:
        sig2 = (sig1 + noise) % Q
        assert codes.akcn41_rec(sig2, v, g, Q)[0] == k1


# --- E8 ---------------------------------------------------------------------

def brute_e8(x, q):
    half = (q - 1) // 2
    best, bestc, tie = None, None, False
    for i in range(16):
        m = np.array([(i >> j) & 1 for j in range(4)])
        c = (x + half * codes.e8_encode(m[None, :])[0]) % q
        cost = int(np.sum(np.minimum(c, q - c) ** 2))
        if bestc is None or cost < bestc:
            best, bestc, tie = m, cost, False
        elif cost == bestc and not np.array_equal(m, best):
            tie = True
    return None if tie else best


def test_e8_encode_first_row():
    assert np.array_equal(codes.e8_encode(np.array([[1, 0, 0, 0]]))[0],
                          [1, 1, 1, 1, 0, 0, 0, 0])


def test_e8_minimal_weight():
    msgs = np.array([[(i >> j) & 1 for j in range(4)] for i in range(1, 16)])
    weights = codes.e8_encode(msgs).sum(axis=1)
    assert weights.min() == 4


def test_decode_e8_examples():
    assert np.array_equal(codes.decode_e8(np.zeros((1, 8), dtype=np.int64), Q)[0], [0, 0, 0, 0])
    msgs = np.array([[(i >> j) & 1 for j in range(4)] for i in range(16)])
    cws = (Q - 1) // 2 * codes.e8_encode(msgs)
    assert np.array_equal(codes.decode_e8(cws, Q), msgs)


def test_decode_e8_matches_brute_force(rng):
    checked = 0
    while checked < 1500:
        x = rng.integers(0, Q, 8)
        bf = brute_e8(x, Q)
        if bf is None:
            continue
        assert np.array_equal(codes.decode_e8(x[None, :], Q)[0], bf)
        checked += 1


def test_decode_e8_tie_goes_to_lower_message():
    # For codewords a, b at distance 4, x sits on a's and b's shared bits and a
    # quarter period from either where they differ: a and b tie, all else costs more.
    half = (Q - 1) // 2
    msgs = np.array([[(i >> j) & 1 for j in range(4)] for i in range(16)])
    cws = codes.e8_encode(msgs)
    ties = 0
    for a, b in itertools.combinations(range(16), 2):
        if np.sum(cws[a] != cws[b]) != 4:
            continue
        x = np.where(cws[a] == cws[b], -half * cws[a], -half // 2)
        delta = (x + half * cws) % Q
        cost = np.sum(np.minimum(delta, Q - delta) ** 2, axis=1)
        assert sorted(np.flatnonzero(cost == cost.min())) == [a, b]
        assert np.array_equal(codes.decode_e8(x % Q, Q), msgs[a])
        ties += 1
    assert ties == 112


def test_e8_con_rec_under_noise(rng):
    g = 64
    z8 = np.zeros((1, 8), dtype=np.int64)
    assert np.array_equal(codes.e8_con(z8, np.zeros((1, 4), dtype=np.int64), g, Q), z8)
    assert np.array_equal(codes.e8_rec(z8, z8, g, Q)[0], [0, 0, 0, 0])
    sig = rng.integers(0, Q, (4000, 8))
    k = rng.integers(0, 2, (4000, 4))
    v = codes.e8_con(sig, k, g, Q)
    noise = np.rint(rng.normal(0, np.sqrt(22), (4000, 8))).astype(np.int64)
    # resample anything outside the theorem's norm bound
    bound = (Q - 1) / 2 - np.sqrt(2) * (Q / g + 1)
    ok = np.sqrt(np.sum(noise.astype(float) ** 2, axis=1)) <= bound
    sig2 = (sig + noise) % Q
    assert np.array_equal(codes.e8_rec(sig2[ok], v[ok], g, Q), k[ok])
