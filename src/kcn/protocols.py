"""Two-party key-exchange executions for all four protocol families.

Each family follows the same shape: the initiator (Alice) sends a seeded
public element plus her sample, the responder (Bob) completes immediately
and answers with his sample and the reconciliation hint, and Alice
finishes.  All randomness flows through one injected numpy Generator, so a
fixed seed reproduces the transcript bit for bit.

The consensus output is returned as packed key bits (before any KDF);
`derive_key` applies the SHAKE-256 KDF with a suite-name prefix.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from kcn import algebra, codes, wire
from kcn.kc import akc_con, akc_rec, kc_con, kc_rec
from kcn.suites import Suite

__all__ = [
    "Session",
    "initiate",
    "respond",
    "finish",
    "derive_key",
    "lwr_initiate",
    "lwr_respond",
    "lwr_finish",
    "lwe_initiate",
    "lwe_respond",
    "lwe_finish",
    "hybrid_keygen",
    "hybrid_encaps",
    "hybrid_decaps",
    "rlwe_initiate",
    "rlwe_respond",
    "rlwe_finish",
]

# fixed one-byte domain tags for the public-element expansion
TAG_MATRIX = 0
TAG_POLY = 1


@dataclass
class Session:
    """Initiator-side state between her two protocol moves."""

    suite: Suite
    secret: object  # X1 matrix or x1 RingPoly, family-dependent
    msg1: bytes
    key_bits: bytes | None = None


def _gbits(g: int) -> int:
    return (g - 1).bit_length()


def _sample_matrix(spec, rng, rows, cols):
    return np.asarray(spec.sample(rng, (rows, cols)), dtype=np.int64)


# ---------------------------------------------------------------------------
# LWR key exchange

def lwr_initiate(suite: Suite, rng) -> tuple[Session, bytes]:
    q, p, n = suite.q, suite.p, suite.n
    seed = rng.bytes(algebra.SEED_BYTES)
    a = algebra.gen_matrix(seed, n, n, q, TAG_MATRIX)
    x1 = _sample_matrix(suite.noise, rng, n, suite.l_a)
    y1 = algebra.lwr_round(algebra.matmul(a, x1, 1 << 62), q, p)
    msg1 = seed + wire.pack(y1, (p - 1).bit_length())
    return Session(suite, x1, msg1), msg1


def lwr_respond(suite: Suite, msg1: bytes, rng, key_in=None):
    q, p, n = suite.q, suite.p, suite.n
    pbits = (p - 1).bit_length()
    seed, y1 = msg1[:algebra.SEED_BYTES], msg1[algebra.SEED_BYTES:]
    y1 = unpack_checked(y1, pbits, n * suite.l_a, (n, suite.l_a))
    a = algebra.gen_matrix(seed, n, n, q, TAG_MATRIX)
    x2 = _sample_matrix(suite.noise, rng, n, suite.l_b)
    y2 = algebra.lwr_round(algebra.matmul(a.T, x2, 1 << 62), q, p)
    w = q // p
    eps = rng.integers(-(w // 2), w // 2, size=(n, suite.l_a), dtype=np.int64)
    sigma2 = algebra.lwr_round(algebra.matmul(((q // p) * y1 + eps).T, x2, 1 << 62), q, p)
    key_sym, v = _con(suite, sigma2, rng, key_in)
    msg2 = wire.pack(y2, pbits) + wire.pack(v, _gbits(suite.kc.g))
    return _pack_key(suite, key_sym), msg2


def lwr_finish(session: Session, msg2: bytes) -> bytes:
    suite = session.suite
    p, n = suite.p, suite.n
    pbits = (p - 1).bit_length()
    nbytes_y2 = (n * suite.l_b * pbits + 7) // 8
    y2 = unpack_checked(msg2[:nbytes_y2], pbits, n * suite.l_b, (n, suite.l_b))
    v = _unpack_v(suite, msg2[nbytes_y2:])
    sigma1 = algebra.matmul(session.secret.T, y2, p)
    return _pack_key(suite, _rec(suite, sigma1, v))


# ---------------------------------------------------------------------------
# LWE key exchange, t-bit cutting

def lwe_initiate(suite: Suite, rng) -> tuple[Session, bytes]:
    q, n = suite.q, suite.n
    seed = rng.bytes(algebra.SEED_BYTES)
    a = algebra.gen_matrix(seed, n, n, q, TAG_MATRIX)
    x1 = _sample_matrix(suite.noise, rng, n, suite.l_a)
    e1 = _sample_matrix(suite.noise, rng, n, suite.l_a)
    y1 = (algebra.matmul(a, x1, q) + e1) % q
    msg1 = seed + wire.pack(y1, suite.qbits)
    return Session(suite, x1, msg1), msg1


def lwe_respond(suite: Suite, msg1: bytes, rng, key_in=None):
    q, n, t = suite.q, suite.n, suite.t
    seed, y1b = msg1[:algebra.SEED_BYTES], msg1[algebra.SEED_BYTES:]
    y1 = unpack_checked(y1b, suite.qbits, n * suite.l_a, (n, suite.l_a))
    a = algebra.gen_matrix(seed, n, n, q, TAG_MATRIX)
    x2 = _sample_matrix(suite.noise, rng, n, suite.l_b)
    e2 = _sample_matrix(suite.noise, rng, n, suite.l_b)
    y2 = (algebra.matmul(a.T, x2, q) + e2) % q
    y2_cut = algebra.cut_bits(y2, t)
    e_sigma = _sample_matrix(suite.noise, rng, suite.l_a, suite.l_b)
    sigma2 = (algebra.matmul(y1.T, x2, q) + e_sigma) % q
    key_sym, v = _con(suite, sigma2, rng, key_in)
    msg2 = wire.pack(y2_cut, suite.qbits - t) + wire.pack(v, _gbits(suite.kc.g))
    return _pack_key(suite, key_sym), msg2


def lwe_finish(session: Session, msg2: bytes) -> bytes:
    suite = session.suite
    q, n, t = suite.q, suite.n, suite.t
    ybits = suite.qbits - t
    nbytes_y2 = (n * suite.l_b * ybits + 7) // 8
    y2_cut = unpack_checked(msg2[:nbytes_y2], ybits, n * suite.l_b, (n, suite.l_b))
    v = _unpack_v(suite, msg2[nbytes_y2:])
    sigma1 = algebra.matmul(session.secret.T, algebra.uncut(y2_cut, t), q)
    return _pack_key(suite, _rec(suite, sigma1, v))


# ---------------------------------------------------------------------------
# Hybrid public-key construction: LWE public key, LWR ciphertext

def hybrid_keygen(suite: Suite, rng):
    """Returns (public key bytes, secret X1)."""
    q, na, nb = suite.q, suite.n, suite.n_b
    seed = rng.bytes(algebra.SEED_BYTES)
    a = algebra.gen_matrix(seed, nb, na, q, TAG_MATRIX)
    x1 = _sample_matrix(suite.noise, rng, na, suite.l_a)
    e1 = _sample_matrix(suite.noise, rng, nb, suite.l_a)
    y1 = (algebra.matmul(a, x1, q) + e1) % q
    pk = seed + wire.pack(y1, suite.qbits)
    return pk, x1


def hybrid_encaps(suite: Suite, pk: bytes, rng, key_in=None):
    """Returns (packed key bits, ciphertext bytes)."""
    q, p, na, nb = suite.q, suite.p, suite.n, suite.n_b
    seed, y1b = pk[:algebra.SEED_BYTES], pk[algebra.SEED_BYTES:]
    y1 = unpack_checked(y1b, suite.qbits, nb * suite.l_a, (nb, suite.l_a))
    a = algebra.gen_matrix(seed, nb, na, q, TAG_MATRIX)
    x2 = _sample_matrix(suite.noise, rng, nb, suite.l_b)
    y2 = algebra.lwr_round(algebra.matmul(a.T, x2, 1 << 62), q, p)
    sigma2 = algebra.lwr_round(algebra.matmul(y1.T, x2, 1 << 62), q, p)
    if key_in is None:
        key_in = rng.integers(0, suite.kc.m, size=(suite.l_a, suite.l_b), dtype=np.int64)
    v = akc_con(suite.variant, sigma2, key_in, suite.kc)
    ct = wire.pack(y2, (p - 1).bit_length()) + wire.pack(v, _gbits(suite.kc.g))
    return _pack_key(suite, key_in), ct


def hybrid_decaps(suite: Suite, x1: np.ndarray, ct: bytes) -> bytes:
    p, na = suite.p, suite.n
    pbits = (p - 1).bit_length()
    nbytes_y2 = (na * suite.l_b * pbits + 7) // 8
    y2 = unpack_checked(ct[:nbytes_y2], pbits, na * suite.l_b, (na, suite.l_b))
    v = _unpack_v(suite, ct[nbytes_y2:])
    sigma1 = algebra.matmul(x1.T, y2, p)
    return _pack_key(suite, akc_rec(suite.variant, sigma1, v, suite.kc))


# ---------------------------------------------------------------------------
# RLWE key exchange, with the code modes

def rlwe_initiate(suite: Suite, rng) -> tuple[Session, bytes]:
    q, n = suite.q, suite.n
    seed = rng.bytes(algebra.SEED_BYTES)
    a = algebra.ntt_forward(algebra.gen_poly(seed, n, q, TAG_POLY))
    x1 = algebra.ntt_forward(_poly(suite, rng))
    e1 = _poly(suite, rng)
    y1 = algebra.poly_add(algebra.ntt_inverse(_ntt_mul(a, x1)), e1)
    msg1 = seed + wire.pack(y1.coeffs, suite.qbits)
    return Session(suite, x1, msg1), msg1


def rlwe_respond(suite: Suite, msg1: bytes, rng, key_in=None):
    q, n = suite.q, suite.n
    seed, y1b = msg1[:algebra.SEED_BYTES], msg1[algebra.SEED_BYTES:]
    y1 = algebra.RingPoly(n, q, unpack_checked(y1b, suite.qbits, n, (n,)))
    a = algebra.ntt_forward(algebra.gen_poly(seed, n, q, TAG_POLY))
    x2 = algebra.ntt_forward(_poly(suite, rng))
    e2 = _poly(suite, rng)
    e_sigma = _poly(suite, rng)
    y2 = algebra.poly_add(algebra.ntt_inverse(_ntt_mul(a, x2)), e2)
    sigma2 = algebra.poly_add(algebra.ntt_inverse(_ntt_mul(algebra.ntt_forward(y1), x2)), e_sigma)
    key_bits, hint = _ring_con(suite, sigma2.coeffs, rng, key_in)
    msg2 = wire.pack(y2.coeffs, suite.qbits) + hint
    return wire.pack_bits(key_bits), msg2


def rlwe_finish(session: Session, msg2: bytes) -> bytes:
    suite = session.suite
    q, n = suite.q, suite.n
    nbytes_y2 = (n * suite.qbits + 7) // 8
    y2 = unpack_checked(msg2[:nbytes_y2], suite.qbits, n, (n,))
    y2p = algebra.ntt_forward(algebra.RingPoly(n, q, y2))
    sigma1 = algebra.ntt_inverse(_ntt_mul(y2p, session.secret))
    key_bits = _ring_rec(suite, sigma1.coeffs, msg2[nbytes_y2:])
    return wire.pack_bits(key_bits)


def _poly(suite, rng) -> "algebra.RingPoly":
    return algebra.RingPoly(suite.n, suite.q, suite.noise.sample(rng, suite.n))


def _ntt_mul(a, b):
    return algebra.RingPoly(a.n, a.q, a.coeffs * b.coeffs % a.q, "ntt")


# --- ring consensus dispatch ------------------------------------------------

def _stride_blocks(coeffs: np.ndarray, width: int) -> np.ndarray:
    """Group i holds coefficients {i, i + n/width, i + 2n/width, ...}."""
    return coeffs.reshape(width, -1).T


def _ring_con(suite: Suite, sigma2: np.ndarray, rng, key_in):
    q, n = suite.q, suite.n
    mode = suite.mode
    if mode in ("plain", "sec"):
        if suite.is_akc:
            if mode == "plain":
                bits = _want_bits(rng, key_in, n)
                coeff_keys = bits
            else:
                code = codes.SecCode(suite.n_h)
                msg = _want_bits(rng, key_in, suite.key_bits).reshape(-1, code.message_bits)
                cw = codes.sec_encode(msg, code)
                coeff_keys = np.zeros(n, dtype=np.int64)
                used = cw.size
                coeff_keys[:used] = cw.reshape(-1)
                bits = msg.reshape(-1)
            v = akc_con(suite.variant, sigma2, coeff_keys, suite.kc)
            return bits, wire.pack(v, _gbits(suite.kc.g))
        k, v = kc_con(suite.variant, sigma2, suite.kc, rng)
        if mode == "plain":
            return k, wire.pack(v, _gbits(suite.kc.g))
        code = codes.SecCode(suite.n_h)
        nblk = suite.sec_blocks
        blocks = k[: nblk * code.block_bits].reshape(nblk, code.block_bits).astype(np.uint8)
        x, vprime = codes.sec_wrap(blocks, code)
        hint = wire.pack(v, _gbits(suite.kc.g)) + wire.pack_bits(vprime.reshape(-1))
        return x.reshape(-1), hint
    if mode == "newhope":
        blocks = _stride_blocks(sigma2, 4)
        b = rng.integers(0, 2, size=len(blocks), dtype=np.int64)
        k, v = codes.newhope_con(blocks, b, _gbits(suite.code_g), q)
        return k, wire.pack(v.reshape(-1), _gbits(suite.code_g))
    if mode == "akcn41":
        blocks = _stride_blocks(sigma2, 4)
        bits = _want_bits(rng, key_in, len(blocks))
        v = codes.akcn41_con(blocks, bits, suite.code_g, q)
        return bits, _pack_d4_hint(v, suite.code_g)
    if mode == "e8":
        blocks = _stride_blocks(sigma2, 8)
        bits = _want_bits(rng, key_in, 4 * len(blocks)).reshape(-1, 4)
        v = codes.e8_con(blocks, bits, suite.code_g, q)
        return bits.reshape(-1), wire.pack(v.reshape(-1), _gbits(suite.code_g))
    raise ValueError(mode)


def _ring_rec(suite: Suite, sigma1: np.ndarray, hint: bytes) -> np.ndarray:
    q, n = suite.q, suite.n
    mode = suite.mode
    if mode in ("plain", "sec"):
        gb = _gbits(suite.kc.g)
        nbytes_v = (n * gb + 7) // 8
        v = wire.unpack(hint[:nbytes_v], gb, n)
        rec = akc_rec if suite.is_akc else kc_rec
        k = rec(suite.variant, sigma1, v, suite.kc)
        if mode == "plain":
            return k
        code = codes.SecCode(suite.n_h)
        nblk = suite.sec_blocks
        blocks = k[: nblk * code.block_bits].reshape(nblk, code.block_bits).astype(np.uint8)
        if suite.is_akc:
            return codes.sec_decode(blocks, code).reshape(-1)
        vprime = wire.unpack_bits(hint[nbytes_v:], nblk * (suite.n_h + 1))
        x = codes.sec_unwrap(blocks, vprime.reshape(nblk, -1).astype(np.uint8), code)
        return x.reshape(-1)
    if mode == "newhope":
        gb = _gbits(suite.code_g)
        v = _reshape_hint(wire.unpack(hint, gb, n), 4)
        blocks = _stride_blocks(sigma1, 4)
        return codes.newhope_rec(blocks, v, gb, q)
    if mode == "akcn41":
        blocks = _stride_blocks(sigma1, 4)
        v = _unpack_d4_hint(hint, suite.code_g, len(blocks))
        return codes.akcn41_rec(blocks, v, suite.code_g, q)
    if mode == "e8":
        gb = _gbits(suite.code_g)
        blocks = _stride_blocks(sigma1, 8)
        v = _reshape_hint(wire.unpack(hint, gb, n), 8)
        return codes.e8_rec(blocks, v, suite.code_g, q).reshape(-1)
    raise ValueError(mode)


def _reshape_hint(flat: np.ndarray, width: int) -> np.ndarray:
    return flat.reshape(-1, width)


def _pack_d4_hint(v: np.ndarray, g: int) -> bytes:
    gb = _gbits(g)
    mixed = v[:, 0] | (v[:, 1] << gb) | (v[:, 2] << (2 * gb)) | (v[:, 3] << (3 * gb))
    return wire.pack(mixed, 3 * gb + gb + 1)


def _unpack_d4_hint(data: bytes, g: int, nblocks: int) -> np.ndarray:
    gb = _gbits(g)
    mixed = wire.unpack(data, 3 * gb + gb + 1, nblocks)
    out = np.empty((nblocks, 4), dtype=np.int64)
    mask = (1 << gb) - 1
    out[:, 0] = mixed & mask
    out[:, 1] = (mixed >> gb) & mask
    out[:, 2] = (mixed >> (2 * gb)) & mask
    out[:, 3] = mixed >> (3 * gb)
    return out


def _want_bits(rng, key_in, count: int) -> np.ndarray:
    if key_in is None:
        return rng.integers(0, 2, size=count, dtype=np.int64)
    bits = np.asarray(key_in, dtype=np.int64).reshape(-1)
    if bits.size != count:
        raise ValueError(f"caller-chosen key must have {count} bits")
    return bits


# --- matrix-family consensus helpers ---------------------------------------

def _con(suite: Suite, sigma2: np.ndarray, rng, key_in):
    if suite.is_akc:
        if key_in is None:
            key_in = rng.integers(0, suite.kc.m, size=sigma2.shape, dtype=np.int64)
        return key_in, akc_con(suite.variant, sigma2, key_in, suite.kc)
    if key_in is not None:
        raise ValueError("KC suites cannot transport a chosen key")
    return kc_con(suite.variant, sigma2, suite.kc, rng)


def _rec(suite: Suite, sigma1: np.ndarray, v: np.ndarray):
    rec = akc_rec if suite.is_akc else kc_rec
    return rec(suite.variant, sigma1, v, suite.kc)


def _unpack_v(suite: Suite, data: bytes) -> np.ndarray:
    gb = _gbits(suite.kc.g)
    return unpack_checked(data, gb, suite.l_a * suite.l_b, (suite.l_a, suite.l_b))


def _pack_key(suite: Suite, key_sym: np.ndarray) -> bytes:
    mbits = (suite.kc.m - 1).bit_length()
    return wire.pack(key_sym, mbits)


def unpack_checked(data: bytes, bits: int, count: int, shape) -> np.ndarray:
    return wire.unpack(data, bits, count).reshape(shape)


# ---------------------------------------------------------------------------
# Family dispatch and key derivation

def initiate(suite: Suite, rng) -> tuple[Session, bytes]:
    if suite.family == "lwr":
        return lwr_initiate(suite, rng)
    if suite.family == "lwe":
        return lwe_initiate(suite, rng)
    if suite.family == "rlwe":
        return rlwe_initiate(suite, rng)
    if suite.family == "hybrid":
        pk, x1 = hybrid_keygen(suite, rng)
        return Session(suite, x1, pk), pk
    raise ValueError(suite.family)


def respond(suite: Suite, msg1: bytes, rng, key_in=None) -> tuple[bytes, bytes]:
    if suite.family == "lwr":
        return lwr_respond(suite, msg1, rng, key_in)
    if suite.family == "lwe":
        return lwe_respond(suite, msg1, rng, key_in)
    if suite.family == "rlwe":
        return rlwe_respond(suite, msg1, rng, key_in)
    if suite.family == "hybrid":
        return hybrid_encaps(suite, msg1, rng, key_in)
    raise ValueError(suite.family)


def finish(session: Session, msg2: bytes) -> bytes:
    suite = session.suite
    if suite.family == "lwr":
        key = lwr_finish(session, msg2)
    elif suite.family == "lwe":
        key = lwe_finish(session, msg2)
    elif suite.family == "rlwe":
        key = rlwe_finish(session, msg2)
    elif suite.family == "hybrid":
        key = hybrid_decaps(suite, session.secret, msg2)
    else:
        raise ValueError(suite.family)
    session.key_bits = key
    return key


def derive_key(suite: Suite, key_bits: bytes, raw: bool = False) -> bytes:
    """Session key: SHAKE-256 over the packed consensus bits, suite-tagged."""
    if raw:
        return key_bits
    return hashlib.shake_256(suite.name.encode() + b"\x00" + key_bits).digest(32)
