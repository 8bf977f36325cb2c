"""Vector-valued consensus codes.

Three families live here:

* the single-error-correction (SEC) code built from the parity matrix whose
  i-th column is the binary representation of i, plus the wrap/unwrap pair
  that turns any KC into a SEC-protected one;
* the D4-tilde lattice machinery: exact closest-vector search, the NewHope
  reconciliation baseline, and the 4-coefficients-to-1-bit asymmetric
  scheme built on it;
* the E8 code derived from the extended Hamming code H8, with the
  minimum-cost search over its 16 codewords and its Con/Rec pair
  (8 coefficients to 4 bits).

Lattice arithmetic is exact: points are carried as integer numerators over
an explicit denominator (the only denominators arising in the protocols
are 2 and q), so the norm tests below are integer comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kcn.kc import dist_mod, div_round

__all__ = [
    "SecCode",
    "sec_encode",
    "sec_decode",
    "sec_wrap",
    "sec_unwrap",
    "cvp_d4",
    "d4_point",
    "newhope_con",
    "newhope_rec",
    "akcn41_con",
    "akcn41_rec",
    "E8_GEN",
    "e8_encode",
    "e8_con",
    "e8_rec",
    "decode_e8",
]


# ---------------------------------------------------------------------------
# SEC code

@dataclass(frozen=True)
class SecCode:
    """SEC code over blocks of N_H + n_H bits, N_H = 2^n_H.

    Column i of the implicit parity matrix H is the binary representation
    of i, so the syndrome of a word is just the XOR of the indices of its
    set bits.
    """

    n_h: int

    def __post_init__(self):
        if self.n_h < 2:
            raise ValueError(f"sec: n_h must be >= 2, got {self.n_h}")

    @property
    def big_n(self) -> int:
        return 1 << self.n_h

    @property
    def block_bits(self) -> int:
        return self.big_n + self.n_h

    @property
    def message_bits(self) -> int:
        return self.big_n - 1

    def parity(self, x: np.ndarray) -> np.ndarray:
        """H x^T folded to an integer: XOR of indices i (1-based) with x_i = 1.

        x has shape (..., N_H - 1).
        """
        x = np.asarray(x)
        if x.shape[-1] != self.message_bits:
            raise ValueError("message length mismatch")
        idx = np.arange(1, self.big_n, dtype=np.int64)
        return np.bitwise_xor.reduce(np.where(x != 0, idx, 0), axis=-1)


def sec_encode(x: np.ndarray, code: SecCode) -> np.ndarray:
    """Encode message bits x into (x0, x, p); shape (..., N_H + n_H)."""
    x = np.asarray(x, dtype=np.uint8)
    if x.shape[-1] != code.message_bits:
        raise ValueError("message length mismatch")
    x0 = np.bitwise_xor.reduce(x, axis=-1, keepdims=True)
    pbar = code.parity(x)
    shifts = np.arange(code.n_h, dtype=np.int64)
    p = ((pbar[..., None] >> shifts) & 1).astype(np.uint8)
    return np.concatenate([x0, x, p], axis=-1)


def sec_decode(cw: np.ndarray, code: SecCode) -> np.ndarray:
    """Best-effort decode of (x0, x, p) back to x, correcting one flipped bit.

    A parity pass over (x0, x) short-circuits with no correction; otherwise
    the syndrome XOR received-parity names the flipped position in (x0, x).
    """
    cw = np.asarray(cw, dtype=np.uint8)
    if cw.shape[-1] != code.block_bits:
        raise ValueError("codeword length mismatch")
    x0x = cw[..., : code.big_n]
    x = x0x[..., 1:].copy()
    p_recv = cw[..., code.big_n:]
    shifts = np.arange(code.n_h, dtype=np.int64)
    pbar_recv = np.sum(p_recv.astype(np.int64) << shifts, axis=-1)
    parity_fail = np.bitwise_xor.reduce(x0x, axis=-1) == 1
    err_idx = code.parity(x) ^ pbar_recv  # 0 means the error sits in x0
    fix = parity_fail & (err_idx > 0)
    x[fix, err_idx[fix] - 1] ^= 1
    return x


def sec_wrap(k1: np.ndarray, code: SecCode):
    """Decompose k1 = c XOR v' with c a codeword and v' in Z2 x {0} x Z2^{n_H}.

    Returns (x, vprime_bits) where x (the block key) is the message part of
    k1 and vprime_bits holds the n_H + 1 transmitted bits (v'_0, v'_p).
    """
    k1 = np.asarray(k1, dtype=np.uint8)
    if k1.shape[-1] != code.block_bits:
        raise ValueError("block length mismatch")
    x = k1[..., 1: code.big_n]
    c = sec_encode(x, code)
    vp = c ^ k1
    vprime = np.concatenate([vp[..., :1], vp[..., code.big_n:]], axis=-1)
    return x.copy(), vprime


def sec_unwrap(k2: np.ndarray, vprime: np.ndarray, code: SecCode) -> np.ndarray:
    """Recover x from k2 and the transmitted correction word.

    Exact whenever k2 differs from the wrapped k1 in at most one bit.
    """
    k2 = np.asarray(k2, dtype=np.uint8)
    vprime = np.asarray(vprime, dtype=np.uint8)
    if vprime.shape[-1] != code.n_h + 1:
        raise ValueError("correction word length mismatch")
    zeros = np.zeros(k2.shape[:-1] + (code.message_bits,), dtype=np.uint8)
    vp_full = np.concatenate([vprime[..., :1], zeros, vprime[..., 1:]], axis=-1)
    return sec_decode(k2 ^ vp_full, code)


# ---------------------------------------------------------------------------
# D4-tilde lattice

def cvp_d4(num, den: int = 1) -> np.ndarray:
    """Closest D4-tilde point to the rational vector num/den, as coordinates v.

    The lattice basis is B = (u0, u1, u2, g) with g = (1/2,1/2,1/2,1/2)^T;
    the returned v satisfies: B v is nearest to x in Euclidean norm, with
    the 1-norm test ||x - round(x)||_1 < 1 deciding between the integer and
    half-integer cosets.  Input shape (..., 4); exact for integer num, den.
    """
    num = np.asarray(num, dtype=np.int64)
    if num.shape[-1] != 4:
        raise ValueError("need 4-vectors")
    if den < 1:
        raise ValueError("denominator must be positive")
    k = (_l1_to_z4(num, den) >= den).astype(np.int64)
    vk = div_round(2 * num - k[..., None] * den, 2 * den)  # round(x - k g)
    out = np.empty_like(vk)
    out[..., 0] = vk[..., 0] - vk[..., 3]
    out[..., 1] = vk[..., 1] - vk[..., 3]
    out[..., 2] = vk[..., 2] - vk[..., 3]
    out[..., 3] = k + 2 * vk[..., 3]
    return out


def d4_point(v) -> np.ndarray:
    """2*B*v for coordinates v: the lattice point scaled by 2, exactly integral."""
    v = np.asarray(v, dtype=np.int64)
    out = np.empty_like(v)
    out[..., :3] = 2 * v[..., :3] + v[..., 3:4]
    out[..., 3] = v[..., 3]
    return out


def _l1_to_z4(num, den: int):
    """den times the L1 distance from num/den to Z^4, an exact integer."""
    return np.sum(np.abs(num - den * div_round(num, den)), axis=-1)


def newhope_con(sigma1, b, r: int, q: int):
    """NewHope HelpRec/Decode pair on one 4-coefficient block (baseline).

    sigma1 in Z_q^4, b a bit; returns (k1, v) with v in Z_{2^r}^4.
    """
    sigma1 = np.asarray(sigma1, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    num = (1 << r) * (2 * sigma1 + b[..., None])  # (2^r/q)(sigma1 + b g) over den 2q
    v = cvp_d4(num, 2 * q) % (1 << r)
    return newhope_rec(sigma1, v, r, q), v


def newhope_rec(sigma2, v, r: int, q: int):
    """Decode(x) for x = sigma2/q - B v / 2^r: bit 0 iff ||x - round(x)||_1 <= 1."""
    sigma2 = np.asarray(sigma2, dtype=np.int64)
    num = (1 << (r + 1)) * sigma2 - q * d4_point(v)
    den = (1 << (r + 1)) * q
    return (_l1_to_z4(num, den) > den).astype(np.int64)


def akcn41_con(sigma1, k1, g: int, q: int):
    """4:1 asymmetric Con: hint in Z_g^3 x Z_{2g} transporting one bit k1."""
    sigma1 = np.asarray(sigma1, dtype=np.int64)
    k1 = np.asarray(k1, dtype=np.int64)
    num = g * (2 * sigma1 + k1[..., None] * (q + 1))  # g(sigma1 + k1(q+1)g)/q over 2q
    v = cvp_d4(num, 2 * q)
    mod = np.array([g, g, g, 2 * g], dtype=np.int64)
    return v % mod


def akcn41_rec(sigma2, v, g: int, q: int):
    """Recover the bit: x = Bv/g - sigma2/q, 0 iff ||x - round(x)||_1 < 1."""
    sigma2 = np.asarray(sigma2, dtype=np.int64)
    num = q * d4_point(v) - 2 * g * sigma2
    den = 2 * g * q
    return (_l1_to_z4(num, den) >= den).astype(np.int64)


# ---------------------------------------------------------------------------
# E8 from the extended Hamming code

E8_GEN = np.array(
    [
        [1, 1, 1, 1, 0, 0, 0, 0],
        [0, 0, 1, 1, 1, 1, 0, 0],
        [0, 0, 0, 0, 1, 1, 1, 1],
        [0, 1, 0, 1, 0, 1, 0, 1],
    ],
    dtype=np.int64,
)


def e8_encode(k1) -> np.ndarray:
    """k1 H mod 2 for 4-bit messages k1, shape (..., 4) -> (..., 8)."""
    k1 = np.asarray(k1, dtype=np.int64)
    if k1.shape[-1] != 4:
        raise ValueError("need 4-bit messages")
    return k1 @ E8_GEN % 2


_E8_MSGS = (np.arange(16)[:, None] >> np.arange(4)) & 1  # message i has bits i >> j & 1
_E8_WORDS = e8_encode(_E8_MSGS)


def e8_con(sigma1, k1, g: int, q: int) -> np.ndarray:
    """Hint v = round((g/q)(sigma1 + (q-1)/2 * k1 H)) mod g, shape (..., 8)."""
    sigma1 = np.asarray(sigma1, dtype=np.int64)
    if sigma1.shape[-1] != 8:
        raise ValueError("need 8-coefficient blocks")
    w = sigma1 + (q - 1) // 2 * e8_encode(k1)
    return div_round(g * w, q) % g


def e8_rec(sigma2, v, g: int, q: int) -> np.ndarray:
    """Decode round((q/g) v) - sigma2 back to the 4 transported bits."""
    sigma2 = np.asarray(sigma2, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    return decode_e8(div_round(q * v, g) - sigma2, q)


def decode_e8(x, q: int) -> np.ndarray:
    """Minimum-cost decode of x in Z^8 over the 16 used E8 codewords.

    Returns the message k minimising sum_i |x_i + (q-1)/2 (kH)_i|_q^2, ties
    to the lowest index i (bits i >> j & 1).  Each sum is the zero word's
    cost, shared by all k, plus the cost change at the set bits of kH.
    """
    x = np.asarray(x, dtype=np.int64)
    if x.shape[-1] != 8:
        raise ValueError("need 8-vectors")
    change = dist_mod(x + (q - 1) // 2, q) ** 2 - dist_mod(x, q) ** 2
    return _E8_MSGS[np.argmin(change @ _E8_WORDS.T, axis=-1)]
