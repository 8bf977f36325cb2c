"""Integer-lattice arithmetic shared by the protocols.

Matrices over Z_q are int64 ndarrays with elements in [0, q-1], except the
public matrix, which `gen_matrix` returns read-only as float32; it keeps
nothing, and `kcn.protocols` holds the expanded matrix of each parsed
public key.  `matmul` takes each operand's exactness bound from its caller
where the caller knows it (q - 1 for the public matrix, a noise law's
support bound for a secret, a wire field's bound for a value off the
wire) and scans only an operand without one.  It multiplies a float32
operand in chunks of `step` inner terms with step max|a| max|b| < 2^24
per sgemm, so every sum inside one chunk is an exact float32 integer;
the chunks add up in float64.  A product with max|a| max|b| >= 2^24
falls back to float64, and one whose bound reaches 2^53 to int64 on
operands reduced into [0, q).  The float result is converted to int64
without rounding, as it holds exact integers.
`reduce_mod` is the one choice of how to reduce: a power-of-two q, as every
matrix suite's q and p are, is a mask, and any other q is `%`.  LWR
rounding needs a power-of-two q and is one shift and one mask.
Polynomials in Z_q[x]/(x^n + 1) are RingPoly values carrying a domain
flag so coefficient- and NTT-domain data cannot be mixed silently;
`poly_mul` multiplies NTT-domain values only.  Coefficients are int64 and
NTT values float64, each in [0, q).  Every ring operation reduces its
result once into that form, and only the RingPoly constructor, which
serves outside callers, reduces what it is given.  The public
matrix / ring element is expanded deterministically from a 32-byte seed
with SHAKE-128, domain-separated by a one-byte role tag.

The negacyclic NTT is Bailey's four-step method on float64 BLAS: the n
coefficients form an n1 x n2 matrix (n1 = 2^ceil(log2(n) / 2)), which is
multiplied by an n1-point transform matrix, scaled by twiddle factors and
multiplied by an n2-point one; the output is reduced once into [0, q) and
the steps before it to a centered residue.  The products are exact while
n1 (q - 1)^2 < 2^53; a ring past that bound is refused.  Each ring's stage
plan, read from (n, q) as `reduce_mod` reads its choice from q, drops the
first step's reduction where the unreduced twiddled sums stay exact,
n1 (q - 1)^3 + q < 2^53, so a transform on every shipped ring reduces
twice; a ring past that line reduces after every step.  The forward
transform takes coefficients of either sign up to q - 1 in magnitude, so a
centered noise sample needs no reduction first.  NTT-domain values come in
no set order: they serve only for pointwise products and the inverse, not
the wire.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "gen_matrix",
    "gen_poly",
    "lwr_round",
    "reduce_mod",
    "cut_bits",
    "uncut",
    "matmul",
    "RingPoly",
    "ntt_forward",
    "ntt_inverse",
    "poly_mul",
]

SEED_BYTES = 32


def gen_matrix(seed: bytes, rows: int, cols: int, q: int, tag: int = 0) -> np.ndarray:
    """Expand seed into a uniform rows x cols matrix over Z_q (q a power of two).

    Each element masks the low log2(q) bits of one 16-bit stream word for
    q <= 2^16; wider-than-16-bit moduli are not used by any suite.  The
    result is a new read-only float32 array holding integers in [0, q),
    which float32 holds exactly, ready for `matmul`'s chunked sgemm.
    """
    seed = _check_seed(seed)
    if not (q > 1 and q & (q - 1) == 0 and q <= 1 << 16):
        raise ValueError("gen_matrix needs a power-of-two q <= 2^16")
    raw = hashlib.shake_128(seed + bytes([tag])).digest(2 * rows * cols)
    a = (np.frombuffer(raw, dtype="<u2").reshape(rows, cols) & np.uint16(q - 1)).astype(np.float32)
    a.flags.writeable = False
    return a


def _check_seed(seed) -> bytes:
    seed = bytes(memoryview(seed))  # any bytes-like seed; bytes(32) would be 32 zeros
    if len(seed) != SEED_BYTES:
        raise ValueError("seed must be 32 bytes")
    return seed


def gen_poly(seed: bytes, n: int, q: int, tag: int = 0) -> "RingPoly":
    """Expand seed into a uniform ring element for prime q via rejection.

    16-bit chunks below q * floor(2^16 / q) are accepted and reduced mod q,
    which leaves the residue exactly uniform; q above 2^16 would accept none.
    """
    seed = _check_seed(seed)
    if not 1 < q <= 1 << 16:
        raise ValueError("gen_poly needs 1 < q <= 2^16")
    lim = q * ((1 << 16) // q)
    xof = hashlib.shake_128(seed + bytes([tag]))
    nwords = n + n // 8 + 16
    while True:
        # a longer digest extends the same stream, so the kept words are
        # the stream's first accepted ones however often this doubles
        words = np.frombuffer(xof.digest(2 * nwords), dtype="<u2").astype(np.int64)
        kept = words[words < lim]
        if len(kept) >= n:
            return RingPoly(n=n, q=q, coeffs=kept[:n], domain="coef")
        nwords *= 2


def lwr_round(x, q: int, p: int):
    """LWR rounding round(p x / q) mod p, for q a power of two and p | q.

    With w = q / p a power of two, round-half-up x / w is the one shift
    (x + w/2) >> log2(w), and mod p the mask & (p - 1).
    """
    if not (0 < p <= q and q & (q - 1) == 0 and q % p == 0):
        raise ValueError("lwr_round needs a power-of-two q and p | q")
    w = q // p
    return ((np.asarray(x, dtype=np.int64) + (w >> 1)) >> (w.bit_length() - 1)) & (p - 1)


def reduce_mod(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q in [0, q) for int64 x: the mask x & (q - 1) when q is a power
    of two, which two's complement makes exact for negative x, else `%`."""
    return x & (q - 1) if q & (q - 1) == 0 else x % q


def cut_bits(y, t: int):
    """Drop the t least significant bits: floor(y / 2^t); t = 0 passes through."""
    return np.asarray(y, dtype=np.int64) >> t


def uncut(y_cut, t: int):
    """Centered reconstruction 2^t y' + 2^(t-1); identity when t = 0."""
    y_cut = np.asarray(y_cut, dtype=np.int64)
    if t == 0:
        return y_cut
    return (y_cut << t) + (1 << (t - 1))


def matmul(a: np.ndarray, b: np.ndarray, q: int, bounds=(None, None)) -> np.ndarray:
    """a @ b mod q, as int64, exact; reduced by `reduce_mod`, so a mask for
    a power-of-two q.

    `bounds` gives max|a| and max|b| where the caller knows them, as the
    step kinds of `kcn.protocols` do: q - 1 for the public matrix and its
    transpose, the noise law's support bound for a secret, and the field's
    bound for a value off the wire.  An operand whose bound is None is
    scanned.  A bound below an operand's true max|.| breaks exactness.
    With term = max|a| max|b| and k inner terms, a product with a float32
    operand (the public matrix or a view of it) and term < 2^24 is
    split into chunks of step = (2^24 - 1) // term inner terms.  Each chunk
    is one float32 sgemm whose every partial sum stays below
    step * term < 2^24, so it is exact under any summation order or FMA;
    the chunks add up in float64, exact as k * term < 2^53.  Any other
    product with k * term < 2^53, which includes the int64 ones, is one
    float64 gemm.  Either float result holds exact integers, so it is
    converted to int64 without rounding.  A wider product reduces both
    operands into [0, q) first, which keeps the residue, and is one int64
    product; past k (q - 1)^2 >= 2^63 that could wrap, so it is refused.
    The public matrix and its views are not copied.  A transposed a (the
    responder's A^T) is multiplied as (b^T a^T)^T, so BLAS reads A in its
    stored row order.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.shape[-1] != b.shape[0]:
        raise ValueError(f"dimension mismatch {a.shape} @ {b.shape}")
    bound_a, bound_b = (_max_abs(v) if m is None else m for v, m in zip((a, b), bounds))
    k, term = a.shape[-1], max(1, bound_a) * max(1, bound_b)  # a zero term would leave no step
    if k * term >= 2**53:
        if k * (q - 1) ** 2 >= 2**63:
            raise ValueError(f"k (q - 1)^2 = {k * (q - 1) ** 2} must be below 2^63 "
                             f"for an exact int64 product (k = {k}, q = {q})")
        a, b = (reduce_mod(v.astype(np.int64, copy=False), q) for v in (a, b))
        return reduce_mod(a @ b, q)
    if a.flags.f_contiguous and not a.flags.c_contiguous:
        prod = _float_product(b.T, a.T, term).T
    else:
        prod = _float_product(a, b, term)
    return reduce_mod(prod.astype(np.int64), q)


def _float_product(a: np.ndarray, b: np.ndarray, term: int) -> np.ndarray:
    """a @ b as float64 holding the exact integer product, given
    max|a| max|b| <= term and k term < 2^53 for k inner terms: chunked
    float32 sgemm when an operand is float32 and term < 2^24, else one
    float64 gemm."""
    if term < 2**24 and np.float32 in (a.dtype, b.dtype):
        a, b = a.astype(np.float32, copy=False), b.astype(np.float32, copy=False)
        step = (2**24 - 1) // term  # each chunk's sums stay below step * term < 2^24
        prod = np.zeros(a.shape[:-1] + b.shape[1:])
        for s in range(0, a.shape[-1], step):
            prod += a[..., s:s + step] @ b[s:s + step]
        return prod
    return a.astype(np.float64, copy=False) @ b.astype(np.float64, copy=False)


def _max_abs(x: np.ndarray) -> int:
    """max |x| in Python ints, so no dtype minimum can wrap; 0 when empty."""
    return max(-int(x.min()), int(x.max())) if x.size else 0


# ---------------------------------------------------------------------------
# Negacyclic NTT over Z_q[x]/(x^n + 1), q prime with q = 1 mod 2n.

@dataclass(frozen=True, eq=False)
class RingPoly:
    """A ring element of Z_q[x]/(x^n + 1): int64 coefficients ("coef") or
    float64 NTT values ("ntt"), in [0, q) as the ring operations return them.

    The constructor, for outside callers, reduces into that form an integer
    array or a float array of integers below 2^53 in magnitude, and refuses
    anything a cast would truncate or wrap.  `unchecked` wraps values a ring
    operation has already reduced; `ntt_forward` also reads coefficients of
    either sign with |x| <= q - 1.  A RingPoly is frozen, so a parsed key's
    public element cannot be swapped, and compares by identity.
    """

    n: int
    q: int
    coeffs: np.ndarray
    domain: str = "coef"  # "coef" | "ntt"

    def __post_init__(self):
        if self.domain not in ("coef", "ntt"):
            raise ValueError("domain must be 'coef' or 'ntt'")
        x = np.asarray(self.coeffs)
        if x.dtype.kind == "f":
            if not np.all(np.abs(x) < 2.0**53) or not np.array_equal(x, np.rint(x)):
                raise ValueError("float coefficients must be integers below 2^53 in magnitude")
        elif x.dtype.kind not in "iu":
            raise ValueError(f"coefficients must be integers, got dtype {x.dtype}")
        if x.shape != (self.n,):
            raise ValueError("coefficient count must equal n")
        wide = {"f": np.float64, "i": np.int64, "u": np.uint64}[x.dtype.kind]  # so q fits the dtype
        x = x.astype(wide, copy=False) % self.q
        object.__setattr__(self, "coeffs", x.astype(np.int64 if self.domain == "coef" else np.float64,
                                                    copy=False))

    @classmethod
    def unchecked(cls, n: int, q: int, coeffs: np.ndarray, domain: str = "coef") -> "RingPoly":
        """A RingPoly around `coeffs` as they are: not copied, checked or
        reduced.  Values outside the form the domain states break the
        exactness of the operation that reads them."""
        p, set_ = cls.__new__(cls), object.__setattr__
        set_(p, "n", n)
        set_(p, "q", q)
        set_(p, "coeffs", coeffs)
        set_(p, "domain", domain)
        return p


def _find_generator(q: int) -> int:
    fac = []
    m = q - 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            fac.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        fac.append(m)
    for g in range(2, q):
        if all(pow(g, (q - 1) // f, q) != 1 for f in fac):
            return g
    raise ValueError("no generator found")


class _NttPlan(NamedTuple):
    """The four-step tables of one ring and whether its first stage reduces."""

    w1: np.ndarray
    t: np.ndarray
    w2: np.ndarray
    w1inv: np.ndarray
    tinv: np.ndarray
    w2inv: np.ndarray
    reduce_first: bool


@lru_cache(maxsize=None)
def _ntt_tables(n: int, q: int) -> _NttPlan:
    """The stage plan of the ring: read-only float64 four-step tables
    (W1, T, W2, W1inv, Tinv, W2inv), and whether the first stage reduces.

    With n = n1 * n2 and n1 = 2^ceil(log2(n) / 2), coefficient n2 j1 + j2
    is entry (j1, j2) of A, and entry (k1, k2) of the output is A evaluated
    at psi^(2k + 1), k = k1 + n1 k2.  That evaluation factors into
    W1[k1, j1] = psi^(n2 j1 (2k1 + 1)), T[k1, j2] = psi^(j2 (2k1 + 1)) and
    W2[j2, k2] = psi^(2 n1 j2 k2).  The inverse tables negate every
    exponent, and Tinv also carries n^-1.  Every entry is read, by its
    exponent mod 2n, from one array of the powers of psi.

    The first stage's product and its twiddle stay within n1 (q - 1)^3 in
    both transforms, so where n1 (q - 1)^3 + q < 2^53, as on every shipped
    ring (32 * 12288^3 is about 5.9e13), the first `_mod` is skipped and
    the second reduces the exact twiddled sums.  A ring past that line,
    such as (16, 47452897), keeps all three reductions.
    """
    if n & (n - 1) or n < 2:
        raise ValueError("n must be a power of two")
    if (q - 1) % (2 * n):
        raise ValueError(f"q = {q} does not support n = {n} (need q = 1 mod 2n)")
    n1 = 1 << (n.bit_length() // 2)
    n2 = n // n1
    if n1 * (q - 1) ** 2 >= 2**53:
        raise ValueError(f"n1 * (q - 1)^2 = {n1 * (q - 1) ** 2} must be below 2^53 "
                         f"for an exact float64 NTT (n = {n}, q = {q})")
    g = _find_generator(q)
    psi = pow(g, (q - 1) // (2 * n), q)
    assert pow(psi, n, q) == q - 1
    powers = np.empty(2 * n, dtype=np.int64)
    powers[0] = 1
    for e in range(1, 2 * n):
        powers[e] = powers[e - 1] * psi % q
    odd = 2 * np.arange(n1)[:, None] + 1  # 2 k1 + 1, down the rows
    j1, j2 = np.arange(n1), np.arange(n2)
    w1, t, w2 = n2 * j1 * odd, j2 * odd, 2 * n1 * j2[:, None] * j2
    n_inv = pow(n, -1, q)
    tables = (powers[w1 % (2 * n)], powers[t % (2 * n)], powers[w2 % (2 * n)],
              powers[-w1.T % (2 * n)], powers[-t % (2 * n)] * n_inv % q, powers[-w2.T % (2 * n)])
    tables = tuple(np.ascontiguousarray(x, dtype=np.float64) for x in tables)
    for x in tables:
        x.flags.writeable = False
    return _NttPlan(*tables, reduce_first=n1 * (q - 1) ** 3 + q >= 2**53)


def _mod(x: np.ndarray, q: int) -> np.ndarray:
    """Centered r = x - rint(x / q) q for exact integer float64 x of either
    sign with |x| + q < 2^53: x * (1/q) errs by under |x| 2^-52 / q + 2^-53,
    so |r| <= q/2 + 2, and |r| <= q - 1 as q >= 5 is odd; and rint(x / q) q,
    within q/2 + 2 of x, is exact.  The NTT's inputs stay within n1 (q - 1)^2,
    which the guard leaves over 2^27 > q below 2^53, or within n1 (q - 1)^3
    where the stage plan skips the first reduction, as n1 (q - 1)^3 + q < 2^53
    there."""
    r = x * (1.0 / q)
    np.rint(r, out=r)
    r *= -q
    r += x
    return r


def _canonical(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q in [0, q), as x - floor(x / q) q, for exact integer float64
    |x| < 2^53 - q.  With k = floor(x / q), x / q lies in [k, k + 1 - 1/q],
    k and k + 1 are exact, and the correctly rounded x / q is below k + 1,
    as half an ulp of k + 1 is at most |k + 1| 2^-53 < 1/q; so the floor is
    k, k q is exact and so is x - k q."""
    r = x / q
    np.floor(r, out=r)
    r *= -q
    r += x
    return r


def ntt_forward(p: RingPoly) -> RingPoly:
    """Forward negacyclic NTT, Bailey's four-step method in float64 BLAS.

    The n coefficients are an n1 x n2 matrix A, transformed as
    ((W1 @ A mod q) * T mod q) @ W2 mod q, psi folded into W1 and T, the
    middle mod q the centered `_mod`, the last `_canonical`, and the first
    a `_mod` only where the ring's stage plan keeps it; the output is
    float64 in [0, q) with no int64 pass.  A may hold any integers with
    |x| <= q - 1, a centered noise sample as well as residues, and the
    tables lie in [0, q).  So W1 @ A sums n1 terms of at most (q - 1)^2,
    and unreduced it reaches n1 (q - 1)^3 after the twiddle, which the plan
    admits only while n1 (q - 1)^3 + q < 2^53; reduced, the twiddle's
    products stay below (q - 1)^2.  A reduced stage lies in |r| <= q/2 + 2
    <= q - 1, so the last product sums n2 <= n1 terms of at most
    (q/2 + 2)(q - 1), and that sum plus q stays within n1 (q - 1)^2 for
    q >= 9, and is at most 41 for q = 5, as `_canonical` needs."""
    if p.domain != "coef":
        raise ValueError("already in NTT domain")
    plan = _ntt_tables(p.n, p.q)
    a = plan.w1 @ p.coeffs.astype(np.float64).reshape(plan.w1.shape[0], -1)
    if plan.reduce_first:
        a = _mod(a, p.q)
    a *= plan.t
    a = _canonical(_mod(a, p.q) @ plan.w2, p.q)
    return RingPoly.unchecked(p.n, p.q, a.reshape(-1), "ntt")


def ntt_inverse(p: RingPoly) -> RingPoly:
    """Inverse of `ntt_forward` (psi^-j and n^-1 in the tables), steps
    reversed, read from the float64 values in place.  Its first product
    sums n2 <= n1 terms of at most (q - 1)^2 from values in [0, q), so
    unreduced it stays within n2 (q - 1)^3 <= n1 (q - 1)^3 after the
    twiddle, and the stage plan skips its `_mod` as in `ntt_forward`; the
    last product sums n1 terms, within `_canonical`'s bound as there.  The
    coefficients come back as int64 in [0, q)."""
    if p.domain != "ntt":
        raise ValueError("not in NTT domain")
    plan = _ntt_tables(p.n, p.q)
    a = p.coeffs.reshape(plan.w1inv.shape[0], -1) @ plan.w2inv
    if plan.reduce_first:
        a = _mod(a, p.q)
    a *= plan.tinv
    a = _canonical(plan.w1inv @ _mod(a, p.q), p.q)
    return RingPoly.unchecked(p.n, p.q, a.reshape(-1).astype(np.int64), "coef")


def poly_mul(a: RingPoly, b: RingPoly) -> RingPoly:
    """Pointwise product of two NTT-domain polys in one ring, which is the
    NTT of their negacyclic product; coefficient-domain operands are refused.
    The float64 product of two values in [0, q) is below q^2, and the
    NTT's guard (n1 >= 2) leaves (q - 1)^2 < 2^52 and q < 2^26, so the
    product is exact, within `_canonical`'s bound, and reduced once."""
    if (a.n, a.q) != (b.n, b.q):
        raise ValueError("operands must share the ring")
    if a.domain != "ntt" or b.domain != "ntt":
        raise ValueError("poly_mul takes NTT-domain operands")
    _ntt_tables(a.n, a.q)  # refuses a ring past the guard, as the transforms do
    return RingPoly.unchecked(a.n, a.q, _canonical(a.coeffs * b.coeffs, a.q), "ntt")
