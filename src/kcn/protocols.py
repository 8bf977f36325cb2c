"""Two-party key-exchange executions for all four protocol families.

Each family follows the same shape: the initiator (Alice) sends a seeded
public element plus her sample, the responder (Bob) completes immediately
and answers with his sample and the reconciliation hint, and Alice
finishes.  All randomness flows through one injected numpy Generator, so a
fixed seed reproduces the transcript bit for bit.

Every family is a `_Family`, the (key step, response) pair of three step
kinds: LWR = (LWR, LWR), LWE = (LWE, LWE), hybrid = (LWE, LWR) and RLWE =
(RLWE, RLWE).  One exchange path, `initiate`, `respond` and `finish`, runs
them all, and the hybrid KEM functions are that exchange on a hybrid suite.
A step kind brings its algebra (matrices through `matmul`, given every
operand's bound, or ring elements through the NTT) and its hardness
problem, so `assumptions` finds hybrid resting on LWE and LWR.
Every family states its messages once, as the `kcn.wire.Layout` pair
from `layouts`, which packs, unpacks (canonically) and sizes them.
`public_key` parses a msg1 (for hybrid, the public key) once into a
`PublicKey`, which `respond` (so `hybrid_encaps`) takes in place of bytes.
Consensus is the suite's mode, a value holding its own parameters: `Plain()`
(every matrix family), `Sec(code)`, `NewHope(g)`, `Akcn41(g)` or `E8(g)`.

The consensus output is returned as packed key bits (before any KDF);
`derive_key` applies the SHAKE-256 KDF with a suite-name prefix.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from kcn import algebra, codes, wire
from kcn.kc import akc_con, akc_rec, kc_con, kc_rec

if TYPE_CHECKING:
    from kcn.suites import Suite

__all__ = [
    "Session",
    "PublicKey",
    "public_key",
    "initiate",
    "respond",
    "finish",
    "derive_key",
    "layouts",
    "public_element",
    "Assumption",
    "assumptions", "FAMILIES",
    "Mode", "Plain", "Sec", "NewHope", "Akcn41", "E8",
    "hybrid_keygen",
    "hybrid_encaps",
    "hybrid_decaps",
]

# fixed one-byte domain tags for the public-element expansion
TAG_MATRIX = 0
TAG_POLY = 1

_SEED = wire.Field("seed", (algebra.SEED_BYTES,), 256)


class Assumption(NamedTuple):
    """A hardness problem over n secret coordinates mod q, priced under a
    `kcn.analysis.security` cost model ("matrix" or "core")."""

    problem: str  # "lwr" | "lwe" | "rlwe"
    n: int
    q: int
    sigma_s_sq: float
    sigma_e_sq: float
    model: str


@dataclass
class Session:
    """Initiator-side state between her two protocol moves."""

    suite: Suite
    secret: object  # X1 from the key step kind's `secret`: a matrix, or an NTT-domain RingPoly


def _sample(suite: Suite, rng, shape) -> np.ndarray:
    return np.asarray(suite.noise.sample(rng, shape), dtype=np.int64)


# ---------------------------------------------------------------------------
# The three step kinds: LWR, LWE and RLWE.  As a key step, a kind makes y1
# from A X1 and, on the responder's side, lifts y1 back into Z_q.  As a
# response, it makes y2 from A^T X2 (cutting the suite's t low bits, which
# only LWE sets) and sigma2 from lift(y1)^T X2, and the initiator finishes
# with X1^T y2 modulo `modulus`.

class _Step:
    """The matrix algebra of LWR and LWE: int64 matrices, multiplied by the
    read-only float32 public matrix A or by each other through `matmul`."""

    def public(self, suite: Suite) -> wire.Field:
        return wire.Field("A", (suite.n_b or suite.n, suite.n), suite.q)

    def expand(self, suite: Suite, seed):
        return algebra.gen_matrix(seed, *self.public(suite).shape, suite.q, TAG_MATRIX)

    def shape(self, suite: Suite, rows: int, cols: int) -> tuple[int, ...]:
        return (rows, cols)

    def secret(self, suite: Suite, rng, rows: int, cols: int):
        return _sample(suite, rng, self.shape(suite, rows, cols))

    def transpose(self, m):
        return m.T

    def product(self, suite: Suite, m, x, q: int, bounds) -> np.ndarray:
        return algebra.matmul(m, x, q, bounds)

    def sample(self, suite: Suite, m, x, rng) -> np.ndarray:
        """The sample of M X for a secret X and an M below q in magnitude:
        A, A^T or lift(y1)^T."""
        mx = self.product(suite, m, x, suite.q, (suite.q - 1, suite.noise.support_bound))
        return self.perturb(suite, mx, rng)


class _Lwr(_Step):
    """LWR samples round_p(M X), in Z_p; nothing is cut."""

    def modulus(self, suite: Suite) -> int:
        return suite.p

    def assumption(self, suite: Suite, n: int) -> Assumption:
        w = suite.q // suite.p  # the rounded-off part is uniform noise of width w
        return Assumption("lwr", n, suite.q, suite.noise.variance, (w**2 - 1) / 12.0, "matrix")

    def perturb(self, suite: Suite, mx, rng) -> np.ndarray:
        return algebra.lwr_round(mx, suite.q, suite.p)

    def lift(self, suite: Suite, y1, rng) -> np.ndarray:
        """y1 back into Z_q, with uniform eps standing in for the rounded-off
        part: w y1 + eps lies in [-w/2, q - w/2), below q in magnitude."""
        w = suite.q // suite.p
        eps = rng.integers(-(w // 2), w // 2, size=y1.shape, dtype=np.int64)
        return w * y1 + eps


class _Lwe(_Step):
    """LWE samples M X + E mod q; a response drops its t low bits on the wire."""

    def modulus(self, suite: Suite) -> int:
        return suite.q

    def assumption(self, suite: Suite, n: int) -> Assumption:
        return Assumption("lwe", n, suite.q, suite.noise.variance, suite.noise.variance, "matrix")

    def perturb(self, suite: Suite, mx, rng) -> np.ndarray:
        return algebra.reduce_mod(mx + _sample(suite, rng, mx.shape), suite.q)

    def lift(self, suite: Suite, y1, rng) -> np.ndarray:
        return y1


class _Rlwe(_Lwe):
    """RLWE samples a x + e over Z_q[x]/(x^n + 1); nothing is cut.  One ring
    element of n coefficients stands for every matrix, and is its own
    transpose.  The public element and the secrets stay in the NTT domain,
    so a product transforms only what came off the wire."""

    def public(self, suite: Suite) -> wire.Field:
        return wire.Field("a", (suite.n,), suite.q)

    def expand(self, suite: Suite, seed) -> algebra.RingPoly:
        """NTT of the public ring element, its coefficients read-only."""
        a = algebra.ntt_forward(algebra.gen_poly(seed, suite.n, suite.q, TAG_POLY))
        a.coeffs.flags.writeable = False
        return a

    def shape(self, suite: Suite, rows: int, cols: int) -> tuple[int, ...]:
        return (suite.n,)

    def secret(self, suite: Suite, rng, rows: int, cols: int) -> algebra.RingPoly:
        """The NTT of a noise sample, transformed centered: its support
        bound lies below q, so no reduction comes first."""
        x = super().secret(suite, rng, rows, cols)
        return algebra.ntt_forward(algebra.RingPoly.unchecked(suite.n, suite.q, x))

    def transpose(self, m):  # the identity in place of A^T
        return m

    def product(self, suite: Suite, m, x, q: int, bounds) -> np.ndarray:
        """The coefficients of m x, as int64 in [0, q); the NTT needs no
        `bounds`.  An operand off the wire (y1, or y2, which the ring
        suites do not cut) comes as coefficients in [0, q), its field's
        range, and is transformed as it is; the others are RingPolys
        already."""
        fm, fx = (v if isinstance(v, algebra.RingPoly)
                  else algebra.ntt_forward(algebra.RingPoly.unchecked(suite.n, q, v)) for v in (m, x))
        return algebra.ntt_inverse(algebra.poly_mul(fm, fx)).coeffs

    def assumption(self, suite: Suite, n: int) -> Assumption:
        return Assumption("rlwe", n, suite.q, suite.noise.variance, suite.noise.variance, "core")


LWR, LWE, RLWE = _Lwr(), _Lwe(), _Rlwe()


@dataclass(frozen=True, eq=False)
class PublicKey:
    """A parsed msg1, the public key of hybrid: its suite, seed and y1, and
    the public element `a` the seed expands into (the key step kind's
    `expand`: A as float32, or the ring element's NTT), all read-only.
    y1 must lie in its field, as `matmul` takes q - 1 for its bound; `a` is
    trusted, since checking it would scan all of A on every exchange."""

    suite: Suite
    seed: bytes
    y1: np.ndarray
    a: object

    def __post_init__(self):
        field = layouts(self.suite)[0].fields[1]
        if self.y1.shape != field.shape:
            raise ValueError(f"{self.suite.name}: y1 has shape {self.y1.shape}, expected {field.shape}")
        field.check(self.y1.reshape(-1))
        self.y1.flags.writeable = False

    @classmethod
    def unchecked(cls, suite: Suite, seed: bytes, y1: np.ndarray, a) -> "PublicKey":
        """A PublicKey around a y1 already known to lie in its field, made
        read-only but not checked again: the y1 that `initiate` has just
        packed, or one that `Field.decode` has checked or `unpack`'s mask
        bounds."""
        pk, set_ = cls.__new__(cls), object.__setattr__
        set_(pk, "suite", suite)
        set_(pk, "seed", seed)
        set_(pk, "y1", y1)
        set_(pk, "a", a)
        y1.flags.writeable = False
        return pk


# The one parsed key that msg1 bytes reach.  `initiate` leaves its own key
# here, so a responder in the same process, or each session to one public
# key, parses and expands it once; a caller serving more keys holds their
# PublicKey values.  The slot is one ((suite, msg1), key) tuple, replaced
# whole so a reader never pairs one key with another's bytes, and emptied
# before the next expansion so two public elements are never alive in it
# at once.
_key_slot: tuple | None = None


def public_key(suite: Suite, msg1) -> PublicKey:
    """Parse msg1 of `suite`: decoded canonically, so `Layout.unpack`
    refuses a malformed one, and its seed expanded.  The exact bytes of
    the last key parsed or initiated give back that key."""
    global _key_slot
    msg1 = bytes(memoryview(msg1))  # a copy: a buffer changed later cannot hit
    slot = _key_slot
    if slot is not None and slot[0] == (suite, msg1):
        return slot[1]
    seed, y1 = layouts(suite)[0].unpack(msg1)
    seed = seed.astype(np.uint8).tobytes()
    _key_slot = slot = None
    pk = PublicKey.unchecked(suite, seed, y1, FAMILIES[suite.family].key.expand(suite, seed))
    _key_slot = ((suite, msg1), pk)
    return pk


# ---------------------------------------------------------------------------
# Consensus modes, each a frozen value holding its parameters: `fields` gives
# the agreed key (a field of symbols below a bound) and the hint fields that
# follow y2 in msg2; `akc` says whether the responder chooses the key;
# `_agree` and `_recover` run Con and Rec on sigma.

class Mode:
    """The shared Con/Rec driver of the consensus modes, which reads each
    suite's fields from `_fields`."""

    AKC = None  # fixed by a code mode; None: the suite's scalar variant decides

    @property
    def name(self) -> str:
        return type(self).__name__.lower()

    def akc(self, suite: Suite) -> bool:
        return suite.variant.is_akc if self.AKC is None else self.AKC

    def con(self, suite: Suite, sigma2: np.ndarray, rng, key_in) -> tuple[bytes, tuple]:
        """(packed key, hint arrays).  AKC sends `key_in` (the key's symbol
        count, each below its bound) or a uniform key; KC refuses `key_in`."""
        key, k = _fields(self, suite)[0], None
        if key_in is not None:
            if not self.akc(suite):
                raise ValueError(f"{suite.name}: KC suites cannot transport a chosen key")
            k = np.asarray(key_in)
            if k.dtype.kind not in "iu":  # a cast would truncate floats and parse strings
                raise ValueError(f"{suite.name}: a chosen key holds integers, got dtype {k.dtype}")
            k = k.reshape(key.shape)  # ValueError unless key.count symbols
            key.check(k.reshape(-1))  # before the cast, which would wrap a uint64 above 2^63
            k = k.astype(np.int64, copy=False)
        elif self.akc(suite):
            k = rng.integers(0, key.bound, size=key.shape, dtype=np.int64)
        k, hint = self._agree(suite, sigma2, rng, k)
        return wire.pack(k, key.bits), hint

    def rec(self, suite: Suite, sigma1: np.ndarray, hint) -> bytes:
        return wire.pack(self._recover(suite, sigma1, hint), _fields(self, suite)[0].bits)


@lru_cache(maxsize=None)
def _fields(mode: Mode, suite: Suite) -> tuple[wire.Field, tuple[wire.Field, ...]]:
    """`mode.fields(suite)`, built once per suite: the key field that
    Con/Rec pack at its bits, and the hint fields of `layouts`."""
    return mode.fields(suite)


@dataclass(frozen=True)
class Plain(Mode):
    """One scalar KC or AKC per coefficient of sigma."""

    def fields(self, suite: Suite) -> tuple[wire.Field, tuple[wire.Field, ...]]:
        shape = FAMILIES[suite.family].response.shape(suite, suite.l_a, suite.l_b)  # sigma's shape
        return wire.Field("key", shape, suite.kc.m), (wire.Field("v", shape, suite.kc.g),)

    def _agree(self, suite: Suite, sigma2, rng, k):
        if k is not None:
            return k, (akc_con(suite.variant, sigma2, k, suite.kc),)
        k, v = kc_con(suite.variant, sigma2, suite.kc, rng)
        return k, (v,)

    def _recover(self, suite: Suite, sigma1, hint):
        rec = akc_rec if self.akc(suite) else kc_rec
        return rec(suite.variant, sigma1, hint[0], suite.kc)


@dataclass(frozen=True)
class Sec(Plain):
    """Plain consensus under one codeword of `code` per block of coefficients:
    AKC encodes the key into them; KC wraps them and sends the correction v'."""

    code: codes.SecCode

    def __post_init__(self):
        if not isinstance(self.code, codes.SecCode):
            raise ValueError(f"sec: code must be a kcn.codes.SecCode, got {self.code!r}")

    def fields(self, suite: Suite) -> tuple[wire.Field, tuple[wire.Field, ...]]:
        blocks = suite.n // self.code.block_bits
        vprime = wire.Field("v'", (blocks, self.code.n_h + 1), 2)
        return (wire.Field("key", (blocks * self.code.message_bits,), 2),
                super().fields(suite)[1] + (() if self.akc(suite) else (vprime,)))

    def _agree(self, suite: Suite, sigma2, rng, k):
        if k is not None:
            cw = codes.sec_encode(k.reshape(-1, self.code.message_bits), self.code).reshape(-1)
            coeff_keys = np.concatenate([cw, np.zeros(suite.n - cw.size, cw.dtype)])
            return k, super()._agree(suite, sigma2, rng, coeff_keys)[1]
        k, (v,) = super()._agree(suite, sigma2, rng, None)
        x, vprime = codes.sec_wrap(_whole_blocks(k, self.code), self.code)
        return x.reshape(-1), (v, vprime)

    def _recover(self, suite: Suite, sigma1, hint):
        blocks = _whole_blocks(super()._recover(suite, sigma1, hint), self.code)
        if self.akc(suite):
            return codes.sec_decode(blocks, self.code).reshape(-1)
        return codes.sec_unwrap(blocks, hint[1].astype(np.uint8), self.code).reshape(-1)


def _whole_blocks(k: np.ndarray, code) -> np.ndarray:
    """The whole SEC blocks of per-coefficient bits k; the tail is unused."""
    nblk = k.size // code.block_bits
    return k[: nblk * code.block_bits].reshape(nblk, code.block_bits).astype(np.uint8)


def _stride_blocks(coeffs: np.ndarray, width: int) -> np.ndarray:
    """Group i holds coefficients {i, i + n/width, i + 2n/width, ...}."""
    return coeffs.reshape(width, -1).T


@dataclass(frozen=True)
class _Lattice(Mode):
    g: int  # the lattice code's hint range, a power of two

    def __post_init__(self):
        if self.g < 2 or self.g & (self.g - 1):
            raise ValueError(f"{self.name}: g must be a power of two >= 2, got {self.g}")


@dataclass(frozen=True)
class NewHope(_Lattice):
    """NewHope's D4 reconciliation (KC): one bit per 4 coefficients."""

    AKC = False

    def fields(self, suite: Suite) -> tuple[wire.Field, tuple[wire.Field, ...]]:
        return wire.Field("key", (suite.n // 4,), 2), (wire.Field("v", (suite.n // 4, 4), self.g),)

    def _agree(self, suite: Suite, sigma2, rng, k):
        blocks = _stride_blocks(sigma2, 4)
        b = rng.integers(0, 2, size=len(blocks), dtype=np.int64)
        k, v = codes.newhope_con(blocks, b, (self.g - 1).bit_length(), suite.q)
        return k, (v,)

    def _recover(self, suite: Suite, sigma1, hint):
        return codes.newhope_rec(_stride_blocks(sigma1, 4), hint[0], (self.g - 1).bit_length(), suite.q)


@dataclass(frozen=True)
class Akcn41(_Lattice):
    """The 4:1 D4 AKC: one chosen bit per 4 coefficients.  Each block's hint
    is a record (v0, v1, v2, v3) in Z_g^3 x Z_2g; `_agree` mixes it into the
    one value v0 + g v1 + g^2 v2 + g^3 v3 below 2g^4, which for g a power of
    two is its parts bit-packed lowest first, and `_recover` splits it."""

    AKC = True

    def fields(self, suite: Suite) -> tuple[wire.Field, tuple[wire.Field, ...]]:
        return wire.Field("key", (suite.n // 4,), 2), (wire.Field("v", (suite.n // 4,), 2 * self.g**4),)

    def _agree(self, suite: Suite, sigma2, rng, k):
        v = codes.akcn41_con(_stride_blocks(sigma2, 4), k, self.g, suite.q)
        return k, (v @ self.g ** np.arange(4),)

    def _recover(self, suite: Suite, sigma1, hint):
        g = self.g
        v = hint[0][:, None] // g ** np.arange(4) % (g, g, g, 2 * g)
        return codes.akcn41_rec(_stride_blocks(sigma1, 4), v, g, suite.q)


@dataclass(frozen=True)
class E8(_Lattice):
    """The E8 AKC: four chosen bits per 8 coefficients."""

    AKC = True

    def fields(self, suite: Suite) -> tuple[wire.Field, tuple[wire.Field, ...]]:
        return wire.Field("key", (suite.n // 2,), 2), (wire.Field("v", (suite.n // 8, 8), self.g),)

    def _agree(self, suite: Suite, sigma2, rng, k):
        return k, (codes.e8_con(_stride_blocks(sigma2, 8), k.reshape(-1, 4), self.g, suite.q),)

    def _recover(self, suite: Suite, sigma1, hint):
        return codes.e8_rec(_stride_blocks(sigma1, 8), hint[0], self.g, suite.q).reshape(-1)


# ---------------------------------------------------------------------------
# The families, their exchange (which the KEM functions run on a hybrid
# suite) and key derivation

class _Family(NamedTuple):
    """A protocol family: one key step kind and one response kind."""

    key: _Step
    response: _Step


FAMILIES = {
    "lwr": _Family(LWR, LWR),
    "lwe": _Family(LWE, LWE),
    "hybrid": _Family(LWE, LWR),
    "rlwe": _Family(RLWE, RLWE),
}


@lru_cache(maxsize=None)
def layouts(suite: Suite) -> tuple[wire.Layout, wire.Layout]:
    """The wire layouts of msg1 and msg2 (public key and ciphertext for hybrid)."""
    key, resp = FAMILIES[suite.family]
    y1 = wire.Field("y1", key.shape(suite, suite.n_b or suite.n, suite.l_a), key.modulus(suite))
    y2 = wire.Field("y2", resp.shape(suite, suite.n, suite.l_b), resp.modulus(suite) >> suite.t)
    return wire.Layout((_SEED, y1)), wire.Layout((y2,) + _fields(suite.mode, suite)[1])


def public_element(suite: Suite) -> wire.Field:
    """The public matrix or ring element the msg1 seed expands into, as a field."""
    return FAMILIES[suite.family].key.public(suite)


def assumptions(suite: Suite) -> list[Assumption]:
    """The hardness assumptions the suite rests on, each distinct one once:
    the key step over the rows of X1, then the response over those of X2."""
    key, resp = FAMILIES[suite.family]
    return list(dict.fromkeys((key.assumption(suite, suite.n), resp.assumption(suite, suite.n_b or suite.n))))


def initiate(suite: Suite, rng) -> tuple[Session, bytes]:
    """(Alice's session, msg1), leaving the key of msg1 in the slot."""
    global _key_slot
    key = FAMILIES[suite.family].key
    seed = rng.bytes(algebra.SEED_BYTES)
    _key_slot = None
    a = key.expand(suite, seed)
    x1 = key.secret(suite, rng, suite.n, suite.l_a)
    y1 = key.sample(suite, a, x1, rng)
    msg1 = layouts(suite)[0].pack(np.frombuffer(seed, np.uint8), y1)
    _key_slot = ((suite, msg1), PublicKey.unchecked(suite, seed, y1, a))
    return Session(suite, x1), msg1


def respond(suite: Suite, msg1, rng, key_in=None) -> tuple[bytes, bytes]:
    """Returns (packed key bits, msg2).  msg1 is the initiator's bytes or
    a `PublicKey` of this suite."""
    pk = msg1 if isinstance(msg1, PublicKey) else public_key(suite, msg1)
    if pk.suite != suite:
        raise ValueError(f"{suite.name}: the public key is for {pk.suite.name}")
    key, resp = FAMILIES[suite.family]
    x2 = resp.secret(suite, rng, suite.n_b or suite.n, suite.l_b)
    y2 = algebra.cut_bits(resp.sample(suite, resp.transpose(pk.a), x2, rng), suite.t)
    sigma2 = resp.sample(suite, resp.transpose(key.lift(suite, pk.y1, rng)), x2, rng)
    k, hint = suite.mode.con(suite, sigma2, rng, key_in)
    return k, layouts(suite)[1].pack(y2, *hint)


def finish(session: Session, msg2: bytes) -> bytes:
    suite, resp = session.suite, FAMILIES[session.suite.family].response
    y2, *hint = layouts(suite)[1].unpack(msg2)
    modulus = resp.modulus(suite)
    # uncut y2 stays below the modulus, which is y2's bound times 2^t
    sigma1 = resp.product(suite, resp.transpose(session.secret), algebra.uncut(y2, suite.t), modulus,
                          (suite.noise.support_bound, modulus - 1))
    return suite.mode.rec(suite, sigma1, hint)


def _kem(suite: Suite) -> Suite:
    """`suite`, checked to be hybrid: the family whose responder takes a chosen key."""
    if suite.family != "hybrid":
        raise ValueError(f"{suite.name}: the KEM functions need a hybrid suite, not the {suite.family} family")
    return suite


def hybrid_keygen(suite: Suite, rng):
    """Returns (public key bytes, secret X1).  `public_key(suite, pk)`
    gives the key as a value for `hybrid_encaps`."""
    session, pk = initiate(_kem(suite), rng)
    return pk, session.secret


def hybrid_encaps(suite: Suite, pk, rng, key_in=None):
    """Returns (packed key bits, ciphertext bytes); pk is the public key's
    bytes or its `PublicKey`."""
    return respond(_kem(suite), pk, rng, key_in)


def hybrid_decaps(suite: Suite, x1: np.ndarray, ct: bytes) -> bytes:
    return finish(Session(_kem(suite), x1), ct)


def derive_key(suite: Suite, key_bits: bytes) -> bytes:
    """Session key: SHAKE-256 over the packed consensus bits, suite-tagged."""
    return hashlib.shake_256(suite.name.encode() + b"\x00" + key_bits).digest(32)
