import dataclasses
import hashlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from kcn import algebra
from kcn import protocols as proto
from kcn.algebra import RingPoly
from kcn.kc import div_round
from kcn.suites import SUITES, get_suite
from oracles import frac_part, ntt_mul, schoolbook_negacyclic

SEED = bytes(range(32))


def test_lwr_round_examples():
    assert algebra.lwr_round(0, 16, 4) == 0
    assert algebra.lwr_round(7, 16, 4) == 2
    assert algebra.lwr_round(2**15 - 1, 2**15, 2**12) == 0  # wraps
    with pytest.raises(ValueError):
        algebra.lwr_round(1, 12, 5)
    with pytest.raises(ValueError):  # p | q, but q is not a power of two
        algebra.lwr_round(1, 24, 12)


LWR_MODULI = sorted({(s.q, s.p) for s in SUITES.values() if s.family in ("lwr", "hybrid")})


@pytest.mark.parametrize("q, p", LWR_MODULI)
def test_lwr_round_shift_matches_div_round(q, p):
    # the shift and mask against round-half-up division, over negative and
    # positive products and at the float64 integer limit
    x = np.concatenate([np.arange(-(2**17), 2**17), [2**53 - 1, -(2**53 - 1)]])
    assert np.array_equal(algebra.lwr_round(x, q, p), div_round(x, q // p) % p)


def test_frac_part_examples():
    assert frac_part(0, 16, 4) == 0
    assert frac_part(7, 16, 4) == -1


def test_round_frac_decomposition_exhaustive():
    q, p = 2**10, 2**6
    x = np.arange(q)
    recon = (q // p) * ((2 * p * x + q) // (2 * q)) + frac_part(x, q, p)
    assert np.array_equal(recon, x)
    fp = frac_part(x, q, p)
    assert fp.min() == -(q // (2 * p)) and fp.max() == q // (2 * p) - 1


def test_cut_uncut():
    assert algebra.cut_bits(13, 2) == 3
    assert algebra.uncut(np.int64(3), 2) == 14
    y = np.arange(2**10)
    assert np.array_equal(algebra.uncut(algebra.cut_bits(y, 0), 0), y)
    for t in (1, 2, 3):
        eps = algebra.uncut(algebra.cut_bits(y, t), t) - y
        half = 1 << (t - 1)
        assert eps.min() == -half + 1 and eps.max() == half


@pytest.mark.parametrize("n,q", [(16, 97), (512, 12289), (1024, 12289)])
def test_ntt_roundtrip(n, q, rng):
    a = RingPoly(n, q, rng.integers(0, q, n))
    back = algebra.ntt_inverse(algebra.ntt_forward(a))
    assert np.array_equal(back.coeffs, a.coeffs)


def test_ntt_constant_poly():
    n, q = 16, 97
    one = RingPoly(n, q, np.eye(n, dtype=np.int64)[0])
    spec = algebra.ntt_forward(one)
    assert np.all(spec.coeffs == 1)  # unit polynomial is all-ones spectrum
    assert np.array_equal(algebra.ntt_inverse(spec).coeffs, one.coeffs)


def test_ntt_mul_matches_schoolbook(rng):
    for n, q in [(16, 97), (64, 12289)]:
        for _ in range(25):
            a = rng.integers(0, q, n)
            b = rng.integers(0, q, n)
            fast = ntt_mul(RingPoly(n, q, a), RingPoly(n, q, b)).coeffs
            assert np.array_equal(fast, schoolbook_negacyclic(a, b, q))


def test_ntt_linearity(rng):
    n, q = 512, 12289
    a = rng.integers(0, q, n)
    b = rng.integers(0, q, n)
    fa = algebra.ntt_forward(RingPoly(n, q, a)).coeffs
    fb = algebra.ntt_forward(RingPoly(n, q, b)).coeffs
    fsum = algebra.ntt_forward(RingPoly(n, q, (a + b) % q)).coeffs
    assert np.array_equal(fsum, (fa + fb) % q)


def test_ntt_domain_guard(rng):
    n, q = 16, 97
    a = RingPoly(n, q, rng.integers(0, q, n))
    with pytest.raises(ValueError):
        algebra.ntt_inverse(a)
    with pytest.raises(ValueError):
        algebra.ntt_forward(algebra.ntt_forward(a))
    with pytest.raises(ValueError):
        algebra.ntt_forward(RingPoly(12, 97, np.zeros(12, dtype=np.int64)))


# the smallest prime q = 1 mod 2n for each power of two n: odd and even
# log2(n), so both n1 = n2 and n1 = 2 n2 in the four-step split
POW2_RINGS = [(2, 5), (4, 17), (8, 17), (16, 97), (32, 193), (64, 257), (128, 257),
              (256, 7681), (512, 12289), (1024, 12289)]


@pytest.mark.parametrize("n,q", POW2_RINGS)
def test_ntt_every_power_of_two(n, q, rng):
    assert (q - 1) % (2 * n) == 0
    for _ in range(3):
        a = rng.integers(0, q, n)
        b = rng.integers(0, q, n)
        fast = ntt_mul(RingPoly(n, q, a), RingPoly(n, q, b)).coeffs
        assert np.array_equal(fast, schoolbook_negacyclic(a, b, q))
        back = algebra.ntt_inverse(algebra.ntt_forward(RingPoly(n, q, a)))
        assert np.array_equal(back.coeffs, a)


def test_ntt_exactness_guard():
    # q = 1 mod 32, but n1 (q - 1)^2 = 4 (q - 1)^2 is past 2^53
    with pytest.raises(ValueError, match=r"2\^53"):
        algebra.ntt_forward(RingPoly(16, 67108961, np.arange(16)))


def test_poly_mul_exactness_guard():
    # NTT-domain values built by hand on a ring the transforms refuse are
    # refused by poly_mul too, whose float64 product the guard keeps exact
    spec = RingPoly(16, 67108961, np.arange(16), "ntt")
    with pytest.raises(ValueError, match=r"2\^53"):
        algebra.poly_mul(spec, spec)


def _assert_centered_residue(x, r, q):
    assert np.array_equal(r, np.rint(r))  # an exact integer
    assert np.array_equal(r.astype(np.int64) % q, x.astype(np.int64) % q)
    assert np.abs(r).max() <= q / 2 + 2


def test_float_mod_centered_residue():
    # exact multiples of q and their neighbours +-1, where x * (1/q) lands
    # on or beside an integer, and the points either side of the half-way
    # mark, where rint(x * (1/q)) may round either way
    q = 7681
    m = np.arange(32 * (q - 1) ** 2 // q, dtype=np.float64) * q
    x = np.concatenate([m, m + 1, m - 1, m + q - 1, m + (q - 1) // 2, m + (q + 1) // 2])
    x = np.concatenate([x, -x])
    _assert_centered_residue(x, algebra._mod(x, q), q)


# both suite rings, and the largest prime q = 1 mod 4 that the guard admits
# for n = 2 (n1 = 2), where the stage sums come closest to 2^53
@pytest.mark.parametrize("n,q", [(512, 12289), (1024, 12289), (2, 67108837)])
@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_float_mod_property_below_guard(n, q, data):
    algebra._ntt_tables(n, q)  # the guard accepts the ring
    top = (1 << (n.bit_length() // 2)) * (q - 1) ** 2  # n1 (q - 1)^2
    xs = data.draw(st.lists(st.integers(-top, top), min_size=1, max_size=64))
    x = np.array(xs, dtype=np.float64)  # exact: |x| < 2^53
    _assert_centered_residue(x, algebra._mod(x, q), q)


# the rings of the reduction tests: both suite rings, a small one, and the
# largest prime q = 1 mod 32 the guard admits at n = 16 (n1 = 4)
EDGE_RINGS = [(512, 12289), (1024, 12289), (16, 97), (16, 47452897)]


@pytest.mark.parametrize("n,q", [(2, 67108837), (16, 47452897), (1024, 12289)])
@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_float_canonical_residue(n, q, data):
    # x mod q in [0, q), exactly, on both sides of zero up to 2^53 - q, and
    # at multiples of q and beside them, where x / q lands on or by an integer
    algebra._ntt_tables(n, q)
    top = 2**53 - q - 1
    xs = data.draw(st.lists(st.integers(-top, top), min_size=1, max_size=64))
    k = data.draw(st.integers(-(top // q), top // q))
    x = np.array(xs + [k * q, k * q + 1, k * q - 1, 0, top, -top], dtype=np.int64)
    r = algebra._canonical(x.astype(np.float64), q)
    assert r.dtype == np.float64
    assert np.array_equal(r.astype(np.int64), x % q)


@pytest.mark.parametrize("n,q", EDGE_RINGS)
def test_ntt_forward_reads_centered_coefficients(n, q, rng):
    # coefficients down to -(q - 1), as a centered noise sample gives them,
    # transform to the very values their residues do
    ext = np.array([-(q - 1), q - 1, -1, 0])
    for c in (rng.integers(-(q - 1), q, n), np.resize(ext, n), np.full(n, -(q - 1))):
        centered = algebra.ntt_forward(RingPoly.unchecked(n, q, c.astype(np.int64)))
        reduced = algebra.ntt_forward(RingPoly(n, q, c))
        assert centered.coeffs.tobytes() == reduced.coeffs.tobytes()


@pytest.mark.parametrize("n,q", EDGE_RINGS)
def test_ring_operations_return_canonical_residues(n, q, rng):
    # NTT values are float64 and coefficients int64, each in [0, q), from
    # the transforms and the product alike, the all-(q - 1) input included
    for c in (rng.integers(0, q, n), np.full(n, q - 1)):
        spec = algebra.ntt_forward(RingPoly(n, q, c))
        prod = algebra.poly_mul(spec, spec)
        back = algebra.ntt_inverse(prod)
        for p, dtype in ((spec, np.float64), (prod, np.float64), (back, np.int64)):
            assert p.coeffs.dtype == dtype
            assert p.coeffs.min() >= 0 and p.coeffs.max() < q
        assert np.array_equal(algebra.ntt_inverse(spec).coeffs, c)
        if n <= 64:
            assert np.array_equal(back.coeffs, schoolbook_negacyclic(c, c, q))


@pytest.mark.parametrize("bad", [[0.9, 1.5, 2.2, 16.7], ["1", "2", "3", "4"], np.full(4, 2.0**63),
                                 [np.nan] * 4, [True] * 4])
def test_ring_poly_refuses_values_that_are_not_integers(bad):
    # a cast would truncate, parse or wrap these into coefficients
    for domain in ("coef", "ntt"):
        with pytest.raises(ValueError):
            RingPoly(4, 17, bad, domain)


def test_ring_poly_reduces_integers_and_integral_floats():
    # integer dtypes of any sign and width, and floats holding integers, as
    # an NTT-domain product reduced by hand is, come back canonical
    want = [1, 16, 0, 16]
    for x in ([18, -1, 0, 33], np.array([18, 2**64 - 2, 0, 16], dtype=np.uint64),
              np.array([18.0, -1.0, 0.0, 2.0**53 - 16])):
        coef, spec = RingPoly(4, 17, x), RingPoly(4, 17, x, "ntt")
        assert coef.coeffs.dtype == np.int64 and spec.coeffs.dtype == np.float64
        assert list(coef.coeffs) == list(spec.coeffs) == want
    # a narrow dtype is widened first, so a q past its range still reduces it
    assert list(RingPoly(4, 12289, np.array([1, -1, 0, 127], dtype=np.int8)).coeffs) == [1, 12288, 0, 127]


def test_ntt_guard_leaves_room_for_centered_quotient():
    # for each n1 the guard can meet, the largest n1 (q - 1)^2 below 2^53
    # leaves room for rint(x / q) q, up to q/2 + 2 past x, to stay exact;
    # n1 = 2048 needs n >= 2^21 and q > 2^22, past the guard
    for n1 in (1 << k for k in range(1, 11)):
        top = math.isqrt((2**53 - 1) // n1)  # the largest q - 1
        assert 2**53 - n1 * top**2 > 2**27 and top < 2**26
    assert 2048 * (2**22) ** 2 >= 2**53


@pytest.mark.parametrize("n,q", [(512, 12289), (1024, 12289)])
def test_ntt_extreme_inputs(n, q):
    # all q - 1 and alternating 0 / q - 1 drive the stage sums to their largest
    full = np.full(n, q - 1, dtype=np.int64)
    alt = np.tile(np.array([0, q - 1], dtype=np.int64), n // 2)
    for a in (full, alt, alt[::-1]):
        back = algebra.ntt_inverse(algebra.ntt_forward(RingPoly(n, q, a)))
        assert np.array_equal(back.coeffs, a)
        for b in (full, alt):
            fast = ntt_mul(RingPoly(n, q, a), RingPoly(n, q, b)).coeffs
            assert np.array_equal(fast, schoolbook_negacyclic(a, b, q))


# SHA-256 over ntt_forward(p).coeffs, then ntt_inverse(ntt_forward(p)).coeffs,
# each as little-endian int64, for every input below: both suite rings plus
# (16, 97) and (256, 7681), each with three seeded polynomials, the all-0 one
# and the all-(q - 1) one.  NTT-domain values never reach the wire, so the
# transcript pins cannot see them.
NTT_PIN_RINGS = [(16, 97), (256, 7681), (512, 12289), (1024, 12289)]
NTT_DIGEST = "d6b6a08627ec133a9977b9a240097096e10228b9d83546b1fb9e57e2e905e739"


def test_ntt_pinned():
    h = hashlib.sha256()
    for n, q in NTT_PIN_RINGS:
        rng = np.random.default_rng(n * q)
        inputs = [rng.integers(0, q, n) for _ in range(3)]
        inputs += [np.zeros(n, dtype=np.int64), np.full(n, q - 1, dtype=np.int64)]
        for coeffs in inputs:
            spec = algebra.ntt_forward(RingPoly(n, q, coeffs))
            back = algebra.ntt_inverse(spec)
            h.update(spec.coeffs.astype("<i8").tobytes())
            h.update(back.coeffs.astype("<i8").tobytes())
    assert h.hexdigest() == NTT_DIGEST


# rings on both sides of the stage plan's line n1 (q - 1)^3 + q < 2^53:
# every ring below it skips the first reduction of either transform, and
# the two past it, each the largest q the guard admits for its n1, keep it
PLAN_RINGS = [((16, 97), False), ((256, 7681), False), ((512, 12289), False), ((1024, 12289), False),
              ((16, 47452897), True), ((2, 67108837), True)]


@pytest.mark.parametrize("ring, reduces", PLAN_RINGS, ids=lambda x: str(x))
def test_ntt_stage_plan_on_both_sides_of_the_line(ring, reduces, rng):
    n, q = ring
    n1 = 1 << (n.bit_length() // 2)
    assert algebra._ntt_tables(n, q).reduce_first is reduces
    assert (n1 * (q - 1) ** 3 + q >= 2**53) is reduces
    # centered inputs at +-(q - 1), as a transformed noise sample or the
    # worst case of the skip's bound gives them, and the all-(q - 1) NTT
    # values that drive the inverse's first stage to its largest
    top = np.full(n, q - 1, dtype=np.int64)
    signs = np.where(rng.integers(0, 2, n) == 1, 1, -1)
    alt = np.resize(np.array([q - 1, -(q - 1)], dtype=np.int64), n)
    inputs = [top, -top, alt, signs * (q - 1), rng.integers(-(q - 1), q, n)]
    for a in inputs:
        spec = algebra.ntt_forward(RingPoly.unchecked(n, q, a))
        assert spec.coeffs.min() >= 0 and spec.coeffs.max() < q
        assert np.array_equal(algebra.ntt_inverse(spec).coeffs, a % q)
        for b in inputs[:3]:
            prod = algebra.poly_mul(spec, algebra.ntt_forward(RingPoly.unchecked(n, q, b)))
            assert np.array_equal(algebra.ntt_inverse(prod).coeffs, schoolbook_negacyclic(a, b, q))
    spec = RingPoly.unchecked(n, q, np.full(n, q - 1.0), "ntt")
    back = algebra.ntt_inverse(spec)
    assert back.coeffs.min() >= 0 and back.coeffs.max() < q
    assert np.array_equal(algebra.ntt_forward(back).coeffs, spec.coeffs)


def test_ring_poly_is_frozen_and_compares_by_identity():
    p = RingPoly(4, 17, [1, 2, 3, 4])
    assert (p == RingPoly(4, 17, [1, 2, 3, 4])) is False
    assert p == p and p != RingPoly(4, 17, [1, 2, 3, 4])
    for name in ("n", "q", "coeffs", "domain"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, getattr(p, name))
    u = RingPoly.unchecked(4, 17, p.coeffs, "coef")
    assert u.coeffs is p.coeffs and (u.n, u.q, u.domain) == (4, 17, "coef")
    with pytest.raises(dataclasses.FrozenInstanceError):
        u.coeffs = np.zeros(4)


def test_poly_mul_ring_mismatch():
    a = algebra.ntt_forward(RingPoly(16, 97, np.arange(16)))
    b = algebra.ntt_forward(RingPoly(16, 193, np.arange(16)))
    with pytest.raises(ValueError):
        algebra.poly_mul(a, b)
    with pytest.raises(ValueError):
        algebra.poly_mul(RingPoly(16, 97, np.arange(16)), RingPoly(16, 193, np.arange(16)))


def test_poly_mul_refuses_coefficient_domain(rng):
    # poly_mul is the NTT-domain pointwise product only; coefficients go
    # through ntt_forward first
    n, q = 16, 97
    a = RingPoly(n, q, rng.integers(0, q, n))
    fa = algebra.ntt_forward(a)
    for x, y in [(a, a), (a, fa), (fa, a)]:
        with pytest.raises(ValueError, match="NTT-domain operands"):
            algebra.poly_mul(x, y)


def test_ring_public_element_is_read_only():
    suite = get_suite("newhope")
    a = proto.RLWE.expand(suite, SEED)
    assert a.domain == "ntt"
    with pytest.raises(ValueError):
        a.coeffs[0] = 1
    want = algebra.ntt_forward(algebra.gen_poly(SEED, suite.n, suite.q, proto.TAG_POLY))
    assert np.array_equal(a.coeffs, want.coeffs)
    # the parsed key in the slot: read-only, and the same value for equal bytes
    _, msg1 = proto.initiate(suite, np.random.default_rng(1))
    key = proto.public_key(suite, msg1)
    for array in (key.a.coeffs, key.y1):
        with pytest.raises(ValueError):
            array[0] = 1
    assert proto.public_key(suite, bytearray(msg1)) is key


@pytest.mark.parametrize("name", ["newhope", "zarzar"])
def test_ring_respond_to_second_seed_after_cache_hit(name):
    suite = get_suite(name)
    other, msg_other = proto.initiate(suite, np.random.default_rng(3))
    session, msg1 = proto.initiate(suite, np.random.default_rng(4))
    key_b, msg2 = proto.respond(suite, msg1, np.random.default_rng(5))  # cache hit
    assert proto.finish(session, msg2) == key_b
    key_b, msg2 = proto.respond(suite, msg_other, np.random.default_rng(6))  # other seed
    assert proto.finish(other, msg2) == key_b


def test_gen_matrix_deterministic():
    m1 = algebra.gen_matrix(SEED, 8, 8, 2**14)
    m2 = algebra.gen_matrix(SEED, 8, 8, 2**14)
    assert np.array_equal(m1, m2)
    assert not np.array_equal(m1, algebra.gen_matrix(SEED, 8, 8, 2**14, tag=1))


def test_gen_matrix_golden():
    # frozen vector: low 14 bits of the first LE 16-bit words of
    # SHAKE-128(seed || 0x00)
    stream = hashlib.shake_128(SEED + b"\x00").digest(8)
    words = np.frombuffer(stream, dtype="<u2").astype(np.int64) & (2**14 - 1)
    m = algebra.gen_matrix(SEED, 2, 2, 2**14)
    assert np.array_equal(m.ravel(), words)
    assert m[0, 0] == 14431  # golden value, pinned at build time


def test_gen_poly_golden_and_range():
    p = algebra.gen_poly(SEED, 512, 12289)
    p2 = algebra.gen_poly(SEED, 512, 12289)
    assert np.array_equal(p.coeffs, p2.coeffs)
    assert p.coeffs.min() >= 0 and p.coeffs.max() < 12289
    assert list(p.coeffs[:4]) == [2142, 11503, 5032, 4258]  # golden, build-time


def test_gen_uniformity():
    big = algebra.gen_poly(SEED, 1 << 15, 12289, tag=3).coeffs
    assert chisquare(np.bincount(big % 64, minlength=64)).pvalue > 0.001
    mat = algebra.gen_matrix(SEED, 128, 128, 2**14, tag=4)
    assert chisquare(np.bincount(mat.ravel().astype(np.int64) % 64, minlength=64)).pvalue > 0.001


def test_matmul_identity_and_oracle(rng):
    q = 2**13
    x = rng.integers(0, q, (5, 3))
    eye = np.eye(5, dtype=np.int64)
    assert np.array_equal(algebra.matmul(eye, x, q), x)
    assert algebra.matmul(np.array([[3]]), np.array([[5]]), 7)[0, 0] == 1
    # big-integer oracle on random matrices with centered entries
    a = rng.integers(-(2**20), 2**20, (4, 4))
    b = rng.integers(-(2**20), 2**20, (4, 4))
    want = np.array([[sum(int(a[i, k]) * int(b[k, j]) for k in range(4)) % q
                      for j in range(4)] for i in range(4)])
    assert np.array_equal(algebra.matmul(a, b, q), want)
    with pytest.raises(ValueError):
        algebra.matmul(np.zeros((2, 3)), np.zeros((2, 3)), q)


def _oracle(a, b, q):
    return np.array([[sum(int(a[i, k]) * int(b[k, j]) for k in range(a.shape[1])) % q
                      for j in range(b.shape[1])] for i in range(a.shape[0])])


def test_gen_matrix_is_read_only():
    m = algebra.gen_matrix(SEED, 4, 4, 2**14)
    assert m.dtype == np.float32
    assert np.array_equal(m, np.floor(m)) and m.min() >= 0 and m.max() < 2**14
    with pytest.raises(ValueError):
        m[0, 0] = 1
    with pytest.raises(ValueError):
        m.T[1, 0] += 1
    assert np.array_equal(algebra.gen_matrix(SEED, 4, 4, 2**14), m)


def test_gen_matrix_accepts_buffer_seeds():
    want = algebra.gen_matrix(SEED, 6, 5, 2**15, tag=2)
    for seed in (bytearray(SEED), memoryview(SEED), memoryview(bytearray(SEED))):
        assert np.array_equal(algebra.gen_matrix(seed, 6, 5, 2**15, tag=2), want)
        assert np.array_equal(algebra.gen_matrix(SEED, 6, 5, 2**15, tag=2), want)


def test_respond_accepts_bytearray_message():
    for name in ("lwe-challenge", "hybrid-recommended", "newhope"):
        suite = get_suite(name)
        session, msg1 = proto.initiate(suite, np.random.default_rng(1))
        for buf in (bytearray(msg1), memoryview(msg1)):
            key_b, msg2 = proto.respond(suite, buf, np.random.default_rng(2))
            assert proto.finish(session, msg2) == key_b
            assert proto.respond(suite, msg1, np.random.default_rng(2)) == (key_b, msg2)


def test_gen_matrix_validates_every_call():
    algebra.gen_matrix(SEED, 2, 2, 2**14)
    for _ in range(3):
        with pytest.raises(ValueError):
            algebra.gen_matrix(SEED[:31], 2, 2, 2**14)
        with pytest.raises(ValueError):
            algebra.gen_matrix(bytearray(SEED) + b"\x00", 2, 2, 2**14)
        with pytest.raises(ValueError):
            algebra.gen_matrix(SEED, 2, 2, 12)
        with pytest.raises(ValueError):
            algebra.gen_matrix(SEED, 2, 2, 2**17)
        with pytest.raises(TypeError):
            algebra.gen_matrix(32, 2, 2, 2**14)


def test_gen_poly_refuses_q_above_16_bits():
    # no 16-bit word falls below q * floor(2^16 / q) = 0, so it would never fill
    with pytest.raises(ValueError):
        algebra.gen_poly(SEED, 16, 65537)
    with pytest.raises(ValueError):
        algebra.gen_poly(SEED[:31], 16, 12289)
    assert algebra.gen_poly(SEED, 16, 1 << 16).coeffs.max() < 1 << 16


def test_matmul_uint16_full_range(rng):
    q = 2**16
    a = algebra.gen_matrix(SEED, 7, 5, q).copy()
    a[0, :2] = (0, q - 1)  # both ends of the uint16 range
    b = rng.integers(-(2**20), 2**20, (5, 3))
    assert np.array_equal(algebra.matmul(a, b, q), _oracle(a, b, q))
    assert np.array_equal(algebra.matmul(a.T, a, q), _oracle(a.T, a, q))


def test_matmul_cached_matrix_exact_at_full_range(rng):
    q, n = 2**16, 864  # q at the gen_matrix limit, n the largest shipped
    a = algebra.gen_matrix(SEED, 8, n, q, tag=58)
    assert a.min() == 0 and a.max() == q - 1  # this tag puts both ends in A
    for m in (a, a.T):
        top = 2**53 // (m.shape[1] * (q - 1)) - 1  # the largest |b| on the float path
        b = rng.integers(-top, top + 1, (m.shape[1], 3))
        b[:, 0] = top  # column sums reach about 2^52
        assert np.array_equal(algebra.matmul(m, b, q), _oracle(m, b, q))


@pytest.mark.parametrize("top, step", [(256, 1), (5, 51), (257, None)])
def test_matmul_float32_chunks_exact_at_full_range(rng, top, step):
    # 65535 * 256 = 16776960 is the largest term below 2^24, so a chunk is
    # one term; |b| <= 5 gives 51-term chunks of odd terms, and 864 =
    # 16 * 51 + 48 ends with a ragged one; 257 puts the term past 2^24, so
    # the product falls back to float64.
    q, n = 2**16, 864
    term = (q - 1) * top
    assert ((2**24 - 1) // term if term < 2**24 else None) == step
    a = algebra.gen_matrix(SEED, 8, n, q, tag=58)
    assert a.min() == 0 and a.max() == q - 1
    worst = np.full((3, n), q - 1, dtype=np.float32)  # column 0: full chunks sum to step * term
    for m in (a, a.T, worst):
        b = rng.choice([-top, top], (m.shape[1], 3))
        b[:, 0] = top
        assert np.array_equal(algebra.matmul(m, b, q), _oracle(m, b, q))


def test_matmul_reads_cached_matrix_without_a_float64_copy(rng):
    q = 2**15
    a = algebra.gen_matrix(SEED, 704, 712, q, tag=1)  # the hybrid-recommended A
    x = rng.integers(-6, 7, (704, 8))
    algebra.matmul(a.T, x, q)
    tracemalloc.start()
    try:
        got = algebra.matmul(a.T, x, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes  # a float64 copy of A alone takes 2 a.nbytes
    assert np.array_equal(got, (a.astype(np.int64).T @ x) % q)


def test_max_abs_of_cached_matrix_comes_from_q(monkeypatch, rng):
    # the slot's public matrix reaches matmul with its bound q - 1, and no
    # operand of an exchange is scanned; an operand without a bound is
    suite = get_suite("lwe-challenge")
    q, law = suite.q, suite.noise.support_bound
    session, msg1 = proto.initiate(suite, rng)
    key = proto.public_key(suite, msg1)
    scanned, calls = [], []
    max_abs, matmul = algebra._max_abs, algebra.matmul
    monkeypatch.setattr(algebra, "_max_abs", lambda x: scanned.append(x.shape) or max_abs(x))
    monkeypatch.setattr(algebra, "matmul",
                        lambda a, b, q, bounds: calls.append((a, bounds)) or matmul(a, b, q, bounds))
    key_b, msg2 = proto.respond(suite, msg1, rng)
    assert proto.finish(session, msg2) == key_b
    assert calls[0][0].base is key.a  # A^T X2, then lift(y1)^T X2 and X1^T y2
    assert [bounds for _, bounds in calls] == [(q - 1, law), (q - 1, law), (law, q - 1)]
    assert scanned == []
    x = rng.integers(-law, law + 1, (key.a.shape[1], 2))
    assert np.array_equal(algebra.matmul(key.a, x, q, (q - 1, None)), _oracle(key.a, x, q))
    assert scanned == [x.shape]


def test_gen_matrix_drops_previous_before_expanding(monkeypatch):
    # the slot lets its key go before the next expansion, whether that is
    # the parse of other bytes or a fresh initiate
    suite = get_suite("lwe-challenge")
    _, other = proto.initiate(suite, np.random.default_rng(1))
    _, msg1 = proto.initiate(suite, np.random.default_rng(2))
    old = weakref.ref(proto.public_key(suite, msg1).a)
    shake = hashlib.shake_128
    alive = []

    def probe(data):
        alive.append(old() is not None)
        return shake(data)

    monkeypatch.setattr(algebra.hashlib, "shake_128", probe)
    proto.public_key(suite, other)
    old = weakref.ref(proto.public_key(suite, other).a)  # the slot's key, not expanded again
    proto.initiate(suite, np.random.default_rng(3))
    assert alive == [False, False]


def test_lwr_sample_matches_big_integer_oracle(rng):
    suite = get_suite("lwr-paranoid")
    q, p = suite.q, suite.p
    a = algebra.gen_matrix(SEED, 6, suite.n, q)
    for m in (a, a.T):
        x = rng.integers(-5, 6, (m.shape[1], 3))  # negative wherever the noise is
        want = [[(2 * p * int(v) + q) // (2 * q) % p for v in row] for row in _oracle(m, x, q)]
        assert np.array_equal(proto.LWR.sample(suite, m, x, rng), want)


def test_matmul_int64_fallback_matches_python_ints():
    # k max|a| max|b| >= 2^53 takes the int64 product, which must not wrap
    for a, b, q in (([[2**40]], [[2**40]], 7),
                    ([[3**30, 5**20]], [[7**15], [11**12]], 1000003)):
        assert np.array_equal(algebra.matmul(a, b, q), _oracle(np.array(a), np.array(b), q))
    with pytest.raises(ValueError):  # (q - 1)^2 >= 2^63: even reduced operands could wrap
        algebra.matmul([[2**40]], [[2**40]], 2**32 + 15)


def test_matmul_wide_bound_stays_exact(rng):
    # cols * max|a| * max|b| = 2^61 >= 2^53: float64 would round the sums
    q = 12289
    a = rng.integers(2**39, 2**40, (3, 2))
    b = rng.integers(-(2**20), -(2**19), (2, 3))
    want = _oracle(a, b, q)
    assert not np.array_equal(np.rint(a.astype(np.float64) @ b).astype(np.int64) % q, want)
    assert np.array_equal(algebra.matmul(a, b, q), want)
