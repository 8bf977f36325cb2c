import dataclasses
import itertools
import re

import numpy as np
import pytest

from kcn import protocols as proto
from kcn import algebra, codes, wire
from kcn.analysis.bandwidth import bandwidth
from kcn.codes import SecCode
from kcn.kc import KcParams, KcVariant
from kcn.suites import SUITES, Suite, get_suite
from oracles import BINARY


def _toy_lwr():
    return Suite(
        name="toy-lwr", family="lwr", n=4, l_a=1, l_b=1, q=2**6, p=2**4,
        noise=BINARY,
        mode=proto.Plain(KcVariant.OKCN_SIMPLE, KcParams(q=2**4, m=2, g=8, d=3)),
    )


def _toy_rlwe(variant=KcVariant.OKCN_GENERIC, g=4, d=35):
    # |sigma1 - sigma2| <= 2n + 1 = 33 <= d for binary noise, so agreement
    # is guaranteed, not merely likely
    return Suite(
        name="toy-rlwe-plain", family="rlwe", n=16, l_a=1, l_b=1, q=193,
        noise=BINARY, mode=proto.Plain(variant, KcParams(q=193, m=2, g=g, d=d)),
    )


# --- wire format --------------------------------------------------------------

def test_pack_unpack_roundtrip(rng):
    for bits in (1, 4, 9, 12, 14, 15):
        vals = rng.integers(0, 1 << bits, 100)
        data = wire.pack(vals, bits)
        assert len(data) == (100 * bits + 7) // 8
        assert np.array_equal(wire.unpack(data, bits, 100), vals)


def test_pack_is_lsb_first():
    assert wire.pack(np.array([1]), 8) == b"\x01"
    assert wire.pack(np.array([0x0A, 0x0B]), 4) == b"\xba"  # low nibble first
    with pytest.raises(ValueError):
        wire.pack(np.array([16]), 4)
    with pytest.raises(ValueError):
        wire.unpack(b"\x00\x00", 4, 5)


def _top(field):
    """Every element of `field` at its largest valid value, flat."""
    return np.full(field.count, field.bound - 1)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_layout_edges(name):
    suite = get_suite(name)
    msgs = proto.layouts(suite)
    assert sum(f.nbytes for m in msgs for f in m.fields) == bandwidth(suite).total_bytes
    for layout in msgs:
        tops = [_top(f) for f in layout.fields]
        data = layout.pack(*tops)
        for field, top, got in zip(layout.fields, tops, layout.unpack(data)):
            assert np.array_equal(got.reshape(-1), top)
        start = 0
        for i, field in enumerate(layout.fields):
            over = [t.copy() for t in tops]
            over[i][-1] += 1  # one value at its bound
            bad = rf"field {re.escape(field.name)}\[{field.count - 1}\]"
            with pytest.raises(ValueError, match=bad):
                layout.pack(*over)
            if field.bound < 1 << field.bits:
                # the value fits the field's bits, so only the bound check stops it
                raw = wire.pack(over[i], field.bits)
                with pytest.raises(ValueError, match=bad):
                    layout.unpack(data[:start] + raw + data[start + field.nbytes:])
            start += field.nbytes


# 14-bit ring fields hold 12289..16383 too; the canonical decoder refuses them

def test_ring_msg1_coefficient_at_q_rejected(rng):
    suite = get_suite("newhope")
    _, m1 = proto.initiate(suite, rng)
    bad = bytearray(m1)
    bad[32], bad[33] = 0xFF, bad[33] | 0x3F  # y1[0] = 16383
    with pytest.raises(ValueError, match=r"field y1\[0\]"):
        proto.respond(suite, bytes(bad), rng)


def test_ring_msg2_coefficient_at_q_rejected(rng):
    suite = get_suite("okcn-rlwe-16")
    sess, m1 = proto.initiate(suite, rng)
    kb, m2 = proto.respond(suite, m1, rng)
    bad = bytearray(m2)
    bad[0], bad[1] = 0x01, (bad[1] & 0xC0) | 0x30  # y2[0] = 12289
    with pytest.raises(ValueError, match=r"field y2\[0\]"):
        proto.finish(sess, bytes(bad))
    assert proto.finish(sess, m2) == kb


def test_padding_bits_rejected(rng):
    # okcn-sec-837 carries 27 SEC blocks of 6 correction bits: 162 bits in 21 bytes
    suite = get_suite("okcn-sec-837")
    sess, m1 = proto.initiate(suite, rng)
    kb, m2 = proto.respond(suite, m1, rng)
    bad = m2[:-1] + bytes([m2[-1] | 0x80])
    with pytest.raises(ValueError, match="field v': padding bits"):
        proto.finish(sess, bad)
    assert proto.finish(sess, m2) == kb


# --- toy round trips ------------------------------------------------------------

def test_lwr_toy_roundtrip(rng):
    suite = _toy_lwr()
    for _ in range(200):
        sess, m1 = proto.initiate(suite, rng)
        kb, m2 = proto.respond(suite, m1, rng)
        assert proto.finish(sess, m2) == kb


def test_rlwe_toy_roundtrip(rng):
    suite = _toy_rlwe()
    for _ in range(200):
        sess, m1 = proto.initiate(suite, rng)
        kb, m2 = proto.respond(suite, m1, rng)
        assert proto.finish(sess, m2) == kb


def test_lwe_binary_noise_always_agrees(rng):
    # chi = U({0,1}) with d >= n+1 is deterministic-correct by theorem
    suite = Suite(
        name="toy-binary", family="lwe", n=8, l_a=2, l_b=2, q=2**8,
        noise=BINARY,
        mode=proto.Plain(KcVariant.OKCN_SIMPLE, KcParams(q=2**8, m=2, g=2**7, d=9)),
    )
    for _ in range(300):
        sess, m1 = proto.initiate(suite, rng)
        kb, m2 = proto.respond(suite, m1, rng)
        assert proto.finish(sess, m2) == kb


def test_transcript_determinism():
    suite = get_suite("okcn-t2")
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(1234)
        sess, m1 = proto.initiate(suite, rng)
        kb, m2 = proto.respond(suite, m1, rng)
        ka = proto.finish(sess, m2)
        runs.append((m1, m2, ka, kb))
    assert runs[0] == runs[1]


def test_malformed_messages_rejected(rng):
    suite = _toy_lwr()
    sess, m1 = proto.initiate(suite, rng)
    with pytest.raises(ValueError):
        proto.respond(suite, m1 + b"x", rng)
    kb, m2 = proto.respond(suite, m1, rng)
    with pytest.raises(ValueError):
        proto.finish(sess, m2[:-1])


def test_chosen_key_transport(rng):
    # AKC suites transport a caller-chosen key (PKE usage)
    suite = get_suite("hybrid-recommended")
    pk, sk = proto.hybrid_keygen(suite, rng)
    chosen = np.zeros((8, 8), dtype=np.int64)
    kb, ct = proto.hybrid_encaps(suite, pk, rng, key_in=chosen)
    assert kb == bytes(32)
    assert proto.hybrid_decaps(suite, sk, ct) == kb
    kb, ct = proto.hybrid_encaps(suite, pk, rng, key_in=np.ones((8, 8), dtype=np.int64))
    assert proto.hybrid_decaps(suite, sk, ct) == kb == b"\x11" * 32  # 64 symbols of 4 bits

    rlwe = get_suite("akcn-sec-837")
    sess, m1 = proto.initiate(rlwe, rng)
    bits = np.zeros(rlwe.key_bits, dtype=np.int64)
    kb, m2 = proto.respond(rlwe, m1, rng, key_in=bits)
    assert proto.finish(sess, m2) == kb == bytes((rlwe.key_bits + 7) // 8)


@pytest.mark.parametrize("mode, match", [
    # a variant given by its value, or a kc as a tuple, used to reach Con/Rec
    (lambda v, kc: proto.Plain(v.value, kc), "plain: variant must be a kcn.kc.KcVariant, got 'okcn-simple'"),
    (lambda v, kc: proto.Plain(v, (kc.q, kc.m, kc.g, kc.d)), "plain: kc must be a kcn.kc.KcParams"),
    (lambda v, kc: proto.Sec(None, kc, SecCode(4)), "sec: variant must be a kcn.kc.KcVariant, got None"),
    (lambda v, kc: proto.Sec(v, None, SecCode(4)), "sec: kc must be a kcn.kc.KcParams, got None"),
])
def test_scalar_modes_refuse_a_variant_or_kc_of_another_type(mode, match):
    suite = get_suite("lwr-recommended")
    with pytest.raises(ValueError, match=match):
        mode(suite.mode.variant, suite.kc)


def _with_kc(name, kc):
    """The change that gives suite `name`'s mode another kc."""
    return {"mode": dataclasses.replace(get_suite(name).mode, kc=kc)}


@pytest.mark.parametrize("name, change, match", [
    # each of these used to build, then fail at first use or never
    ("okcn-sec-837", lambda: {"mode": dataclasses.replace(get_suite("okcn-sec-837").mode, code=SecCode(0))},
     "sec: n_h"),
    ("okcn-sec-837", lambda: {"mode": dataclasses.replace(get_suite("okcn-sec-837").mode, code=5)},
     "sec: code must be a kcn.codes.SecCode"),
    ("okcn-sec-837", lambda: {"mode": "SEC"}, "okcn-sec-837"),
    ("newhope", lambda: {"mode": proto.NewHope(6)}, "newhope: g"),
    ("zarzar", lambda: {"mode": proto.E8(0)}, "e8: g"),
    ("lwe-challenge", lambda: {"mode": proto.Sec(KcVariant.OKCN_SIMPLE, get_suite("lwe-challenge").kc, SecCode(4))},
     "lwe-challenge"),
    ("lwr-recommended", lambda: {"mode": proto.NewHope(4)}, "lwr-recommended: the lwr family cannot run mode"),
    # a kc.q off sigma's modulus: 3 of 20 exchanges disagreed while error_rate
    # reported 2^-146.3, or the first exchange failed
    ("lwr-recommended", lambda: _with_kc("lwr-recommended", KcParams(q=2**13, m=2**4, g=2**9, d=255)),
     "lwr-recommended: kc.q must be 4096"),
    ("lwr-recommended", lambda: _with_kc("lwr-recommended", KcParams(q=2**11, m=2**4, g=2**7, d=63)),
     "lwr-recommended: kc.q must be 4096"),
    ("lwe-recommended", lambda: _with_kc("lwe-recommended", KcParams(q=2**13, m=2**4, g=2**9, d=255)),
     "lwe-recommended: kc.q must be 16384"),
    ("okcn-rlwe-16", lambda: _with_kc("okcn-rlwe-16", KcParams(q=12289, m=2, g=2**4, d=2880)),
     "okcn-rlwe-16: invalid kc params"),
    # a field the family does not read: n_b changed only A, t and p were ignored
    ("lwr-recommended", lambda: {"n_b": 600}, "lwr-recommended: the lwr family does not read n_b"),
    ("okcn-rlwe-16", lambda: {"t": 3}, "okcn-rlwe-16: the rlwe family does not read t"),
    ("hybrid-recommended", lambda: {"t": 2}, "hybrid-recommended: the hybrid family does not read t"),
    ("lwe-recommended", lambda: {"p": 2**10}, "lwe-recommended: the lwe family does not read p"),
    # a shape the family cannot run: n_b = 0 ran hybrid at n_b = n, a t of at
    # least qbits or below 0 failed at first exchange, a ring ignored l_a,
    # and a dimension below 1 failed inside numpy
    ("hybrid-recommended", lambda: {"n_b": 0}, "hybrid-recommended: dimensions must be at least 1, got n_b=0"),
    ("lwe-challenge", lambda: {"t": 11}, r"lwe-challenge: t must lie in \[0, 10\)"),
    ("lwe-challenge", lambda: {"t": -1}, r"lwe-challenge: t must lie in \[0, 10\)"),
    ("okcn-rlwe-16", lambda: {"l_a": 2}, "okcn-rlwe-16: the rlwe family runs l_a = l_b = 1"),
    # ring noise the NTT cannot read centered: |x| <= q - 1 keeps it exact
    ("okcn-rlwe-16", lambda: {"q": 13}, "okcn-rlwe-16: the rlwe noise must stay below q = 13"),
    ("lwr-recommended", lambda: {"n": 0}, "lwr-recommended: dimensions must be at least 1, got n=0"),
    ("lwe-recommended", lambda: {"l_a": 0}, "lwe-recommended: dimensions must be at least 1, got l_a=0"),
    ("lwr-recommended", lambda: {"l_b": -1}, "lwr-recommended: dimensions must be at least 1, got l_b=-1"),
    # an unknown family used to build, then raise a bare KeyError at first use
    ("lwe-challenge", lambda: {"family": "lwx"},
     "lwe-challenge: unknown family 'lwx'; known families: lwr, lwe, hybrid, rlwe"),
])
def test_suite_refuses_a_mode_it_cannot_run(name, change, match):
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(get_suite(name), **change())


@pytest.mark.parametrize("name", ["hybrid_keygen", "hybrid_encaps", "hybrid_decaps"])
def test_kem_functions_refuse_a_suite_that_is_not_hybrid(name, rng):
    # the KEM runs on every AKC suite; a KC suite's responder cannot take a
    # chosen key: hybrid_keygen used to return its 8,192-byte msg1 as a "public key"
    for suite, scheme in [(get_suite("lwr-recommended"), "variant okcn-simple"),
                          (get_suite("okcn-rlwe-16"), "variant okcn-generic"),
                          (get_suite("newhope"), "mode newhope")]:
        session, msg1 = proto.initiate(suite, rng)
        _, msg2 = proto.respond(suite, msg1, rng)
        args = {"hybrid_keygen": (rng,), "hybrid_encaps": (msg1, rng),
                "hybrid_decaps": (session.secret, msg2)}[name]
        with pytest.raises(ValueError, match=f"{suite.name}: the KEM functions need an AKC suite, not the KC {scheme}"):
            getattr(proto, name)(suite, *args)


AKC_SUITES = [name for name, s in SUITES.items() if s.mode.akc]


@pytest.mark.parametrize("name", AKC_SUITES)
def test_kem_round_trip_on_every_akc_suite(name, rng):
    assert AKC_SUITES == ["hybrid-recommended", "hybrid-paranoid", "akcn-rlwe-16", "akcn-rlwe-64",
                          "akcn-sec-765", "akcn-sec-837", "akcn-4to1", "zarzar"]
    suite = get_suite(name)
    field = suite.mode.fields(suite)[0]  # the key Con agrees on: symbols below field.bound
    pk, sk = proto.hybrid_keygen(suite, rng)
    for key_in in (rng.integers(0, field.bound, field.shape), np.ones(field.shape, dtype=np.int64)):
        kb, ct = proto.hybrid_encaps(suite, pk, rng, key_in=key_in)
        assert kb == wire.pack(key_in.reshape(-1), field.bits)
        assert proto.hybrid_decaps(suite, sk, ct) == kb


@pytest.mark.parametrize("name, expand", [("hybrid-recommended", "gen_matrix"), ("akcn-sec-837", "gen_poly")])
def test_two_public_keys_in_turn_are_each_expanded_once(monkeypatch, name, expand):
    suite = get_suite(name)
    sessions = [proto.initiate(suite, np.random.default_rng(seed)) for seed in (1, 2)]
    seeds, real = [], getattr(algebra, expand)
    monkeypatch.setattr(algebra, expand, lambda seed, *args: seeds.append(seed) or real(seed, *args))
    keys = [proto.public_key(suite, msg1) for _, msg1 in sessions]
    assert seeds == [key.seed for key in keys]
    got = [proto.respond(suite, keys[i % 2], np.random.default_rng(10 + i)) for i in range(6)]
    assert len(seeds) == 2
    # byte for byte what the bytes path gives, which parses again on every switch
    assert got == [proto.respond(suite, sessions[i % 2][1], np.random.default_rng(10 + i)) for i in range(6)]
    for i, (key_b, msg2) in enumerate(got):
        assert proto.finish(sessions[i % 2][0], msg2) == key_b


def test_public_key_of_another_suite_is_refused(rng):
    rec, par = get_suite("hybrid-recommended"), get_suite("hybrid-paranoid")
    pk, x1 = proto.hybrid_keygen(rec, rng)
    key = proto.public_key(rec, pk)
    for encaps in (proto.hybrid_encaps, proto.respond):
        with pytest.raises(ValueError, match="hybrid-paranoid: the public key is for hybrid-recommended"):
            encaps(par, key, rng)
    key_b, ct = proto.hybrid_encaps(rec, key, rng)
    assert proto.hybrid_decaps(rec, x1, ct) == key_b
    ring = get_suite("newhope")
    _, msg1 = proto.initiate(ring, rng)
    with pytest.raises(ValueError, match="akcn-4to1: the public key is for newhope"):
        proto.respond(get_suite("akcn-4to1"), proto.public_key(ring, msg1), rng)


def test_public_key_refuses_a_y1_outside_its_field(rng):
    # y1 + 2^52 + 2^20 is y1 mod q, but matmul takes q - 1 as y1's bound, so
    # the response would differ from the reduced key's: the key refuses it
    suite = get_suite("lwe-challenge")
    _, msg1 = proto.initiate(suite, rng)
    key = proto.public_key(suite, msg1)
    with pytest.raises(ValueError, match=r"field y1\[0\] = \d+ is out of range for bound 1024"):
        proto.PublicKey(suite, key.seed, key.y1 + 2**52 + 2**20, key.a)
    bad = key.y1.copy()
    bad[1, 1] = -1
    with pytest.raises(ValueError, match=r"field y1\[9\] = -1 is out of range"):
        proto.PublicKey(suite, key.seed, bad, key.a)
    with pytest.raises(ValueError, match=r"lwe-challenge: y1 has shape \(8, 334\), expected \(334, 8\)"):
        proto.PublicKey(suite, key.seed, key.y1.T, key.a)
    ring = get_suite("newhope")
    _, msg1 = proto.initiate(ring, rng)
    key = proto.public_key(ring, msg1)
    with pytest.raises(ValueError, match=r"field y1\[0\] = \d+ is out of range for bound 12289"):
        proto.PublicKey(ring, key.seed, key.y1 + 12289, key.a)
    assert proto.PublicKey(ring, key.seed, key.y1.copy(), key.a).y1.flags.writeable is False


def test_parsed_ring_key_cannot_be_changed(rng):
    # a RingPoly is frozen: the public element of a parsed key stays the one
    # its seed expands to, so a later parse of the same bytes, which the
    # slot answers with the same key, still agrees with the initiator
    suite = get_suite("newhope")
    session, msg1 = proto.initiate(suite, rng)
    key = proto.public_key(suite, msg1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        key.a.coeffs = np.zeros(1024)
    with pytest.raises(dataclasses.FrozenInstanceError):
        key.a = algebra.RingPoly(1024, suite.q, np.zeros(1024, dtype=np.int64), "ntt")
    again = proto.public_key(suite, msg1)
    assert again is key
    key_b, msg2 = proto.respond(suite, again, rng)
    assert proto.finish(session, msg2) == key_b


@pytest.mark.parametrize("name", ["okcn-rlwe-16", "okcn-sec-837", "akcn-sec-837", "newhope", "akcn-4to1",
                                  "zarzar", "hybrid-recommended"])
def test_exchange_builds_no_wire_field_once_warm(monkeypatch, name):
    # the key and hint fields of each mode are built once per suite, and a
    # matrix expansion reads A's shape without a field, so a second exchange
    # constructs none
    suite = get_suite(name)
    session, msg1 = proto.initiate(suite, np.random.default_rng(1))
    proto.finish(session, proto.respond(suite, msg1, np.random.default_rng(2))[1])
    built = []

    class Counted(wire.Field):
        def __init__(self, name, *args):
            built.append(name)
            super().__init__(name, *args)

    monkeypatch.setattr(wire, "Field", Counted)
    session, msg1 = proto.initiate(suite, np.random.default_rng(3))
    key_b, msg2 = proto.respond(suite, msg1, np.random.default_rng(4))
    assert proto.finish(session, msg2) == key_b
    assert built == []


def test_initiate_and_parse_keep_y1_read_only(rng):
    # the slot's key from initiate and a key parsed from other bytes hold y1
    # read-only, as the checking constructor leaves it
    for name in ("newhope", "lwe-challenge", "hybrid-recommended"):
        suite = get_suite(name)
        _, msg1 = proto.initiate(suite, rng)
        own = proto.public_key(suite, msg1)
        _, other = proto.initiate(suite, rng)
        parsed = proto.public_key(suite, bytes(msg1))
        assert parsed is not own and other != msg1
        for key in (own, parsed):
            assert key.y1.flags.writeable is False
            assert key.y1.shape == proto.layouts(suite)[0].fields[1].shape
        assert np.array_equal(own.y1, parsed.y1)


def test_msg1_one_bit_from_the_slot_is_parsed_again(rng):
    # ring: the flipped bit takes y1[i] to q or above; the decoder refuses it
    # as it always did, and the slot keeps its key
    suite = get_suite("newhope")
    _, msg1 = proto.initiate(suite, rng)
    key = proto.public_key(suite, msg1)
    i = int(np.argmax((key.y1 & 1 << 13 == 0) & (key.y1 + (1 << 13) >= suite.q)))
    bit = 8 * 32 + 14 * i + 13
    bad = bytearray(msg1)
    bad[bit // 8] ^= 1 << bit % 8
    with pytest.raises(ValueError, match=rf"field y1\[{i}\] = {key.y1[i] + (1 << 13)} "):
        proto.respond(suite, bad, rng)
    assert proto.public_key(suite, msg1) is key
    # hybrid: every string decodes, so a buffer changed by one bit is another key
    suite = get_suite("hybrid-recommended")
    pk, _ = proto.hybrid_keygen(suite, rng)
    buf = bytearray(pk)
    key = proto.public_key(suite, buf)
    buf[-1] ^= 0x80  # the top bit of the last y1 value
    other = proto.public_key(suite, buf)
    assert other is not key and proto.public_key(suite, buf) is other
    assert np.array_equal(other.a, key.a) and other.a is not key.a
    assert np.count_nonzero(other.y1 != key.y1) == 1


def test_akcn41_hint_splits_every_record(monkeypatch, rng):
    # the 512 hint values below 2g^4, g = 4, are the 512 records in Z_4^3 x Z_8
    suite = get_suite("akcn-4to1")
    layout2 = proto.layouts(suite)[1]
    sess, m1 = proto.initiate(suite, rng)
    _, m2 = proto.respond(suite, m1, rng)
    y2, _ = layout2.unpack(m2)
    seen, rec = [], codes.akcn41_rec
    monkeypatch.setattr(codes, "akcn41_rec", lambda sigma, v, g, q: seen.append(v) or rec(sigma, v, g, q))
    for start in (0, 256):
        key = proto.finish(sess, layout2.pack(y2, np.arange(start, start + 256)))
        assert len(key) == suite.key_bits // 8
    records = [tuple(r) for v in seen for r in v.tolist()]
    assert sorted(records) == list(itertools.product(range(4), range(4), range(4), range(8)))


@pytest.mark.parametrize("name", ["lwr-recommended", "okcn-rlwe-16", "okcn-sec-765", "newhope"])
def test_kc_suite_rejects_chosen_key(name, rng):
    suite = get_suite(name)
    sess, m1 = proto.initiate(suite, rng)
    with pytest.raises(ValueError, match="cannot transport a chosen key"):
        proto.respond(suite, m1, rng, key_in=np.ones(suite.key_bits, dtype=np.int64))


def test_akc_chosen_key_needs_the_key_count(rng):
    # hybrid-recommended agrees on 8 x 8 symbols; a scalar used to broadcast
    suite = get_suite("hybrid-recommended")
    pk, _ = proto.hybrid_keygen(suite, rng)
    # floats, strings and bools of the key count were cast: [0.9] * 64 sent the all-zero key
    for bad in (1, np.ones((8, 7), dtype=np.int64), [0.9] * 64, np.full(64, 3.99), ["1"] * 64,
                np.ones(64, dtype=bool)):
        with pytest.raises(ValueError):
            proto.hybrid_encaps(suite, pk, rng, key_in=bad)
    with pytest.raises(ValueError, match=r"field key\[0\]"):  # a symbol at m = 16
        proto.hybrid_encaps(suite, pk, rng, key_in=np.full((8, 8), 16))


def test_derive_key_modes():
    suite = get_suite("okcn-t2")
    kb = b"\x01\x02" * 16
    k1 = proto.derive_key(suite, kb)
    assert k1 == proto.derive_key(suite, kb)
    assert len(k1) == 32
    assert k1 != proto.derive_key(get_suite("okcn-t1"), kb)  # suite-tagged
    # golden value pinned at build time
    assert proto.derive_key(suite, b"").hex().startswith("76966763")


@pytest.mark.parametrize("name", sorted(SUITES))
def test_serialized_sizes_match_bandwidth(name, rng):
    suite = get_suite(name)
    bw = bandwidth(suite)
    sess, m1 = proto.initiate(suite, rng)
    kb, m2 = proto.respond(suite, m1, rng)
    assert len(m1) == bw.msg1_bytes
    assert len(m2) == bw.msg2_bytes
    assert proto.finish(sess, m2) == kb
    assert len(kb) == (suite.key_bits + 7) // 8


def test_sec_modes_key_lengths():
    assert get_suite("okcn-sec-765").key_bits == 765
    assert get_suite("okcn-sec-837").key_bits == 837
    assert get_suite("akcn-4to1").key_bits == 256
    assert get_suite("zarzar").key_bits == 256


def test_lwr_recommended_message_sizes():
    bw = bandwidth(get_suite("lwr-recommended"))
    assert bw.msg1_bytes == 32 + 680 * 8 * 12 // 8 == 8192
    assert bw.msg2_bytes == 680 * 8 * 12 // 8 + 64 * 8 // 8 == 8224
    assert bw.total_bytes == 16416
    assert get_suite("lwr-recommended").key_bits == 8 * 8 * 4 == 256
