"""The bit codec under every message field: `wire.pack` and `wire.unpack`."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcn import wire

# every width the codec takes, at every count up to 17 (so every residue of
# count * bits mod 8) and at one long count
GRID = [(bits, count) for bits in range(1, 64) for count in (*range(18), 1000)]


def _values(bits, count):
    """Seeded values below 2^bits, holding both 2^bits - 1 and 0 once count >= 2."""
    rng = np.random.default_rng(bits * 1009 + count)
    vals = rng.integers(0, (1 << bits) - 1, count, dtype=np.int64, endpoint=True)
    vals[:2] = ((1 << bits) - 1, 0)[:count]
    return vals


def test_pack_pinned():
    h = hashlib.sha256()
    for bits, count in GRID:
        h.update(wire.pack(_values(bits, count), bits))
    assert h.hexdigest() == "7def578684f89b6b5958b91fab520a795be918a07451969865d83672e624535c"


def test_unpack_pinned():
    # random bytes of the exact length with every padding bit set: unpack ignores them
    h = hashlib.sha256()
    for bits, count in GRID:
        data = bytearray(np.random.default_rng(bits * 1013 + count).bytes((count * bits + 7) // 8))
        if count * bits % 8:
            data[-1] |= 0xFF << count * bits % 8 & 0xFF
        h.update(wire.unpack(bytes(data), bits, count).astype("<i8").tobytes())
    assert h.hexdigest() == "0c4323237aadc4e73f0a08735065c3a2a6b73e0b02c8f4fb0bb054af2b036b39"


@pytest.mark.parametrize("bits", [0, 64, 65])
def test_widths_outside_1_to_63_rejected(bits):
    with pytest.raises(ValueError, match="bits must be in 1..63"):
        wire.pack(np.array([1]), bits)
    with pytest.raises(ValueError, match="bits must be in 1..63"):
        wire.unpack(bytes((5 * bits + 7) // 8), bits, 5)


@pytest.mark.parametrize("bits", [1, 4, 14, 63])
def test_pack_refuses_values_outside_its_bits(bits):
    # 2^bits (where int64 holds it) and any negative value are refused,
    # wherever they stand; 2^bits - 1 and 0 pack
    top = (1 << bits) - 1
    assert wire.unpack(wire.pack(np.array([top, 0]), bits), bits, 2).tolist() == [top, 0]
    over = [[top + 1], [0, top + 1]] if bits < 63 else []
    for bad in over + [[-1], [top, -1, 0], [-(2**63)]]:
        with pytest.raises(ValueError, match=f"^values out of range for {bits} bits$"):
            wire.pack(np.array(bad, dtype=np.int64), bits)
    assert wire.pack(np.array([], dtype=np.int64), bits) == b""


@pytest.mark.parametrize("bits, bound", [(1, 1), (4, 9), (14, 12289), (14, 1 << 13), (63, 2**62 + 1)])
def test_pack_refuses_values_at_a_callers_bound(bits, bound):
    # a bound below 2^bits refuses the value bound, and a negative one, with
    # pack's message; the values below it pack as they do with no bound
    ok = np.array([bound - 1, 0], dtype=np.int64)
    assert wire.pack(ok, bits, bound) == wire.pack(ok, bits)
    for bad in ([bound], [0, bound], [-1]):
        with pytest.raises(ValueError, match=f"^values out of range for bound {bound}$"):
            wire.pack(np.array(bad, dtype=np.int64), bits, bound)
    assert wire.pack(np.array([], dtype=np.int64), bits, bound) == b""


@pytest.mark.parametrize("bits", [1, 4, 14, 63])
def test_pack_bound_none_is_the_default(bits):
    # bound=None and bound=2^bits are the default: the same bytes, and the
    # same refusal with the same message
    vals = _values(bits, 17)
    assert wire.pack(vals, bits, None) == wire.pack(vals, bits, 1 << bits) == wire.pack(vals, bits)
    for bound in (None, 1 << bits):
        with pytest.raises(ValueError, match=f"^values out of range for {bits} bits$"):
            wire.pack(np.array([-1]), bits, bound)
    for bound in (0, -1, (1 << bits) + 1):
        with pytest.raises(ValueError, match=f"^bound {bound} does not fit {bits} bits$"):
            wire.pack(vals, bits, bound)


def test_field_encode_names_the_value_pack_refuses():
    # Field.encode scans once, through pack, and a refusal names the field
    field = wire.Field("y", (4,), 12289)
    assert field.encode(np.array([12288, 0, 1, 2])) == wire.pack(np.array([12288, 0, 1, 2]), 14)
    with pytest.raises(ValueError, match=r"^field y\[2\] = 12289 is out of range for bound 12289$"):
        field.encode(np.array([0, 1, 12289, 16383]))
    with pytest.raises(ValueError, match=r"^field y\[1\] = -3 is out of range"):
        field.encode(np.array([0, -3, 1, 2]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 63), st.data())
def test_unpack_inverts_pack(bits, data):
    vals = data.draw(st.lists(st.integers(0, (1 << bits) - 1), max_size=40))
    packed = wire.pack(np.array(vals, dtype=np.int64), bits)
    assert len(packed) == (len(vals) * bits + 7) // 8
    assert wire.unpack(packed, bits, len(vals)).tolist() == vals


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 63), st.integers(0, 40), st.data())
def test_pack_inverts_unpack_up_to_padding(bits, count, data):
    nbits = count * bits
    raw = data.draw(st.binary(min_size=(nbits + 7) // 8, max_size=(nbits + 7) // 8))
    clear = raw[:-1] + bytes([raw[-1] & (1 << nbits % 8) - 1]) if nbits % 8 else raw
    assert wire.pack(wire.unpack(raw, bits, count), bits) == clear


@pytest.mark.parametrize("bits", range(1, 13))
def test_power_of_two_field_decodes_every_string_below_its_bound(bits):
    # decode skips the range check of a field whose bound is 2^bits, as
    # unpack's mask keeps every value below it: every canonical string of
    # count * bits <= 12 bits decodes in range, and encodes back to itself
    field = wire.Field("f", (12 // bits,), 1 << bits)
    for x in range(1 << field.count * field.bits):
        data = x.to_bytes(field.nbytes, "little")
        values = field.decode(data)
        assert 0 <= values.min() and values.max() < field.bound
        assert field.encode(values) == data
