"""Bit-exact message packing, and the one layout of each message.

Elements are packed little-endian, LSB-first within each element, in
row-major order; each message field is padded to a byte boundary
independently.  A `Field` is one array of ints below one bound; a mode
whose hint is a record (the 4:1 D4 hint) mixes it into one int itself.  A
`Layout` lists a message's fields in wire order; its `pack`, its `unpack`
and `kcn.analysis.bandwidth` all read that list, so the byte counts and
the serializer cannot disagree.

Decoding is canonical: `Layout.unpack` accepts only the unique encoding of
a valid message, rejecting a wrong length, a set padding bit and any value
at or above its field's bound.  `Field.decode` range-checks only a bound
below 2^bits, as `unpack` masks every value to its bits.  On the way out,
`pack` scans each value once, against the field's bound or, for its
direct callers, 2^bits; when it refuses a field, `Field.check` names the
field and value at fault.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Field", "Layout", "pack", "unpack"]


def _check(bits: int) -> None:
    if not 1 <= bits <= 63:
        raise ValueError(f"bits must be in 1..63, got {bits}")


def pack(values: np.ndarray, bits: int, bound: int | None = None) -> bytes:
    """Pack non-negative ints below `bound` (default 2^bits, at most that)
    into ceil(len*bits/8) bytes, after one scan of the values."""
    _check(bits)
    top = 1 << bits
    if bound is None:
        bound = top
    elif not 0 < bound <= top:
        raise ValueError(f"bound {bound} does not fit {bits} bits")
    flat = np.asarray(values, dtype=np.int64).reshape(-1)
    # as uint64 a negative value is at least 2^63, above any bound
    if flat.size and flat.view(np.uint64).max() >= bound:
        raise ValueError(f"values out of range for {bits} bits" if bound == top
                         else f"values out of range for bound {bound}")
    octets = flat.astype("<u8").view(np.uint8).reshape(-1, 8)  # each value's 64-bit word
    bitmat = np.unpackbits(octets, axis=1, count=bits, bitorder="little")
    return np.packbits(bitmat, bitorder="little").tobytes()


def unpack(data: bytes, bits: int, count: int) -> np.ndarray:
    """Inverse of pack; checks the exact byte length."""
    _check(bits)
    need = (count * bits + 7) // 8
    if len(data) != need:
        raise ValueError(f"expected {need} bytes, got {len(data)}")
    # the little-endian 64-bit window at each value's first byte, shifted to its first bit
    windows = np.ndarray((need + 1,), "<u8", b"".join((data, bytes(8))), strides=(1,))
    off = np.arange(0, count * bits, bits, dtype=np.uint64)
    vals = windows.take(off >> 3) >> (off & 7)
    if bits > 57:  # a window holds 57 bits past any shift; the next one has the rest
        vals |= windows.take((off >> 3) + 1) << 8 - (off & 7)
    return (vals & (1 << bits) - 1).view(np.int64)


@dataclass(frozen=True)
class Field:
    """An array of `shape` elements, each in [0, bound) and
    (bound - 1).bit_length() bits wide."""

    name: str
    shape: tuple[int, ...]
    bound: int

    @cached_property
    def count(self) -> int:
        return math.prod(self.shape)

    @cached_property
    def bits(self) -> int:
        return (self.bound - 1).bit_length()

    @cached_property
    def nbytes(self) -> int:
        return (self.count * self.bits + 7) // 8

    def check(self, values: np.ndarray) -> None:
        """Raise unless every one of the flat `values` is in [0, bound)."""
        if values.min() >= 0 and values.max() < self.bound:
            return
        i = int(np.argmax((values < 0) | (values >= self.bound)))
        raise ValueError(f"field {self.name}[{i}] = {values[i]} is out of range for bound {self.bound}")

    def encode(self, values) -> bytes:
        """Pack the `count` values, each in [0, bound); a refusal names the
        first value at fault."""
        flat = np.asarray(values, dtype=np.int64).reshape(self.count)
        try:
            return pack(flat, self.bits, self.bound)
        except ValueError:
            self.check(flat)
            raise

    def decode(self, data: bytes) -> np.ndarray:
        """Inverse of encode, for exactly `nbytes` bytes; rejects set padding bits."""
        used = self.count * self.bits % 8
        if used and data[-1] >> used:
            raise ValueError(f"field {self.name}: padding bits are not zero")
        values = unpack(data, self.bits, self.count)
        if self.bound < 1 << self.bits:  # unpack's mask keeps every value below 2^bits
            self.check(values)
        return values.reshape(self.shape)


@dataclass(frozen=True)
class Layout:
    """The ordered fields of one message."""

    fields: tuple[Field, ...]

    @cached_property
    def nbytes(self) -> int:
        return sum(f.nbytes for f in self.fields)

    def pack(self, *values) -> bytes:
        """Encode one array per field, in field order."""
        if len(values) != len(self.fields):
            raise ValueError(f"expected {len(self.fields)} fields, got {len(values)}")
        return b"".join(f.encode(v) for f, v in zip(self.fields, values))

    def unpack(self, data: bytes) -> tuple[np.ndarray, ...]:
        """Decode the canonical encoding of one message into one array per field."""
        if len(data) != self.nbytes:
            raise ValueError(f"expected {self.nbytes} bytes, got {len(data)}")
        out, start = [], 0
        for f in self.fields:
            out.append(f.decode(data[start:start + f.nbytes]))
            start += f.nbytes
        return tuple(out)
