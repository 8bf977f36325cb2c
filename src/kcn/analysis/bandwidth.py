"""Message sizes, read from the wire layouts.

Each message is the `kcn.wire.Layout` that `kcn.protocols.layouts` builds
from the suite; its fields are bit-packed and padded to a byte boundary
independently.  The sizes here are summed from those same fields, so they
equal the lengths the serializer produces by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from kcn.protocols import layouts, public_element
from kcn.suites import Suite

__all__ = ["BandwidthReport", "bandwidth"]


@dataclass(frozen=True)
class BandwidthReport:
    msg1_bytes: int  # public key for the hybrid family
    msg2_bytes: int  # ciphertext for the hybrid family
    total_bytes: int
    matrix_bytes: int  # size of A if it were shipped instead of the seed

    @property
    def total_kb(self) -> float:
        return self.total_bytes / 1000.0


def bandwidth(suite: Suite) -> BandwidthReport:
    msg1, msg2 = layouts(suite)
    return BandwidthReport(msg1.nbytes, msg2.nbytes, msg1.nbytes + msg2.nbytes,
                           public_element(suite).nbytes)
