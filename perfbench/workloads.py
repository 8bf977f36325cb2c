"""The kcn benchmark workloads, their correctness gate and the closed loop.

One client drives the public API in a closed loop: the next op starts
when the previous one has returned.  A cycle is one pass over the
workload's suite list; runs end on a cycle boundary, so per-op figures
average over whole passes and repeat exactly for one seed.
"""

from __future__ import annotations

import importlib
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import speed
from kcn import protocols, suites

# `kcn.analysis` re-exports functions under its submodules' names, so the
# submodules are taken from the import system rather than as attributes.
error_rates = importlib.import_module("kcn.analysis.error_rates")
security = importlib.import_module("kcn.analysis.security")
bandwidth = importlib.import_module("kcn.analysis.bandwidth")

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())


@dataclass(frozen=True)
class Spec:
    kind: str  # "exchange" | "kem" | "analysis"
    suites: tuple
    sessions_per_key: int = 0


SPECS = {
    "kx-matrix": Spec("exchange", ("lwr-recommended", "okcn-t2", "frodo-recommended",
                                   "hybrid-recommended")),
    "kx-ring": Spec("exchange", ("okcn-rlwe-16", "okcn-sec-837", "akcn-sec-837", "newhope",
                                 "akcn-4to1", "zarzar")),
    "kem-reuse": Spec("kem", ("hybrid-recommended", "hybrid-paranoid"), sessions_per_key=64),
    "analysis": Spec("analysis", ("hybrid-recommended", "lwr-recommended", "frodo-recommended",
                                  "okcn-t2", "okcn-sec-837", "zarzar")),
}


@dataclass
class Tally:
    """What a set of cycles did: op latencies per suite (inf for a failed
    op) and the timed stretches (ops, keygens) of each cycle, both as
    (seconds, start, end) with the speed sampler's time taken out; the
    wall time of each cycle; bytes on the wire; failures and their first
    tracebacks."""

    latencies: dict = field(default_factory=dict)
    stretches: list = field(default_factory=list)
    cycle_times: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wire_bytes: int = 0  # msg1 + msg2 over the ops that returned messages
    messages: int = 0
    errors: list = field(default_factory=list)

    def record(self, suite: str, stretch: tuple, ok: bool):
        self.attempted += 1
        seconds, start, end = stretch
        self.latencies.setdefault(suite, []).append((seconds if ok else math.inf, start, end))
        self.stretches[-1].append(stretch)
        if not ok:
            self.failed += 1

    def error(self):
        """Keep the traceback of the exception being handled (the first few)."""
        if len(self.errors) < 3:
            self.errors.append(traceback.format_exc())


class Workload:
    """A resolved workload: suites looked up, expected sizes computed,
    one generator made from the seed."""

    def __init__(self, spec: Spec, seed: int, reference=None):
        self.spec = spec
        self.rng = np.random.default_rng(seed)
        self.suites = [suites.get_suite(name) for name in spec.suites]
        if spec.kind == "analysis":
            order = np.random.default_rng(seed).permutation(len(self.suites))
            self.suites = [self.suites[i] for i in order]
        self.sizes = {s.name: bandwidth.bandwidth(s) for s in self.suites}
        self.reference = REFERENCE if reference is None else reference
        self.tamper = None  # optional (suite, msg2) -> msg2, applied on the wire
        self.recorder = None
        self.sampler = speed.Sampler()  # entered by the caller while measuring

    # -- set-up ---------------------------------------------------------------

    def warm_up(self):
        """One op per suite, outside any tally: fills the lazy NTT-table,
        Gaussian-table and noise-CDF caches.  The analysis engine keeps no
        caches, so its warm-up computes only the inputs (noise PMFs,
        sizes) of each suite."""
        tally = Tally(stretches=[[]])
        for s in self.suites:
            if self.spec.kind == "exchange":
                self._op(tally, "op", self._exchange, s)
            elif self.spec.kind == "kem":
                pk, x1 = protocols.hybrid_keygen(s, self.rng)
                self._op(tally, "op", self._session, s, pk, x1)
            else:
                s.noise.pmf()
                bandwidth.bandwidth(s)
        if tally.failed:
            raise RuntimeError("warm-up op failed:\n" + tally.errors[0])

    # -- the closed loop ------------------------------------------------------

    def cycle(self, tally: Tally):
        """One pass over the suite list."""
        tally.stretches.append([])
        t0 = time.perf_counter()
        for s in self.suites:
            if self.spec.kind == "exchange":
                self._op(tally, "op", self._exchange, s)
            elif self.spec.kind == "kem":
                self._kem_key(tally, s)
            else:
                self._op(tally, s.name, self._analysis, s)
        tally.cycle_times.append(time.perf_counter() - t0)

    def _timer(self):
        """Returns a function giving (seconds, start, end) since this call,
        less the time the speed sampler took meanwhile."""
        spent, start = self.sampler.spent, time.perf_counter()

        def stop():
            end = time.perf_counter()
            return end - start - (self.sampler.spent - spent), start, end

        return stop

    def _op(self, tally: Tally, label: str, fn, *args):
        """Time one op; an exception counts as one failed op and the run goes on."""
        rec = self.recorder
        if rec is not None:
            rec.begin_op(label)
        stop = self._timer()
        try:
            ok, nbytes = fn(*args)
        except Exception:
            ok, nbytes = False, 0
            tally.error()
        stretch = stop()
        if rec is not None:
            rec.end_op()
        tally.record(args[0].name, stretch, ok)
        if nbytes:
            tally.wire_bytes += nbytes
            tally.messages += 1

    def _wire(self, s, msg2: bytes) -> bytes:
        return msg2 if self.tamper is None else self.tamper(s, msg2)

    def _exchange(self, s):
        session, msg1 = protocols.initiate(s, self.rng)
        key_b, msg2 = protocols.respond(s, msg1, self.rng)
        msg2 = self._wire(s, msg2)
        key_a = protocols.finish(session, msg2)
        kdf_a, kdf_b = protocols.derive_key(s, key_a), protocols.derive_key(s, key_b)
        return self._agree(s, key_a, key_b, kdf_a, kdf_b, msg1, msg2)

    def _kem_key(self, tally: Tally, s):
        """One public key serving `sessions_per_key` sessions; the keygen
        counts towards wall time but is not an op."""
        rec = self.recorder
        if rec is not None:
            rec.begin_op("keygen")
        stop = self._timer()
        try:
            pk, x1 = protocols.hybrid_keygen(s, self.rng)
        except Exception:
            tally.record(s.name, stop(), False)
            tally.error()
            return
        finally:
            if rec is not None:
                rec.end_op()
        tally.stretches[-1].append(stop())
        for _ in range(self.spec.sessions_per_key):
            self._op(tally, "op", self._session, s, pk, x1)

    def _session(self, s, pk, x1):
        key_b, ct = protocols.hybrid_encaps(s, pk, self.rng)
        ct = self._wire(s, ct)
        key_a = protocols.hybrid_decaps(s, x1, ct)
        kdf_a, kdf_b = protocols.derive_key(s, key_a), protocols.derive_key(s, key_b)
        return self._agree(s, key_a, key_b, kdf_a, kdf_b, pk, ct)

    def _agree(self, s, key_a, key_b, kdf_a, kdf_b, msg1, msg2):
        size = self.sizes[s.name]
        ok = (key_a == key_b and kdf_a == kdf_b
              and len(msg1) == size.msg1_bytes and len(msg2) == size.msg2_bytes)
        return ok, len(msg1) + len(msg2)

    def _analysis(self, s):
        """error_rate, suite_security and bandwidth of one suite, checked
        against the figures taken at the source commit."""
        report = error_rates.error_rate(s)
        rows = security.suite_security(s)
        size = bandwidth.bandwidth(s)
        ref = self.reference["suites"][s.name]
        attacks = [[name, list(p.rounded()), list(d.rounded())] for name, p, d in rows]
        ok = (abs(report.log2_overall - ref["log2_overall"]) <= self.reference["log2_tolerance"]
              and attacks == ref["attacks"]
              and (size.msg1_bytes, size.msg2_bytes) == (ref["msg1_bytes"], ref["msg2_bytes"]))
        return ok, size.msg1_bytes + size.msg2_bytes


def flip_bit(s, msg2: bytes) -> bytes:
    """Flip one bit of y2[0], the first element of msg2, that the agreed key
    depends on.  Ring family: the top bit, which shifts every coefficient
    of sigma1, beyond what SEC corrects.  Matrix families: the bit of
    weight q/m in the consensus modulus, which moves each key symbol of the
    first column by its secret entry (a hint bit moves the key by half a
    symbol at most, which Rec may absorb).
    """
    if s.family == "rlwe":
        bit = s.qbits - 1
    else:
        bit = (s.kc.q // s.kc.m).bit_length() - 1 - s.t
    out = bytearray(msg2)
    out[bit // 8] ^= 1 << bit % 8
    return bytes(out)


def truncate(s, msg2: bytes) -> bytes:
    """Drop the last byte of msg2."""
    return msg2[:-1]
