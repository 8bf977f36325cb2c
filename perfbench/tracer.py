"""Spans and exact counts recorded from outside kcn.

The recorder replaces public kcn functions by thin wrappers in the module
where their callers look them up, records one span per call and restores
the originals on `uninstall`.  A span is [name, start_ns, end_ns, parent,
op]: `parent` indexes the enclosing span (-1 for none) and `op` is the
benchmark op the call belongs to.  Counts are computed from the call
arguments at the same boundaries, so they repeat exactly for one seed.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import math
import time
from collections import Counter

import numpy as np

# (module, span prefix, functions).  `kcn.protocols` binds the consensus
# functions by name, so they are wrapped there; everything else is looked
# up through its own module.
TARGETS = (
    ("kcn.algebra", "algebra", ("gen_matrix", "gen_poly", "matmul", "lwr_round", "cut_bits",
                                "uncut", "ntt_forward", "ntt_inverse", "poly_add")),
    ("kcn.noise", "noise", ("sample_table", "sample_centered_binomial", "sample_bab")),
    ("kcn.protocols", "kc", ("kc_con", "kc_rec", "akc_con", "akc_rec")),
    ("kcn.codes", "codes", ("sec_encode", "sec_decode", "sec_wrap", "sec_unwrap", "newhope_con",
                            "newhope_rec", "akcn41_con", "akcn41_rec", "e8_con", "e8_rec")),
    ("kcn.wire", "wire", ("pack", "unpack", "pack_bits", "unpack_bits")),
    ("kcn.protocols", "protocols", ("initiate", "respond", "finish", "derive_key",
                                    "hybrid_keygen", "hybrid_encaps", "hybrid_decaps")),
    ("kcn.analysis.pmf", "pmf", ("conv", "negate", "iid_sum", "iid_sum_mod", "fold_mod",
                                 "product_pmf", "cyclic_fail_prob", "trim", "discretize_chisq",
                                 "pmf_add", "pmf_product_var", "pmf_merge", "tail_ge",
                                 "step_trim")),
    ("kcn.analysis.error_rates", "error_rates", ("error_rate", "lwr_error_rate",
                                                 "lwe_error_rate", "hybrid_error_rate",
                                                 "rlwe_error_rate", "zarzar_error_rate",
                                                 "lwr_diff_distribution")),
    ("kcn.analysis.security", "security", ("suite_security", "security_estimate")),
    ("kcn.analysis.bandwidth", "bandwidth", ("bandwidth",)),
)

# span prefix -> layer, where they differ
LAYER_OF = {"pmf": "analysis", "error_rates": "analysis", "security": "analysis",
            "bandwidth": "analysis"}

EXCHANGE_LAYERS = ("algebra", "noise", "kc", "codes", "wire", "protocols")
EXCHANGE_FUNCS = ("algebra.gen_matrix", "algebra.gen_poly", "algebra.matmul",
                  "algebra.ntt_forward", "algebra.ntt_inverse", "algebra.lwr_round",
                  "codes.e8_rec", "wire.pack", "wire.unpack", "protocols.derive_key")
ANALYSIS_FUNCS = ("pmf.conv", "pmf.iid_sum", "pmf.iid_sum_mod", "pmf.product_pmf",
                  "pmf.fold_mod", "pmf.trim", "pmf.pmf_product_var", "pmf.discretize_chisq",
                  "error_rates.lwr_diff_distribution", "security.security_estimate")


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _size(size) -> int:
    return 1 if size is None else math.prod(np.atleast_1d(size).tolist())


def _count_gen_matrix(rec, parent, args, kwargs):
    key = (bytes(_arg(args, kwargs, 0, "seed")), _arg(args, kwargs, 4, "tag", 0))
    rec.counts["algebra.gen_matrix.calls"] += 1
    if key in rec.seen_seeds:
        rec.counts["algebra.gen_matrix.repeat_seeds"] += 1
    else:
        rec.seen_seeds.add(key)


def _count_matmul(rec, parent, args, kwargs):
    a, b = np.shape(_arg(args, kwargs, 0, "a")), np.shape(_arg(args, kwargs, 1, "b"))
    rec.counts["algebra.matmul.calls"] += 1
    rec.counts["algebra.matmul.flops"] += 2 * a[-2] * a[-1] * b[-1]


def _count_ntt(rec, parent, args, kwargs):
    rec.counts["algebra.ntt.calls"] += 1


def _sampler_count(size_index):
    def count(rec, parent, args, kwargs):
        rec.counts["noise.samples"] += _size(_arg(args, kwargs, size_index, "size"))
    return count


def _wire_count(bits_of):
    # counted at the outermost wire call only: pack_bits delegates to pack
    def count(rec, parent, args, kwargs):
        if parent >= 0 and rec.spans[parent][0].startswith("wire."):
            return
        values = _arg(args, kwargs, 0, "values")
        rec.counts["wire.bytes_packed"] += (np.size(values) * bits_of(args, kwargs) + 7) // 8
    return count


def _count_conv(rec, parent, args, kwargs):
    p, q = _arg(args, kwargs, 0, "p"), _arg(args, kwargs, 1, "q")
    rec.counts["pmf.conv.calls"] += 1
    rec.counts["pmf.conv.mults"] += len(p.probs) * len(q.probs)


COUNTERS = {
    "algebra.gen_matrix": _count_gen_matrix,
    "algebra.matmul": _count_matmul,
    "algebra.ntt_forward": _count_ntt,
    "algebra.ntt_inverse": _count_ntt,
    "noise.sample_table": _sampler_count(2),
    "noise.sample_centered_binomial": _sampler_count(1),
    "noise.sample_bab": _sampler_count(3),
    "wire.pack": _wire_count(lambda args, kwargs: _arg(args, kwargs, 1, "bits")),
    "wire.pack_bits": _wire_count(lambda args, kwargs: 1),
    "pmf.conv": _count_conv,
}


class _CountingXof:
    """A SHAKE object that adds every squeezed byte to a counter."""

    def __init__(self, xof, counts):
        self._xof, self._counts = xof, counts

    def digest(self, length):
        self._counts["algebra.shake_bytes"] += length
        return self._xof.digest(length)

    def __getattr__(self, name):
        return getattr(self._xof, name)


class _CountingHashlib:
    """Stands in for `hashlib` inside kcn.algebra while tracing."""

    def __init__(self, counts):
        self._counts = counts

    def shake_128(self, *args, **kwargs):
        return _CountingXof(hashlib.shake_128(*args, **kwargs), self._counts)

    def __getattr__(self, name):
        return getattr(hashlib, name)


class Recorder:
    """In-memory span and count recorder; wrappers are live between
    `install` and `uninstall`."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.counts = Counter()
        self.seen_seeds = set()
        self.unwrapped = []  # listed targets the program does not define
        self._saved = []

    def install(self):
        for module_name, prefix, funcs in TARGETS:
            module = importlib.import_module(module_name)
            for attr in funcs:
                fn = getattr(module, attr, None)
                if fn is None:
                    if f"{module_name}.{attr}" not in self.unwrapped:
                        self.unwrapped.append(f"{module_name}.{attr}")
                    continue
                name = f"{prefix}.{attr}"
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, COUNTERS.get(name)))
        algebra = importlib.import_module("kcn.algebra")
        if getattr(algebra, "hashlib", None) is hashlib:
            self._saved.append((algebra, "hashlib", hashlib))
            algebra.hashlib = _CountingHashlib(self.counts)

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if count is not None:
                count(self, parent, args, kwargs)
            span = [name, 0, 0, parent, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()

        return wrapper

    def begin_op(self, label: str):
        """Open the root span of one benchmark op."""
        self.op += 1
        self.stack.append(len(self.spans))
        self.spans.append([f"bench.{label}", time.perf_counter_ns(), 0, -1, self.op])

    def end_op(self):
        self.spans[self.stack.pop()][2] = time.perf_counter_ns()

    def self_times(self):
        """Total duration and self time (ns) per span name."""
        child = [0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total, own = Counter(), Counter()
        for (name, t0, t1, _, _), c in zip(self.spans, child):
            total[name] += t1 - t0
            own[name] += t1 - t0 - c
        return total, own

    def metrics(self, ops: int, passes: int, analysis_suites) -> dict:
        """Per-layer metrics over `ops` traced ops making up `passes` passes;
        `analysis_suites` name the per-suite times of the analysis ops."""
        total, own = self.self_times()
        by_layer = Counter()
        for name, ns in own.items():
            prefix = name.split(".", 1)[0]
            by_layer[LAYER_OF.get(prefix, prefix)] += ns
        root_total = sum(ns for name, ns in total.items() if name.startswith("bench."))
        c = self.counts
        out = {}
        for layer in EXCHANGE_LAYERS:
            out[f"{layer}.self_ms_per_op"] = by_layer[layer] / ops / 1e6
        for name in EXCHANGE_FUNCS:
            out[f"{name}.self_ms_per_op"] = own[name] / ops / 1e6
        out["analysis.self_s_per_pass"] = by_layer["analysis"] / passes / 1e9
        for name in ANALYSIS_FUNCS:
            out[f"{name}.self_s_per_pass"] = own[name] / passes / 1e9
        for suite in analysis_suites:
            out[f"analysis.{suite}.s_per_pass"] = total[f"bench.{suite}"] / passes / 1e9
        out["trace.op_ms_mean"] = root_total / ops / 1e6
        out["trace.accounted_share"] = 1 - by_layer["bench"] / root_total
        out["trace.spans_per_op"] = len(self.spans) / ops
        out["algebra.shake_bytes_per_op"] = c["algebra.shake_bytes"] / ops
        out["algebra.gen_matrix.calls_per_op"] = c["algebra.gen_matrix.calls"] / ops
        calls = c["algebra.gen_matrix.calls"]
        out["algebra.gen_matrix.repeat_seed_share"] = (
            c["algebra.gen_matrix.repeat_seeds"] / calls if calls else 0.0)
        out["algebra.matmul.calls_per_op"] = c["algebra.matmul.calls"] / ops
        out["algebra.matmul.flops_per_op"] = c["algebra.matmul.flops"] / ops
        out["algebra.ntt.calls_per_op"] = c["algebra.ntt.calls"] / ops
        out["noise.samples_per_op"] = c["noise.samples"] / ops
        out["wire.bytes_packed_per_op"] = c["wire.bytes_packed"] / ops
        out["pmf.conv.calls_per_pass"] = c["pmf.conv.calls"] / passes
        out["pmf.conv.mults_per_pass"] = c["pmf.conv.mults"] / passes
        return out

    def dump(self, path):
        """Write every span to `path` as JSON (names interned)."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "names": names,
            "spans": [[index[n], t0, t1, p, op] for n, t0, t1, p, op in self.spans],
            "counts": dict(self.counts),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))
