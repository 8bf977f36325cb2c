"""The call sites that perfbench/tracer.py wraps from outside.

The tracer replaces module attributes: the noise samplers in `kcn.noise`,
the matrix, ring and NTT functions in `kcn.algebra`, the consensus
functions in `kcn.protocols`, the bit codec in `kcn.wire`, and the failure
and attack models in `kcn.analysis`.  Callers must look those
names up at call time, or a traced run silently records nothing.
"""

import numpy as np
import pytest

from kcn import algebra, noise, wire
from kcn import protocols as proto
from kcn.analysis import error_rates, security
from kcn.kc import KcParams, KcVariant
from kcn.noise import PSI16, TABLES, bab, gauss
from kcn.suites import Suite, get_suite
from oracles import BINARY


def _spy(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("spec, sampler", [
    (TABLES["D1"], "sample_table"),
    (gauss(2.0), "sample_table"),
    (PSI16, "sample_centered_binomial"),
    (bab(24, 16), "sample_bab"),
])
def test_noise_spec_samples_through_module_attribute(monkeypatch, spec, sampler):
    calls = []
    _spy(monkeypatch, noise, sampler, calls)
    assert spec.sample(np.random.default_rng(1), 5).shape == (5,)
    assert calls == [sampler]


def _toy(variant, kc):
    return Suite(
        name="toy-lwr", family="lwr", n=4, l_a=1, l_b=1, q=2**6, p=2**4,
        noise=BINARY, variant=variant, kc=kc,
    )


def _toy_ring():
    # |sigma1 - sigma2| <= 2n + 1 = 33 <= d for binary noise: always agrees
    return Suite(
        name="toy-rlwe-plain", family="rlwe", n=16, l_a=1, l_b=1, q=193,
        noise=BINARY, variant=KcVariant.OKCN_GENERIC, kc=KcParams(q=193, m=2, g=4, d=35),
    )


def _exchange(suite, rng):
    sess, msg1 = proto.initiate(suite, rng)
    key_b, msg2 = proto.respond(suite, msg1, rng)
    assert proto.finish(sess, msg2) == key_b


@pytest.mark.parametrize("suite, con, rec", [
    (_toy(KcVariant.OKCN_SIMPLE, KcParams(q=2**4, m=2, g=8, d=3)), "kc_con", "kc_rec"),
    (_toy(KcVariant.AKCN_GENERIC, KcParams(q=2**4, m=2, g=8, d=2)), "akc_con", "akc_rec"),
    (_toy_ring(), "kc_con", "kc_rec"),
])
def test_exchange_reaches_consensus_through_module_attributes(monkeypatch, suite, con, rec):
    calls = []
    for name in ("kc_con", "kc_rec", "akc_con", "akc_rec"):
        _spy(monkeypatch, proto, name, calls)
    rng = np.random.default_rng(2)
    sess, msg1 = proto.initiate(suite, rng)
    key_b, msg2 = proto.respond(suite, msg1, rng)
    assert proto.finish(sess, msg2) == key_b
    assert calls == [con, rec]


def test_matrix_exchange_reaches_algebra_through_module_attributes(monkeypatch):
    calls = []
    for name in ("gen_matrix", "matmul"):
        _spy(monkeypatch, algebra, name, calls)
    _exchange(get_suite("lwe-challenge"), np.random.default_rng(3))
    # A X1; A^T X2 and y1^T X2, A from the initiator's key in the slot; X1^T y2
    assert calls == ["gen_matrix", "matmul", "matmul", "matmul", "matmul"]


@pytest.mark.parametrize("suite", [_toy_ring(), get_suite("okcn-sec-837")], ids=lambda s: s.name)
def test_ring_exchange_reaches_ntt_through_module_attributes(monkeypatch, suite):
    _exchange(suite, np.random.default_rng(4))  # leaves another seed's transform cached
    calls = []
    for name in ("gen_poly", "ntt_forward", "ntt_inverse"):
        _spy(monkeypatch, algebra, name, calls)
    _exchange(suite, np.random.default_rng(5))
    # One expansion of the fresh seed, whose transform the responder reuses.
    # Forward: a, x1, x2, y1 and y2; inverse: a x1, a x2, y1 x2 and x1 y2.
    # A secret transformed again on use would show here.
    assert [calls.count(name) for name in ("gen_poly", "ntt_forward", "ntt_inverse")] == [1, 5, 4]


def test_layout_codes_through_module_attributes(monkeypatch):
    calls = []
    for name in ("pack", "unpack"):
        _spy(monkeypatch, wire, name, calls)
    layout = wire.Layout((wire.Field("a", (3,), 5), wire.Field("h", (2, 2), 4)))
    data = layout.pack(np.array([0, 1, 4]), np.array([[1, 3], [0, 2]]))
    assert calls == ["pack", "pack"]
    a, h = layout.unpack(data)
    assert calls == ["pack", "pack", "unpack", "unpack"]
    assert a.tolist() == [0, 1, 4] and h.tolist() == [[1, 3], [0, 2]]


# The analysis models, which the tracer wraps in `kcn.analysis.error_rates`
# and `kcn.analysis.security`.

@pytest.mark.parametrize("name, model", [
    ("lwr-recommended", "lwr_error_rate"),
    ("lwe-challenge", "lwe_error_rate"),
    ("okcn-t2", "lwe_error_rate"),
    ("hybrid-recommended", "hybrid_error_rate"),
    ("okcn-rlwe-16", "rlwe_error_rate"),
    ("okcn-sec-837", "rlwe_error_rate"),
    ("zarzar", "zarzar_error_rate"),
])
def test_error_rate_reaches_model_through_module_attribute(monkeypatch, name, model):
    calls = []
    for fn in ("lwr_error_rate", "lwe_error_rate", "hybrid_error_rate", "rlwe_error_rate",
               "zarzar_error_rate"):
        monkeypatch.setattr(error_rates, fn, lambda *args, fn=fn: calls.append(fn) or fn)
    assert error_rates.error_rate(get_suite(name)) == model
    assert calls == [model]


@pytest.mark.parametrize("name, problems", [
    ("lwr-recommended", [("lwr", 680)]),
    ("okcn-t2", [("lwe", 712)]),
    ("hybrid-recommended", [("lwe", 712), ("lwr", 704)]),
    ("zarzar", [("rlwe", 512)]),
])
def test_suite_security_estimates_through_module_attribute(monkeypatch, name, problems):
    calls = []

    def stub(n, q, sigma_s_sq, sigma_e_sq, **kwargs):
        calls.append(n)
        return ("primal", n), ("dual", n)

    monkeypatch.setattr(security, "security_estimate", stub)
    rows = security.suite_security(get_suite(name))
    assert [(label, primal[1]) for label, primal, _ in rows] == problems
    assert calls == [n for _, n in problems]
