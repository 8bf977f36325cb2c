"""The call sites that perfbench/tracer.py wraps from outside.

The tracer replaces module attributes: the noise samplers in `kcn.noise`
and the consensus functions in `kcn.protocols`.  Callers must look those
names up at call time, or a traced run silently records nothing.
"""

import numpy as np
import pytest

from kcn import noise
from kcn import protocols as proto
from kcn.kc import KcParams, KcVariant
from kcn.suites import NoiseSpec, Suite


def _spy(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("spec, sampler", [
    (NoiseSpec("table", name="D1"), "sample_table"),
    (NoiseSpec("gauss", var=2.0), "sample_table"),
    (NoiseSpec("psi16"), "sample_centered_binomial"),
    (NoiseSpec("bab", a=24, b=16), "sample_bab"),
])
def test_noise_spec_samples_through_module_attribute(monkeypatch, spec, sampler):
    calls = []
    _spy(monkeypatch, noise, sampler, calls)
    assert spec.sample(np.random.default_rng(1), 5).shape == (5,)
    assert calls == [sampler]


def _toy(variant, kc):
    return Suite(
        name="toy-lwr", family="lwr", n=4, l_a=1, l_b=1, q=2**6, p=2**4,
        noise=NoiseSpec("binary"), variant=variant, kc=kc,
    )


@pytest.mark.parametrize("suite, con, rec", [
    (_toy(KcVariant.OKCN_SIMPLE, KcParams(q=2**4, m=2, g=8, d=3)), "kc_con", "kc_rec"),
    (_toy(KcVariant.AKCN_GENERIC, KcParams(q=2**4, m=2, g=8, d=2)), "akc_con", "akc_rec"),
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
