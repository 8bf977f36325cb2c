import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kcn import noise
from kcn.noise import TABLES, Pmf


def test_all_tables_checksum():
    # NoiseTable.__post_init__ enforces the 2^bits checksum; recheck the
    # shipped numbers explicitly, D_R being the spec'd example
    t = TABLES["D_R"]
    assert t.counts[0] + 2 * sum(t.counts[1:]) == 2**16
    assert t.counts == (19572, 14792, 6383, 1570, 220, 17)
    assert TABLES["D1"].counts[3] == 2
    for t in TABLES.values():
        assert t.counts[0] + 2 * sum(t.counts[1:]) == 1 << t.bits


def test_bad_table_rejected():
    with pytest.raises(ValueError):
        noise.NoiseTable("bad", 8, (100, 50))


def test_sample_table_moments(rng):
    x = noise.sample_table(TABLES["D_R"], rng, 10**6)
    assert abs(x.mean()) < 0.01
    assert abs(x.var() - TABLES["D_R"].pmf().variance()) < 0.02


def test_sample_table_goodness_of_fit(rng):
    t = TABLES["D_R"]
    n = 10**7
    x = noise.sample_table(t, rng, n)
    kmax = t.support_bound
    observed = np.bincount(x + kmax, minlength=2 * kmax + 1)
    expected = t.pmf().probs * n
    from scipy.stats import chisquare

    assert chisquare(observed, expected).pvalue > 0.001


def test_sample_table_exact_distribution(rng):
    # with bits=8 the inverse-CDF mapping is small enough to verify exactly
    t = TABLES["D1"]
    draws = np.array([noise.sample_table(t, rng) for _ in range(2000)])
    assert set(np.unique(draws)) <= set(range(-3, 4))
    # the full 8-bit input space maps onto exactly the table counts

    class FakeRng:
        def __init__(self):
            self.vals = iter(range(256))

        def integers(self, lo, hi, size=None, dtype=None):
            return np.int64(next(self.vals))

    fake = FakeRng()
    outs = np.array([noise.sample_table(t, fake) for _ in range(256)])
    counts = {v: int(np.sum(outs == v)) for v in range(-3, 4)}
    assert counts[0] == t.counts[0]
    for k in (1, 2, 3):
        assert counts[k] == counts[-k] == t.counts[k]


def test_centered_binomial(rng):
    x = noise.sample_centered_binomial(rng, 10**6)
    assert x.min() >= -16 and x.max() <= 16
    assert abs(x.var() - 8.0) < 0.05
    assert abs(x.mean()) < 0.01
    pmf = noise.psi16_pmf()
    assert pmf.p(16) == 2.0**-32
    assert abs(pmf.variance() - 8.0) < 1e-12


def test_bab_sampler(rng):
    x = noise.sample_bab(24, 16, rng, 10**6)
    assert abs(x.var() - 22.0) < 0.1
    assert x.min() >= -(24 // 2 + 16)
    pmf = noise.bab_pmf(24, 16)
    assert abs(pmf.variance() - 22.0) < 1e-9
    assert pmf.p(-(24 // 2 + 16)) == 2.0**-40  # all bits zero
    with pytest.raises(ValueError):
        noise.sample_bab(3, 2, rng)


def test_rounded_gaussian_symmetry():
    p = noise.rounded_gaussian_pmf(1.5)
    assert np.allclose(p.probs, p.probs[::-1])
    assert abs(p.mass - 1.0) < 1e-12
    tiny = noise.rounded_gaussian_pmf(0.05)
    assert tiny.p(0) > 1 - 1e-12
    # the rounding step contributes 1/12 extra variance
    assert abs(noise.rounded_gaussian_pmf(3.0).variance() - 9.0 - 1 / 12) < 1e-3


def test_renyi_identity_and_support():
    p = TABLES["D_R"].pmf()
    assert abs(noise.renyi_divergence(p, p, 500.0) - 1.0) < 1e-12
    q = Pmf(0, np.array([1.0]))
    with pytest.raises(ValueError):
        noise.renyi_divergence(p, q, 2.0)


@pytest.mark.parametrize(
    "name",
    ["D_R", "D_P", "D1", "D2", "D3", "D4", "D5", "DB1", "DB2", "DB3", "DB4"],
)
def test_renyi_divergence_reproduces_table(name):
    t = TABLES[name]
    q = noise.rounded_gaussian_pmf(math.sqrt(t.variance))
    r = noise.renyi_divergence(t.pmf(), q, t.renyi_order)
    assert abs(r - t.renyi_divergence) < 1e-6


def test_renyi_cutoff_insensitive():
    # tail cutoff beyond 10 sigma does not move the divergence at 1e-6 scale
    t = TABLES["D_R"]
    vals = [
        noise.renyi_divergence(t.pmf(), noise.rounded_gaussian_pmf(math.sqrt(1.70), c), 500.0)
        for c in (14, 16, 30, 60)
    ]
    assert max(vals) - min(vals) < 1e-9


def test_renyi_multiplicativity():
    # R_a of a product of independent pairs equals the product of the
    # marginal divergences
    a = 500.0
    p1, q1 = TABLES["D_R"].pmf(), noise.rounded_gaussian_pmf(math.sqrt(1.70))
    p2, q2 = TABLES["D4"].pmf(), noise.rounded_gaussian_pmf(math.sqrt(1.66))
    pj = Pmf(0, np.outer(p1.probs, p2.probs).ravel())
    q1a = np.array([q1.p(int(v)) for v in p1.support])
    q2a = np.array([q2.p(int(v)) for v in p2.support])
    qj = Pmf(0, np.outer(q1a, q2a).ravel() / (q1a.sum() * q2a.sum()))
    lhs = noise.renyi_divergence(pj, qj, a)
    r1 = noise.renyi_divergence(p1, Pmf(int(p1.support[0]), q1a / q1a.sum()), a)
    r2 = noise.renyi_divergence(p2, Pmf(int(p2.support[0]), q2a / q2a.sum()), a)
    assert abs(lhs - r1 * r2) / (r1 * r2) < 1e-9


def test_table_from_pmf_roundtrip():
    src = noise.rounded_gaussian_pmf(math.sqrt(2.0))
    t = noise.table_from_pmf(src, 16, "g2")
    assert t.counts[0] + 2 * sum(t.counts[1:]) == 2**16
    assert abs(t.pmf().variance() - src.variance()) < 0.01


@given(st.integers(2, 30), st.integers(0, 20))
def test_uniform_pmf(width, lo):
    p = noise.uniform_pmf(lo - width, lo)
    assert abs(p.mass - 1.0) < 1e-12
    assert abs(p.mean() - (2 * lo - width) / 2) < 1e-9


def test_noise_spec_rejects_unknown_kind():
    from kcn.suites import NoiseSpec

    with pytest.raises(ValueError, match="'tabel'.*table, psi16, bab, gauss, binary"):
        NoiseSpec("tabel", name="D1")


def test_noise_spec_rejects_unknown_table():
    from kcn.suites import NoiseSpec

    with pytest.raises(ValueError, match="'D9'.*D_R, D_P, D1"):
        NoiseSpec("table", name="D9")
    assert NoiseSpec("table", name="D1").variance() == TABLES["D1"].variance
