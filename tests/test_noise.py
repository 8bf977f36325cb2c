import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import norm

import published
from kcn import noise, suites
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
    pmf = noise.PSI16.pmf()
    assert pmf.p(16) == 2.0**-32
    assert abs(pmf.variance() - 8.0) < 1e-12


# SHA-256 over sample_centered_binomial(default_rng(1600 + size), size) as
# little-endian int64, then 8 bytes of the generator's next draw, for each
# size below: the values and the draws the sampler leaves behind
PSI16_SIZES = (0, 1, 7, 1024)
PSI16_DIGEST = "d4c4641e995f2d02d2a8fdc93fc7d3baed7425a745cf5571fe12b2ff61031576"


def test_centered_binomial_pinned():
    h = hashlib.sha256()
    for size in PSI16_SIZES:
        rng = np.random.default_rng(1600 + size)
        x = noise.sample_centered_binomial(rng, size)
        assert x.dtype == np.int64 and x.shape == (size,)
        h.update(x.astype("<i8").tobytes())
        h.update(rng.bytes(8))
    assert h.hexdigest() == PSI16_DIGEST
    x = noise.sample_centered_binomial(np.random.default_rng(5))
    assert isinstance(x, np.int64) and x == -1


def test_centered_binomial_edge_words():
    # each draw is popcount(low 16 bits) - popcount(high 16 bits) of one
    # 32-bit word, at the all-zero, all-one and half-set words too
    words = [0, 0xFFFFFFFF, 0xFFFF0000, 0x0000FFFF, 0x80000001, 0x00018000, 0x7FFF8000, 0x12345678]

    class FakeRng:
        def integers(self, lo, hi, size=None, dtype=None):
            assert (lo, hi, dtype) == (0, 1 << 32, np.uint64)
            return np.array(words, dtype=np.uint64)

    want = [bin(w & 0xFFFF).count("1") - bin(w >> 16).count("1") for w in words]
    assert noise.sample_centered_binomial(FakeRng(), len(words)).tolist() == want
    assert want[:4] == [0, 0, -16, 16]


def test_bab_sampler(rng):
    x = noise.sample_bab(24, 16, rng, 10**6)
    assert abs(x.var() - 22.0) < 0.1
    assert x.min() >= -(24 // 2 + 16)
    pmf = noise.bab(24, 16).pmf()
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


@pytest.mark.parametrize("fig", published.RENYI, ids=lambda fig: fig.row)
def test_renyi_divergence_reproduces_table(fig):
    t = TABLES[fig.row]
    q = noise.rounded_gaussian_pmf(math.sqrt(t.variance))
    r = noise.renyi_divergence(t.pmf(), q, fig.at[0])
    assert abs(r - fig.value) < fig.tol


def test_renyi_cutoff_insensitive():
    # tail cutoff beyond 10 sigma does not move the divergence at 1e-6 scale:
    # the library's ceil(12 sigma) = 16 against rounded Gaussians cut at 14,
    # 30 and 60, built here from the normal tail
    t = TABLES["D_R"]
    sigma = math.sqrt(1.70)

    def cut_at(cutoff):
        x = np.abs(np.arange(-cutoff, cutoff + 1))
        w = norm.sf((x - 0.5) / sigma) - norm.sf((x + 0.5) / sigma)
        return Pmf(-cutoff, w / np.sum(w))

    refs = [noise.rounded_gaussian_pmf(sigma)] + [cut_at(c) for c in (14, 30, 60)]
    vals = [noise.renyi_divergence(t.pmf(), q, 500.0) for q in refs]
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
    # a suite takes only a noise law; anything else fails when it is built
    d1 = suites.get_suite("lwr-recommended")
    with pytest.raises(TypeError, match="TABLES entry, PSI16, bab or gauss.*'tabel'"):
        dataclasses.replace(d1, noise="tabel")
    for law in (TABLES["D1"], noise.PSI16, noise.bab(24, 16), noise.gauss(2.0)):
        assert dataclasses.replace(d1, noise=law).noise is law


def test_noise_spec_rejects_unknown_table():
    with pytest.raises(ValueError, match="'D9'.*D_R, D_P, D1"):
        suites._table("D9")
    assert suites._table("D1") is TABLES["D1"]
    assert suites._table("D1").variance == TABLES["D1"].variance


def test_laws_refuse_bad_parameters():
    # odd a, more than 63 bits per draw, and no positive variance all fail
    # when the law is built, not at its first draw
    for a, b in [(3, 1), (40, 30)]:
        with pytest.raises(ValueError):
            noise.bab(a, b)
    for var in (0.0, -1.0):
        with pytest.raises(ValueError):
            noise.gauss(var)


# --- pinned outputs: the table sampler and the rounded Gaussian --------------

class _CountingRng:
    """Stub generator whose `integers` returns every value in [lo, hi) once."""

    def integers(self, lo, hi, size=None, dtype=None):
        return np.arange(lo, hi, dtype=dtype)


# SHA-256 of sample_table(t, stub, 2^bits) as little-endian int64: the value
# of every one of the table's 2^bits equally likely draws, in draw order
SAMPLE_TABLE_DIGESTS = {
    "D_R": "83f59c2f346335c55f816e05397e1de268351f26f206b49e13cdd5061ab9f241",
    "D_P": "1fa1b92059c55f5f89fd118cb352435dea58e1dd19dae422aa65fa87589bf61e",
    "D1": "1e77f5dec1543094c85042e3758560f4c11bf9b0602a51e2d0a39a249ad090d4",
    "D2": "e7d0d25c3c4f3597758bd26299245493d6c5d1b48c9f60f44c54e42af7ca0be3",
    "D3": "3133e93d195f178576450fa43b67c4273a3f740656cebf2a6010929d87055fbb",
    "D4": "269f099b27b8784190274c4de8e7fc4a51cc8bf9fc51d33302be0aed5ca78917",
    "D5": "9e431d01cfd7e635e299f9cedb643d954959f8cdf127863fcb08b3b08c4acf40",
    "DB1": "0d6726017c740b70f89253baa416a812cf69d33a571571d29a65216e58dba6cf",
    "DB2": "dd0dcc1c8472daaa597809b9f8340edce11cfae650911cd133b4bb05bc411156",
    "DB3": "9538621931bc22210928360c2a02237391c1c5e7eb2934a4afcfea1cf2652546",
    "DB4": "94e245e153ff4912ed768e8961c8a9246629f26ab1a4eb89afd7e431e85a4572",
    "gauss2.0": "97f66a019eea1dc8f2abcfe45ff0638b5ed7a192160688bbce71d9edfeede042",
}


def _pinned_table(name):
    return noise._gauss_table(2.0) if name == "gauss2.0" else TABLES[name]


@pytest.mark.parametrize("name", list(SAMPLE_TABLE_DIGESTS))
def test_sample_table_draw_map_pinned(name):
    t = _pinned_table(name)
    x = noise.sample_table(t, _CountingRng(), 1 << t.bits)
    assert x.dtype == np.int64 and x.shape == (1 << t.bits,)
    assert hashlib.sha256(x.astype("<i8").tobytes()).hexdigest() == SAMPLE_TABLE_DIGESTS[name]


# SHA-256 of rounded_gaussian_pmf(sqrt(v)): the offset as little-endian int64,
# then the probabilities as little-endian float64, for every table variance
# and for v = 2.0
ROUNDED_GAUSSIAN_DIGESTS = {
    0.9: "2cbf3aacfbeb52cfc33bafd5ef35c0624e92b97b8bf0e59ffaaa8f4c326a2ca2",
    1.0: "7467b904918dfc9ab08856ded9c1a71a7c98bdd9612e8c83d4351b8932e86888",
    1.1: "53fa61719a382ea8e06b2c34aa8eb6e297c6a0176b88b3ce120017b35e84f9f4",
    1.25: "67e9aad478462c3e3ea3a023e5ffbde57a530910e0bccf20304927f7ee941a62",
    1.3: "fbd124f4a547b844c7c6e8f050df908d4c4a379193f071bb7310334f15b87ada",
    1.4: "b6322a8800b77b9030284905b62aaaccbb4629a25081834739720117ea237d52",
    1.66: "344eb6b7f3676c2b8bfd468887884f0f12690dea38bba590316bed0fd8195589",
    1.7: "2ef343092d3105d5979c5c16c9f3d3d339cb44f82d98918775802a3cff06187f",
    1.75: "2e43c26ca3a8941fbfc060d3985a26fc6ff5f373abf472bd8a86ca3f9c6f8327",
    2.0: "b78c48f1c86547532bd08de3282349d40fc314a90be06d4c9606081d205ebf0d",
}


@pytest.mark.parametrize("v", sorted(ROUNDED_GAUSSIAN_DIGESTS))
def test_rounded_gaussian_pmf_pinned(v):
    pmf = noise.rounded_gaussian_pmf(math.sqrt(v))
    h = hashlib.sha256(np.int64(pmf.offset).astype("<i8").tobytes())
    h.update(pmf.probs.astype("<f8").tobytes())
    assert h.hexdigest() == ROUNDED_GAUSSIAN_DIGESTS[v]


def test_pinned_variances_cover_every_table():
    assert {t.variance for t in TABLES.values()} | {2.0} == set(ROUNDED_GAUSSIAN_DIGESTS)
    assert set(TABLES) | {"gauss2.0"} == set(SAMPLE_TABLE_DIGESTS)


# SHA-256 over every suite's noise law, in suite-name order: the PMF's offset
# as little-endian int64, its probabilities as little-endian float64, then
# float.hex of the law's variance
SUITE_NOISE_DIGEST = "9be7af614183d5da46422a58a2827fc69109963e4e0af0b683294977252999e1"


def test_suite_noise_laws_pinned():
    h = hashlib.sha256()
    for name in suites.suite_names():
        law = suites.get_suite(name).noise
        pmf = law.pmf()
        h.update(np.int64(pmf.offset).astype("<i8").tobytes())
        h.update(pmf.probs.astype("<f8").tobytes())
        h.update(float.hex(law.variance).encode())
    assert len(suites.suite_names()) == 30
    assert h.hexdigest() == SUITE_NOISE_DIGEST


def _sampled_pmf(law) -> Pmf:
    """The pmf a law's draws follow: its pmf(), except for gauss, which
    samples a 16-bit table of it whose support stops where the counts
    reach zero."""
    pmf = law.pmf()
    return noise.table_from_pmf(pmf, 16, law.name).pmf() if law.name.startswith("gauss") else pmf


@pytest.mark.parametrize("name", suites.suite_names())
def test_support_bound_of_every_suite_law(name):
    # `matmul` sizes its exact products from this bound, so no draw may exceed it
    law = suites.get_suite(name).noise
    sampled = _sampled_pmf(law)
    support = sampled.support[sampled.probs > 0]
    assert law.support_bound == max(-support[0], support[-1])
    assert law.support_bound <= max(-law.pmf().offset, law.pmf().support[-1])
    draws = law.sample(np.random.default_rng(len(name)), 10**5)
    assert np.abs(draws).max() <= law.support_bound
