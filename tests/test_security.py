import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from kcn.analysis import security
from kcn.analysis.security import (
    AttackEstimate,
    security_estimate,
    suite_security,
)
from kcn.suites import get_suite, suite_names
from oracles import post_reduction_costs


def test_estimate_shape_and_invariants():
    primal, dual = security_estimate(680, 2**15, 1.70, 5.25)
    for est in (primal, dual):
        assert isinstance(est, AttackEstimate)
        assert est.b <= est.m + 680  # block size cannot exceed the lattice dim
        assert est.c_bits >= est.q_bits >= est.p_bits
    # harder instance -> larger block size
    harder, _ = security_estimate(832, 2**15, 1.70, 5.25)
    assert harder.b > primal.b


def test_lwr_recommended_rows():
    # published: primal (b=461, 143/131/104), dual (b=458, 142/130/103)
    primal, dual = security_estimate(680, 2**15, 1.70, 5.25, model="matrix")
    assert abs(primal.b - 461) <= 2
    assert abs(round(primal.c_bits) - 143) <= 2
    assert abs(dual.b - 458) <= 2
    assert abs(round(dual.q_bits) - 130) <= 2


def test_zarzar_core_model():
    primal, dual = security_estimate(512, 12289, 22.0, 22.0, model="core")
    assert abs(primal.b - 491) <= 2 and abs(round(primal.q_bits) - 130) <= 2
    assert abs(dual.b - 489) <= 2 and abs(round(dual.c_bits) - 143) <= 2
    # core model carries no overhead: C = 0.292 b exactly for the dual at R=1
    assert abs(dual.c_bits - 0.292 * dual.b) < 1e-9


def test_suite_security_dispatch():
    rows = suite_security(get_suite("hybrid-recommended"))
    assert [r[0] for r in rows] == ["lwe", "lwr"]
    rows = suite_security(get_suite("okcn-t2"))
    assert rows[0][0] == "lwe" and len(rows) == 1
    assert suite_security(get_suite("zarzar"))[0][0] == "rlwe"


# SHA-256 of the JSON of every suite's suite_security rows, as
# {suite: [[problem, primal.rounded(), dual.rounded()], ...]} over all 30 suites
SECURITY_ROWS_DIGEST = "996731ce52fe05377104990c064935ab44acae269ab8ec2a1d83941296f2d4b8"


def test_suite_security_digest():
    rows = {
        name: [[label, list(primal.rounded()), list(dual.rounded())]
               for label, primal, dual in suite_security(get_suite(name))]
        for name in suite_names()
    }
    assert len(rows) == 30
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == SECURITY_ROWS_DIGEST


# SHA-256 of the JSON of every field of every suite's suite_security rows at
# full precision, as {suite: [[problem, fields(primal), fields(dual)], ...]}
# over all 30 suites, with fields(e) = [attack, m, b, c, q, p] and each cost
# written by float.hex
SECURITY_FULL_DIGEST = "8960f9792eb10db2f306b03488c7b8a59d759d192628b4e3d1319abb7ea290db"


def test_suite_security_full_precision_digest():
    def fields(e):
        return [e.attack, e.m, e.b, e.c_bits.hex(), e.q_bits.hex(), e.p_bits.hex()]

    rows = {name: [[label, fields(primal), fields(dual)]
                   for label, primal, dual in suite_security(get_suite(name))]
            for name in suite_names()}
    assert len(rows) == 30
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == SECURITY_FULL_DIGEST


def _grids(n):
    """The (m, b) grids that security_estimate searches for dimension n."""
    return np.arange(max(40, n // 4), 2 * n + 1), np.arange(60, 1400)


# (n, q, sigma_s^2, sigma_e^2, model): lwr-recommended's rows and zarzar's.
# Many consecutive m reach the smallest primal block size in both, so small
# blocks split those ties across block boundaries.
BLOCK_CASES = [(680, 2**15, 1.70, 5.25, "matrix"), (512, 12289, 22.0, 22.0, "core")]


@pytest.mark.parametrize("n, q, ss, se, model", BLOCK_CASES)
def test_estimates_do_not_depend_on_block_size(monkeypatch, n, q, ss, se, model):
    m_grid, b_grid = _grids(n)
    expected = [attack(n, q, ss, se, m_grid, b_grid, model)
                for attack in (security._primal, security._dual)]
    for block in (1, 7, len(m_grid), len(m_grid) + 5):
        monkeypatch.setattr(security, "_BLOCK", block)
        got = [attack(n, q, ss, se, m_grid, b_grid, model)
               for attack in (security._primal, security._dual)]
        assert got == expected, block


def test_infeasible_grid_raises():
    # no lattice attack on n = 680 succeeds at block size 60 alone
    m_grid, _ = _grids(680)
    b_grid = np.arange(60, 61)
    with pytest.raises(ValueError, match="primal attack infeasible"):
        security._primal(680, 2**15, 1.70, 5.25, m_grid, b_grid, "matrix")
    with pytest.raises(ValueError, match="dual attack infeasible"):
        security._dual(680, 2**15, 1.70, 5.25, m_grid, b_grid, "core")


def test_suite_security_memory_is_bounded():
    # hybrid-paranoid has the largest grids; in this call the whole-grid scan
    # peaked at 92.9 MiB of numpy buffers, the block scan at about 1 MiB
    tracemalloc.start()
    try:
        suite_security(get_suite("hybrid-paranoid"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_post_reduction_adjustment():
    # OKCN-T2 published: rounded-Gaussian Q=136/135 -> post-reduction 135/134
    adj = post_reduction_costs(136.0, 500.0, 1.0000337, 712, 8, 8)
    assert abs(adj - 135) <= 1
    # LWE-Recommended: C 155 -> 146 at order 30, divergence 1.0002034
    adj = post_reduction_costs(155.0, 30.0, 1.0002034, 718, 8, 8)
    assert abs(adj - 146) <= 1


def test_bad_model_rejected():
    with pytest.raises(ValueError):
        security_estimate(100, 2**10, 1.0, 1.0, model="bogus")
