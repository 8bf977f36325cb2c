"""Core-SVP cost estimates for the primal and dual BKZ attacks.

The attacks are priced per SVP call as 2^(0.292 b) classical, 2^(0.265 b)
quantum and 2^(0.2075 b) plausible.  The matrix-protocol tables in this
line of work additionally carry a small per-call accounting overhead that
is numerically indistinguishable from log2(b) extra bits across all
published rows (fit within +/-1 everywhere); `model="matrix"` applies it,
`model="core"` (used for the ring suites) does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from kcn.protocols import assumptions
from kcn.suites import Suite

__all__ = ["AttackEstimate", "security_estimate", "suite_security", "post_reduction_costs"]

CLASSICAL = 0.292
QUANTUM = 0.265
PLAUSIBLE = 0.2075


@dataclass(frozen=True)
class AttackEstimate:
    attack: str
    m: int  # optimal number of samples used
    b: int  # BKZ block size
    c_bits: float  # log2 classical cost
    q_bits: float  # log2 quantum cost
    p_bits: float  # log2 plausible-lower-bound cost

    def rounded(self) -> tuple[int, int, int, int, int]:
        return (self.m, self.b, round(self.c_bits), round(self.q_bits), round(self.p_bits))


def _delta0(b):
    """Root Hermite factor delta_0(b) = ((pi b)^(1/b) b / (2 pi e))^(1/(2(b-1)))."""
    b = np.asarray(b, dtype=np.float64)
    return ((np.pi * b) ** (1.0 / b) * b / (2 * np.pi * np.e)) ** (1.0 / (2.0 * (b - 1.0)))


def _overhead(b, model: str):
    if model == "matrix":
        return np.log2(b)
    if model == "core":
        return np.zeros_like(np.asarray(b, dtype=np.float64))
    raise ValueError(model)


def _primal(n, q, ss, se, m_grid, b_grid, model):
    """Smallest feasible block size per sample count, then the best pair."""
    w = math.sqrt(se / ss)
    ln_delta = np.log(_delta0(b_grid))
    best = None
    for m in m_grid:
        d = m + n + 1
        lhs = 0.5 * (np.log(b_grid / d) + math.log(n * ss + m * se / w**2 + 1))
        rhs = (2 * b_grid - d - 1) * ln_delta + (m / d) * math.log(q / w)
        ok = np.flatnonzero(lhs <= rhs)
        if len(ok) == 0:
            continue
        b = int(b_grid[ok[0]])
        if best is None or b < best[1]:
            best = (int(m), b)
    if best is None:
        raise ValueError("primal attack infeasible on the searched grid")
    m, b = best
    ov = float(_overhead(np.float64(b), model))
    return AttackEstimate("primal", m, b, CLASSICAL * b + ov, QUANTUM * b + ov, PLAUSIBLE * b + ov)


def _dual(n, q, ss, se, m_grid, b_grid, model):
    """Dual distinguishing attack over (m, b).

    One sieve pass at block size b yields 2^(0.2075 b) short vectors, so the
    attack needs R = max(1, 1 / (2^(0.2075 b) eps^2)) repetitions at
    advantage eps.  The matrix cost model minimizes total cost (svp plus
    repetitions); the core model reports the smallest block size whose
    advantage already makes one pass sufficient, which is how the ring
    table was computed.
    """
    c = math.sqrt(se / ss)
    # rows are sample counts m, columns block sizes b; terms of b alone
    # are computed once per b and broadcast
    bb = b_grid.astype(np.float64)
    d = m_grid.astype(np.float64)[:, None] + n
    ln_l = d * np.log(_delta0(bb)) + (n / d) * math.log(q / c)
    ln_tau = ln_l + 0.5 * math.log(se) - math.log(q)
    log2_eps = (math.log(4) - 2 * math.pi**2 * np.exp(2 * ln_tau)) / math.log(2)
    log2_rep = np.maximum(0.0, -PLAUSIBLE * bb - 2 * log2_eps)
    if model == "matrix":
        cost_c = CLASSICAL * bb + log2_rep + _overhead(bb, model)
        i, j = np.unravel_index(np.argmin(cost_c), cost_c.shape)
    else:
        feasible = log2_rep <= 0.0
        first = np.where(feasible.any(axis=1), feasible.argmax(axis=1), len(b_grid))
        i = int(np.argmin(first))
        if first[i] == len(b_grid):
            raise ValueError("dual attack infeasible on the searched grid")
        j = int(first[i])
    m, b = int(m_grid[i]), int(b_grid[j])
    rep = float(log2_rep[i, j])
    ov = float(_overhead(np.float64(b), model))
    return AttackEstimate(
        "dual", m, b,
        CLASSICAL * b + rep + ov, QUANTUM * b + rep + ov, PLAUSIBLE * b + rep + ov,
    )


def security_estimate(n: int, q: int, sigma_s_sq: float, sigma_e_sq: float, model: str = "matrix"):
    """(primal, dual) attack estimates for an LWE-shaped problem, from up to 2n samples.

    sigma_e_sq for an LWR instance is the variance of the implicit uniform
    rounding noise; distribution shape beyond the variance is ignored.
    """
    m_grid = np.arange(max(40, n // 4), 2 * n + 1)
    b_grid = np.arange(60, 1400)
    return (
        _primal(n, q, sigma_s_sq, sigma_e_sq, m_grid, b_grid, model),
        _dual(n, q, sigma_s_sq, sigma_e_sq, m_grid, b_grid, model),
    )


def suite_security(suite: Suite) -> list[tuple[str, AttackEstimate, AttackEstimate]]:
    """Attack estimates for every hardness problem in `kcn.protocols.assumptions`."""
    return [(a.problem,) + security_estimate(a.n, a.q, a.sigma_s_sq, a.sigma_e_sq, model=a.model)
            for a in assumptions(suite)]


def post_reduction_costs(cost_bits: float, order: float, divergence: float,
                         n: int, l_a: int, l_b: int) -> float:
    """Security left after replacing the rounded Gaussian by a table.

    Probability preservation under Renyi divergence: an attack with success
    probability 2^-lambda against the table distribution yields one with
    probability (2^-lambda)^(a/(a-1)) / R_a^N against the Gaussian, where
    N = n(l_A + l_B) + l_A l_B samples are drawn per protocol run.
    """
    big_n = n * (l_a + l_b) + l_a * l_b
    return (order - 1) / order * cost_bits - big_n * math.log2(divergence)
