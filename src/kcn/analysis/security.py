"""Core-SVP cost estimates for the primal and dual BKZ attacks.

The attacks are priced per SVP call as 2^(0.292 b) classical, 2^(0.265 b)
quantum and 2^(0.2075 b) plausible.  The matrix-protocol tables in this
line of work additionally carry a small per-call accounting overhead that
is numerically indistinguishable from log2(b) extra bits across all
published rows (fit within +/-1 everywhere); `model="matrix"` applies it,
`model="core"` (used for the ring suites) does not.

Each attack scans its (m, b) grid _BLOCK sample counts m at a time and
carries the best pair, so it holds a few _BLOCK x 1340 float64 arrays
(126 KiB each, under glibc's default 128 KiB mmap threshold, so they reuse
heap memory), not the whole grid.  Ties go to the first m, as in one pass
over the grid, so the estimates do not depend on the block size.  Every
key at block size b is at least a known floor (b itself, or the matrix
dual's svp cost plus overhead), so once a pair is best the scan evaluates
only the block sizes whose floor is below its key: the same pair, from a
third to three quarters of the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from kcn.protocols import assumptions
from kcn.suites import Suite

__all__ = ["AttackEstimate", "security_estimate", "suite_security"]

CLASSICAL = 0.292
QUANTUM = 0.265
PLAUSIBLE = 0.2075
_BLOCK = 12  # sample counts per block of the (m, b) scan


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
    return ((np.pi * b) ** (1.0 / b) * b / (2 * np.pi * np.e)) ** (1.0 / (2.0 * (b - 1.0)))


def _scan(attack, m_grid, b_grid, model, block, floor):
    """The estimate at the (m, b) pair of smallest key.

    block(ms, nb) returns the keys of the sample counts ms (rows, whose terms
    of m alone are Python floats) against the first nb block sizes, and their
    log2 repetitions (None for the primal).  Ties go to the earlier block, as
    argmin gives them to the earlier row; an infinite key is infeasible.
    floor[j] is a lower bound on every key at block size b_grid[j], so after
    each improvement only the columns up to the last one whose floor is below
    the best key can beat it, strictly, and the scan evaluates those alone.
    """
    best = None
    nb = len(b_grid)
    for lo in range(0, len(m_grid), _BLOCK):
        key, rep = block(m_grid[lo:lo + _BLOCK], nb)
        i, j = np.unravel_index(np.argmin(key), key.shape)
        if best is None or key[i, j] < best[0]:
            best = (key[i, j], int(m_grid[lo + i]), int(b_grid[j]), 0.0 if rep is None else float(rep[i, j]))
            live = np.flatnonzero(floor < best[0])
            if live.size == 0:
                break
            nb = int(live[-1]) + 1
    key, m, b, rep = best
    if key == np.inf:
        raise ValueError(f"{attack} attack infeasible on the searched grid")
    ov = float(np.log2(np.float64(b))) if model == "matrix" else 0.0
    return AttackEstimate(attack, m, b, CLASSICAL * b + rep + ov, QUANTUM * b + rep + ov,
                          PLAUSIBLE * b + rep + ov)


def _primal(n, q, ss, se, m_grid, b_grid, model):
    """Smallest feasible block size over the sample counts, and the first m reaching it."""
    w = math.sqrt(se / ss)
    bb = b_grid.astype(np.float64)
    ln_delta = np.log(_delta0(bb))

    def block(ms, nb):
        b = bb[:nb]
        d = ms[:, None] + n + 1.0
        ln_vol = np.array([[math.log(n * ss + m * se / w**2 + 1)] for m in ms.tolist()])
        ln_qw = np.array([[(m / (m + n + 1)) * math.log(q / w)] for m in ms.tolist()])
        lhs = 0.5 * (np.log(b / d) + ln_vol)
        rhs = (2 * b - 1 - d) * ln_delta[:nb] + ln_qw
        return np.where(lhs <= rhs, b, np.inf), None

    return _scan("primal", m_grid, b_grid, model, block, bb)


def _dual(n, q, ss, se, m_grid, b_grid, model):
    """Dual distinguishing attack over (m, b).

    One sieve pass at block size b yields 2^(0.2075 b) short vectors, so the
    attack needs R = max(1, 1 / (2^(0.2075 b) eps^2)) repetitions at
    advantage eps.  The matrix cost model minimizes total cost (svp plus
    repetitions); the core model reports the smallest block size whose
    advantage already makes one pass sufficient, and the first m reaching
    it, which is how the ring table was computed.
    """
    c = math.sqrt(se / ss)
    bb = b_grid.astype(np.float64)
    ln_delta = np.log(_delta0(bb))

    def block(ms, nb):
        b = bb[:nb]
        ln_qc = np.array([[(n / (m + n)) * math.log(q / c)] for m in ms.tolist()])
        ln_l = (ms[:, None] + float(n)) * ln_delta[:nb] + ln_qc
        ln_tau = ln_l + 0.5 * math.log(se) - math.log(q)
        log2_eps = (math.log(4) - 2 * math.pi**2 * np.exp(2 * ln_tau)) / math.log(2)
        log2_rep = np.maximum(0.0, -PLAUSIBLE * b - 2 * log2_eps)
        if model == "matrix":
            return CLASSICAL * b + log2_rep + np.log2(b), log2_rep
        return np.where(log2_rep <= 0.0, b, np.inf), log2_rep

    # log2_rep >= 0 and rounded addition is monotone, so a matrix key is at
    # least the same sum without it; a core key is b or inf
    floor = CLASSICAL * bb + np.log2(bb) if model == "matrix" else bb
    return _scan("dual", m_grid, b_grid, model, block, floor)


def security_estimate(n: int, q: int, sigma_s_sq: float, sigma_e_sq: float, model: str = "matrix"):
    """(primal, dual) attack estimates for an LWE-shaped problem, from up to 2n samples.

    sigma_e_sq for an LWR instance is the variance of the implicit uniform
    rounding noise; distribution shape beyond the variance is ignored.
    """
    if model not in ("matrix", "core"):
        raise ValueError(model)
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
