"""Distribution arithmetic for the failure-probability computations.

Two representations are used.  Integer-valued distributions ride on
`kcn.noise.Pmf` (dense probabilities over a contiguous integer support);
the helpers below add convolution, i.i.d. powers with binary doubling,
modular folding and product distributions.  Real-valued distributions on a
regular grid (the chi-square pipeline) use StepPmf: values are step * k
for integer k, so discretization and merging are exact grid operations.

Convolutions are direct (never FFT): with non-negative terms the result
carries only relative rounding error, which keeps 2^-100-scale tail
probabilities meaningful.  Trimming keeps supports small; each Pmf carries
the mass its trims removed in `dropped`, and every stage that combines
two Pmfs adds their bounds (1 - (1-a)(1-b) <= a + b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2

from kcn.noise import Pmf

__all__ = [
    "StepPmf",
    "pmf_add",
    "pmf_product_var",
    "pmf_merge",
    "discretize_chisq",
    "conv",
    "iid_sum",
    "iid_sum_mod",
    "product_pmf",
    "fold_mod",
    "tail_ge",
    "cyclic_fail_prob",
]

PROB_FLOOR = 2.0**-200  # mass below this is flushed when trimming supports


# ---------------------------------------------------------------------------
# Integer-support helpers (kcn.noise.Pmf)

def conv(p: Pmf, q: Pmf) -> Pmf:
    """Distribution of X + Y for independent X ~ p, Y ~ q."""
    return Pmf(p.offset + q.offset, np.convolve(p.probs, q.probs), p.dropped + q.dropped)


def negate(p: Pmf) -> Pmf:
    return Pmf(-(p.offset + len(p.probs) - 1), p.probs[::-1], p.dropped)


def iid_sum(p: Pmf, n: int) -> Pmf:
    """Distribution of the sum of n i.i.d. copies of p, by binary doubling.

    Every convolution is trimmed, so supports stay near the bulk of the mass.
    A cut made after j doublings reaches the sum about n / 2^j times, so the
    floor is PROB_FLOOR / n: the trims add at most 4 PROB_FLOOR to `dropped`
    whatever n is.
    """
    if n < 1:
        raise ValueError("n >= 1")
    floor = PROB_FLOOR / n
    return power(p, n, lambda a, b: trim(conv(a, b), floor))


def power(x, n: int, add):
    """The n-fold sum of x by binary doubling, where add(a, b) is the law of
    the sum of independent a and b; n >= 1."""
    acc = None
    while n:
        if n & 1:
            acc = x if acc is None else add(acc, x)
        n >>= 1
        if n:
            x = add(x, x)
    return acc


def fold_mod(p: Pmf, q: int) -> np.ndarray:
    """Fold onto Z_q: probs[r] = P(X = r mod q), as a length-q array."""
    out = np.zeros(q)
    idx = (p.offset + np.arange(len(p.probs))) % q
    np.add.at(out, idx, p.probs)
    return out


def iid_sum_mod(p: Pmf, n: int, q: int) -> np.ndarray:
    """Distribution of an n-fold i.i.d. sum reduced mod q (length-q array)."""
    return fold_mod(iid_sum(p, n), q)


def product_pmf(px: Pmf, py: Pmf) -> Pmf:
    """Distribution of X * Y for independent integer X ~ px, Y ~ py."""
    xs, ys = px.support, py.support
    prods = np.multiply.outer(xs, ys).ravel()
    weights = np.multiply.outer(px.probs, py.probs).ravel()
    lo, hi = int(prods.min()), int(prods.max())
    out = np.zeros(hi - lo + 1)
    np.add.at(out, prods - lo, weights)
    return Pmf(lo, out, px.dropped + py.dropped)


def cyclic_fail_prob(folded: np.ndarray, d: int) -> float:
    """P(|X|_q > d) for a mod-q folded distribution."""
    q = len(folded)
    r = np.arange(q)
    bad = np.minimum(r, q - r) > d
    return float(np.sum(folded[bad]))


def kept(probs: np.ndarray, floor: float) -> tuple[int, int]:
    """The [lo, hi) support left after cutting each tail whose mass is below
    floor; at least one point is kept."""
    lo = int(np.searchsorted(np.cumsum(probs), floor))
    hi = len(probs) - int(np.searchsorted(np.cumsum(probs[::-1]), floor))
    return max(0, min(lo, hi - 1)), hi


def trim(p: Pmf, floor: float = PROB_FLOOR) -> Pmf:
    """Drop leading/trailing support whose one-sided tail mass is below floor.

    The cut tails are summed directly into `dropped`: 1 - mass would be
    swamped by rounding.
    """
    lo, hi = kept(p.probs, floor)
    cut = float(np.sum(p.probs[:lo]) + np.sum(p.probs[hi:]))
    return Pmf(p.offset + lo, p.probs[lo:hi].copy(), p.dropped + cut)


# ---------------------------------------------------------------------------
# Regular-grid real distributions

@dataclass(frozen=True)
class StepPmf:
    """Distribution over the grid {step * k}; probs[i] is P(step*(offset+i))."""

    step: float
    offset: int
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=np.float64))

    @property
    def values(self) -> np.ndarray:
        return self.step * (self.offset + np.arange(len(self.probs)))

    @property
    def mass(self) -> float:
        return float(np.sum(self.probs))

    def mean(self) -> float:
        return float(np.dot(self.values, self.probs)) / self.mass


def discretize_chisq(df: int, step: float, tail: float = PROB_FLOOR) -> StepPmf:
    """Distribution of step * round(X / step) for X ~ chi-square(df).

    The grid extends until the survival mass drops below `tail`.  Cell
    probabilities are survival-function differences, which keeps relative
    precision in the far tail.
    """
    xmax = float(chi2.isf(tail, df))
    kmax = int(np.ceil(xmax / step)) + 1
    edges = (np.arange(kmax + 1) + 0.5) * step
    sf = chi2.sf(edges, df)
    probs = np.empty(kmax + 1)
    probs[0] = 1.0 - sf[0]
    probs[1:] = sf[:-1] - sf[1:]
    return StepPmf(step, 0, probs)


def pmf_add(a: StepPmf, b: StepPmf) -> StepPmf:
    """Distribution of X + Y (independent); steps must agree."""
    if not np.isclose(a.step, b.step):
        raise ValueError("steps must match for addition")
    _check_mass(a), _check_mass(b)
    return StepPmf(a.step, a.offset + b.offset, np.convolve(a.probs, b.probs))


def pmf_product_var(a: StepPmf, b: StepPmf, merge_step: float | None = None) -> StepPmf:
    """Distribution of X * Y (independent).

    Without merge_step the result lives on the exact product grid
    (step = a.step * b.step).  With merge_step the products are rounded
    onto that coarser grid while accumulating, which is exactly
    pmf_merge(pmf_product_var(a, b), merge_step) but bounded-memory.
    """
    _check_mass(a), _check_mass(b)
    out_step = a.step * b.step if merge_step is None else merge_step
    scale = a.step * b.step / out_step
    ka = a.offset + np.arange(len(a.probs))
    kb = b.offset + np.arange(len(b.probs))
    if merge_step is None:
        prods = np.multiply.outer(ka, kb)
        lo, hi = int(prods.min()), int(prods.max())
        out = np.zeros(hi - lo + 1)
        for i in range(len(ka)):
            np.add.at(out, prods[i] - lo, a.probs[i] * b.probs)
        return StepPmf(out_step, lo, out)
    # bounded-memory accumulation onto the merged grid
    corners = np.multiply.outer([ka[0], ka[-1]], [kb[0], kb[-1]]) * scale
    lo = int(np.floor(corners.min() + 0.5))
    hi = int(np.floor(corners.max() + 0.5))
    out = np.zeros(hi - lo + 1)
    for i in range(len(ka)):
        idx = np.floor(ka[i] * kb * scale + 0.5).astype(np.int64) - lo
        np.add.at(out, idx, a.probs[i] * b.probs)
    return StepPmf(out_step, lo, out)


def pmf_merge(p: StepPmf, step: float) -> StepPmf:
    """Coarsen onto the grid {step * k}: distribution of step * round(X / step)."""
    _check_mass(p)
    k = np.floor(p.values / step + 0.5).astype(np.int64)
    lo, hi = int(k.min()), int(k.max())
    out = np.zeros(hi - lo + 1)
    np.add.at(out, k - lo, p.probs)
    return StepPmf(step, lo, out)


def tail_ge(p: StepPmf, threshold: float) -> float:
    """P(X > threshold)."""
    return float(np.sum(p.probs[p.values > threshold]))


def step_trim(p: StepPmf, floor: float = PROB_FLOOR) -> StepPmf:
    """Drop grid tails carrying less than `floor` mass on each side."""
    lo, hi = kept(p.probs, floor)
    return StepPmf(p.step, p.offset + lo, p.probs[lo:hi].copy())


def _check_mass(p: StepPmf):
    if not (0.0 < p.mass <= 1.0 + 2.0**-30):
        raise ValueError(f"pmf mass out of range: {p.mass}")
