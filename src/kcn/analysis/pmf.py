"""Distribution arithmetic for the failure-probability computations.

Every distribution is a `kcn.noise.Pmf`: dense probabilities over a
contiguous integer support.  A real-valued distribution on a regular grid
(the chi-square pipeline) is a Pmf over k standing for the values step * k;
its step lives with the caller, and `product_pmf`'s scale moves a product
onto the caller's output grid.  The helpers below add convolution, i.i.d.
powers with binary doubling, modular folding, product distributions and
chi-square discretization.

Convolutions are direct (never FFT): with non-negative terms the result
carries only relative rounding error, which keeps 2^-100-scale tail
probabilities meaningful.  Trimming keeps supports small; each Pmf carries
the mass its trims and truncations removed in `dropped`, and every stage
that combines two Pmfs adds their bounds (1 - (1-a)(1-b) <= a + b).
"""

from __future__ import annotations

import numpy as np

from kcn.noise import Pmf

__all__ = ["discretize_chisq", "conv", "negate", "iid_sum", "power", "product_pmf", "fold_mod",
           "kept", "trim"]

PROB_FLOOR = 2.0**-200  # mass below this is flushed when trimming supports


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


def product_pmf(px: Pmf, py: Pmf, scale: float = 1.0) -> Pmf:
    """Distribution of round(scale * X * Y) for independent integer X ~ px,
    Y ~ py.

    With scale 1 this is the law of X * Y.  For Pmfs over grids, X on step
    a and Y on step b, scale = a * b / c rounds each product onto the grid
    of step c while accumulating.  The result is built one row of px at a
    time, and every row builds its bins and weights in the same three
    buffers, so memory stays at the output's size and no row allocates.
    The bins are floor(ka[i] * kb * scale + 0.5) computed in float64 step
    by step, exact while |ka[i] * kb| < 2^53, and np.add.at adds each bin's
    terms in (row, column) order.
    """
    _check_mass(px), _check_mass(py)
    ka, kb = px.support, py.support
    corners = np.multiply.outer([ka[0], ka[-1]], [kb[0], kb[-1]]) * scale
    lo = int(np.floor(corners.min() + 0.5))
    hi = int(np.floor(corners.max() + 0.5))
    out = np.zeros(hi - lo + 1)
    kbf = kb.astype(np.float64)
    x, idx, v = np.empty_like(kbf), np.empty(len(kb), np.int64), np.empty_like(kbf)
    for i in range(len(ka)):
        np.multiply(kbf, ka[i], out=x)
        x *= scale
        x += 0.5
        if lo < 0:  # else every x >= 0, where the int64 cast's truncation is the floor
            np.floor(x, out=x)
        idx[...] = x
        if lo:
            idx -= lo
        np.multiply(py.probs, px.probs[i], out=v)
        np.add.at(out, idx, v)
    return Pmf(lo, out, px.dropped + py.dropped)


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


def discretize_chisq(df: int, step: float) -> Pmf:
    """Distribution of round(X / step) for X ~ chi-square(df), a Pmf over k
    standing for the values step * k.

    The grid extends until the survival mass drops below PROB_FLOOR; that
    truncated mass is carried as `dropped`.  Cell probabilities are
    survival-function differences, which keeps relative precision in the
    far tail.  scipy is imported here, not with the module, so that a process
    that never builds this grid never loads it.
    """
    from scipy.special import chdtrc, chdtri

    xmax = float(chdtri(df, PROB_FLOOR))
    kmax = int(np.ceil(xmax / step)) + 1
    edges = (np.arange(kmax + 1) + 0.5) * step
    sf = chdtrc(df, edges)
    probs = np.empty(kmax + 1)
    probs[0] = 1.0 - sf[0]
    probs[1:] = sf[:-1] - sf[1:]
    return Pmf(0, probs, float(sf[-1]))


def _check_mass(p: Pmf):
    if not (0.0 < p.mass <= 1.0 + 2.0**-30):
        raise ValueError(f"pmf mass out of range: {p.mass}")
