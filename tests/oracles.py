"""Reference implementations that the tests check kcn against."""

import numpy as np

from kcn.kc import div_round


def frac_part(x, q: int, p: int):
    """Centered residue {x}_p = x - (q/p) round(p x / q), in [-q/2p, q/2p - 1]."""
    if q % p:
        raise ValueError("p must divide q")
    x = np.asarray(x, dtype=np.int64)
    return x - (q // p) * div_round(x, q // p)


def schoolbook_negacyclic(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Reference negacyclic convolution, quadratic time."""
    n = len(a)
    full = np.convolve(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
    out = full[:n].copy()
    out[: n - 1] -= full[n:]
    return out % q
