"""Hot numeric kernels, vectorized with numpy."""

from __future__ import annotations

import math

import numpy as np

# the only kernel set; kept as a constant because perfbench/run.py prints it
BACKEND = "numpy"


def pow_mod_array(base: np.ndarray, e: int, q: int) -> np.ndarray:
    """Elementwise base^e mod q by squaring; needs q^2 < 2^63."""
    out = np.ones_like(base)
    base = base % q
    while e > 0:
        if e & 1:
            out = out * base % q
        base = base * base % q
        e >>= 1
    return out


# ---------------------------------------------------------------------------
# divisor power sums sigma[n] = sum_{d | n} d^e mod q for 1 <= n <= X, summed
# over the hyperbola: each n = d*k with d <= k, d <= sqrt(X), gets d^e and,
# where k > d, the cofactor's k^e; sqrt(X) vector passes, not X


def sigma_pow_sieve(X, e, q):
    out = np.zeros(X + 1, dtype=np.int64)
    # q < 2^31 keeps the squares in int64
    t = pow_mod_array(np.arange(X + 1, dtype=np.int64), e, q)
    # each slot accumulates one term per divisor, so at most ~1500 values
    # below q < 2^31: comfortably inside int64
    for dd in range(1, math.isqrt(X) + 1):
        out[dd * dd :: dd] += t[dd]
        out[dd * (dd + 1) :: dd] += t[dd + 1 : X // dd + 1]
    out %= q
    return out


# ---------------------------------------------------------------------------
# dense square of a sparse series: out[e_i + e_j] += c_i * c_j, truncated


def sparse_square(exps, coefs, X, q):
    out = np.zeros(X + 1, dtype=np.int64)
    e = (exps[:, None] + exps[None, :]).ravel()
    v = (coefs[:, None] * coefs[None, :]).ravel()
    keep = e <= X
    np.add.at(out, e[keep], v[keep])
    out %= q
    return out
