"""Hot numeric kernels, vectorized with numpy."""

from __future__ import annotations

import math

import numpy as np

# the only kernel set; kept as a constant because perfbench/run.py prints it
BACKEND = "numpy"


# ---------------------------------------------------------------------------
# divisor power sums sigma[n] = sum_{d | n} d^e mod q for 1 <= n <= X, summed
# over the hyperbola: each n = d*k with d <= k, d <= sqrt(X), gets d^e and,
# where k > d, the cofactor's k^e; sqrt(X) vector passes, not X


def sigma_pow_sieve(X, e, q):
    out = np.zeros(X + 1, dtype=np.int64)
    d = np.arange(X + 1, dtype=np.int64)
    # vectorized d^e mod q by squaring; q < 2^31 keeps the squares in int64
    t = np.ones(X + 1, dtype=np.int64)
    b = d % q
    ee = e
    while ee > 0:
        if ee & 1:
            t = (t * b) % q
        b = (b * b) % q
        ee >>= 1
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
