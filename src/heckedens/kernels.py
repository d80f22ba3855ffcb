"""Hot numeric kernels, vectorized with numpy."""

from __future__ import annotations

import numpy as np

# the only kernel set; kept as a constant because perfbench/run.py prints it
BACKEND = "numpy"


# ---------------------------------------------------------------------------
# number-theoretic transform, radix-2 in-place
#
# a: int64 array, length n a power of two, entries in [0, p)
# wtab: int64 array of the n/2 powers w^0..w^(n/2-1) of a primitive n-th
#       root of unity w mod p
# p: transform prime < 2^31 so every product below fits in int64


_bitrev_cache: dict[int, np.ndarray] = {}


def _bitrev_indices(n: int) -> np.ndarray:
    idx = _bitrev_cache.get(n)
    if idx is None:
        idx = np.zeros(n, dtype=np.int64)
        half = 1
        while half < n:
            idx[half : 2 * half] = idx[:half] + n // (2 * half)
            half *= 2
        _bitrev_cache[n] = idx
    return idx


def ntt_inplace(a, wtab, p):
    """Bit-reversal permutation, then one vectorized butterfly pass per stage."""
    n = a.shape[0]
    a[:] = a[_bitrev_indices(n)]
    half = 1
    while half < n:
        step = n // (2 * half)
        tw = wtab[: half * step : step]
        blocks = a.reshape(-1, 2 * half)
        lo = blocks[:, :half].copy()
        hi = (blocks[:, half:] * tw) % p
        blocks[:, :half] = (lo + hi) % p
        blocks[:, half:] = (lo - hi) % p
        half *= 2


# ---------------------------------------------------------------------------
# divisor power sums: sigma[n] = sum_{d | n} d^e mod q, for 1 <= n <= X


def sigma_pow_sieve(X, e, q):
    out = np.zeros(X + 1, dtype=np.int64)
    d = np.arange(X + 1, dtype=np.int64)
    # vectorized d^e mod q by squaring
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
    for dd in range(1, X + 1):
        out[dd::dd] += t[dd]
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
