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


_MOD_BLOCK = 1 << 15


def mod(x: np.ndarray, q: int, out: np.ndarray | None = None) -> np.ndarray:
    """x mod q in [0, q) for an int64 array and q > 0, into out (a new int64
    array by default; out=x reduces in place; an out of a narrower integer
    dtype that holds q - 1 takes the residues as they are formed).  numpy's
    % by a scalar costs about five times its floor division, so each block
    takes x - (x // q) q in int64, and only the quotient block is allocated
    besides out."""
    if out is None:
        out = np.empty_like(x)
    for start in range(0, len(x), _MOD_BLOCK):
        block = x[start : start + _MOD_BLOCK]
        quotient = block // q
        quotient *= q
        np.subtract(block, quotient, out=out[start : start + _MOD_BLOCK], casting="unsafe")
    return out


# ---------------------------------------------------------------------------
# divisor power sums sigma[n] = sum_{d | n} d^e mod q for 1 <= n <= X, summed
# over the hyperbola: each n = d*k with d <= k, d <= sqrt(X), gets d^e and,
# where k > d, the cofactor's k^e; sqrt(X) vector passes, not X


def sigma_pow_sieve(X, e, q):
    out = np.zeros(X + 1, dtype=np.int64)
    # n^e = (n mod q)^e: the powers of the residues below min(q, X + 1),
    # repeated with period q, so no power of an n >= q is computed; q < 2^31
    # keeps the squares in int64
    t = pow_mod_array(np.arange(min(q, X + 1), dtype=np.int64), e, q)
    if q <= X:
        t = np.tile(t, -(-(X + 1) // q))[: X + 1]
    # each slot accumulates one term per divisor, so at most ~1500 values
    # below q < 2^31: comfortably inside int64
    for dd in range(1, math.isqrt(X) + 1):
        out[dd * dd :: dd] += t[dd]
        out[dd * (dd + 1) :: dd] += t[dd + 1 : X // dd + 1]
    return mod(out, q, out=out)


# ---------------------------------------------------------------------------
# dense square of a sparse series: out[e_i + e_j] += c_i * c_j, truncated,
# for strictly increasing exponents; the diagonal once, then the pairs i < j
# doubled, in row blocks of at most about _PAIR_BLOCK pairs

_PAIR_BLOCK = 1 << 16


def sparse_square(exps, coefs, X, q):
    out = np.zeros(X + 1, dtype=np.int64)
    rows = int(np.searchsorted(2 * exps, X, side="right"))  # 2 e_i <= X
    out[2 * exps[:rows]] = coefs[:rows] * coefs[:rows]
    # row i pairs with the columns i < j <= last[i], and last falls with i
    width = np.searchsorted(exps, X - exps[:rows], side="right") - 1 - np.arange(rows)
    ends = np.cumsum(width)
    i = 0
    while i < rows:
        start = int(ends[i] - width[i])
        j = max(i + 1, int(np.searchsorted(ends, start + _PAIR_BLOCK, side="right")))
        w = width[i:j]
        # the flat position p of pair (r, c) in the block is c - r - 1 plus
        # the widths of the rows before r
        col = np.arange(int(ends[j - 1]) - start) + np.repeat(np.arange(i + 1, j + 1) - (ends[i:j] - w - start), w)
        np.add.at(out, np.repeat(exps[i:j], w) + exps[col], np.repeat(2 * coefs[i:j], w) * coefs[col])
        i = j
    return mod(out, q, out=out)
