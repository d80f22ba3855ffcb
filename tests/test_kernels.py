import tracemalloc

import numpy as np
import pytest

from heckedens import kernels
from heckedens.series import eta_cubed_exponents


def _sigma_direct(n, e, q):
    return sum(d ** e for d in range(1, n + 1) if n % d == 0) % q


@pytest.mark.parametrize("e,q", [(3, 99991), (5, 2187), (5, 2), (3, 691)])
def test_sigma_sieve(e, q):
    out = kernels.sigma_pow_sieve(200, e, q)
    for n in range(1, 201):
        assert out[n] == _sigma_direct(n, e, q)


def _sigma_every_divisor(X, e, q):
    """The sieve as one pass per divisor d <= X, the form it replaced."""
    t = np.array([pow(d, e, q) for d in range(X + 1)], dtype=np.int64)
    out = np.zeros(X + 1, dtype=np.int64)
    for d in range(1, X + 1):
        out[d::d] += t[d]
    return out % q


@pytest.mark.parametrize("q", [23, 2187, 2 ** 31 - 1])
def test_sigma_sieve_hyperbola_matches_every_divisor(q):
    # X at, just below and just above squares, where the split point moves,
    # and with q < X + 1, q = X + 1 and q > X + 1, where the powers of the
    # residues below min(q, X + 1) repeat or not
    for X in (1, 2, 3, 4, 22, 23, 24, 48, 49, 50, 1023, 1024, 1025, 2186, 2187, 2188, 5000):
        for e in (3, 11, 13):
            assert np.array_equal(kernels.sigma_pow_sieve(X, e, q), _sigma_every_divisor(X, e, q)), (X, e)


def test_sparse_square():
    exps = np.array([0, 1, 3, 6, 10], dtype=np.int64)
    coefs = np.array([1, -3, 5, -7, 9], dtype=np.int64)
    for q in (2, 97, 2187):
        ref = np.zeros(13, dtype=np.int64)
        for i in range(5):
            for j in range(5):
                if exps[i] + exps[j] <= 12:
                    ref[exps[i] + exps[j]] += coefs[i] * coefs[j]
        ref %= q
        got = kernels.sparse_square(exps, coefs, 12, q)
        assert np.array_equal(got, ref)


def _sparse_square_outer(exps, coefs, X, q):
    """Every pair (i, j) from the outer product, the form the row blocks replaced."""
    out = np.zeros(X + 1, dtype=np.int64)
    e = (exps[:, None] + exps[None, :]).ravel()
    v = (coefs[:, None] * coefs[None, :]).ravel()
    keep = e <= X
    np.add.at(out, e[keep], v[keep])
    return out % q


def test_sparse_square_matches_outer_product_at_triangular_numbers():
    # the eta^3 exponents are the triangular numbers; X at and beside them
    # moves the last row and column, and the largest X spans several blocks
    for t in (1, 3, 6, 10, 5050, 500500):
        for X in (t - 1, t, t + 1):
            if X < 1:
                continue
            exps, coefs = eta_cubed_exponents(X)
            for q in (2, 23, 2187):
                got = kernels.sparse_square(exps, coefs, X, q)
                assert np.array_equal(got, _sparse_square_outer(exps, coefs, X, q)), (X, q)


def test_sparse_square_memory_is_row_blocks():
    # X = 10^6: about 1414 exponents, 2 * 10^6 pairs in the outer product
    # (64 MB traced); the row blocks add a few MB to the 8 MB output
    X = 10 ** 6
    exps, coefs = eta_cubed_exponents(X)
    tracemalloc.start()
    try:
        out = kernels.sparse_square(exps, coefs, X, 23)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + (4 << 20)
