import numpy as np
import pytest

from heckedens import kernels


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
    # X at, just below and just above squares, where the split point moves
    for X in (1, 2, 3, 4, 48, 49, 50, 1023, 1024, 1025, 5000):
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

