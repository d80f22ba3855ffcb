import numpy as np
import pytest

from heckedens import kernels
from heckedens.series import _root_power_table

P, G = 2013265921, 31  # 15*2^27 + 1


def _naive_dft(a, w, p):
    n = len(a)
    return np.array(
        [sum(int(a[k]) * pow(w, j * k, p) for k in range(n)) % p for j in range(n)],
        dtype=np.int64,
    )


@pytest.mark.parametrize("n", [4, 16, 64])
def test_ntt_matches_naive_dft(n):
    rng = np.random.default_rng(n)
    a = rng.integers(0, P, n).astype(np.int64)
    w = pow(G, (P - 1) // n, P)
    wtab = _root_power_table(P, G, n)
    assert wtab[1] == w
    ref = _naive_dft(a, w, P)
    got = a.copy()
    kernels.ntt_inplace(got, wtab, P)
    assert np.array_equal(got, ref)


def test_root_power_table():
    n = 32
    w = pow(G, (P - 1) // n, P)
    tab = _root_power_table(P, G, n)
    assert len(tab) == 16
    assert [int(t) for t in tab] == [pow(w, j, P) for j in range(16)]
    # primitive: w^(n/2) = -1
    assert pow(w, n // 2, P) == P - 1


def _sigma_direct(n, e, q):
    return sum(d ** e for d in range(1, n + 1) if n % d == 0) % q


@pytest.mark.parametrize("e,q", [(3, 99991), (5, 2187), (5, 2), (3, 691)])
def test_sigma_sieve(e, q):
    out = kernels.sigma_pow_sieve(200, e, q)
    for n in range(1, 201):
        assert out[n] == _sigma_direct(n, e, q)


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

