import numpy as np
import pytest

from heckedens.errors import CapacityError
from heckedens.primes import iter_prime_segments, prime_count, primes_in


def _simple_sieve(n):
    is_p = np.ones(n + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, int(n ** 0.5) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return np.flatnonzero(is_p)


def test_small_examples():
    assert primes_in(2, 10).tolist() == [2, 3, 5, 7]
    assert len(primes_in(2, 100)) == 25
    assert prime_count(10) == 4
    assert prime_count(1000) == 168


def test_against_one_shot_sieve():
    ref = _simple_sieve(10 ** 6)
    assert len(ref) == 78498
    got = primes_in(2, 10 ** 6)
    assert np.array_equal(got, ref)


def test_pi_ten_million():
    assert prime_count(10 ** 7) == 664579


def test_segmentation_invariance():
    ref = primes_in(2, 10 ** 6)
    for segment in (999, 4096, 10 ** 6 + 7):
        parts = list(iter_prime_segments(2, 10 ** 6, segment=segment))
        assert np.array_equal(np.concatenate(parts), ref)


def test_interior_ranges():
    ref = _simple_sieve(50000)
    lo, hi = 17, 49999
    got = primes_in(lo, hi, segment=1 << 12)
    assert np.array_equal(got, ref[(ref >= lo) & (ref <= hi)])
    assert primes_in(24, 28).tolist() == []


def _sieve_triples():
    """About 200 seeded (lo, hi, segment) triples over the sieve's edge cases."""
    rng = np.random.default_rng(1977)
    out = []
    for lo in (0, 1, 2, 3):
        for segment in (1, 2, 3, 4, 7, 64):
            out.append((lo, lo + int(rng.integers(0, 3000)), segment))
    for p in (2, 3, 5, 7, 11, 13, 31, 97, 173):
        sq = p * p
        for hi in (sq - 1, sq):
            out.append((int(rng.integers(0, 6)), hi, int(rng.integers(1, 50))))
        for k in (1, 2, 5):
            segment = int(rng.integers(1, max(2, (sq - 2) // k)))
            out.append((sq - k * segment, sq + 500, segment))  # a segment starts at p^2
            out.append((sq + 1 - k * segment, sq + 500, segment))  # and one ends there
        out.append((p, p, int(rng.integers(1, 4))))  # lo = hi, a prime
        out.append((sq, sq, 1))
    while len(out) < 200:
        lo = int(rng.integers(0, 20000))
        out.append((lo, lo + int(rng.integers(0, 10000)), int(rng.integers(1, 4000))))
    return [(max(lo, 0), hi, segment) for lo, hi, segment in out]


def test_odd_sieve_matches_one_shot_sieve():
    triples = _sieve_triples()
    assert len(triples) >= 200
    assert {lo for lo, _, _ in triples} >= {0, 1, 2, 3}
    assert {segment % 2 for _, _, segment in triples} == {0, 1}
    ref = _simple_sieve(max(hi for _, hi, _ in triples))
    for lo, hi, segment in triples:
        want = ref[(ref >= lo) & (ref <= hi)]
        got = primes_in(lo, hi, segment=segment)
        assert got.dtype == np.int64
        assert np.array_equal(got, want), (lo, hi, segment)
        parts = list(iter_prime_segments(lo, hi, segment=segment))
        starts = range(max(lo, 2), hi + 1, segment)
        assert len(parts) == len(starts)
        for start, part in zip(starts, parts):
            assert np.all((part >= start) & (part < start + segment))


def test_pi_monotone_steps():
    ref = _simple_sieve(500)
    pi = np.cumsum(np.isin(np.arange(501), ref))
    for x in range(3, 501):
        assert pi[x] - pi[x - 1] in (0, 1)
    for x in range(2, 30):
        assert prime_count(x) == pi[x]


def test_range_guard():
    with pytest.raises(CapacityError):
        primes_in(2, 10 ** 9 + 1)
    with pytest.raises(ValueError):
        primes_in(10, 5)
