"""Segmented odd-only prime sieve (Bays and Hudson, BIT 17, 1977) for scans
up to x ~ 1e8: each segment of SEGMENT_SIZE integers is a bool mask over its
odd numbers, crossed off by the odd base primes up to sqrt(hi), which come
from the same sieve; 2 is yielded on its own."""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import CapacityError

SEGMENT_SIZE = 1 << 20
MAX_HI = 10 ** 9


def iter_prime_segments(lo: int, hi: int, segment: int | None = None) -> Iterator[np.ndarray]:
    """Yield primes in [lo, hi] as one int64 array per segment of `segment`
    (default SEGMENT_SIZE) integers, in order."""
    if hi > MAX_HI:
        raise CapacityError(f"sieve range end {hi} exceeds {MAX_HI}")
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    lo = max(lo, 2)
    if segment is None:
        segment = SEGMENT_SIZE
    root = math.isqrt(hi)
    # the odd base primes, sieved here as one segment
    base = next(iter_prime_segments(3, root, segment=root)) if root >= 3 else np.array([], dtype=np.int64)
    start = lo
    while start <= hi:
        end = min(start + segment - 1, hi)
        # from start = 2 the mask begins at 1, which no base prime crosses
        # off and which is then read as 2
        first_odd = start | 1 if start > 2 else 1
        mask = np.ones(max(0, (end - first_odd) // 2 + 1), dtype=bool)
        # the first odd multiple >= max(p^2, start) of each base prime, as a
        # mask index; starting at p^2 leaves the base primes themselves
        first = np.maximum(base * base, first_odd)
        first = -(-first // base) * base
        first += base * (first % 2 == 0)
        index = (first - first_odd) // 2
        hits = index < len(mask)
        for p, i in zip(base[hits].tolist(), index[hits].tolist()):
            mask[i::p] = False
        seg = np.flatnonzero(mask)
        seg *= 2
        seg += first_odd
        if start == 2:
            seg[0] = 2
        yield seg
        start = end + 1


def primes_in(lo: int, hi: int, segment: int | None = None) -> np.ndarray:
    """All primes in [lo, hi], increasing, memory proportional to segment size."""
    parts = list(iter_prime_segments(lo, hi, segment))
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.array([], dtype=np.int64)


def prime_count(x: int) -> int:
    """pi(x), the number of primes <= x."""
    if x < 2:
        return 0
    return sum(len(seg) for seg in iter_prime_segments(2, x))
