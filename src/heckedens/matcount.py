"""Exact counting of 2x2 invertible matrices with fixed trace and determinant
mod ell^m, via the valuation histogram of a^2 - a t + d, plus an exhaustive
enumeration oracle."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError
from .modring import PrimePower

BRUTE_MAX = 10 ** 8


@dataclass(frozen=True)
class ZProfile:
    """counts[j] = #{a mod q : nu_ell(a^2 - a t + d) = j} for j < m,
    counts[m] = #{a : ell^m | a^2 - a t + d}."""

    modulus: PrimePower
    t: int
    d: int
    counts: tuple[int, ...]


@dataclass(frozen=True)
class TraceDetCount:
    modulus: PrimePower
    t: int
    d: int
    count: int
    method: str  # "formula" | "brute"


def _require_unit(pp: PrimePower, d: int) -> int:
    d %= pp.q
    if d % pp.ell == 0:
        raise ValueError(f"d = {d} is not a unit mod {pp}")
    return d


def z_profile(pp: PrimePower, t: int, d: int) -> ZProfile:
    """Valuation histogram by direct evaluation over all residues a."""
    d = _require_unit(pp, d)
    t %= pp.q
    q, ell, m = pp.q, pp.ell, pp.m
    a = np.arange(q, dtype=np.int64)
    vals = (a * a - a * t + d) % q
    counts = [0] * (m + 1)
    remaining = vals
    for j in range(m):
        div = remaining % ell == 0
        counts[j] = int(len(remaining) - div.sum())
        remaining = remaining[div] // ell
    counts[m] = int(len(remaining))
    return ZProfile(pp, t, d, tuple(counts))


def count_trace_det(pp: PrimePower, t: int, d: int) -> TraceDetCount:
    """Exact |{A in GL2(Z/q) : tr A = t, det A = d}| from the z-profile:
    sum_{j<m} (j+1) z_j phi + z_m (m phi + q)."""
    prof = z_profile(pp, t, d)
    phi, q, m = pp.phi, pp.q, pp.m
    z = prof.counts
    total = sum((j + 1) * z[j] * phi for j in range(m)) + z[m] * (m * phi + q)
    return TraceDetCount(pp, t % q, d % q, total, "formula")


@lru_cache(maxsize=16)
def _brute_table(ell: int, m: int) -> np.ndarray:
    """(q x q) table over (t, d) of invertible-matrix counts, by enumerating
    all q^4 matrices in x-chunks."""
    q = ell ** m
    if q ** 4 > BRUTE_MAX:
        raise CapacityError(f"brute enumeration needs q^4 <= {BRUTE_MAX}, got q={q}")
    y, z, w = np.meshgrid(
        np.arange(q, dtype=np.int64),
        np.arange(q, dtype=np.int64),
        np.arange(q, dtype=np.int64),
        indexing="ij",
    )
    yz = (y * z).ravel()
    w = w.ravel()
    table = np.zeros(q * q, dtype=np.int64)
    for x in range(q):
        tr = (x + w) % q
        det = (x * w - yz) % q
        unit = det % ell != 0
        table += np.bincount(tr[unit] * q + det[unit], minlength=q * q)
    return table.reshape(q, q)


def count_trace_det_brute(pp: PrimePower, t: int, d: int) -> TraceDetCount:
    """Exhaustive oracle over all 2x2 matrices mod q."""
    d = _require_unit(pp, d)
    t %= pp.q
    table = _brute_table(pp.ell, pp.m)
    return TraceDetCount(pp, t, d, int(table[t, d]), "brute")


def z_bound_check(pp: PrimePower, t: int, d: int) -> bool:
    """z_j <= 16 ell^(m - j/2) for all j, compared as z_j^2 ell^j <= 256 ell^2m."""
    prof = z_profile(pp, t, d)
    ell, m = pp.ell, pp.m
    rhs = 256 * ell ** (2 * m)
    return all(z * z * ell ** j <= rhs for j, z in enumerate(prof.counts))


# ---------------------------------------------------------------------------
# vectorized all-trace counts.  For odd ell they are gathers from a table
# over discriminants; ell = 2 keeps the sweep over a, where for a unit a the
# valuation of a^2 - a t + d equals the valuation of (a + d/a) - t, and for
# a non-unit a it is zero


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


@lru_cache(maxsize=16)
def capped_valuations(ell: int, m: int) -> np.ndarray:
    """Read-only int8 vector over x in [0, ell^m) of min(nu_ell(x), m)."""
    q = ell ** m
    v = np.zeros(q, dtype=np.int8)
    for j in range(1, m + 1):
        v[:: ell ** j] += 1
    v.flags.writeable = False
    return v


@lru_cache(maxsize=16)
def discriminant_classes(ell: int, m: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """For odd ell: (cls, values) with count_trace_det(t, d) = values[cls[D]]
    for D = t^2 - 4d mod q.

    4(a^2 - a t + d) = (2a - t)^2 - D and s -> c s (c a unit) turn the
    z-profile into that of s^2 - D, invariant under D -> c^2 D.  So the count
    depends only on v = min(nu(D), m) and, for v < m, on the square class of
    D / ell^v mod ell: class 2v for a square, 2v + 1 otherwise, 2m for D = 0.
    Each class value is count_trace_det at one representative: t = 0,
    d = -D/4 for v = 0 and t = 2, d = 1 - D/4 for v >= 1.
    """
    if ell == 2:
        raise ValueError("discriminant classes need odd ell")
    q = ell ** m
    pp = PrimePower(ell, m)
    v = capped_valuations(ell, m).astype(np.int64)
    unit_part = np.arange(q, dtype=np.int64) // ell ** np.minimum(v, m - 1) % ell
    square = np.zeros(ell, dtype=bool)
    square[np.arange(1, ell) ** 2 % ell] = True
    cls = np.where(v == m, 2 * m, 2 * v + ~square[unit_part]).astype(np.int8)
    cls.flags.writeable = False
    nonsquare = int(np.flatnonzero(~square[1:])[0]) + 1
    inv4 = pow(4, -1, q)
    values = []
    for j in range(2 * m + 1):
        D = 0 if j == 2 * m else ell ** (j // 2) * (nonsquare if j % 2 else 1)
        t, d = (0, -D * inv4) if j < 2 else (2, 1 - D * inv4)
        values.append(count_trace_det(pp, t, d).count)
    return cls, tuple(values)


def _units_and_inverses(pp: PrimePower) -> tuple[np.ndarray, np.ndarray]:
    a = np.arange(pp.q, dtype=np.int64)
    units = a[a % pp.ell != 0]
    return units, pow_mod_array(units, pp.phi - 1, pp.q)


def z_profiles_for_det(pp: PrimePower, d: int) -> np.ndarray:
    """(m+1) x q matrix: row j holds z_j(t) for every trace t at fixed d."""
    d = _require_unit(pp, d)
    q, ell, m = pp.q, pp.ell, pp.m
    units, inv = _units_and_inverses(pp)
    ahat = (units + d * inv) % q
    t = np.arange(q, dtype=np.int64)
    out = np.zeros((m + 1, q), dtype=np.int64)
    nj_prev = None
    for j in range(m, 0, -1):
        lj = ell ** j
        nj = np.bincount(ahat % lj, minlength=lj)[t % lj]
        if nj_prev is None:
            out[m] = nj
        else:
            out[j] = nj - nj_prev
        nj_prev = nj
    out[0] = q - nj_prev
    return out


def trace_det_counts_for_det(pp: PrimePower, d: int) -> np.ndarray:
    """Length-q vector of count_trace_det(pp, t, d) over all traces t: a
    gather from the discriminant classes for odd ell, a sweep for ell = 2."""
    if pp.ell != 2:
        d = _require_unit(pp, d)
        cls, values = discriminant_classes(pp.ell, pp.m)
        t = np.arange(pp.q, dtype=np.int64)
        return np.array(values, dtype=np.int64)[cls[(t * t - 4 * d) % pp.q]]
    z = z_profiles_for_det(pp, d)
    phi, q, m = pp.phi, pp.q, pp.m
    weights = np.array([(j + 1) * phi for j in range(m)] + [m * phi + q], dtype=np.int64)
    return weights @ z
