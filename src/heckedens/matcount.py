"""Exact counting of 2x2 invertible matrices with fixed trace and determinant
mod ell^m, via the valuation histogram of a^2 - a t + d, plus an exhaustive
enumeration oracle."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError
from .kernels import pow_mod_array  # noqa: F401  (re-exported to density and experiment)
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


def _require_unit(pp: PrimePower, d: int | np.ndarray):
    """d mod q, an int or an array; raises unless every entry is a unit."""
    d = d % pp.q
    if np.any(d % pp.ell == 0):
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
    total = sum(w * z for w, z in zip(_count_weights(pp), prof.counts))
    return TraceDetCount(pp, t % pp.q, d % pp.q, total, "formula")


def _count_weights(pp: PrimePower) -> list[int]:
    """Matrices per a of valuation j: (j+1) phi for j < m, m phi + q at m."""
    return [(j + 1) * pp.phi for j in range(pp.m)] + [pp.m * pp.phi + pp.q]


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
# all-trace counts, for every ell, as gathers from one table of classes of
# D = t^2 - 4d.  Where 2s = t has a solution (always for odd ell, for even t
# when ell = 2), a^2 - a t + d = (a - s)^2 - E with E = s^2 - d = D/4.  The
# z-profile of x^2 - E is unchanged by E -> c^2 E for a unit c, and a unit
# is a square mod ell^j iff it is one mod ell (odd ell) or mod 8 (ell = 2).
# For ell = 2 and odd t, a^2 - a t + d is odd for every a.


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
def discriminant_classes(ell: int, m: int) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
    """(cls, counts, profiles): for a unit d and D = t^2 - 4d mod len(cls),
    c = cls[D] gives count_trace_det(t, d) = counts[c] and
    z_profile(t, d).counts = profiles[c].

    With 4 = ell^e times a unit (e = 2 for ell = 2, else 0), D is read mod
    ell^M, M = m + e, so that E = D/4 is known mod q.  The class of D is
    v = min(nu(D), M) and, for v < M, the square class of D's unit part mod
    ell^min(1 + e, M - v): a square or not mod ell for odd ell (2m+1
    classes), the unit part itself mod 8, 4 or 2 for ell = 2.  For ell = 2,
    odd t gives D = 5 mod 8; D = 1, 3, 7 mod 8 and nu(D) = 1 come from no
    (t, unit d) and keep a zero profile, leaving 4m - 3 classes in use for
    m >= 2.  Each profile is z_profile at one (t, d) of the class, t <= 2.
    """
    e = 2 if ell == 2 else 0
    M, N = m + e, ell ** (m + e)
    pp = PrimePower(ell, m)
    v = capped_valuations(ell, M).astype(np.int64)
    unit = np.arange(N, dtype=np.int64) // ell ** v % ell ** np.minimum(1 + e, M - v)
    if ell == 2:
        L, label, reps = 4, unit // 2, (1, 3, 5, 7)
    else:
        square = np.zeros(ell, dtype=bool)
        square[np.arange(ell) ** 2 % ell] = True
        L, label, reps = 2, ~square[unit], (1, int(np.argmin(square[1:])) + 1)
    cls = (L * v + label).astype(np.int8)
    cls.flags.writeable = False
    inv = pow(4 // ell ** e, -1, pp.q)
    profiles = np.zeros((L * M + 1, m + 1), dtype=np.int64)
    for c in range(len(profiles)):
        D = ell ** (c // L) * reps[c % L] % N
        if cls[D] != c:
            continue  # a label that does not occur at this valuation
        for t in (0, 1, 2):
            x, r = divmod(t * t - D, ell ** e)
            if r == 0 and x % ell:
                profiles[c] = z_profile(pp, t, x * inv).counts
                break
    profiles.flags.writeable = False
    weights = _count_weights(pp)
    counts = tuple(sum(w * int(z) for w, z in zip(weights, row)) for row in profiles)
    return cls, counts, profiles


def trace_class_gather(pp: PrimePower, *values: np.ndarray):
    """gather(d, *outs): for per-class vectors values (indexed as the counts
    of discriminant_classes), values[i][c] at the class c of (t, d) for
    every trace t, along a last axis over t, into outs[i] where given.  d is
    an int64 residue or array of them and is not checked: the classes of a
    non-unit d mean nothing.  What does not depend on d is done here, once."""
    cls = discriminant_classes(pp.ell, pp.m)[0]
    N = len(cls)
    t = np.arange(pp.q, dtype=np.int64)
    squares = t * t % N
    # each table twice over, so that N + t^2 - 4d with both terms reduced,
    # in [1, 2N), reads it mod N: no sign test or reduction per cell
    cls = np.concatenate((cls, cls))
    tables = [v[cls] for v in values]

    def gather(d, *outs):
        disc = squares + (N - 4 * d % N)[..., None]
        outs = outs or [None] * len(tables)
        return [np.take(table, disc, mode="clip", out=out) for table, out in zip(tables, outs, strict=True)]

    return gather


def z_profiles_for_det(pp: PrimePower, d: int) -> np.ndarray:
    """(m+1) x q matrix: row j holds z_j(t) for every trace t at fixed d."""
    profiles = discriminant_classes(pp.ell, pp.m)[2]
    [cls] = trace_class_gather(pp, np.arange(len(profiles)))(_require_unit(pp, np.asarray(d, dtype=np.int64)))
    return profiles[cls].T


def trace_det_counts_for_det(pp: PrimePower, d: int | np.ndarray) -> np.ndarray:
    """count_trace_det(pp, t, d) over all traces t, gathered from the class
    counts: a length-q vector for one unit d, a (len(d), q) table for an
    array of them."""
    counts = np.array(discriminant_classes(pp.ell, pp.m)[1], dtype=np.int64)
    return trace_class_gather(pp, counts)(_require_unit(pp, np.asarray(d, dtype=np.int64)))[0]
