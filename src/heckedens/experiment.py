"""Empirical Chebotarev verification: evaluate lift eigenvalues mod ell^m
over real eigenform coefficients, count congruence classes of primes, and
compare against the exact generic densities with binomial error envelopes.

Each scan reads a(0..x) from the eigenform cache as stored (uint8 or uint16
residues, never widened as a whole) and the primes p <= x from the cache's
prime table (uint32; sieved on a miss, or where the table holds more primes
than x), and walks the primes p != ell in blocks of at most _BLOCK_PRIMES.
A block widens its primes to int64 and forms the flat cell index
u * q + a(p), u = p mod q: `scan_pi_f` adds its cells into the (u, v)
table, and `scan_pi_F` counts the cells in the root-set mask of g_u.  The
stored arrays are read whole: 1 or 2 bytes per residue a(0..X) and 4 bytes
per prime <= X', for the stored X, X' >= x.  Every int64 temporary is
block-sized, and a table scan's q x q tables are held to DENSE_MAX_BYTES."""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .density import DensityReport, LiftParams, delta_F_from_roots, root_cells
from .errors import CapacityError
from .matcount import pow_mod_array, trace_det_counts_for_det
from .modring import PrimePower
from . import series
# perfbench/selftest.py patches experiment.eigenform_coeffs; the scans
# themselves read series._cached_residues
from .series import eigenform_coeffs  # noqa: F401
from .tower import generic_L_degree

TABLE_MAX_Q = 10 ** 4
SIGMA_PASS = 4.0
SIGMA_EXCEPTIONAL = 10.0
# primes per block of a scan's passes, as density._BLOCK_CELLS bounds the
# root candidates: every per-prime temporary is at most this long
_BLOCK_PRIMES = 1 << 13
# bytes per cell of the q x q tables a table scan holds at its peak: five of
# int64 or float64 (counts, expected numerators, densities, sigmas and their
# denominators) and two bool masks; measured, scan_pi_f added 5.0-5.2 times
# 8 q^2 bytes to peak RSS at q = 1009 and 2003
_TABLE_CELL_BYTES = 5 * 8 + 2


@dataclass(frozen=True)
class ScanResult:
    """Outcome of one scan; counts is a (q x q) table over (u, v) for
    pi_f scans and a bare count for pi_F scans."""

    mode: str  # "pi_f_table" | "pi_F"
    modulus: PrimePower
    x: int
    pi_x: int
    counts: np.ndarray | int
    expected_num: np.ndarray | int
    expected_den: int
    sigmas: np.ndarray | float
    deviation_sigmas: float
    exceptional: bool
    expected_report: DensityReport | None = None

    @property
    def empirical(self) -> Fraction:
        c = int(self.counts) if self.mode == "pi_F" else int(np.sum(self.counts))
        return Fraction(c, self.pi_x)

    @property
    def rootset_count(self) -> int | None:
        """counts for a pi_F scan, None for a table scan.  A scan counts
        once; this name stays only because the benchmark's scan check
        (perfbench/workloads.py) reads it, and that file changes only with
        a repair of the benchmark."""
        return self.counts if self.mode == "pi_F" else None


def _prime_cells(weight: int, pp: PrimePower, x: int, cache_dir: str | None) -> tuple[Iterator[np.ndarray], int]:
    """The flat cell index u * q + a(p), u = p mod q, as int64 for the primes
    p <= x other than ell, in blocks of at most _BLOCK_PRIMES, and their
    number, after the argument checks.  a(0..x) is read as the cache stores
    it and the primes from the cache's prime table; a uint32 table is
    widened a block at a time, an int64 one sliced, and ell is dropped from
    the block holding it."""
    if x < 100:
        raise ValueError("x must be >= 100")
    cache_dir = series.cache_dir_from_env(cache_dir)
    residues = series._cached_residues(cache_dir, weight, x, pp)
    table = series._cached_primes(cache_dir, x)
    q = pp.q

    def blocks():
        for i in range(0, len(table), _BLOCK_PRIMES):
            p = table[i : i + _BLOCK_PRIMES].astype(np.int64, copy=False)
            if p[0] <= pp.ell <= p[-1]:
                p = p[p != pp.ell]
            # floor division by a scalar is about twice as fast as %
            cell = p - p // q * q
            cell *= q
            cell += residues[p]
            yield cell

    # the table holds every prime <= x, so ell among them iff ell <= x
    return blocks(), len(table) - (pp.ell <= x)


def _expected_table(weight: int, pp: PrimePower) -> tuple[np.ndarray, int]:
    """Numerators of the generic (u, v) density table over the shared
    denominator [L : Q]; non-unit rows are zero."""
    q = pp.q
    units = np.flatnonzero(np.arange(q) % pp.ell)
    num = np.zeros((q, q), dtype=np.int64)
    num[units] = trace_det_counts_for_det(pp, pow_mod_array(units, weight - 1, q))
    return num, generic_L_degree(weight, pp.ell, pp.m)


def _deviation_table(counts: np.ndarray, delta: np.ndarray, pi_x: int) -> tuple[np.ndarray, float]:
    """(counts - delta pi_x) / sqrt(delta (1 - delta) pi_x) per cell, 0 where
    that sigma is 0, and the largest magnitude in the table."""
    sig = 1.0 - delta
    sig *= delta
    sig *= pi_x
    np.sqrt(sig, out=sig)
    live = sig > 0
    sigmas = delta * pi_x
    np.subtract(counts, sigmas, out=sigmas)
    np.divide(sigmas, sig, out=sigmas, where=live)
    sigmas[~live] = 0.0
    return sigmas, float(max(sigmas.max(), -sigmas.min()))


def scan_pi_f(
    weight: int,
    pp: PrimePower,
    x: int,
    cache_dir: str | None = None,
) -> ScanResult:
    """Full (u, v) table of #{p <= x, p != ell : p = u, a_f(p) = v mod q}."""
    q = pp.q
    if q > TABLE_MAX_Q:
        raise CapacityError(f"table scan needs ell^m <= {TABLE_MAX_Q}, got {q}")
    nbytes = _TABLE_CELL_BYTES * q * q
    if nbytes > series.DENSE_MAX_BYTES:
        raise CapacityError(
            f"table scan mod {q} needs {nbytes / 2 ** 30:.1f} GiB of q x q tables; "
            f"the limit is {series.DENSE_MAX_BYTES / 2 ** 30:.1f} GiB"
        )
    cells, pi_x = _prime_cells(weight, pp, x, cache_dir)
    counts = np.zeros(q * q, dtype=np.int64)
    for cell in cells:
        np.add.at(counts, cell, 1)
    counts = counts.reshape(q, q)
    exp_num, exp_den = _expected_table(weight, pp)
    sigmas, dev = _deviation_table(counts, exp_num / exp_den, pi_x)
    return ScanResult(
        mode="pi_f_table",
        modulus=pp,
        x=x,
        pi_x=pi_x,
        counts=counts,
        expected_num=exp_num,
        expected_den=exp_den,
        sigmas=sigmas,
        deviation_sigmas=dev,
        exceptional=dev >= SIGMA_EXCEPTIONAL,
    )


def scan_pi_F(
    params: LiftParams,
    pp: PrimePower,
    x: int,
    cache_dir: str | None = None,
) -> ScanResult:
    """#{p <= x, p != ell : lambda_F(p) = 0 mod q}.  Mod q the product
    formula lambda_F(p) = prod_i (a(p) + p^(k-i) + p^(k-n-1+i)) is
    g_u(a(p)) for u = p mod q, so a prime counts iff (u, a(p) mod q) is a
    root cell of g_u; the same root cells give the exact density."""
    q = pp.q
    if q > TABLE_MAX_Q:
        raise CapacityError(f"scan needs ell^m <= {TABLE_MAX_Q}, got {q}")
    root_u, root_w = root_cells(params, pp)
    root_mask = np.zeros(q * q, dtype=bool)
    root_mask[root_u * q + root_w] = True
    cells, pi_x = _prime_cells(params.source_weight, pp, x, cache_dir)
    count = sum(int(np.count_nonzero(root_mask[cell])) for cell in cells)
    report = delta_F_from_roots(params, pp, root_u, root_w)
    delta = float(report.delta_exact)
    sig = math.sqrt(delta * (1.0 - delta) * pi_x) if 0 < delta < 1 else 0.0
    dev = abs(count - delta * pi_x) / sig if sig > 0 else 0.0
    return ScanResult(
        mode="pi_F",
        modulus=pp,
        x=x,
        pi_x=pi_x,
        counts=count,
        expected_num=report.delta_exact.numerator,
        expected_den=report.delta_exact.denominator,
        sigmas=dev,
        deviation_sigmas=dev,
        exceptional=dev >= SIGMA_EXCEPTIONAL,
        expected_report=report,
    )
