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
block-sized.

A table cell's expected count and sigma depend only on the discriminant
class of t^2 - 4u^(w-1) (2m + 1 classes for odd ell): `scan_pi_f` computes
them once per class and gathers them into its tables whole rows u, about
_BLOCK_PRIMES cells, at a time.  Its only q x q arrays are the counts,
expected numerators and sigmas it returns, held to DENSE_MAX_BYTES."""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .density import DensityReport, LiftParams, delta_F_from_roots, root_cells
from .errors import CapacityError
from .matcount import discriminant_classes, pow_mod_array, trace_class_gather
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
# bytes per cell of the q x q tables a table scan holds: the counts, expected
# numerators and sigmas it returns, 8 bytes each; its other temporaries are
# block-sized
_TABLE_CELL_BYTES = 3 * 8


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
    # per class: delta = num / den, the mean delta pi_x and the sigma
    # sqrt((1 - delta) delta pi_x), in a per-cell formula's float order; a
    # class of sigma 0 divides a count by inf, which gives the cell sigma 0
    exp_den = generic_L_degree(weight, pp.ell, pp.m)
    class_num = np.array(discriminant_classes(pp.ell, pp.m)[1], dtype=np.int64)
    delta = class_num / exp_den
    class_sig = np.sqrt((1.0 - delta) * delta * pi_x)
    class_mean = np.where(class_sig > 0, delta * pi_x, 0.0)
    class_sig[class_sig == 0] = np.inf
    gather = trace_class_gather(pp, class_num, class_mean, class_sig)
    dets = pow_mod_array(np.arange(q, dtype=np.int64), weight - 1, q)
    # each block of rows u gathers its cells straight into the outputs
    exp_num = np.empty((q, q), dtype=np.int64)
    sigmas = np.empty((q, q))
    rows = max(1, _BLOCK_PRIMES // q)
    mean_buf, sig_buf = np.empty((rows, q)), np.empty((rows, q))
    dev = 0.0
    for lo in range(0, q, rows):
        hi = min(q, lo + rows)
        num, sig = exp_num[lo:hi], sigmas[lo:hi]
        _, mean, div = gather(dets[lo:hi], num, mean_buf[: hi - lo], sig_buf[: hi - lo])
        np.subtract(counts[lo:hi], mean, out=sig)
        np.divide(sig, div, out=sig)
        # rows u = 0 mod ell hold no prime and expect none
        num[-lo % pp.ell :: pp.ell] = 0
        sig[-lo % pp.ell :: pp.ell] = 0.0
        dev = max(dev, float(sig.max()), float(-sig.min()))
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
