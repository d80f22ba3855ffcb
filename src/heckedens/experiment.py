"""Empirical Chebotarev verification: evaluate lift eigenvalues mod ell^m
over real eigenform coefficients, count congruence classes of primes, and
compare against the exact generic densities with binomial error envelopes.

Each scan reads a(0..x) from the eigenform cache as stored (uint8 or uint16
residues, never widened as a whole) and the primes p <= x from the cache's
prime table (uint32; sieved on a miss, or where the table holds more primes
than x), and walks the primes p != ell in blocks of at most _BLOCK_PRIMES.
A block widens its primes to int64, forms u = p mod q, gathers a(p) and
the flat cell index u * q + a(p): `scan_pi_f` adds its cells into the
(u, v) table, `scan_pi_F` reads the root-set mask of g_u there and also
multiplies the factors a - gamma_i(u) of lambda_F, each brought into
[0, q) by one conditional + q, since a and gamma_i(u) are residues.  The
stored arrays are read whole: 1 or 2 bytes per residue a(0..X) and 4 bytes
per prime <= X', for the stored X, X' >= x.  Every int64 temporary is
block-sized, and a table scan's q x q tables are held to DENSE_MAX_BYTES."""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .density import DensityReport, LiftParams, delta_F_from_roots, gamma_table, root_cells
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
    grh_scale: float
    rootset_count: int | None = None
    expected_report: DensityReport | None = None

    @property
    def empirical(self) -> Fraction:
        c = int(self.counts) if self.mode == "pi_F" else int(np.sum(self.counts))
        return Fraction(c, self.pi_x)


def grh_error_scale(pp: PrimePower, x: int) -> float:
    """Reference envelope ell^(4m) sqrt(x) log(ell^m x); reported for context,
    never a pass/fail criterion."""
    if x < 2:
        raise ValueError("x must be >= 2")
    q = pp.q
    return float(q) ** 4 * math.sqrt(x) * math.log(q * x)


def lambda_F_exact(a_p: int, p: int, params: LiftParams) -> int:
    """Exact lift eigenvalue at p from the product formula."""
    k, n = params.k, params.n
    out = 1
    for i in range(1, n // 2 + 1):
        out *= a_p + p ** (k - i) + p ** (k - n - 1 + i)
    return out


def lambda_F_mod(a_p: int, p: int, params: LiftParams, pp: PrimePower) -> int:
    """The product formula reduced mod q; factors through (p mod q, a_p mod q)."""
    q = pp.q
    k, n = params.k, params.n
    out = 1
    for i in range(1, n // 2 + 1):
        out = out * (a_p + pow(p, k - i, q) + pow(p, k - n - 1 + i, q)) % q
    return out


def _prime_blocks(pp: PrimePower, table: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(p, p mod q) as int64 for the primes of table other than ell, in
    blocks of at most _BLOCK_PRIMES; ell is dropped from the block holding
    it.  A uint32 table is widened a block at a time, an int64 one sliced."""
    q = pp.q
    for i in range(0, len(table), _BLOCK_PRIMES):
        p = table[i : i + _BLOCK_PRIMES].astype(np.int64, copy=False)
        if p[0] <= pp.ell <= p[-1]:
            p = p[p != pp.ell]
        # floor division by a scalar is about twice as fast as %
        yield p, p - p // q * q


def _scan_inputs(weight: int, pp: PrimePower, x: int, cache_dir: str | None) -> tuple[np.ndarray, np.ndarray]:
    """a(0..x) as the cache stores them and the primes <= x from the cache's
    prime table, after the argument checks."""
    if x < 100:
        raise ValueError("x must be >= 100")
    cache_dir = series.cache_dir_from_env(cache_dir)
    return series._cached_residues(cache_dir, weight, x, pp), series._cached_primes(cache_dir, x)


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
    residues, table = _scan_inputs(weight, pp, x, cache_dir)
    counts = np.zeros(q * q, dtype=np.int64)
    pi_x = 0
    for p, u in _prime_blocks(pp, table):
        np.add.at(counts, u * q + residues[p], 1)
        pi_x += len(p)
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
        grh_scale=grh_error_scale(pp, x),
    )


def scan_pi_F(
    params: LiftParams,
    pp: PrimePower,
    x: int,
    cache_dir: str | None = None,
) -> ScanResult:
    """#{p <= x, p != ell : lambda_F(p) = 0 mod q}, counted directly from the
    product formula and cross-counted through the root set of g_u."""
    q = pp.q
    if q > TABLE_MAX_Q:
        raise CapacityError(f"scan needs ell^m <= {TABLE_MAX_Q}, got {q}")
    # root-set reduction: lambda vanishes iff a_f(p) hits a root of g_(p mod q)
    root_u, root_w = root_cells(params, pp)
    root_mask = np.zeros(q * q, dtype=bool)
    root_mask[root_u * q + root_w] = True
    gammas = gamma_table(params, q, np.arange(q, dtype=np.int64)).T
    residues, table = _scan_inputs(params.source_weight, pp, x, cache_dir)
    direct = rootset = pi_x = 0
    for p, u in _prime_blocks(pp, table):
        a = residues[p].astype(np.int64)
        # direct: product over i of (a + p^(k-i) + p^(k-n-1+i)) = (a - gamma_i(u));
        # a and gamma_i(u) are residues in [0, q), so one conditional + q
        # reduces each difference
        lam = None
        for gamma in gammas:
            f = a - gamma[u]
            f += q * (f < 0)
            lam = f if lam is None else lam * f % q
        direct += int(np.count_nonzero(lam == 0))
        rootset += int(np.count_nonzero(root_mask[u * q + a]))
        pi_x += len(p)
    report = delta_F_from_roots(params, pp, root_u, root_w)
    delta = float(report.delta_exact)
    sig = math.sqrt(delta * (1.0 - delta) * pi_x) if 0 < delta < 1 else 0.0
    dev = abs(direct - delta * pi_x) / sig if sig > 0 else 0.0
    return ScanResult(
        mode="pi_F",
        modulus=pp,
        x=x,
        pi_x=pi_x,
        counts=direct,
        expected_num=report.delta_exact.numerator,
        expected_den=report.delta_exact.denominator,
        sigmas=dev,
        deviation_sigmas=dev,
        exceptional=dev >= SIGMA_EXCEPTIONAL,
        grh_scale=grh_error_scale(pp, x),
        rootset_count=rootset,
        expected_report=report,
    )
