"""Empirical Chebotarev verification: evaluate lift eigenvalues mod ell^m
over real eigenform coefficients, count congruence classes of primes, and
compare against the exact generic densities with binomial error envelopes.

Each scan sieves its primes, reads a(p) from the eigenform cache and works
on the flat cell index u * q + a(p), u = p mod q: `scan_pi_f` bincounts it
into the (u, v) table, `scan_pi_F` reads the root-set mask of g_u there and
also multiplies the factors a - gamma_i(u) of lambda_F, each brought into
[0, q) by one conditional + q, since a and gamma_i(u) are residues."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .density import DensityReport, LiftParams, delta_F_generic, gamma_table, root_cells
from .errors import CapacityError
from .matcount import pow_mod_array, trace_det_counts_for_det
from .modring import PrimePower
from .primes import primes_in
from .series import eigenform_coeffs
from .tower import generic_L_degree

TABLE_MAX_Q = 10 ** 4
SIGMA_PASS = 4.0
SIGMA_EXCEPTIONAL = 10.0


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


def _scan_primes(pp: PrimePower, x: int) -> np.ndarray:
    if x < 100:
        raise ValueError("x must be >= 100")
    ps = primes_in(2, x)
    return ps[ps != pp.ell]


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
    sig = np.sqrt(delta * (1.0 - delta) * pi_x)
    sigmas = np.divide(counts - delta * pi_x, sig, out=np.zeros_like(sig), where=sig > 0)
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
    primes = _scan_primes(pp, x)
    series = eigenform_coeffs(weight, x, pp, cache_dir)
    u = primes % q
    v = series.coeffs[primes]
    counts = np.bincount(u * q + v, minlength=q * q).reshape(q, q)
    exp_num, exp_den = _expected_table(weight, pp)
    pi_x = len(primes)
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
    primes = _scan_primes(pp, x)
    series = eigenform_coeffs(params.source_weight, x, pp, cache_dir)
    u = primes % q
    a = series.coeffs[primes]
    # direct: product over i of (a + p^(k-i) + p^(k-n-1+i)) = (a - gamma_i(u));
    # a and gamma_i(u) are residues in [0, q), so one conditional + q reduces
    # each difference
    lam = None
    for gamma in gamma_table(params, q, np.arange(q, dtype=np.int64)).T:
        f = a - gamma[u]
        f += q * (f < 0)
        lam = f if lam is None else lam * f % q
    direct = int(np.count_nonzero(lam == 0))
    # root-set reduction: lambda vanishes iff a_f(p) hits a root of g_(p mod q)
    root_u, root_w = root_cells(params, pp)
    root_mask = np.zeros(q * q, dtype=bool)
    root_mask[root_u * q + root_w] = True
    rootset = int(np.count_nonzero(root_mask[u * q + a]))
    report = delta_F_generic(params, pp)
    pi_x = len(primes)
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
