"""Reference implementations the tests check the package against: the lift
eigenvalue from its product formula, per-unit root counts of g_u, the
small-order accounting of the root sum, pi(x), multiplicative orders and a
table scan's expected and deviation tables as whole-table passes."""

import numpy as np

from heckedens.density import LiftParams, gamma_roots, root_cells
from heckedens.matcount import pow_mod_array, trace_det_counts_for_det
from heckedens.modring import PrimePower
from heckedens.primes import primes_in
from heckedens.tower import generic_L_degree


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


def g_u_root_count(u: int, params: LiftParams, pp: PrimePower) -> tuple[np.ndarray, int]:
    """All w mod q with g_u(w) = 0, sorted, and their number."""
    u = gamma_roots(u, params, pp).u
    roots = np.sort(root_cells(params, pp, np.array([u], dtype=np.int64))[1])
    return roots, int(len(roots))


def mult_order(u: int, pp: PrimePower) -> int:
    """Smallest r >= 1 with u^r = 1 mod q, by repeated multiplication."""
    u %= pp.q
    if u % pp.ell == 0:
        raise ValueError(f"{u} is not a unit mod {pp}")
    r, v = 1, u
    while v != 1:
        v = v * u % pp.q
        r += 1
    return r


def sum_Ngu(params: LiftParams, ell: int) -> dict:
    """Sum over units u of the number of roots of g_u mod ell (m = 1), with
    the small-order accounting that controls the deficit from n/2 per u."""
    pp = PrimePower(ell, 1)
    n = params.n
    total = len(root_cells(params, pp)[1])
    small_order = sum(mult_order(u, pp) <= n for u in range(1, ell))
    if small_order > n * n:
        raise AssertionError(f"small-order unit count {small_order} exceeds n^2 = {n*n}")
    return {
        "sum": total,
        "main_term": (n // 2) * ell,
        "small_order_units": small_order,
        "small_order_bound": n * n,
    }


def prime_count(x: int) -> int:
    """pi(x), the number of primes <= x."""
    return len(primes_in(2, x)) if x >= 2 else 0


def expected_table(weight: int, pp: PrimePower) -> tuple[np.ndarray, int]:
    """Numerators of the generic (u, v) density table over the shared
    denominator [L : Q]; non-unit rows are zero."""
    q = pp.q
    units = np.flatnonzero(np.arange(q) % pp.ell)
    num = np.zeros((q, q), dtype=np.int64)
    num[units] = trace_det_counts_for_det(pp, pow_mod_array(units, weight - 1, q))
    return num, generic_L_degree(weight, pp.ell, pp.m)


def deviation_table(counts: np.ndarray, delta: np.ndarray, pi_x: int) -> tuple[np.ndarray, float]:
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
