"""Cross-module invariant suites behind the CLI `verify` subcommand.

Each check returns (ok, detail).  The quick level runs in seconds on small
moduli; full pushes the same invariants to the desk-scale grid and adds one
statistical scan, the weight-12 congruence regression at ell = 691 and a
check of the prime table those scans leave in the cache directory.
"""

from __future__ import annotations

import math
import os
import time
from fractions import Fraction

import numpy as np

from . import matcount, series, tower
from .density import LiftParams, delta_F_generic, delta_uv_generic, gamma_roots, partitions_stat, root_cells
from .experiment import SIGMA_PASS, scan_pi_F, scan_pi_f
from .modring import PrimePower, is_prime
from .primes import primes_in

QUICK_MODULI = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (5, 2))
FULL_MODULI = QUICK_MODULI + ((2, 4), (3, 3), (7, 2))


def _prime_powers_up_to(limit: int):
    out = []
    for ell in range(2, limit + 1):
        if not is_prime(ell):
            continue
        m = 1
        while ell ** m <= limit:
            out.append((ell, m))
            m += 1
    return out


def check_matcount_oracle(moduli) -> tuple[bool, str]:
    cases = 0
    for ell, m in moduli:
        pp = PrimePower(ell, m)
        q = pp.q
        for d in range(1, q):
            if d % ell == 0:
                continue
            for t in range(q):
                a = matcount.count_trace_det(pp, t, d).count
                b = matcount.count_trace_det_brute(pp, t, d).count
                if a != b:
                    return False, f"mismatch at q={q}, t={t}, d={d}: {a} != {b}"
                cases += 1
    return True, f"{cases} (t,d) cases equal"


def check_row_sums(moduli) -> tuple[bool, str]:
    for ell, m in moduli:
        pp = PrimePower(ell, m)
        expect = tower.sl2_order(ell, m)
        for d in (1, pp.q - 1):
            if d % ell == 0:
                continue
            got = int(matcount.trace_det_counts_for_det(pp, d).sum())
            if got != expect:
                return False, f"sum_t at q={pp.q}, d={d}: {got} != |SL2| = {expect}"
    return True, "fixed-determinant slices sum to |SL2|"


def check_z_bound(limit: int) -> tuple[bool, str]:
    checked = 0
    for ell, m in _prime_powers_up_to(limit):
        pp = PrimePower(ell, m)
        q = pp.q
        rhs = 256 * ell ** (2 * m)
        for d in range(1, q):
            if d % ell == 0:
                continue
            z = matcount.z_profiles_for_det(pp, d)
            for j in range(m + 1):
                # z^2 ell^j <= q^2 ell^m < 2^63 at desk scale, so int64 is exact
                bad = np.flatnonzero(z[j] * z[j] * ell ** j > rhs)
                if len(bad):
                    t = int(bad[0])
                    return False, f"z bound fails at q={q}, t={t}, d={d}, j={j}"
            checked += q
    return True, f"|Z| <= 16 ell^(m-j/2) on {checked} (t,d) pairs"


def check_tower(limit_ell: int, max_m: int) -> tuple[bool, str]:
    for k in (10, 12, 14, 16):
        for ell, m in _prime_powers_up_to(limit_ell):
            if m > 1:
                continue
            rep = tower.tower_report(k, ell, max_m)
            for lv in rep.levels:
                want = 1 if lv.m <= tower.nu(ell, k - 1) else ell
                if lv.index != want:
                    return False, f"index at k={k}, ell={ell}, m={lv.m}: {lv.index} != {want}"
    return True, "deg_A(m+1) = deg_A(m) * index and index = 1 iff m <= nu_ell(k-1)"


def check_sum_to_one(ks, moduli) -> tuple[bool, str]:
    for k in ks:
        for ell, m in moduli:
            pp = PrimePower(ell, m)
            q = pp.q
            total = Fraction(0)
            den = tower.generic_L_degree(k, ell, m)
            for u in range(1, q):
                if u % ell == 0:
                    continue
                d = pow(u, k - 1, q)
                total += Fraction(int(matcount.trace_det_counts_for_det(pp, d).sum()), den)
            if total != 1:
                return False, f"sum over (u,v) at k={k}, q={q}: {total} != 1"
    return True, "sum of class densities = 1 exactly"


def check_partitions(max_m: int) -> tuple[bool, str]:
    for n in (4, 6, 8):
        for m in range(1, max_m + 1):
            partitions_stat(n, m)  # raises on any violated bound
    return True, "min s1 + floor((s2+1)/2) >= 3m/n with the closed-form argmin"


def check_series_oracle(X: int, blocked_X: int | None = None) -> tuple[bool, str]:
    rng = np.random.default_rng(20230517)
    widest = PrimePower(2 ** 31 - 1, 1)
    cases = []
    for ell, m in ((2, 1), (2, 3), (5, 1), (3, 7), (691, 1), (widest.ell, 1)):
        pp = PrimePower(ell, m)
        cases.append((pp, rng.integers(0, pp.q, X + 1), rng.integers(0, pp.q, X + 1)))
    # the widest modulus takes the most limbs; all q - 1 is the largest
    # residue, all q // 2 the largest signed limb and the worst rounding case
    for v in (widest.q - 1, widest.q // 2):
        cases.append((widest, np.full(X + 1, v), np.full(X + 1, v)))
    # random residues mod 100003: from X = 5864 the worst case takes two
    # limbs, and the inputs' norms still prove one
    normed = PrimePower(100003, 1)
    ra, rb = rng.integers(0, normed.q, X + 1), rng.integers(0, normed.q, X + 1)
    cases.append((normed, ra, rb))
    for pp, ca, cb in cases:
        a, b = series.new_series(pp, ca), series.new_series(pp, cb)
        fast = series.series_mul(a, b)
        ref = series.series_mul_naive(a, b)
        if not np.array_equal(fast.coeffs, ref.coeffs):
            return False, f"transform != naive at q={pp.q}, X={X}"
    worst = series._plan_product(X, normed.q)
    plan = series._plan_from_norms(worst, series._centre(ra, normed.q), series._centre(rb, normed.q), normed.q)
    detail = (
        f"transform path matches naive oracle at X={X}, up to q = 2^31 - 1; "
        f"mod {normed.q} in {plan.limbs} limb(s) where the worst case takes {worst.limbs}"
    )
    if blocked_X is None:
        return True, detail
    # one product in K >= 2 blocks, the last one partial, against the
    # quadratic convolution itself: series_mul_naive stops at NAIVE_MAX_X
    blocked = series._plan_product(blocked_X, normed.q)
    if blocked.blocks < 2 or (blocked_X + 1) % blocked.block == 0:
        return False, f"X={blocked_X} is not cut into blocks with a partial last one: {blocked}"
    ra, rb = rng.integers(0, normed.q, blocked_X + 1), rng.integers(0, normed.q, blocked_X + 1)
    t0 = time.perf_counter()
    fast = series.series_mul(series.new_series(normed, ra), series.new_series(normed, rb))
    t1 = time.perf_counter()
    if not np.array_equal(fast.coeffs, series._naive_convolve_mod(ra, rb, normed.q, blocked_X)):
        return False, f"blocked transform != quadratic convolution at q={normed.q}, X={blocked_X}"
    detail += (
        f"; mod {normed.q} at X={blocked_X} in {blocked.blocks} blocks of {blocked.block} "
        f"({t1 - t0:.3f} s) equals the quadratic convolution ({time.perf_counter() - t1:.2f} s)"
    )
    # residues in the dtype builds hold them in, where numpy's own
    # arithmetic would wrap, against the quadratic convolution of int64 copies
    for pp in (PrimePower(251, 1), PrimePower(3, 7)):
        dtype = series._stored_dtype(pp.q)
        sa, sb = rng.integers(0, pp.q, blocked_X + 1).astype(dtype), rng.integers(0, pp.q, blocked_X + 1).astype(dtype)
        t0 = time.perf_counter()
        fast = series.series_mul(series.SeriesModQ(pp, sa), series.SeriesModQ(pp, sb))
        t1 = time.perf_counter()
        want = series._naive_convolve_mod(sa.astype(np.int64), sb.astype(np.int64), pp.q, blocked_X)
        if not np.array_equal(fast.coeffs, want):
            return False, f"blocked transform of {dtype} residues != quadratic convolution at q={pp.q}, X={blocked_X}"
        detail += f"; {dtype} residues mod {pp.q} too ({t1 - t0:.3f} s, naive {time.perf_counter() - t1:.2f} s)"
    return True, detail


def check_eigenform_values() -> tuple[bool, str]:
    exact = series.eigenform_coeffs(12, 8, None)
    want = {1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830, 6: -6048, 7: -16744, 8: 84480}
    for i, v in want.items():
        if exact[i] != v:
            return False, f"tau({i}) = {exact[i]} != {v}"
    e18 = series.eigenform_coeffs(18, 4, None)
    if e18[2] != -528:
        return False, f"a_18(2) = {e18[2]} != -528"
    if exact[6] != exact[2] * exact[3]:
        return False, "tau(6) != tau(2) tau(3)"
    return True, "small eigenform coefficients match the exact expansion"


def check_hecke_relations(X: int, cache_dir=None) -> tuple[bool, str]:
    pp = PrimePower(3, 7)
    q = pp.q
    ps = primes_in(2, X)
    for w in series.SUPPORTED_WEIGHTS:
        a = series.eigenform_coeffs(w, X, pp, cache_dir).coeffs
        for r in range(2, int(math.isqrt(X)) + 1):
            for s in range(r + 1, X // r + 1):
                if math.gcd(r, s) == 1 and a[r * s] != a[r] * a[s] % q:
                    return False, f"multiplicativity fails at w={w}, ({r},{s})"
        for p in ps[ps * ps <= X]:
            p = int(p)
            if a[p * p] != (a[p] * a[p] - pow(p, w - 1, q)) % q:
                return False, f"Hecke p^2 relation fails at w={w}, p={p}"
    return True, f"multiplicativity and a(p^2) relation mod 3^7 up to X={X}"


def check_ramanujan_691(X: int, cache_dir=None) -> tuple[bool, str]:
    pp = PrimePower(691, 1)
    a = series.eigenform_coeffs(12, X, pp, cache_dir).coeffs
    for p in primes_in(2, X):
        p = int(p)
        if p == 691:
            continue
        if a[p] != (1 + pow(p, 11, 691)) % 691:
            return False, f"691 congruence fails at p={p}"
    return True, f"tau(p) = 1 + p^11 mod 691 for all p <= {X}"


def _lifted_roots(gammas, ell: int, m: int) -> list[int]:
    """The roots of prod_i (w - gamma_i) mod ell^m, in Python ints, lifted
    one ell-adic digit at a time from the roots mod ell."""
    def g(w):
        return math.prod(w - c for c in gammas)

    roots, mod = [w for w in range(ell) if g(w) % ell == 0], ell
    for _ in range(1, m):
        roots = [r + t * mod for r in roots for t in range(ell) if g(r + t * mod) % (mod * ell) == 0]
        mod *= ell
    return sorted(roots)


def check_delta_F_assembly() -> tuple[bool, str]:
    # the root search over several unit blocks with n/2 = 3 balls per unit,
    # cell for cell against digit lifting from gamma_i(u) in Python ints
    (k, n), pp = (16, 6), PrimePower(7, 3)
    q, ell = pp.q, pp.ell
    want = []
    for u in range(1, q):
        if u % ell:
            gammas = [-(pow(u, k - i, q) + pow(u, k - n - 1 + i, q)) for i in range(1, n // 2 + 1)]
            want += [(u, w) for w in _lifted_roots(gammas, ell, pp.m)]
    got_u, got_w = root_cells(LiftParams(k, n), pp)
    got = sorted(zip(got_u.tolist(), got_w.tolist()))
    if got != want:
        return False, f"root_cells ({k},{n}) mod {pp} != digit-lifted roots ({len(got)} cells against {len(want)})"
    roots_detail = f"root cells of ({k},{n}) mod {pp} equal the {len(want)} digit-lifted roots"
    params = LiftParams(10, 2)
    for ell, m in ((5, 1), (7, 1), (3, 2)):
        pp = PrimePower(ell, m)
        direct = delta_F_generic(params, pp).delta_exact
        wf = params.source_weight
        total = Fraction(0)
        for u in range(1, pp.q):
            if u % ell == 0:
                continue
            g = gamma_roots(u, params, pp).gamma[0]
            total += delta_uv_generic(wf, pp, u, g).delta_exact
        if direct != total:
            return False, f"assembly mismatch at q={pp.q}: {direct} != {total}"
    return True, f"{roots_detail}; n = 2 assembly equals the sum of class densities at the roots"


def check_pi_F_identity(cache_dir=None) -> tuple[bool, str]:
    x = 10 ** 4
    ps = primes_in(2, x).tolist()
    # at ell = 5, 3 and 7 the source forms are reducible and most root cells
    # hold no prime; mod 23 every root cell of (10,2) holds some
    cases = (((10, 2), (5, 1)), ((12, 4), (3, 2)), ((16, 6), (7, 1)), ((10, 2), (23, 1)))
    for (k, n), (ell, m) in cases:
        params, pp = LiftParams(k, n), PrimePower(ell, m)
        q = pp.q
        res = scan_pi_F(params, pp, x, cache_dir)
        # lambda_F(p) from the product formula, in Python ints
        a = series.eigenform_coeffs(params.source_weight, x, pp, cache_dir).coeffs.tolist()
        count = sum(
            math.prod(a[p] + p ** (k - i) + p ** (k - n - 1 + i) for i in range(1, n // 2 + 1)) % q == 0
            for p in ps
            if p != ell
        )
        if (res.counts, res.pi_x) != (count, len(ps) - 1):
            return False, f"({k},{n}) mod {pp}: scan {res.counts} of {res.pi_x} != product formula {count} of {len(ps) - 1}"
    return True, f"scan counts equal the product formula for {len(cases)} lifts at x = {x}"


def check_statistical_scan(cache_dir=None) -> tuple[bool, str]:
    pp = PrimePower(11, 1)
    res = scan_pi_f(12, pp, 10 ** 5, cache_dir)
    # the table's expected numerators, row by row, against the trace-det counts
    zeros = np.zeros(pp.q, dtype=np.int64)
    for u in range(pp.q):
        want = matcount.trace_det_counts_for_det(pp, pow(u, 11, pp.q)) if u % pp.ell else zeros
        if not np.array_equal(res.expected_num[u], want):
            return False, f"expected numerators of row u = {u} differ from the trace-det counts"
    if res.deviation_sigmas > SIGMA_PASS:
        return False, f"worst cell at {res.deviation_sigmas:.2f} sigma > {SIGMA_PASS:g}"
    return True, f"weight-12 table at ell=11 within {res.deviation_sigmas:.2f} sigma"


def check_exceptional_flag(cache_dir=None) -> tuple[bool, str]:
    res = scan_pi_f(12, PrimePower(691, 1), 10 ** 4, cache_dir)
    if not res.exceptional:
        return False, f"691 scan not flagged ({res.deviation_sigmas:.1f} sigma)"
    return True, f"691 scan flagged exceptional at {res.deviation_sigmas:.0f} sigma"


def check_prime_table(cache_dir=None) -> tuple[bool, str]:
    path = os.path.join(series.cache_dir_from_env(cache_dir), series._PRIME_TABLE_FILE)
    entry = series._cache_read(path, series._PRIME_TABLE)
    if entry is None:
        return False, f"no valid prime table at {path}"
    top, table = entry
    if not np.array_equal(table, primes_in(2, top)):
        return False, f"cached primes up to {top} differ from the sieve"
    return True, f"cached prime table equals the sieve up to X' = {top}"


def run(level: str = "quick", cache_dir: str | None = None):
    """Run the suite; returns a list of (name, ok, detail), each detail
    ending in the check's wall time."""
    if level not in ("quick", "full"):
        raise ValueError(f"level must be quick or full, got {level}")
    full = level == "full"
    moduli = FULL_MODULI if full else QUICK_MODULI
    checks = [
        ("matcount formula = brute", lambda: check_matcount_oracle(moduli)),
        ("matcount row sums", lambda: check_row_sums(moduli)),
        ("z-profile bound", lambda: check_z_bound(343 if full else 49)),
        ("tower degrees", lambda: check_tower(50 if full else 20, 6)),
        ("density sum to one", lambda: check_sum_to_one((10, 12, 18), (
            (5, 1), (7, 1), (3, 2), (5, 2), (7, 2)) if full else ((5, 1), (7, 1), (3, 2)))),
        ("partition bound", lambda: check_partitions(12)),
        ("series transform oracle", lambda: check_series_oracle(10 ** 4 if full else 10 ** 3, 40000 if full else None)),
        ("eigenform values", check_eigenform_values),
        ("Hecke relations", lambda: check_hecke_relations(10 ** 4 if full else 2000, cache_dir)),
        ("Ikeda assembly", check_delta_F_assembly),
        ("eigenvalue-count identity", lambda: check_pi_F_identity(cache_dir)),
    ]
    if full:
        checks += [
            ("Ramanujan 691 congruence", lambda: check_ramanujan_691(10 ** 5, cache_dir)),
            ("statistical scan", lambda: check_statistical_scan(cache_dir)),
            ("exceptional flag", lambda: check_exceptional_flag(cache_dir)),
            ("prime table", lambda: check_prime_table(cache_dir)),
        ]
    results = []
    for name, fn in checks:
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, f"{detail} ({time.perf_counter() - t0:.2f} s)"))
    return results
