from fractions import Fraction
from itertools import product
from math import gcd

import numpy as np
import pytest

from heckedens import density
from heckedens.density import (
    DENSITY_CELLS_MAX,
    LiftParams,
    delta_F_generic,
    delta_uv_generic,
    gamma_roots,
    partitions_stat,
    root_cells,
)
from heckedens.errors import CapacityError
from heckedens.matcount import count_trace_det
from heckedens.modring import PrimePower
from heckedens.primes import primes_in
from heckedens.tower import generic_L_degree
from heckedens.verify import _lifted_roots
from oracles import g_u_root_count, mult_order, sum_Ngu


def test_lift_params_validation():
    p = LiftParams(10, 2)
    assert p.source_weight == 18
    assert LiftParams(8, 4).source_weight == 12
    with pytest.raises(ValueError):
        LiftParams(9, 2)  # odd k
    with pytest.raises(ValueError):
        LiftParams(4, 4)  # k <= n+1
    with pytest.raises(ValueError):
        LiftParams(8, 2)  # source weight 14 has no eigenform here


def test_gamma_roots_examples():
    g = gamma_roots(2, LiftParams(8, 4), PrimePower(7, 1))
    assert g.gamma == (3, 2)
    for params in (LiftParams(10, 2), LiftParams(8, 4), LiftParams(12, 6)):
        pp = PrimePower(11, 1)
        assert gamma_roots(1, params, pp).gamma == tuple([11 - 2] * (params.n // 2))
    g2 = gamma_roots(2, LiftParams(10, 2), PrimePower(5, 1))
    assert g2.gamma == (2,)


def test_g_u_root_count_examples():
    # n = 2 always has exactly one root, the single gamma
    for u in (1, 2, 3, 4):
        roots, n = g_u_root_count(u, LiftParams(10, 2), PrimePower(5, 1))
        assert n == 1
        assert roots.tolist() == [gamma_roots(u, LiftParams(10, 2), PrimePower(5, 1)).gamma[0]]
    roots, n = g_u_root_count(2, LiftParams(8, 4), PrimePower(7, 1))
    assert sorted(roots.tolist()) == [2, 3] and n == 2
    roots, n = g_u_root_count(1, LiftParams(8, 4), PrimePower(7, 2))
    assert n == 7
    assert all((w + 2) % 7 == 0 for w in roots.tolist())


def test_g_u_root_count_against_direct_product():
    for ell, m in ((5, 1), (3, 2), (7, 1), (2, 3)):
        pp = PrimePower(ell, m)
        params = LiftParams(8, 4)
        for u in range(1, pp.q):
            if u % ell == 0:
                continue
            gams = gamma_roots(u, params, pp).gamma
            expect = sorted(
                w
                for w in range(pp.q)
                if ((w - gams[0]) * (w - gams[1])) % pp.q == 0
            )
            roots, n = g_u_root_count(u, params, pp)
            assert sorted(roots.tolist()) == expect and n == len(expect)


def _root_mask(gamma, pp):
    """Oracle: boolean mask over every w in [0, q) of prod_i (w - gamma_i) = 0
    mod q, via capped valuations: sum_i min(nu(w - gamma_i), m) >= m."""
    q, ell, m = pp.q, pp.ell, pp.m
    w = np.arange(q, dtype=np.int64)
    total = np.zeros(q, dtype=np.int64)
    for g in gamma:
        rem = (w - g) % q
        v = np.zeros(q, dtype=np.int64)
        active = np.ones(q, dtype=bool)
        for _ in range(m):
            active &= rem % ell == 0
            v[active] += 1
            rem[active] //= ell
        total += v
    return total >= m


def test_ball_roots_match_scan_oracle():
    for k, n in ((10, 2), (12, 4), (16, 6)):
        params = LiftParams(k, n)
        for ell, m in ((2, 3), (3, 3), (7, 2), (5, 3), (7, 3)):
            pp = PrimePower(ell, m)
            all_u, all_w = root_cells(params, pp)
            expect_u, expect_w = [], []
            for u in range(1, pp.q):
                if u % ell == 0:
                    continue
                expect = np.flatnonzero(_root_mask(gamma_roots(u, params, pp).gamma, pp))
                roots, cnt = g_u_root_count(u, params, pp)
                assert roots.tolist() == expect.tolist() and cnt == len(expect)
                expect_u += [u] * cnt
                expect_w += expect.tolist()
            assert all_u.tolist() == expect_u
            assert sorted(zip(all_u.tolist(), all_w.tolist())) == list(zip(expect_u, expect_w))


def test_root_cells_computes_gamma_once(monkeypatch):
    # (16,6) mod 7^3: 147 candidates per unit, 55 units per block, so the
    # 294 units span 6 blocks
    params, pp = LiftParams(16, 6), PrimePower(7, 3)
    full_u, full_w = root_cells(params, pp)
    calls = []
    gamma_table = density.gamma_table

    def counted(*args):
        calls.append(args)
        return gamma_table(*args)

    monkeypatch.setattr(density, "gamma_table", counted)
    u, w = root_cells(params, pp)
    assert len(calls) == 1 and pp.phi > 5 * (density._BLOCK_CELLS // 147)
    assert u.tobytes() == full_u.tobytes() and w.tobytes() == full_w.tobytes()
    # a units array over three blocks: the full call's cells at those units
    units = np.flatnonzero(np.arange(pp.q) % 7)[::2][:150]
    u, w = root_cells(params, pp, units)
    assert len(calls) == 2
    keep = np.isin(full_u, units)
    assert np.array_equal(u, full_u[keep]) and np.array_equal(w, full_w[keep])


def test_gamma_roots_refuses_q_squared_beyond_int64():
    # the largest prime with q^2 < 2^63 is admitted, the next one refused,
    # and so is 3^39, the largest power of 3 that PrimePower admits
    for k, n in ((10, 2), (16, 6)):
        params = LiftParams(k, n)
        q = 3037000493
        want = tuple(-(pow(5, k - i, q) + pow(5, k - n - 1 + i, q)) % q for i in range(1, n // 2 + 1))
        assert gamma_roots(5, params, PrimePower(q, 1)).gamma == want
        for pp in (PrimePower(3037000507, 1), PrimePower(3, 39)):
            with pytest.raises(CapacityError):
                gamma_roots(1, params, pp)


def _digit_lifting_density(params, pp, count=None):
    """delta_F summed cell by cell over the digit-lifted roots w of each g_u,
    count(w, d) matrices each (default: count_trace_det)."""
    k, n, ell, m, q = params.k, params.n, pp.ell, pp.m, pp.q
    count = count or (lambda w, d: count_trace_det(pp, w, d).count)
    num = 0
    for u in range(1, q):
        if u % ell == 0:
            continue
        d = pow(u, 2 * k - n - 1, q)
        for w in _lifted_roots(gamma_roots(u, params, pp).gamma, ell, m):
            num += count(w, d)
    return Fraction(num, generic_L_degree(2 * k - n, ell, m))


def test_delta_F_against_digit_lifting():
    for k, n in ((10, 2), (12, 4), (16, 6)):
        params = LiftParams(k, n)
        for ell, m in ((17, 2), (7, 3), (19, 2), (2, 6), (2, 8)):
            pp = PrimePower(ell, m)
            assert delta_F_generic(params, pp).delta_exact == _digit_lifting_density(params, pp)


def test_delta_F_two_adic_moduli_admitted():
    pp = PrimePower(2, 12)
    # a^2 - a w + d is odd for every a when w is odd, and is (a - w/2)^2 - E
    # with E = (w/2)^2 - d when w is even: pairs sharing (w mod 2, E) share
    # their count, so (12, 4)'s 114688 roots take a few thousand z-profiles
    memo = {}

    def count(w, d):
        key = (1, 0) if w % 2 else (0, ((w // 2) ** 2 - d) % pp.q)
        if key not in memo:
            memo[key] = count_trace_det(pp, w, d).count
        return memo[key]

    for k, n in ((10, 2), (12, 4)):
        params = LiftParams(k, n)
        assert density.density_cells(params, pp, pp.phi) <= DENSITY_CELLS_MAX
        assert delta_F_generic(params, pp).delta_exact == _digit_lifting_density(params, pp, count)


def test_density_guard_refuses_before_building(monkeypatch):
    def unexpected(*args):
        raise AssertionError("array built before the capacity check")

    for name in ("capped_valuations", "discriminant_classes", "pow_mod_array"):
        monkeypatch.setattr(density, name, unexpected)
    params, pp = LiftParams(12, 4), PrimePower(3, 12)
    assert density.density_cells(params, pp, pp.phi) > 5 * 10 ** 8 > DENSITY_CELLS_MAX
    with pytest.raises(CapacityError):
        delta_F_generic(params, pp)
    with pytest.raises(CapacityError):
        root_cells(params, pp)
    # q <= DENSITY_CELLS_MAX, so t^2 and w^2 stay inside int64
    assert DENSITY_CELLS_MAX ** 2 < 2 ** 63


def test_root_count_bound_and_equality_cases():
    for n, k in ((2, 10), (4, 8), (6, 12)):
        params = LiftParams(k, n)
        for ell in primes_in(2, 97):
            ell = int(ell)
            if ell <= n:
                continue
            pp = PrimePower(ell, 1)
            for u in range(1, ell):
                _, cnt = g_u_root_count(u, params, pp)
                assert cnt <= n // 2
                if mult_order(u, pp) > n:
                    assert cnt == n // 2


def test_sum_Ngu():
    res = sum_Ngu(LiftParams(8, 4), 101)
    assert res["main_term"] == 202
    assert 202 - 2 * res["small_order_bound"] <= res["sum"] <= 202
    for ell in (7, 11, 23):
        assert sum_Ngu(LiftParams(10, 2), ell)["sum"] == ell - 1
    res7 = sum_Ngu(LiftParams(8, 4), 7)
    assert res7["small_order_units"] == 4
    assert res7["small_order_bound"] == 16


def test_delta_uv_example():
    rep = delta_uv_generic(12, PrimePower(5, 1), 1, 0)
    assert rep.delta_exact == Fraction(30, 480) == Fraction(1, 16)
    assert rep.main_term == Fraction(1, 25)
    assert rep.kind == "uv"
    with pytest.raises(ValueError):
        delta_uv_generic(12, PrimePower(5, 1), 10, 0)


def test_delta_uv_sum_to_one():
    for k in (10, 12, 18):
        for ell, m in ((5, 1), (7, 1), (3, 2)):
            pp = PrimePower(ell, m)
            total = sum(
                (
                    delta_uv_generic(k, pp, u, v).delta_exact
                    for u in range(1, pp.q)
                    if u % ell
                    for v in range(pp.q)
                ),
                Fraction(0),
            )
            assert total == 1


def test_delta_uv_shape_large_ell():
    ell = 101
    pp = PrimePower(ell, 1)
    for u, v in ((1, 0), (2, 17), (100, 55), (3, 3)):
        d = delta_uv_generic(12, pp, u, v).delta_exact
        assert abs(d * ell * ell - 1) <= Fraction(5, ell)


def _delta_F_brute(k, n, ell):
    """Fully independent recomputation: enumerate GL2(F_ell) and the lift
    polynomial roots with plain integer arithmetic."""
    wf = 2 * k - n
    total = 0
    for u in range(1, ell):
        gams = [(-(pow(u, k - i, ell) + pow(u, k - n - 1 + i, ell))) % ell for i in range(1, n // 2 + 1)]
        roots = set()
        for w in range(ell):
            prod_val = 1
            for g in gams:
                prod_val = prod_val * (w - g) % ell
            if prod_val == 0:
                roots.add(w)
        du = pow(u, wf - 1, ell)
        for x, y, z, w2 in product(range(ell), repeat=4):
            det = (x * w2 - y * z) % ell
            if det == du and (x + w2) % ell in roots and gcd(det, ell) == 1:
                total += 1
    return Fraction(total, generic_L_degree(wf, ell, 1))


def test_delta_F_against_independent_brute():
    params = LiftParams(10, 2)
    got = delta_F_generic(params, PrimePower(7, 1)).delta_exact
    assert got == _delta_F_brute(10, 2, 7) == Fraction(47, 288)
    got5 = delta_F_generic(LiftParams(8, 4), PrimePower(5, 1)).delta_exact
    assert got5 == _delta_F_brute(8, 4, 5)


def test_delta_F_n2_assembly_identity():
    params = LiftParams(10, 2)
    wf = params.source_weight
    for ell, m in ((5, 1), (7, 1), (3, 2), (2, 3)):
        pp = PrimePower(ell, m)
        lhs = delta_F_generic(params, pp).delta_exact
        rhs = sum(
            (
                delta_uv_generic(wf, pp, u, gamma_roots(u, params, pp).gamma[0]).delta_exact
                for u in range(1, pp.q)
                if u % ell
            ),
            Fraction(0),
        )
        assert lhs == rhs


def test_delta_F_main_term_field():
    rep = delta_F_generic(LiftParams(10, 2), PrimePower(7, 1))
    assert rep.main_term == Fraction(1, 7)
    assert rep.kind == "ikeda"
    rep2 = delta_F_generic(LiftParams(10, 2), PrimePower(7, 2))
    assert rep2.main_term is None


def test_delta_F_decay_spot():
    # k=8, n=4, ell=5, m=3: delta <= 8 m^2 / ell^(3m/n), compared exactly
    rep = delta_F_generic(LiftParams(8, 4), PrimePower(5, 3))
    d = rep.delta_exact
    n, m, ell = 4, 3, 5
    assert d.numerator ** n * ell ** (3 * m) <= (8 * m * m) ** n * d.denominator ** n


def test_partitions_examples():
    st = partitions_stat(4, 5)
    assert set(st.partitions) == {(5, 0), (4, 1), (3, 2)}
    assert st.min_value == 4
    assert st.argmin == (3, 2)
    assert 4 * 4 >= 3 * 5
    st2 = partitions_stat(2, 9)
    assert st2.partitions == ((9,),)
    assert st2.min_value == 9 and st2.argmin == (9,)
    st3 = partitions_stat(6, 7)
    assert st3.min_value == 4
    assert st3.argmin == (3, 2, 2)


def test_partitions_structure():
    for n in (4, 6, 8):
        for m in range(1, 13):
            st = partitions_stat(n, m)
            for vec in st.partitions:
                assert len(vec) == n // 2
                assert all(a >= b for a, b in zip(vec, vec[1:]))
                assert all(v >= 0 for v in vec) and sum(vec) == m
            assert st.min_value * n >= 3 * m
            # no duplicates and the closed form is enumerated
            assert len(set(st.partitions)) == len(st.partitions)
            assert st.argmin in st.partitions
