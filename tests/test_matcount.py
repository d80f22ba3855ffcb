from itertools import product
from math import gcd

import numpy as np
import pytest

from heckedens.errors import CapacityError
from heckedens.matcount import (
    BRUTE_MAX,
    _brute_table,
    count_trace_det,
    count_trace_det_brute,
    discriminant_classes,
    trace_det_counts_for_det,
    z_bound_check,
    z_profile,
    z_profiles_for_det,
)
from heckedens.modring import PrimePower
from heckedens.tower import sl2_order


def _brute_pure_python(q, ell, t, d):
    n = 0
    for x, y, z, w in product(range(q), repeat=4):
        det = (x * w - y * z) % q
        if (x + w) % q == t % q and det == d % q and det % ell != 0:
            n += 1
    return n


def test_z_profile_examples():
    assert z_profile(PrimePower(5, 1), 0, 1).counts == (3, 2)
    assert z_profile(PrimePower(5, 1), 1, 1).counts == (5, 0)
    assert z_profile(PrimePower(3, 2), 2, 1).counts == (6, 0, 3)


def test_z_profile_partition_invariant():
    for ell, m in ((2, 3), (3, 2), (5, 1), (7, 2)):
        pp = PrimePower(ell, m)
        for d in range(1, pp.q):
            if d % ell == 0:
                continue
            for t in range(pp.q):
                assert sum(z_profile(pp, t, d).counts) == pp.q


def test_count_examples():
    assert count_trace_det(PrimePower(5, 1), 0, 1).count == 30
    assert count_trace_det(PrimePower(5, 1), 1, 1).count == 20
    res = count_trace_det(PrimePower(3, 2), 2, 1)
    assert res.count == 99 == 6 * 1 * 6 + 3 * (2 * 6 + 9)
    assert res.method == "formula"


def test_brute_examples():
    assert count_trace_det_brute(PrimePower(2, 1), 1, 1).count == 2
    assert count_trace_det_brute(PrimePower(5, 1), 2, 1).count == 25
    pp7 = PrimePower(7, 1)
    assert count_trace_det_brute(pp7, 0, 6).count == count_trace_det(pp7, 0, 6).count


def test_brute_against_pure_python():
    for ell, m in ((2, 1), (3, 1), (2, 2), (5, 1)):
        pp = PrimePower(ell, m)
        for d in range(1, pp.q):
            if d % ell == 0:
                continue
            for t in range(pp.q):
                assert count_trace_det_brute(pp, t, d).count == _brute_pure_python(
                    pp.q, ell, t, d
                )


def test_formula_equals_brute_small():
    for ell, m in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)):
        pp = PrimePower(ell, m)
        for d in range(1, pp.q):
            if d % ell == 0:
                continue
            for t in range(pp.q):
                assert count_trace_det(pp, t, d).count == count_trace_det_brute(pp, t, d).count


def test_row_sums_are_sl2():
    for ell, m in ((5, 1), (2, 3), (3, 2), (7, 1)):
        pp = PrimePower(ell, m)
        for d in range(1, pp.q):
            if d % ell == 0:
                continue
            total = sum(count_trace_det(pp, t, d).count for t in range(pp.q))
            assert total == sl2_order(ell, m)


def test_m1_closed_form():
    for ell in (3, 5, 7, 11, 13):
        pp = PrimePower(ell, 1)
        for d in range(1, ell):
            for t in range(ell):
                z = z_profile(pp, t, d).counts[1]
                assert z in (0, 1, 2)
                assert count_trace_det(pp, t, d).count == ell * (ell - 1) + ell * z


def test_z_bound_examples():
    assert z_bound_check(PrimePower(5, 1), 0, 1)
    assert z_bound_check(PrimePower(3, 2), 2, 1)
    for ell, m in ((7, 3), (3, 5), (2, 8)):
        pp = PrimePower(ell, m)
        rng = np.random.default_rng(ell)
        for _ in range(20):
            d = int(rng.integers(1, pp.q))
            if d % ell == 0:
                continue
            t = int(rng.integers(0, pp.q))
            assert z_bound_check(pp, t, d)


def test_vectorized_sweeps_match_direct():
    for ell, m in ((2, 1), (2, 3), (3, 2), (5, 1), (7, 2), (3, 3), (2, 8), (2, 10)):
        pp = PrimePower(ell, m)
        for d in (1, pp.q - 1, 2 if 2 % ell else 3):
            d %= pp.q
            if d % ell == 0 or d == 0:
                continue
            zmat = z_profiles_for_det(pp, d)
            cvec = trace_det_counts_for_det(pp, d)
            for t in range(pp.q):
                assert tuple(int(v) for v in zmat[:, t]) == z_profile(pp, t, d).counts
                assert int(cvec[t]) == count_trace_det(pp, t, d).count
    # every unit determinant in one call, against exhaustive enumeration
    for ell, m in ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (5, 2)):
        pp = PrimePower(ell, m)
        units = np.flatnonzero(np.arange(pp.q) % ell)
        table = trace_det_counts_for_det(pp, units)
        assert table.shape == (len(units), pp.q)
        assert np.array_equal(table, _brute_table(ell, m)[:, units].T)


def test_discriminant_gather_matches_count_and_brute():
    for ell, m in ((3, 1), (5, 1), (3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (11, 2), (5, 3)):
        pp = PrimePower(ell, m)
        q = pp.q
        cls, values, profiles = discriminant_classes(ell, m)
        assert len(values) == len(profiles) == 2 * m + 1 and len(cls) == q
        c = np.array(values, dtype=np.int64)[cls]
        t = np.arange(q)
        brute = _brute_table(ell, m) if q ** 4 <= BRUTE_MAX else None
        for d in range(1, q):
            if d % ell == 0:
                continue
            gathered = c[(t * t - 4 * d) % q]
            assert gathered.tolist() == [count_trace_det(pp, tt, d).count for tt in range(q)]
            if brute is not None:
                assert gathered.tolist() == brute[:, d].tolist()


def test_non_unit_rejected():
    with pytest.raises(ValueError):
        z_profile(PrimePower(5, 1), 0, 10)
    with pytest.raises(ValueError):
        count_trace_det(PrimePower(3, 2), 1, 3)


def test_brute_guard():
    with pytest.raises(CapacityError):
        count_trace_det_brute(PrimePower(11, 2), 0, 1)
