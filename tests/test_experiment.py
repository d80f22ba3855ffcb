import math

import numpy as np
import pytest

from heckedens.density import LiftParams, delta_uv_generic
from heckedens.errors import CapacityError
from heckedens.experiment import (
    _deviation_table,
    grh_error_scale,
    lambda_F_exact,
    lambda_F_mod,
    scan_pi_F,
    scan_pi_f,
)
from heckedens.modring import PrimePower
from heckedens.primes import primes_in
from heckedens.series import SUPPORTED_WEIGHTS, eigenform_coeffs


def _valid_lift_params():
    out = []
    for w in SUPPORTED_WEIGHTS:
        for n in range(2, 24, 2):
            k = (w + n) // 2
            if k % 2 == 0 and k > n + 1:
                out.append(LiftParams(k, n))
    return out


def test_lambda_examples():
    assert lambda_F_exact(-528, 2, LiftParams(10, 2)) == -528 + 512 + 256 == 240
    a18 = eigenform_coeffs(18, 4, None)
    assert lambda_F_exact(a18[2], 2, LiftParams(10, 2)) == 240
    assert lambda_F_mod(-528, 2, LiftParams(10, 2), PrimePower(7, 1)) == 240 % 7


def test_lambda_saito_kurokawa_equivalence():
    pp = PrimePower(11, 1)
    for k in (10, 14):
        params = LiftParams(k, 2)
        for p in (2, 3, 5, 7, 13):
            for a in range(-20, 21):
                sk = (a + pow(p, k - 1, 11) + pow(p, k - 2, 11)) % 11
                assert lambda_F_mod(a, p, params, pp) == sk


def test_lambda_positivity_small_primes():
    coeffs = {w: eigenform_coeffs(w, 100, None) for w in SUPPORTED_WEIGHTS}
    ps = [int(p) for p in primes_in(2, 100)]
    for params in _valid_lift_params():
        a = coeffs[params.source_weight]
        for p in ps:
            assert lambda_F_exact(a[p], p, params) > 0


def test_grh_error_scale():
    got = grh_error_scale(PrimePower(5, 1), 10 ** 4)
    assert got == pytest.approx(625 * 100 * math.log(5 * 10 ** 4))
    assert got == pytest.approx(6.76e5, rel=1e-3)
    assert grh_error_scale(PrimePower(5, 1), 10 ** 6) > got
    assert grh_error_scale(PrimePower(5, 2), 10 ** 4) > got


def test_scan_pi_f_partition_and_expectations():
    pp = PrimePower(5, 1)
    res = scan_pi_f(12, pp, 10 ** 4)
    assert res.mode == "pi_f_table"
    # scanned primes partition the table; ell <= x so one prime is excluded
    assert int(res.counts.sum()) == res.pi_x == len(primes_in(2, 10 ** 4)) - 1
    # non-unit residue classes are empty
    assert res.counts[0].sum() == 0
    # expected table matches the density operation cell by cell
    for u in (1, 2, 3, 4):
        for v in range(5):
            rep = delta_uv_generic(12, pp, u, v)
            assert rep.delta_exact.numerator * res.expected_den == (
                int(res.expected_num[u, v]) * rep.delta_exact.denominator
            )


def test_scan_determinism():
    pp = PrimePower(7, 1)
    r1 = scan_pi_f(16, pp, 2 * 10 ** 4)
    r2 = scan_pi_f(16, pp, 2 * 10 ** 4)
    assert np.array_equal(r1.counts, r2.counts)
    assert r1.deviation_sigmas == r2.deviation_sigmas


def test_scan_pi_F_identity_and_partition():
    params = LiftParams(10, 2)
    pp = PrimePower(5, 1)
    res = scan_pi_F(params, pp, 10 ** 4)
    assert res.counts == res.rootset_count
    assert res.expected_report is not None
    # root-set reduction recomputed here from raw coefficient data
    series = eigenform_coeffs(18, 10 ** 4, pp)
    ps = primes_in(2, 10 ** 4)
    ps = ps[ps != 5]
    manual = 0
    for p in ps:
        p = int(p)
        lam = lambda_F_mod(int(series[p]), p, params, pp)
        manual += lam == 0
    assert manual == res.counts


@pytest.mark.parametrize("ell, m", [(2, 3), (3, 2), (5, 2), (3, 3), (7, 3)])
def test_scan_pi_F_direct_count_matches_per_prime_product(ell, m):
    # one, two and three factors of lambda_F, each difference a - gamma_i(u)
    # reduced into [0, q) before it is multiplied
    pp = PrimePower(ell, m)
    x = 10 ** 4
    ps = primes_in(2, x)
    ps = ps[ps != ell].tolist()
    for params in (LiftParams(10, 2), LiftParams(12, 4), LiftParams(16, 6)):
        res = scan_pi_F(params, pp, x)
        a = eigenform_coeffs(params.source_weight, x, pp).coeffs
        manual = sum(lambda_F_mod(int(a[p]), p, params, pp) == 0 for p in ps)
        assert res.counts == manual == res.rootset_count, params


def test_deviation_table_matches_the_masked_quotient():
    # the former two-pass formula, on seeded tables with zero-sigma cells
    rng = np.random.default_rng(88)
    for q, pi_x in ((5, 1228), (23, 22043), (343, 22041)):
        den = int(rng.integers(q, 50 * q))
        num = rng.integers(0, 3, (q, q)) * rng.integers(0, den // q + 1, (q, q))
        num[0] = 0
        num[1, 1] = den  # delta = 1, sigma 0
        counts = rng.integers(0, 2 * pi_x // (q * q) + 2, (q, q))
        delta = num / den
        sig = np.sqrt(delta * (1.0 - delta) * pi_x)
        with np.errstate(divide="ignore", invalid="ignore"):
            old = np.where(sig > 0, (counts - delta * pi_x) / np.where(sig > 0, sig, 1.0), 0.0)
        sigmas, dev = _deviation_table(counts, delta, pi_x)
        assert sigmas.dtype == old.dtype and sigmas.tobytes() == old.tobytes()
        assert dev == float(np.max(np.abs(old))) > 0


def test_scan_pi_F_parity_reduction_mod_two():
    params = LiftParams(10, 2)
    pp = PrimePower(2, 1)
    res = scan_pi_F(params, pp, 10 ** 4)
    series = eigenform_coeffs(18, 10 ** 4, pp)
    ps = primes_in(3, 10 ** 4)
    evens = int(np.sum(series.coeffs[ps] == 0))
    assert res.counts == evens


def test_exceptional_congruence_flag():
    res = scan_pi_f(12, PrimePower(691, 1), 10 ** 4)
    assert res.exceptional
    assert res.deviation_sigmas >= 10
    # every prime lands in the Ramanujan congruence cell v = 1 + u^11
    q = 691
    for u in range(1, q):
        if u % q == 0:
            continue
        row = res.counts[u]
        v = (1 + pow(u, 11, q)) % q
        assert row.sum() == row[v]


def test_scan_guards():
    with pytest.raises(CapacityError):
        scan_pi_f(12, PrimePower(101, 2), 10 ** 4)
    with pytest.raises(ValueError):
        scan_pi_f(12, PrimePower(5, 1), 50)


def test_grh_scale_reported():
    res = scan_pi_f(12, PrimePower(5, 1), 10 ** 4)
    assert res.grh_scale == pytest.approx(grh_error_scale(PrimePower(5, 1), 10 ** 4))
