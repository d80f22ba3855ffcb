import math

import numpy as np
import pytest

from heckedens.errors import CapacityError
from heckedens.modring import PrimePower
from heckedens.series import (
    SUPPORTED_WEIGHTS,
    EXACT_MAX_X,
    NAIVE_MAX_X,
    _plan_product,
    _rounding_bound,
    eigenform_coeffs,
    eisenstein,
    eta_cubed_exponents,
    new_series,
    series_mul,
    series_mul_naive,
)


def _eta24_shifted_oracle(X):
    """q * prod_{n<=X}(1 - q^n)^24 by repeated polynomial multiplication."""
    poly = [1] + [0] * X
    for n in range(1, X + 1):
        for _ in range(24):
            nxt = poly[:]
            for i in range(X + 1 - n):
                nxt[i + n] -= poly[i]
            poly = nxt
    return [0] + poly[:X]


def test_eta_cubed_examples():
    exps, coefs = eta_cubed_exponents(10)
    assert exps.tolist() == [0, 1, 3, 6, 10]
    assert coefs.tolist() == [1, -3, 5, -7, 9]
    assert 2 not in exps.tolist()


def test_eta_cubed_term_count():
    exps, _ = eta_cubed_exponents(10 ** 6)
    largest_k = max(k for k in range(2000) if k * (k + 1) // 2 <= 10 ** 6)
    assert largest_k == 1413
    # terms run k = 0..largest_k, one per triangular number
    assert len(exps) == largest_k + 1
    assert exps[-1] == largest_k * (largest_k + 1) // 2


def test_eta_cubed_matches_product_expansion():
    X = 60
    poly = [1] + [0] * X
    for n in range(1, X + 1):
        for _ in range(3):
            nxt = poly[:]
            for i in range(X + 1 - n):
                nxt[i + n] -= poly[i]
            poly = nxt
    exps, coefs = eta_cubed_exponents(X)
    dense = [0] * (X + 1)
    for e, c in zip(exps, coefs):
        dense[e] = c
    assert dense == poly


def test_series_mul_trivial():
    pp = PrimePower(5, 1)
    a = new_series(pp, [1, 1, 0, 0])
    b = new_series(pp, [1, 4, 0, 0])
    assert series_mul(a, b).coeffs.tolist() == [1, 0, 4, 0]


def test_series_mul_errors():
    pp = PrimePower(5, 1)
    a = new_series(pp, [1, 2, 3])
    b = new_series(PrimePower(7, 1), [1, 2, 3])
    with pytest.raises(ValueError):
        series_mul(a, b)
    with pytest.raises(ValueError):
        series_mul(a, new_series(pp, [1, 2]))


@pytest.mark.parametrize("ell,m", [(2, 1), (2, 5), (5, 1), (3, 7), (691, 1), (10007, 1)])
def test_fast_matches_naive(ell, m):
    pp = PrimePower(ell, m)
    rng = np.random.default_rng(ell * m)
    X = 2000
    a = new_series(pp, rng.integers(0, pp.q, X + 1))
    b = new_series(pp, rng.integers(0, pp.q, X + 1))
    fast = series_mul(a, b)
    ref = series_mul_naive(a, b)
    assert np.array_equal(fast.coeffs, ref.coeffs)


def test_multi_limb_recombination():
    # q = 2^31 - 1 needs three signed limbs at X = 7000: five anti-diagonal
    # convolutions recombined with powers of 2^L mod q
    pp = PrimePower(2 ** 31 - 1, 1)
    rng = np.random.default_rng(31)
    X = 7000
    assert _plan_product(X, pp.q).limbs == 3
    a = new_series(pp, rng.integers(0, pp.q, X + 1))
    b = new_series(pp, rng.integers(0, pp.q, X + 1))
    assert np.array_equal(series_mul(a, b).coeffs, series_mul_naive(a, b).coeffs)
    assert np.array_equal(series_mul(a, a).coeffs, series_mul_naive(a, a).coeffs)


def test_square_path_matches_general():
    pp = PrimePower(3, 7)
    rng = np.random.default_rng(42)
    a = new_series(pp, rng.integers(0, pp.q, 1025))
    b = new_series(pp, a.coeffs.copy())
    assert np.array_equal(series_mul(a, a).coeffs, series_mul(a, b).coeffs)


def test_power_of_two_length_wraparound():
    # product degree 2X equal to the transform length exercises the top edge
    pp = PrimePower(97, 1)
    rng = np.random.default_rng(8)
    for X in (1 << 9, (1 << 9) + 1, (1 << 9) - 1):
        a = new_series(pp, rng.integers(0, 97, X + 1))
        b = new_series(pp, rng.integers(0, 97, X + 1))
        assert np.array_equal(series_mul(a, b).coeffs, series_mul_naive(a, b).coeffs)


@pytest.mark.parametrize(
    "ell, m, sizes",
    [
        (97, 1, (1 << 9, 1 << 12)),  # one limb
        (2, 5, (1 << 9, 1 << 12)),  # one limb, even modulus
        (3, 7, (1 << 9, (1 << 12) - 1, 1 << 12, (1 << 12) + 1)),  # one limb, n = 2X and n > 2X
        (2147483629, 1, (1 << 9,)),  # two limbs
    ],
)
def test_wrapped_top_term_is_removed(ell, m, sizes):
    # at X = 2^k the transform has length 2X and a[X]*b[X] wraps onto index 0;
    # q - 1 is the largest residue and q // 2 the largest signed limb
    pp = PrimePower(ell, m)
    q = pp.q
    rng = np.random.default_rng(q)
    for X in sizes:
        n = _plan_product(X, q).n
        assert n // 2 < 2 * X <= n
        for top in (q - 1, q // 2):
            ca = rng.integers(0, q, X + 1)
            cb = rng.integers(0, q, X + 1)
            ca[X] = cb[X] = top
            a, b = new_series(pp, ca), new_series(pp, cb)
            assert np.array_equal(series_mul(a, b).coeffs, series_mul_naive(a, b).coeffs)
            assert np.array_equal(series_mul(a, a).coeffs, series_mul_naive(a, a).coeffs)


def _limb_changes(q, top):
    """Every X < top with a different limb count at X + 1."""
    out = []
    lo = 1
    while lo < top:
        hi = min(2 * lo, top)
        if _plan_product(lo, q).limbs != _plan_product(hi, q).limbs:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if _plan_product(mid, q).limbs == _plan_product(lo, q).limbs:
                    lo = mid
                else:
                    hi = mid
            out.append(lo)
        lo = hi
    return out


@pytest.mark.parametrize("ell, m", [(2 ** 31 - 1, 1), (3, 7), (2, 5)])
def test_largest_coefficients_match_naive(ell, m):
    # every coefficient q - 1 (the largest residue) or q // 2 (the largest
    # signed limb) gives the largest convolution values and rounding errors;
    # X runs just below and above every limb-count change the naive oracle
    # reaches, and each doubling of the transform length near NAIVE_MAX_X
    pp = PrimePower(ell, m)
    q = pp.q
    changes = _limb_changes(q, NAIVE_MAX_X)
    if q == 2 ** 31 - 1:
        assert changes == [6805]  # two limbs up to X = 6805, three from 6806
    sizes = sorted({x + d for x in changes for d in (0, 1)} | {1 << 12, (1 << 12) + 1, NAIVE_MAX_X})
    for X in sizes:
        for v in (q - 1, q // 2):
            a = new_series(pp, np.full(X + 1, v))
            b = new_series(pp, np.full(X + 1, v))
            want = series_mul_naive(a, b).coeffs
            assert np.array_equal(series_mul(a, b).coeffs, want), (X, v)
            assert np.array_equal(series_mul(a, a).coeffs, want), (X, v)


def test_observed_rounding_error_within_bound(monkeypatch):
    # the rounded inverse transforms stay within the planner's proven bound
    worst = []
    irfft = np.fft.irfft

    def recording(*args, **kwargs):
        out = irfft(*args, **kwargs)
        worst.append(float(np.abs(out - np.rint(out)).max()))
        return out

    monkeypatch.setattr(np.fft, "irfft", recording)
    for ell, m, X in ((2 ** 31 - 1, 1, 6805), (2 ** 31 - 1, 1, 6806), (3, 7, NAIVE_MAX_X)):
        pp = PrimePower(ell, m)
        a = new_series(pp, np.full(X + 1, pp.q // 2))
        worst.clear()
        series_mul(a, a)
        assert 0 < max(worst) < _plan_product(X, pp.q).error_bound < 0.5


def test_planned_bound_below_half_where_admitted():
    # the planner depends on q // 2 only, so q = 2^b - 1 covers every bit length
    for bits in range(2, 32):
        q = (1 << bits) - 1
        for log_x in range(26):
            for X in ((1 << log_x) - 1, 1 << log_x, (1 << log_x) + 1):
                try:
                    plan = _plan_product(X, q)
                except CapacityError:
                    continue
                digit = min((1 << plan.limb_bits) - 1, q // 2)
                assert plan.limbs * plan.limb_bits >= (q // 2).bit_length()
                assert plan.error_bound == _rounding_bound(X, plan.n, plan.limbs, digit) < 0.5
                if plan.limbs > 1:
                    # one limb fewer would not be proven exact
                    fewer = plan.limbs - 1
                    wide = -(-(q // 2).bit_length() // fewer)
                    assert _rounding_bound(X, plan.n, fewer, min((1 << wide) - 1, q // 2)) >= 0.5


def test_random_evaluation_catches_a_wrong_coefficient(monkeypatch):
    pp = PrimePower(3, 7)
    rng = np.random.default_rng(5)
    X = 300
    a = new_series(pp, rng.integers(0, pp.q, X + 1))
    b = new_series(pp, rng.integers(0, pp.q, X + 1))
    irfft = np.fft.irfft
    for index in (5, -1):  # inside the truncated product and in the discarded tail

        def perturbed(*args, **kwargs):
            out = irfft(*args, **kwargs)
            out[index] += 1.0
            return out

        monkeypatch.setattr(np.fft, "irfft", perturbed)
        with pytest.raises(ArithmeticError):
            series_mul(a, b)
        with pytest.raises(ArithmeticError):
            series_mul(a, a)
    monkeypatch.setattr(np.fft, "irfft", irfft)
    assert np.array_equal(series_mul(a, b).coeffs, series_mul_naive(a, b).coeffs)
    # an error that vanishes mod P escapes the evaluation, here stubbed to 0;
    # the exact bound on |c_s| still catches it
    from heckedens import series

    monkeypatch.setattr(series, "_value_at", lambda v: 0)
    series_mul(a, b)

    def huge(*args, **kwargs):
        out = irfft(*args, **kwargs)
        out[5] += 2.0 ** 55
        return out

    monkeypatch.setattr(np.fft, "irfft", huge)
    with pytest.raises(ArithmeticError):
        series_mul(a, b)


def test_plan_at_dense_limit(monkeypatch):
    # the planner sizes the transform buffers before any transform runs
    from heckedens import series

    def no_transform(*args, **kwargs):
        raise AssertionError("the planner ran a transform")

    monkeypatch.setattr(np.fft, "rfft", no_transform)
    monkeypatch.setattr(np.fft, "irfft", no_transform)
    plan = _plan_product(1 << 24, 23)
    assert (plan.n, plan.limbs) == (1 << 25, 1) and plan.error_bound < 0.5
    assert _plan_product(1 << 23, 2 ** 31 - 1).limbs == 4
    # the widest modulus needs four limbs at X = 2^24, and X = 2^25 needs
    # 2^25 complex bins per spectrum: both exceed the budget
    for X, q in ((1 << 24, 2 ** 31 - 1), (1 << 25, 23)):
        with pytest.raises(CapacityError, match=f"limit is {series.DENSE_MAX_BYTES / 2 ** 30:.1f} GiB"):
            _plan_product(X, q)


def test_eisenstein_values():
    e4 = eisenstein(4, 2, None)
    assert e4.coeffs == [1, 240, 2160]
    pp = PrimePower(691, 1)
    e6 = eisenstein(6, 2, pp)
    assert e6[1] == -504 % 691
    e4m = eisenstein(4, 2, pp)
    assert e4m.coeffs.tolist() == [1, 240, 2160 % 691]


def test_eisenstein_products_match_direct_series():
    # M_8, M_10 and M_14 are one-dimensional, so E8 = E4^2, E10 = E4*E6 and
    # E14 = E4^2*E6: the E4/E6 products are the oracle for the direct series
    X = 300
    e4 = eisenstein(4, X, None)
    e6 = eisenstein(6, X, None)
    e4sq = series_mul_naive(e4, e4)
    assert eisenstein(8, X, None).coeffs == e4sq.coeffs
    assert eisenstein(10, X, None).coeffs == series_mul_naive(e4, e6).coeffs
    assert eisenstein(14, X, None).coeffs == series_mul_naive(e4sq, e6).coeffs
    with pytest.raises(ValueError):
        eisenstein(12, X, None)


def test_e4_cubed_minus_e6_squared_is_1728_delta():
    X = 50
    e4 = eisenstein(4, X, None)
    e6 = eisenstein(6, X, None)
    e4cubed = series_mul_naive(series_mul_naive(e4, e4), e4)
    e6sq = series_mul_naive(e6, e6)
    delta = eigenform_coeffs(12, X, None)
    lhs = [a - b for a, b in zip(e4cubed.coeffs, e6sq.coeffs)]
    assert lhs == [1728 * d for d in delta.coeffs]
    # the same identity survives reduction mod the test prime 10^6 + 3
    pp = PrimePower(1000003, 1)
    for a, d in zip(lhs, delta.coeffs):
        assert a % pp.q == 1728 * d % pp.q


def test_eigenform_small_values_vs_oracle():
    oracle = _eta24_shifted_oracle(8)
    got = eigenform_coeffs(12, 8, None)
    assert got.coeffs == oracle
    assert (got[2], got[3], got[5]) == (-24, 252, 4830)
    assert got[6] == got[2] * got[3] == -6048
    for w, a2 in {16: 216, 18: -528, 20: 456, 22: -288, 26: -48}.items():
        f = eigenform_coeffs(w, 4, None)
        assert (f[0], f[1], f[2]) == (0, 1, a2)


def test_eigenform_modular_matches_exact():
    X = 300
    exact = {w: eigenform_coeffs(w, X, None) for w in SUPPORTED_WEIGHTS}
    for w in SUPPORTED_WEIGHTS:
        for ell, m in ((2, 3), (23, 1), (3, 2)):
            pp = PrimePower(ell, m)
            mod = eigenform_coeffs(w, X, pp, cache_dir=None)
            assert all(mod[i] == exact[w][i] % pp.q for i in range(X + 1))


def test_eigenform_modular_matches_exact_large_q():
    # q >= 2^31 builds the Eisenstein factors in Python ints; int64 residues
    # near q would overflow when squared
    rng = np.random.default_rng(31)
    for ell, m in ((3, 30), (5, 20), (47, 8), (2, 40)):
        pp = PrimePower(ell, m)
        for w in rng.choice((16, 18, 20, 22, 26), size=2, replace=False).tolist():
            X = int(rng.integers(50, 301))
            mod = eigenform_coeffs(w, X, pp)
            exact = eigenform_coeffs(w, X, None)
            assert [int(v) for v in mod.coeffs] == [v % pp.q for v in exact.coeffs]
    with pytest.raises(CapacityError):
        eisenstein(4, EXACT_MAX_X + 1, PrimePower(3, 30))


def test_eigenform_guards():
    with pytest.raises(ValueError):
        eigenform_coeffs(14, 10, PrimePower(5, 1))
    with pytest.raises(ValueError):
        eigenform_coeffs(12, 1, PrimePower(5, 1))
    with pytest.raises(CapacityError):
        eigenform_coeffs(12, EXACT_MAX_X + 1, None)


def test_hecke_relations_sample():
    X = 3000
    pp = PrimePower(3, 7)
    q = pp.q
    for w in (12, 16, 20, 22, 26):
        a = eigenform_coeffs(w, X, pp, cache_dir=None).coeffs
        for r in range(2, 60):
            for s in range(r + 1, X // r + 1):
                if math.gcd(r, s) == 1:
                    assert a[r * s] == a[r] * a[s] % q
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53):
            if p * p <= X:
                assert a[p * p] == (a[p] * a[p] - pow(p, w - 1, q)) % q


def test_ramanujan_congruence_sample():
    pp = PrimePower(691, 1)
    X = 10 ** 4
    a = eigenform_coeffs(12, X, pp, cache_dir=None).coeffs
    from heckedens.primes import primes_in

    for p in primes_in(2, X):
        p = int(p)
        if p != 691:
            assert a[p] == (1 + pow(p, 11, 691)) % 691


def test_disk_cache_roundtrip(tmp_path):
    pp = PrimePower(23, 1)
    cdir = str(tmp_path / "cache")
    first = eigenform_coeffs(12, 500, pp, cache_dir=cdir)
    files = list((tmp_path / "cache").iterdir())
    assert len(files) == 1
    header = files[0].read_text().splitlines()[0]
    assert header == "HDF1 weight=12 ell=23 m=1 X=500"
    second = eigenform_coeffs(12, 500, pp, cache_dir=cdir)
    assert np.array_equal(first.coeffs, second.coeffs)
    # corrupted cache is ignored, not trusted
    good = files[0].read_text().splitlines()
    files[0].write_text("HDF1 weight=12 ell=23 m=1 X=500\n1 2 junk\n")
    third = eigenform_coeffs(12, 500, pp, cache_dir=cdir)
    assert np.array_equal(first.coeffs, third.coeffs)
    # so are residues outside [0, q): a(2) = -5 and a(3) = 99999 mod 23
    for lines in ({3: "-5"}, {4: "99999"}, {3: "-5", 4: "99999"}):
        bad = [lines.get(i, line) for i, line in enumerate(good)]
        files[0].write_text("\n".join(bad) + "\n")
        again = eigenform_coeffs(12, 500, pp, cache_dir=cdir)
        assert np.array_equal(first.coeffs, again.coeffs)


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("HECKE_CACHE_DIR", str(tmp_path / "envcache"))
    eigenform_coeffs(16, 300, PrimePower(5, 1))
    assert (tmp_path / "envcache" / "hdf1_w16_l5_m1_X300.txt").exists()
