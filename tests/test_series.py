import math
import tracemalloc
import zlib

import numpy as np
import pytest

from heckedens import primes, series
from heckedens.errors import CapacityError
from heckedens.modring import PrimePower
from heckedens.series import (
    _CACHE_HEADER,
    CACHE_ALGO_VERSION,
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
                assert plan.error_bound == _rounding_bound(X, plan.n, plan.limbs, digit, plan.blocks) < 0.5
                if plan.limbs > 1:
                    # one limb fewer would not be proven exact
                    fewer = plan.limbs - 1
                    wide = -(-(q // 2).bit_length() // fewer)
                    assert _rounding_bound(X, plan.n, fewer, min((1 << wide) - 1, q // 2), plan.blocks) >= 0.5


def test_norm_plan_keeps_the_worst_case_limbs_for_worst_case_inputs():
    # all q // 2 has the worst-case norms, so one limb stays unproven; the
    # worst case takes two limbs from X = 5864 (q = 100003), 3673 (q = 2^17 - 1)
    # and 92 (q = 2^20 - 3)
    for q, X in ((100003, 5864), (100003, 10 ** 4), (2 ** 17 - 1, 3673), (2 ** 20 - 3, 92), (2 ** 20 - 3, 3000)):
        plan = _plan_product(X, q)
        assert plan.limbs > 1
        worst = series._centre(np.full(X + 1, q // 2), q)
        assert series._plan_from_norms(plan, worst, worst, q) == plan


@pytest.mark.parametrize("square", [True, False])
def test_norm_plan_runs_random_residues_with_one_limb(monkeypatch, square):
    # random residues mod 100003 at X = 10^4: the worst case needs two limbs
    # (one limb bounds at 0.91), the inputs' norms prove one (about 0.30)
    pp = PrimePower(100003, 1)
    q, X = pp.q, 10 ** 4
    rng = np.random.default_rng(100003)
    a = new_series(pp, rng.integers(0, q, X + 1))
    b = a if square else new_series(pp, rng.integers(0, q, X + 1))
    worst = _plan_product(X, q)
    assert worst.limbs == 2 and 0.9 < _rounding_bound(X, worst.n, 1, q // 2, 1) < 0.92
    ca, cb = series._centre(a.coeffs, q), series._centre(b.coeffs, q)
    plan = series._plan_from_norms(worst, ca, ca if square else cb, q)
    assert (plan.n, plan.blocks, plan.limbs, plan.limb_bits) == (worst.n, 1, 1, (q // 2).bit_length())
    assert 0.25 < plan.error_bound < 0.35
    inverses = []
    irfft = np.fft.irfft

    def recording(*args, **kwargs):
        out = irfft(*args, **kwargs)
        inverses.append((args[1], float(np.abs(out - np.rint(out)).max())))
        return out

    monkeypatch.setattr(np.fft, "irfft", recording)
    assert np.array_equal(series_mul(a, b).coeffs, series_mul_naive(a, b).coeffs)
    # one limb: one inverse transform, not three, within the norm bound
    assert len(inverses) == 1 and inverses[0][0] == worst.n and 0 < inverses[0][1] < plan.error_bound


def test_norm_plan_bounds_every_block_sum():
    # at X = 10^6 a sum of up to K = 16 block products adds 16 roundings:
    # the one-limb bound (|a||b| + 1) growth(n, 16) of c residues q // 2
    # first reaches 1/2 at c = least, where the worst-case plan stands
    q, X = 100003, 10 ** 6
    worst = _plan_product(X, q)
    assert worst.blocks == 16 and worst.limbs > 1
    unit = (q // 2) ** 2
    least = math.ceil((0.5 / series._growth(worst.n, 16) - 1) / unit)
    assert (least * unit + 1) * series._growth(worst.n, 1) < 0.5  # one rounding would not suffice
    for c, limbs in ((least - 1, 1), (least, worst.limbs)):
        v = np.zeros(X + 1, dtype=np.int64)
        v[:c] = q // 2
        assert series._plan_from_norms(worst, v, v, q).limbs == limbs, c


def test_value_at_matches_horner_at_every_piece_boundary():
    # one, two, three and four 18-bit pieces, at and beside each boundary,
    # with the extreme magnitudes, at lengths at and beside the block and
    # group boundaries, over more blocks than one group
    r, _ = series._check_point()
    P = series._CHECK_P
    block, span = series._CHECK_BLOCK, series._CHECK_BLOCK * series._CHECK_GROUP
    lengths = sorted({1, 2 * block + 5} | {x + d for x in (block, span, 2 * span + block) for d in (-1, 0, 1)})
    rng = np.random.default_rng(8)
    for bits in (1, 2, 17, 18, 19, 35, 36, 37, 53, 54, 55, 62):
        hi = (1 << bits) - 1
        v = rng.integers(-hi, hi, lengths[-1], endpoint=True)
        v[[n - 1 for n in lengths]] = -hi  # the top coefficient of every longer prefix
        v[:4] = (hi, -hi, 0, -1)
        # sum v_i r^i over each prefix, accumulated upwards
        want, acc, power = {}, 0, 1
        for i, x in enumerate(v.tolist(), 1):
            acc = (acc + x * power) % P
            power = power * r % P
            want[i] = acc
        for n in lengths:
            assert series._value_at(v[:n], bits) == want[n], (bits, n)


@pytest.mark.parametrize("ell, m, square", [(11, 1, True), (3, 7, False)])
def test_blocked_product_memory_is_spectra_and_block_buffers(ell, m, square):
    # at X = 10^6, 16 blocks of 2^16: the traced peak stays below the held
    # spectra, the output's X + 1 residues in the stored dtype and eight
    # buffers of a block spectrum's size; the inputs are centred by blocks
    pp = PrimePower(ell, m)
    X = 10 ** 6
    rng = np.random.default_rng(X)
    a = new_series(pp, rng.integers(0, pp.q, X + 1))
    b = a if square else new_series(pp, rng.integers(0, pp.q, X + 1))
    plan = _plan_product(X, pp.q, square)
    assert (plan.block, plan.blocks, plan.limbs) == (1 << 16, 16, 1)
    held = (1 if square else 2) * plan.blocks * plan.limbs * (plan.block + 1) * 16
    tracemalloc.start()
    try:
        series_mul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < held + (X + 1) * series._stored_dtype(pp.q).itemsize + 8 * (plan.n // 2 + 1) * 16


def test_delta_holds_one_array_beside_its_square():
    # Delta mod 11 at X = 10^6: eta^6, eta^12 and eta^24 replace each other,
    # so the traced peak stays below one square's planned bytes (which count
    # its output) and two stored arrays of X + 1
    pp = PrimePower(11, 1)
    X = 10 ** 6
    plan = _plan_product(X, pp.q, square=True)
    assert (plan.blocks, plan.limbs) == (16, 1)
    stored = (X + 1) * series._stored_dtype(pp.q).itemsize
    planned = (plan.blocks + 7) * (plan.n // 2 + 1) * 16 + stored
    tracemalloc.start()
    try:
        delta = series._delta(X, pp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert delta.coeffs.dtype == np.uint8 and peak < planned + 2 * stored
    assert delta.coeffs[:6].tolist() == [v % 11 for v in (0, 1, -24, 252, -1472, 4830)]


@pytest.mark.parametrize("X", [(1 << 15) - 1, (1 << 15) + 1, 40000, 250000])
@pytest.mark.parametrize("ell, m", [(11, 1), (3, 7)])
def test_blocked_builds_match_one_block_builds(tmp_path, monkeypatch, ell, m, X):
    # every weight, built in blocks and on one transform of the least power
    # of two >= 2X: the same residues
    pp = PrimePower(ell, m)
    blocked = {w: eigenform_coeffs(w, X, pp, cache_dir=str(tmp_path / "blocked")).coeffs for w in SUPPORTED_WEIGHTS}
    assert series._layout(X)[2] == {(1 << 15) - 1: 1, (1 << 15) + 1: 2, 40000: 2, 250000: 8}[X]
    monkeypatch.setattr(series, "_BLOCK_MIN", 1 << 62)
    for w in SUPPORTED_WEIGHTS:
        one = eigenform_coeffs(w, X, pp, cache_dir=str(tmp_path / "one")).coeffs
        assert one.tobytes() == blocked[w].tobytes(), w
        # and the stored entries, written in the stored dtype, byte for byte
        name = f"eigenform_w{w}_l{ell}_m{m}.bin"
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "blocked" / name).read_bytes(), w


def test_random_evaluation_catches_a_wrong_coefficient(monkeypatch):
    # one block on a transform of length 1024, then blocks of 2^6: five
    # output blocks of one limb sum each, on transforms of length 128
    pp = PrimePower(3, 7)
    rng = np.random.default_rng(5)
    X = 300
    a = new_series(pp, rng.integers(0, pp.q, X + 1))
    b = new_series(pp, rng.integers(0, pp.q, X + 1))
    irfft, value_at = np.fft.irfft, series._value_at
    for block, layout in ((series._BLOCK_MIN, (1024, 1)), (1 << 6, (128, 5))):
        monkeypatch.setattr(series, "_BLOCK_MIN", block)
        monkeypatch.setattr(series, "_value_at", value_at)
        plan = _plan_product(X, pp.q)
        assert (plan.n, plan.blocks) == layout
        # inside the block, in the high half carried into the next block
        # (with one block, the discarded tail) and at the last entry, of
        # every block sum
        for index in (5, plan.n // 2 + 5, -1):
            for target in range(plan.blocks):
                calls = []

                def perturbed(*args, **kwargs):
                    out = irfft(*args, **kwargs)
                    if len(calls) == target:
                        out[index] += 1.0
                    calls.append(index)
                    return out

                monkeypatch.setattr(np.fft, "irfft", perturbed)
                with pytest.raises(ArithmeticError):
                    series_mul(a, b)
                calls.clear()
                with pytest.raises(ArithmeticError):
                    series_mul(a, a)
        monkeypatch.setattr(np.fft, "irfft", irfft)
        assert np.array_equal(series_mul(a, b).coeffs, series_mul_naive(a, b).coeffs)
        # an error that vanishes mod P escapes the evaluation, here stubbed
        # to 0; the exact bound on each |c_(t,s)| still catches it
        monkeypatch.setattr(series, "_value_at", lambda v, bits: 0)
        series_mul(a, b)
        for index in (5, plan.n // 2 + 5):

            def huge(*args, **kwargs):
                out = irfft(*args, **kwargs)
                out[index] += 2.0 ** 55
                return out

            monkeypatch.setattr(np.fft, "irfft", huge)
            with pytest.raises(ArithmeticError):
                series_mul(a, b)
        monkeypatch.setattr(np.fft, "irfft", irfft)


def test_plan_at_dense_limit(monkeypatch):
    # the planner sizes the blocked layout and its buffers before any transform runs
    from heckedens import series

    def no_transform(*args, **kwargs):
        raise AssertionError("the planner ran a transform")

    monkeypatch.setattr(np.fft, "rfft", no_transform)
    monkeypatch.setattr(np.fft, "irfft", no_transform)
    # 2^24 + 1 coefficients take 9 blocks of 2^21, the last one of length 1
    plan = _plan_product(1 << 24, 23)
    assert (plan.n, plan.block, plan.blocks, plan.limbs) == (1 << 22, 1 << 21, 9, 1) and plan.error_bound < 0.5
    assert _plan_product(1 << 23, 2 ** 31 - 1).limbs == 4
    # 6 * 10^7 + 1 coefficients take 15 blocks of 2^22: a square holds one
    # input's spectra, a general product both (2.31 GiB of spectra and block
    # buffers and 0.06 GiB of uint8 output), and both fit the budget
    for square in (True, False):
        plan = _plan_product(6 * 10 ** 7, 11, square)
        assert (plan.n, plan.block, plan.blocks, plan.limbs) == (1 << 23, 1 << 22, 15, 1) and plan.error_bound < 0.5
    # Delta's square at X = 10^8 fits: 12 blocks of 2^23, 2.38 GiB of
    # spectra and block buffers and 0.09 GiB of uint8 output
    plan = _plan_product(10 ** 8, 11, square=True)
    assert (plan.n, plan.block, plan.blocks, plan.limbs) == (1 << 24, 1 << 23, 12, 1) and plan.error_bound < 0.5
    # a general product at X = 10^8 exceeds the budget (3.9 GiB of spectra
    # and block buffers), and so does the widest modulus at X = 2^25, which
    # needs five limbs
    refused = ((10 ** 8, 11, False), (1 << 25, 2 ** 31 - 1, False))
    for X, q, square in refused:
        with pytest.raises(CapacityError, match=f"limit is {series.DENSE_MAX_BYTES / 2 ** 30:.1f} GiB"):
            _plan_product(X, q, square)


def test_block_layout_rule():
    # one block while X + 1 <= 2^15, on the least power of two >= 2X; above,
    # blocks of 2^15 doubled until there are at most 16
    _layout = series._layout
    assert _layout(2) == (4, 3, 1)
    assert _layout(1 << 14) == (1 << 15, (1 << 14) + 1, 1)
    assert _layout((1 << 15) - 1) == (1 << 16, 1 << 15, 1)
    assert _layout(1 << 15) == (1 << 16, 1 << 15, 2)
    assert _layout(250000) == (1 << 16, 1 << 15, 8)
    assert _layout(16 * (1 << 15) - 1) == (1 << 16, 1 << 15, 16)
    assert _layout(16 * (1 << 15)) == (1 << 17, 1 << 16, 9)
    assert _layout(10 ** 6) == (1 << 17, 1 << 16, 16)
    assert _layout(10 ** 7) == (1 << 21, 1 << 20, 10)
    assert _layout(10 ** 8) == (1 << 24, 1 << 23, 12)


def _forced_limbs(monkeypatch, limbs):
    """Plan every product with `limbs` limbs; more limbs than the worst
    case needs keep its proven bound below 1/2."""
    plan_product = series._plan_product

    def plan(X, q, square=False):
        worst = plan_product(X, q, square)
        L = -(-(q // 2).bit_length() // limbs)
        bound = _rounding_bound(X, worst.n, limbs, min((1 << L) - 1, q // 2), worst.blocks)
        assert limbs >= worst.limbs and bound < 0.5
        return worst._replace(limbs=limbs, limb_bits=L, error_bound=bound)

    monkeypatch.setattr(series, "_plan_product", plan)


@pytest.mark.parametrize("limbs", [None, 4])
@pytest.mark.parametrize(
    "ell, m, inputs",
    [
        (3, 7, "random"),  # one limb
        (100003, 1, "half"),  # one limb; two at X = 7680, in 16 blocks of 512
        (2 ** 31 - 1, 1, "random"),  # two limbs
        (2 ** 31 - 1, 1, "half"),
    ],
)
def test_blocked_product_matches_naive(monkeypatch, ell, m, inputs, limbs):
    # blocks of 2^6: X + 1 at B - 1 and B (one block), B + 1 (a last block of
    # one coefficient), 2B and 3B + 1, square and general products
    B = 1 << 6
    monkeypatch.setattr(series, "_BLOCK_MIN", B)
    if limbs:
        _forced_limbs(monkeypatch, limbs)
    pp = PrimePower(ell, m)
    q = pp.q
    rng = np.random.default_rng(q)
    sizes = [B - 1, B, B + 1, 2 * B, 3 * B + 1] + ([7681] if q == 100003 else [])
    for size in sizes:
        X = size - 1
        plan = series._plan_product(X, q)
        assert plan.blocks == (1 if size <= B else -(-size // plan.block))
        if limbs:
            assert plan.limbs == limbs
        elif q == 100003:
            assert plan.limbs == (2 if X == 7680 else 1)
        draw = (lambda: rng.integers(0, q, size)) if inputs == "random" else (lambda: np.full(size, q // 2))
        a, b = new_series(pp, draw()), new_series(pp, draw())
        assert np.array_equal(series_mul(a, b).coeffs, series_mul_naive(a, b).coeffs), (size, plan)
        assert np.array_equal(series_mul(a, a).coeffs, series_mul_naive(a, a).coeffs), (size, plan)


def test_centre_and_naive_product_widen_narrow_inputs():
    # numpy's arithmetic on uint8 wraps, and uint64 less int64 is float64:
    # both widen to int64 first
    q = 251
    for dtype in (np.uint8, np.uint64):
        v = np.array([0, 1, q // 2, q // 2 + 1, q - 1], dtype=dtype)
        centred = series._centre(v, q)
        assert centred.dtype == np.int64 and centred.tolist() == [0, 1, 125, -125, -1], dtype
    X = 300
    a = np.full(X + 1, q - 1, dtype=np.uint8)
    b = np.full(X + 1, q // 2, dtype=np.uint8)
    for x, y, value in ((a, a, (q - 1) ** 2), (a, b, (q - 1) * (q // 2))):
        got = series._naive_convolve_mod(x, y, q, X)
        # coefficient i sums i + 1 equal products
        assert got.dtype == np.int64 and got.tolist() == [(i + 1) * value % q for i in range(X + 1)]


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.int64])
@pytest.mark.parametrize("block", [None, 1 << 6])
@pytest.mark.parametrize("limbs", [None, 4])
def test_stored_dtype_inputs_match_naive(monkeypatch, dtype, block, limbs):
    # residues of every stored dtype, and int64, at the values most prone to
    # wrap (all q - 1, all q // 2) and at random; one block (X + 1 = 201) and
    # K = 4 blocks of 2^6, the last partial; the planned limbs (one, or two
    # for q = 2^31 - 1) and four limbs with the norm plan held off
    if block:
        monkeypatch.setattr(series, "_BLOCK_MIN", block)
    if limbs:
        _forced_limbs(monkeypatch, limbs)
        monkeypatch.setattr(series, "_plan_from_norms", lambda plan, a, b, q: plan)
    X = 200
    rng = np.random.default_rng(X)
    for q in (251, 3 ** 7, 100003, 2 ** 31 - 1):
        if q - 1 > np.iinfo(dtype).max:
            continue
        plan = series._plan_product(X, q)
        assert plan.blocks == (4 if block else 1) and plan.limbs == (limbs or (2 if q == 2 ** 31 - 1 else 1))
        for draw in (lambda: rng.integers(0, q, X + 1), lambda: np.full(X + 1, q - 1), lambda: np.full(X + 1, q // 2)):
            a, b = draw().astype(dtype), draw().astype(dtype)
            for x, y in ((a, b), (a, a)):
                got = series._fft_convolve_mod(x, y, q, X)
                want = series._naive_convolve_mod(x.astype(np.int64), y.astype(np.int64), q, X)
                assert got.dtype == series._stored_dtype(q) and np.array_equal(got, want), (q, x[:2], y is x)


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


def test_cold_build_refused_before_any_step(tmp_path, monkeypatch):
    # a miss plans its last product first: no sieve, no sparse square and
    # no file before the refusal
    def unexpected(*args, **kwargs):
        raise AssertionError("build step ran before the refusal")

    monkeypatch.setattr(series.kernels, "sigma_pow_sieve", unexpected)
    monkeypatch.setattr(series.kernels, "sparse_square", unexpected)
    cases = (
        (18, 10 ** 8, PrimePower(11, 1)),  # Delta * E6: a general product at 10^8
        (12, 2 ** 28, PrimePower(11, 1)),  # Delta's square at 2^28
        (18, NAIVE_MAX_X + 1, PrimePower(3, 30)),  # q >= 2^31 past the naive range
    )
    for w, X, pp in cases:
        with pytest.raises(CapacityError):
            eigenform_coeffs(w, X, pp, str(tmp_path))
    assert list(tmp_path.iterdir()) == []


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


def _fail(*args, **kwargs):
    raise AssertionError("a cache hit ran a build")


def _entry(path):
    """The header fields and the residue bytes of a cache file."""
    data = path.read_bytes()
    return list(_CACHE_HEADER.unpack_from(data)), bytearray(data[_CACHE_HEADER.size :])


def _store(path, fields, payload):
    path.write_bytes(_CACHE_HEADER.pack(*fields) + bytes(payload))


def test_disk_cache_roundtrip(tmp_path, monkeypatch):
    pp = PrimePower(23, 1)
    cdir = str(tmp_path / "cache")
    first = eigenform_coeffs(12, 500, pp, cache_dir=cdir)
    files = list((tmp_path / "cache").iterdir())
    assert [f.name for f in files] == ["eigenform_w12_l23_m1.bin"]
    fields, payload = _entry(files[0])
    assert fields[:8] == [b"HECKEDNS", 1, CACHE_ALGO_VERSION, 12, 23, 1, 500, b"|u1\0"]
    assert fields[8] == zlib.crc32(payload) and len(payload) == 501
    good = files[0].read_bytes()
    with monkeypatch.context() as patch:
        patch.setattr(series, "_delta", _fail)
        second = eigenform_coeffs(12, 500, pp, cache_dir=cdir)
    assert second.coeffs.dtype == np.int64 and np.array_equal(first.coeffs, second.coeffs)
    # corrupted cache is ignored, not trusted, and rewritten
    files[0].write_bytes(good[: _CACHE_HEADER.size] + b"1 2 junk\n")
    third = eigenform_coeffs(12, 500, pp, cache_dir=cdir)
    assert np.array_equal(first.coeffs, third.coeffs) and files[0].read_bytes() == good
    # so are residues outside [0, q), even under a matching checksum:
    # a(2) = 23 and a(3) = 255 mod 23
    for bad in ({2: 23}, {3: 255}, {2: 23, 3: 255}):
        fields, payload = _entry(files[0])
        for i, v in bad.items():
            payload[i] = v
        fields[8] = zlib.crc32(payload)
        _store(files[0], fields, payload)
        again = eigenform_coeffs(12, 500, pp, cache_dir=cdir)
        assert np.array_equal(first.coeffs, again.coeffs) and files[0].read_bytes() == good


def _flip_residue(fields, payload):
    payload[7] ^= 1


def _wrong_format(fields, payload):
    fields[1] += 1


def _wrong_algo(fields, payload):
    fields[2] += 1


def _residue_too_large(fields, payload):
    payload[5] = 23
    fields[8] = zlib.crc32(payload)


def _truncate(fields, payload):
    del payload[-1]


@pytest.mark.parametrize("corrupt", [_flip_residue, _wrong_format, _wrong_algo, _residue_too_large, _truncate])
def test_corrupt_cache_entry_is_rebuilt(tmp_path, corrupt):
    pp = PrimePower(23, 1)
    truth = eigenform_coeffs(12, 500, pp, cache_dir=str(tmp_path / "fresh")).coeffs
    path = tmp_path / "eigenform_w12_l23_m1.bin"
    eigenform_coeffs(12, 500, pp, cache_dir=str(tmp_path))
    good = path.read_bytes()
    fields, payload = _entry(path)
    corrupt(fields, payload)
    _store(path, fields, payload)
    assert series._cache_read(str(path), series._residue_kind(12, pp)) is None
    out = eigenform_coeffs(12, 500, pp, cache_dir=str(tmp_path))
    assert np.array_equal(out.coeffs, truth) and path.read_bytes() == good


def test_every_flipped_header_bit_is_a_miss(tmp_path):
    # each field of the header (magic, versions, key, X, dtype, checksum) is
    # checked: one flipped bit anywhere in it makes the entry a miss
    pp = PrimePower(23, 1)
    truth = eigenform_coeffs(12, 300, pp, cache_dir=str(tmp_path / "fresh")).coeffs
    path = tmp_path / "eigenform_w12_l23_m1.bin"
    eigenform_coeffs(12, 300, pp, cache_dir=str(tmp_path))
    good = path.read_bytes()
    for byte in range(_CACHE_HEADER.size):
        for bit in (0, 7):
            data = bytearray(good)
            data[byte] ^= 1 << bit
            path.write_bytes(data)
            assert series._cache_read(str(path), series._residue_kind(12, pp)) is None, (byte, bit)
            out = eigenform_coeffs(12, 300, pp, cache_dir=str(tmp_path))
            assert np.array_equal(out.coeffs, truth) and path.read_bytes() == good


def test_truncated_and_bumped_entries_are_misses(tmp_path, monkeypatch):
    pp = PrimePower(7, 3)  # two bytes per residue
    path = tmp_path / "eigenform_w12_l7_m3.bin"
    truth = eigenform_coeffs(12, 400, pp, cache_dir=str(tmp_path)).coeffs
    good = path.read_bytes()
    for cut in (0, 10, _CACHE_HEADER.size, _CACHE_HEADER.size + 1, len(good) - 2, len(good) - 1):
        path.write_bytes(good[:cut])
        assert series._cache_read(str(path), series._residue_kind(12, pp)) is None, cut
    # an entry longer than its header says is refused as well
    path.write_bytes(good + b"\0\0")
    assert series._cache_read(str(path), series._residue_kind(12, pp)) is None
    # a build-code change bumps CACHE_ALGO_VERSION; older entries then miss
    path.write_bytes(good)
    monkeypatch.setattr(series, "CACHE_ALGO_VERSION", CACHE_ALGO_VERSION + 1)
    assert series._cache_read(str(path), series._residue_kind(12, pp)) is None
    out = eigenform_coeffs(12, 400, pp, cache_dir=str(tmp_path))
    assert np.array_equal(out.coeffs, truth)
    assert _entry(path)[0][2] == CACHE_ALGO_VERSION + 1


def test_stale_text_cache_is_ignored(tmp_path):
    # a file of the retired text format, with wrong residues, is never read
    pp = PrimePower(23, 1)
    truth = eigenform_coeffs(12, 500, pp, cache_dir=str(tmp_path / "fresh")).coeffs
    stale = tmp_path / "hdf1_w12_l23_m1_X500.txt"
    stale.write_text("HDF1 weight=12 ell=23 m=1 X=500\n" + "1\n" * 501)
    out = eigenform_coeffs(12, 500, pp, cache_dir=str(tmp_path))
    assert np.array_equal(out.coeffs, truth)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["eigenform_w12_l23_m1.bin", "fresh", stale.name]


def test_cache_serves_prefix_and_keeps_the_largest(tmp_path, monkeypatch):
    pp = PrimePower(3, 7)
    cdir = str(tmp_path / "cache")
    path = tmp_path / "cache" / "eigenform_w26_l3_m7.bin"
    eigenform_coeffs(26, 500, pp, cache_dir=cdir)
    # a larger build replaces the smaller entry
    large = eigenform_coeffs(26, 3000, pp, cache_dir=cdir)
    assert _entry(path)[0][6] == 3000
    assert np.array_equal(large.coeffs, eigenform_coeffs(26, 3000, pp, cache_dir=str(tmp_path / "a")).coeffs)
    stored = path.read_bytes()
    # a smaller X is the prefix of the stored entry, with no build
    with monkeypatch.context() as patch:
        patch.setattr(series, "_delta", _fail)
        patch.setattr(series, "series_mul", _fail)
        small = eigenform_coeffs(26, 1000, pp, cache_dir=cdir)
    fresh = eigenform_coeffs(26, 1000, pp, cache_dir=str(tmp_path / "b"))
    assert small.coeffs.dtype == np.int64 and np.array_equal(small.coeffs, fresh.coeffs)
    # and a smaller entry never overwrites a larger one
    series._cache_write(str(path), series._residue_kind(26, pp), 1000, fresh.coeffs)
    assert path.read_bytes() == stored


@pytest.mark.parametrize("weight", [18, 26])
def test_delta_shared_across_weights(tmp_path, monkeypatch, weight):
    pp = PrimePower(3, 7)
    X = 2000
    cold = eigenform_coeffs(weight, X, pp, cache_dir=str(tmp_path / "cold"))
    # a cold build leaves Delta in the weight-12 entry as well
    assert sorted(p.name for p in (tmp_path / "cold").iterdir()) == [
        "eigenform_w12_l3_m7.bin", f"eigenform_w{weight}_l3_m7.bin"]
    exact = eigenform_coeffs(weight, 300, None)
    assert [int(v) for v in cold.coeffs[:301]] == [v % pp.q for v in exact.coeffs]
    # with weight 12 cached at a larger X, weight w costs one product
    warm = str(tmp_path / "warm")
    eigenform_coeffs(12, 3000, pp, cache_dir=warm)
    products = []
    mul = series.series_mul
    monkeypatch.setattr(series, "_delta", _fail)
    monkeypatch.setattr(series, "series_mul", lambda a, b: products.append(a.X) or mul(a, b))
    reused = eigenform_coeffs(weight, X, pp, cache_dir=warm)
    assert products == [X]
    assert np.array_equal(reused.coeffs, cold.coeffs)


@pytest.mark.parametrize("ell, m, stored", [(23, 1, np.uint8), (7, 3, np.uint16)])
def test_cache_hit_residues_stay_as_stored(tmp_path, ell, m, stored):
    pp = PrimePower(ell, m)
    cdir = str(tmp_path)
    # a miss returns the build in the stored dtype, as a hit does
    miss = series._cached_residues(cdir, 12, 300, pp)
    assert miss.dtype == stored and miss.flags.writeable
    hit = series._cached_residues(cdir, 12, 300, pp)
    assert hit.dtype == stored and not hit.flags.writeable and np.array_equal(hit, miss)
    with pytest.raises(ValueError):
        hit[1] = 0
    # the public API widens its own writeable copy; the cache is untouched
    out = eigenform_coeffs(12, 300, pp, cache_dir=cdir).coeffs
    assert out.dtype == np.int64 and out.flags.writeable and np.array_equal(out, miss)
    out[1] += 1
    assert np.array_equal(series._cached_residues(cdir, 12, 300, pp), miss)


def test_prime_table_roundtrip_and_prefix(tmp_path, monkeypatch, python_primes):
    cdir = str(tmp_path)
    path = tmp_path / "primes.bin"
    miss = series._cached_primes(cdir, 5000)
    assert miss.tolist() == python_primes(5000)
    # the table ends at X' = 5003, the least prime >= 5000, under key (0, 0, 0)
    fields, payload = _entry(path)
    assert fields[:8] == [b"HECKEDNS", 1, CACHE_ALGO_VERSION, 0, 0, 0, 5003, b"<u4\0"]
    assert fields[8] == zlib.crc32(payload) and np.frombuffer(payload, "<u4").tolist() == python_primes(5003)
    stored = path.read_bytes()
    # a hit at X' or below, down to x = 670, the table's prime count, is a
    # read-only prefix of the table and runs no sieve
    with monkeypatch.context() as patch:
        patch.setattr(primes, "iter_prime_segments", _fail)
        for x in (5003, 5002, 5000, 4999, 670):
            hit = series._cached_primes(cdir, x)
            assert hit.dtype == np.dtype("<u4") and not hit.flags.writeable, x
            assert hit.tolist() == python_primes(x), x
    # below it, [2, x] is sieved and the table is neither read nor written
    monkeypatch.setattr(series, "_cache_read", _fail)
    monkeypatch.setattr(series, "_cache_write", _fail)
    for x in (669, 101, 100, 2):
        small = series._cached_primes(cdir, x)
        assert small.dtype == np.int64 and small.tolist() == python_primes(x), x
    assert path.read_bytes() == stored


def test_prime_table_grows_and_is_never_replaced_by_a_smaller_one(tmp_path, monkeypatch, python_primes):
    cdir = str(tmp_path / "cache")
    path = tmp_path / "cache" / "primes.bin"
    series._cached_primes(cdir, 3000)
    assert _entry(path)[0][6] == 3001
    # x > X' sieves again and replaces the table
    assert series._cached_primes(cdir, 8000).tolist() == python_primes(8000)
    assert _entry(path)[0][6] == 8009
    stored = path.read_bytes()
    # a smaller table never replaces a valid larger one
    series._cache_write(str(path), series._PRIME_TABLE, 3001, np.array(python_primes(3001), dtype="<u4"))
    assert path.read_bytes() == stored
    # nor does one sieved while another process wrote a larger table
    # between this process's read and its write
    other = tmp_path / "other"
    series._cached_primes(str(other), 3000)
    sieve = series.primes_in

    def racing(lo, hi):
        out = sieve(lo, hi)
        series._cache_write(str(other / "primes.bin"), series._PRIME_TABLE, 20011, sieve(2, 20011))
        return out

    monkeypatch.setattr(series, "primes_in", racing)
    assert series._cached_primes(str(other), 10000).tolist() == python_primes(10000)
    assert _entry(other / "primes.bin")[0][6] == 20011
    monkeypatch.setattr(series, "primes_in", _fail)
    assert series._cached_primes(str(other), 20011).tolist() == python_primes(20011)


def test_every_flipped_prime_table_header_bit_is_a_miss(tmp_path, python_primes):
    # X' is bound to the table's last prime, so a flipped bit of it is a
    # miss as well, never a table short of the primes below a larger X'
    path = tmp_path / "primes.bin"
    series._cached_primes(str(tmp_path), 1000)
    good = path.read_bytes()
    for byte in range(_CACHE_HEADER.size):
        for bit in (0, 7):
            data = bytearray(good)
            data[byte] ^= 1 << bit
            path.write_bytes(data)
            assert series._cache_read(str(path), series._PRIME_TABLE) is None, (byte, bit)
            assert series._cached_primes(str(tmp_path), 1000).tolist() == python_primes(1000)
            assert path.read_bytes() == good


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("HECKE_CACHE_DIR", str(tmp_path / "envcache"))
    eigenform_coeffs(16, 300, PrimePower(5, 1))
    assert sorted(p.name for p in (tmp_path / "envcache").iterdir()) == [
        "eigenform_w12_l5_m1.bin", "eigenform_w16_l5_m1.bin"]


@pytest.mark.parametrize("ell, m", [(3, 7), (2, 40)])
def test_new_series_array_and_list_paths_agree(ell, m):
    # integer arrays reduce in int64, lists and Python ints one by one
    pp = PrimePower(ell, m)
    q = pp.q
    big, small = np.iinfo(np.int64), np.iinfo(np.int32)
    cases = [
        np.array([0, 1, -1, q - 1, q, q + 1, -q, -q - 1, 3 * q + 5, -7 * q + 2, big.max, big.min, big.min + 1]),
        np.array([small.min, small.max, -5, 12345], dtype=np.int32),
        np.array([0, 255, 7], dtype=np.uint8),
        # uint64 above 2^63 would wrap through int64, so it takes the exact path
        np.array([2 ** 64 - 1, 2 ** 63, 5], dtype=np.uint64),
    ]
    for values in cases:
        want = [int(v) % q for v in values.tolist()]
        for data in (values, values.tolist()):
            got = new_series(pp, data).coeffs
            assert got.dtype == np.int64 and got.tolist() == want
        padded = new_series(pp, values, X=len(values) + 2).coeffs.tolist()
        assert padded == want + [0, 0, 0]
        assert new_series(pp, values, X=1).coeffs.tolist() == want[:2]
