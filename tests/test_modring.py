import math
import random
from fractions import Fraction

import pytest

from heckedens.modring import (
    ExactRational,
    PrimePower,
    factorize,
    is_prime,
    mult_order,
    val_ell,
)


def test_val_ell_examples():
    assert val_ell(12, 2, 10) == 2
    assert val_ell(0, 5, 3) == 3
    assert val_ell(11, 11, 10) == 1


def test_val_ell_factor_property():
    for x in list(range(1, 500)) + [2 ** 40, 3 ** 20 * 7]:
        for ell in (2, 3, 5, 11):
            v = val_ell(x, ell, cap=64)
            assert x % ell ** v == 0
            if v < 64:
                assert (x // ell ** v) % ell != 0


def test_prime_power_validation():
    pp = PrimePower(7, 3)
    assert pp.q == 343 and pp.phi == 294
    with pytest.raises(ValueError):
        PrimePower(9, 1)
    with pytest.raises(ValueError):
        PrimePower(2, 0)
    with pytest.raises(ValueError):
        PrimePower(2, 63)
    # largest allowed power of two
    assert PrimePower(2, 62).q == 1 << 62


def test_mult_order_examples():
    assert mult_order(2, PrimePower(7, 1)) == 3
    assert mult_order(1, PrimePower(7, 2)) == 1
    with pytest.raises(ValueError):
        mult_order(22, PrimePower(11, 1))


def test_order_counts_match_phi():
    # number of units of order exactly 5 mod 11 is phi(5) = 4
    pp = PrimePower(11, 1)
    assert sum(1 for u in range(1, 11) if mult_order(u, pp) == 5) == 4
    # orders partition the unit group
    for pp in (PrimePower(5, 2), PrimePower(3, 3), PrimePower(2, 4)):
        tally = {}
        for u in range(1, pp.q):
            if u % pp.ell:
                r = mult_order(u, pp)
                assert pp.phi % r == 0
                tally[r] = tally.get(r, 0) + 1
        assert sum(tally.values()) == pp.phi


def test_is_prime_vs_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    for n in range(10 ** 4):
        assert is_prime(n) == trial(n)
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 62 - 1)


def test_factorize():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randrange(2, 10 ** 12)
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            assert is_prime(p)
            prod *= p ** e
        assert prod == n


def test_exact_rational_invariants():
    assert ExactRational is Fraction
    rng = random.Random(5)
    vals = [Fraction(rng.randrange(-50, 50), rng.randrange(1, 50)) for _ in range(30)]
    for a, b, c in zip(vals, vals[1:], vals[2:]):
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        s = a + b
        assert math.gcd(abs(s.numerator), s.denominator) == 1 and s.denominator > 0
