"""Exact arithmetic primitives: prime-power residue rings, valuations, orders."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# Densities use arbitrary-precision rationals throughout; group orders grow
# like ell^(4m) and overflow doubles silently.
ExactRational = Fraction

MAX_MODULUS = 1 << 62

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}."""
    out: dict[int, int] = {}
    stack = [n]
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_prime(v):
            out[v] = out.get(v, 0) + 1
            continue
        d = _pollard_rho(v)
        stack.append(d)
        stack.append(v // d)
    return out


@dataclass(frozen=True)
class PrimePower:
    """A modulus q = ell^m, the ambient ring for all residue arithmetic."""

    ell: int
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"exponent must be positive, got {self.m}")
        if not is_prime(self.ell):
            raise ValueError(f"{self.ell} is not prime")
        if self.ell ** self.m > MAX_MODULUS:
            raise ValueError(f"{self.ell}^{self.m} exceeds 2^62")

    @property
    def q(self) -> int:
        return self.ell ** self.m

    @property
    def phi(self) -> int:
        return self.ell ** (self.m - 1) * (self.ell - 1)

    def is_unit(self, x: int) -> bool:
        return x % self.ell != 0

    def __str__(self):
        return f"{self.ell}^{self.m}" if self.m > 1 else str(self.ell)


def val_ell(x: int, ell: int, cap: int) -> int:
    """min(nu_ell(x), cap); x = 0 (or x divisible by ell^cap) returns cap."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if x == 0:
        return cap
    v = 0
    while v < cap and x % ell == 0:
        x //= ell
        v += 1
    return v


def mult_order(u: int, pp: PrimePower) -> int:
    """Smallest r >= 1 with u^r = 1 mod q; divides phi(q)."""
    u %= pp.q
    if u % pp.ell == 0:
        raise ValueError(f"{u} is not a unit mod {pp}")
    r = pp.phi
    for p in factorize(r):
        while r % p == 0 and pow(u, r // p, pp.q) == 1:
            r //= p
    return r
