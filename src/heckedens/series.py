"""Truncated q-expansions of level-1 eigenforms modulo a prime power.

Modular mode stores coefficients as canonical int64 residues and multiplies
dense series in quasi-linear time via number-theoretic transforms over
word-size primes recombined mod q (Garner).  Exact mode keeps Python big
integers for tiny ranges (X <= 10^4) and only multiplies naively.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import CapacityError
from .modring import PrimePower

SUPPORTED_WEIGHTS = (12, 16, 18, 20, 22, 26)

EXACT_MAX_X = 10 ** 4
NAIVE_MAX_X = 10 ** 4
DENSE_MAX_X = 1 << 25

# transform primes p = c*2^s + 1 with a primitive root, ordered by
# decreasing 2-adicity s; all below 2^31 so int64 holds products
_NTT_PRIMES = (
    (2013265921, 31),  # 15*2^27+1
    (1811939329, 13),  # 27*2^26+1
    (469762049, 3),    # 7*2^26+1
    (167772161, 3),    # 5*2^25+1
    (754974721, 11),   # 45*2^24+1
    (998244353, 3),    # 119*2^23+1
)


@dataclass
class SeriesModQ:
    """Coefficients a(0..X); modulus None means exact big-integer mode."""

    modulus: PrimePower | None
    coeffs: np.ndarray | list

    @property
    def X(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_exact(self) -> bool:
        return self.modulus is None

    def __getitem__(self, i: int):
        return self.coeffs[i]


def new_series(modulus: PrimePower | None, values, X: int | None = None) -> SeriesModQ:
    """Build a series from any integer sequence, reducing into canonical form."""
    if modulus is None:
        c = [int(v) for v in values]
        if X is not None:
            c = c[: X + 1] + [0] * (X + 1 - len(c))
        if len(c) - 1 > EXACT_MAX_X:
            raise CapacityError(f"exact mode limited to X <= {EXACT_MAX_X}")
        return SeriesModQ(None, c)
    q = modulus.q
    a = np.asarray([int(v) % q for v in values], dtype=np.int64)
    if X is not None:
        out = np.zeros(X + 1, dtype=np.int64)
        n = min(len(a), X + 1)
        out[:n] = a[:n]
        a = out
    return SeriesModQ(modulus, a)


# ---------------------------------------------------------------------------
# multiplication


def _root_power_table(p: int, g: int, n: int) -> np.ndarray:
    """Powers w^0..w^(n/2-1) of w = g^((p-1)/n), a primitive n-th root."""
    w = pow(g, (p - 1) // n, p)
    half = max(n // 2, 1)
    tab = np.ones(half, dtype=np.int64)
    size = 1
    while size < half:
        take = min(size, half - size)
        tab[size : size + take] = tab[:take] * pow(w, size, p) % p
        size *= 2
    return tab


_table_cache: dict[tuple[int, int, bool], np.ndarray] = {}


def _tables(p: int, g: int, n: int, inverse: bool) -> np.ndarray:
    key = (p, n, inverse)
    tab = _table_cache.get(key)
    if tab is None:
        gg = pow(g, -1, p) if inverse else g
        tab = _root_power_table(p, gg, n)
        _table_cache[key] = tab
    return tab


def _plan_primes(X: int, q: int) -> tuple[int, list[tuple[int, int]]]:
    """Transform length and prime subset with product > (X+1)*(q-1)^2.

    The length n is the least power of two with n >= 2X.  A cyclic product
    of length 2X differs from the Cauchy product truncated at X only in the
    term a[X]*b[X] of degree 2X, which wraps onto index 0;
    `_ntt_convolve_mod` subtracts it there.  The bound on the product of
    primes covers that wrapped coefficient too, since a[0]b[0] + a[X]b[X]
    <= 2(q-1)^2.
    """
    n = 1
    while n < 2 * X:
        n *= 2
    need = (X + 1) * (q - 1) ** 2
    chosen: list[tuple[int, int]] = []
    prod = 1
    for p, g in _NTT_PRIMES:
        if (p - 1) % n != 0:
            continue
        chosen.append((p, g))
        prod *= p
        if prod > need:
            return n, chosen
    raise CapacityError(
        f"no transform plan for X={X}, q={q}: supported word-size primes exhausted"
    )


def _ntt_convolve_mod(a: np.ndarray, b: np.ndarray, q: int, X: int) -> np.ndarray:
    """Cauchy product of a and b (each of length X+1) truncated at X, mod q.

    One cyclic NTT product per planned prime, recombined by Garner.  When
    the planned length n equals 2X, the term a[X]*b[X] has wrapped onto
    index 0 and is subtracted from out[0] mod q.
    """
    n, primes = _plan_primes(X, q)
    residues = []
    square = a is b
    for p, g in primes:
        fwd = _tables(p, g, n, inverse=False)
        fa = np.zeros(n, dtype=np.int64)
        fa[: len(a)] = a % p
        kernels.ntt_inplace(fa, fwd, p)
        if square:
            fb = fa
        else:
            fb = np.zeros(n, dtype=np.int64)
            fb[: len(b)] = b % p
            kernels.ntt_inplace(fb, fwd, p)
        fc = fa * fb % p
        kernels.ntt_inplace(fc, _tables(p, g, n, inverse=True), p)
        ninv = pow(n, -1, p)
        residues.append(fc[: X + 1] * ninv % p)
    # Garner mixed-radix recombination, reduced mod q on the fly; all factors
    # are < 2^31 so every intermediate product fits in int64
    ps = [p for p, _ in primes]
    out = residues[0] % q
    if len(ps) > 1:
        digits = [residues[0]]
        for j in range(1, len(ps)):
            pj = ps[j]
            acc = digits[0] % pj
            mul = 1
            for i in range(1, j):
                mul = mul * ps[i - 1] % pj
                acc = (acc + digits[i] % pj * mul) % pj
            mul = mul * ps[j - 1] % pj
            inv = pow(mul, -1, pj)
            digits.append((residues[j] - acc) % pj * inv % pj)
            mq = 1
            for i in range(j):
                mq = mq * ps[i] % q
            out = (out + digits[j] % q * mq) % q
    if n == 2 * X:
        out[0] = (int(out[0]) - int(a[X]) * int(b[X])) % q
    return out


def _naive_convolve_mod(a: np.ndarray, b: np.ndarray, q: int, X: int) -> np.ndarray:
    if (X + 1) * (q - 1) ** 2 < 2 ** 63:
        return np.convolve(a, b)[: X + 1] % q
    ca, cb = [int(v) for v in a], [int(v) for v in b]
    out = [0] * (X + 1)
    for i, vi in enumerate(ca):
        if vi == 0 or i > X:
            continue
        for j, vj in enumerate(cb[: X - i + 1]):
            out[i + j] += vi * vj
    return np.asarray([v % q for v in out], dtype=np.int64)


def _exact_convolve(a: list, b: list, X: int) -> list:
    out = [0] * (X + 1)
    for i, vi in enumerate(a):
        if vi == 0 or i > X:
            continue
        for j in range(min(len(b), X - i + 1)):
            out[i + j] += vi * b[j]
    return out


def series_mul_naive(a: SeriesModQ, b: SeriesModQ) -> SeriesModQ:
    """Quadratic reference product, the oracle for the transform path."""
    _check_compatible(a, b)
    X = a.X
    if X > NAIVE_MAX_X:
        raise CapacityError(f"naive multiplication limited to X <= {NAIVE_MAX_X}")
    if a.is_exact:
        return SeriesModQ(None, _exact_convolve(a.coeffs, b.coeffs, X))
    return SeriesModQ(a.modulus, _naive_convolve_mod(a.coeffs, b.coeffs, a.modulus.q, X))


def _check_compatible(a: SeriesModQ, b: SeriesModQ):
    if a.modulus != b.modulus:
        raise ValueError(f"modulus mismatch: {a.modulus} vs {b.modulus}")
    if a.X != b.X:
        raise ValueError(f"length mismatch: {a.X} vs {b.X}")


def series_mul(a: SeriesModQ, b: SeriesModQ) -> SeriesModQ:
    """Cauchy product truncated at X, quasi-linear for dense modular inputs."""
    _check_compatible(a, b)
    if a.is_exact:
        return series_mul_naive(a, b)
    X, q = a.X, a.modulus.q
    if q >= 2 ** 31:
        # transform residues and Garner factors must fit int64
        if X > NAIVE_MAX_X:
            raise CapacityError(f"dense products need q < 2^31 (got q={q}) for X > {NAIVE_MAX_X}")
        return series_mul_naive(a, b)
    if X > DENSE_MAX_X:
        raise CapacityError(f"dense series limited to X <= {DENSE_MAX_X}")
    return SeriesModQ(a.modulus, _ntt_convolve_mod(a.coeffs, b.coeffs, q, X))


# ---------------------------------------------------------------------------
# building blocks: eta^3, Eisenstein series


def eta_cubed_exponents(X: int) -> tuple[np.ndarray, np.ndarray]:
    """Sparse prod(1-q^n)^3 up to X: coefficient (-1)^k (2k+1) at k(k+1)/2."""
    if X < 1:
        raise ValueError("X must be >= 1")
    kmax = (math.isqrt(8 * X + 1) - 1) // 2
    k = np.arange(kmax + 1, dtype=np.int64)
    exps = k * (k + 1) // 2
    coefs = np.where(k % 2 == 0, 2 * k + 1, -(2 * k + 1)).astype(np.int64)
    return exps, coefs


# E_k = 1 + c_k * sum_n sigma_{k-1}(n) q^n with c_k = -2k/B_k, for every
# k = w - 12 a supported weight w needs
_EIS_FACTOR = {4: 240, 6: -504, 8: 480, 10: -264, 14: -24}


def eisenstein(weight: int, X: int, modulus: PrimePower | None) -> SeriesModQ:
    """E_k for k in 4, 6, 8, 10, 14, truncated at X, reduced mod q (or exact)."""
    if weight not in _EIS_FACTOR:
        raise ValueError(f"Eisenstein weight must be one of {tuple(_EIS_FACTOR)}, got {weight}")
    c, e = _EIS_FACTOR[weight], weight - 1
    if modulus is None or modulus.q >= 2 ** 31:
        # the int64 sieve squares residues below q, so q >= 2^31 takes Python ints
        if X > EXACT_MAX_X:
            raise CapacityError(f"exact mode and q >= 2^31 limited to X <= {EXACT_MAX_X}")
        sig = [0] * (X + 1)
        for d in range(1, X + 1):
            de = d ** e
            for n in range(d, X + 1, d):
                sig[n] += de
        out = [1] + [c * s for s in sig[1:]]
        return SeriesModQ(None, out) if modulus is None else new_series(modulus, out)
    q = modulus.q
    sig = kernels.sigma_pow_sieve(X, e, q)
    out = c % q * sig % q
    out[0] = 1 % q
    return SeriesModQ(modulus, out)


def _delta(X: int, modulus: PrimePower | None) -> SeriesModQ:
    """Delta = q * prod(1-q^n)^24, via ((eta^3)^2)^4 shifted by one."""
    exps, coefs = eta_cubed_exponents(X)
    if modulus is None:
        e6 = [0] * (X + 1)
        for i, ei in enumerate(exps):
            for j, ej in enumerate(exps):
                s = int(ei + ej)
                if s <= X:
                    e6[s] += int(coefs[i]) * int(coefs[j])
        s6 = SeriesModQ(None, e6)
        s12 = series_mul_naive(s6, s6)
        s24 = series_mul_naive(s12, s12)
        return SeriesModQ(None, [0] + s24.coeffs[:X])
    q = modulus.q
    e6 = kernels.sparse_square(exps, coefs, X, q)
    s6 = SeriesModQ(modulus, e6)
    s12 = series_mul(s6, s6)
    s24 = series_mul(s12, s12)
    shifted = np.zeros(X + 1, dtype=np.int64)
    shifted[1:] = s24.coeffs[:X]
    return SeriesModQ(modulus, shifted)


def _build_eigenform(weight: int, X: int, modulus: PrimePower | None) -> SeriesModQ:
    """The unique normalized eigenform of weight w is Delta * E_(w-12)."""
    out = _delta(X, modulus)
    if weight == 12:
        return out
    return series_mul(out, eisenstein(weight - 12, X, modulus))


# ---------------------------------------------------------------------------
# disk cache: "HDF1 weight=<w> ell=<l> m=<m> X=<X>" then one residue per line


def cache_dir_from_env(explicit: str | None = None) -> str:
    if explicit:
        return explicit
    return os.environ.get("HECKE_CACHE_DIR", "./cache")


def _cache_path(cache_dir: str, weight: int, pp: PrimePower, X: int) -> str:
    return os.path.join(cache_dir, f"hdf1_w{weight}_l{pp.ell}_m{pp.m}_X{X}.txt")


def _cache_write(path: str, weight: int, pp: PrimePower, X: int, coeffs: np.ndarray):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    header = f"HDF1 weight={weight} ell={pp.ell} m={pp.m} X={X}\n"
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(header)
            fh.write("\n".join(map(str, coeffs.tolist())))
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cache_read(path: str, weight: int, pp: PrimePower, X: int) -> np.ndarray | None:
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            expect = f"HDF1 weight={weight} ell={pp.ell} m={pp.m} X={X}"
            if header != expect:
                return None
            body = fh.read()
    except OSError:
        return None
    try:
        vals = np.array(body.split(), dtype=np.int64)
    except ValueError:
        return None
    if len(vals) != X + 1:
        return None
    return vals


def eigenform_coeffs(
    weight: int,
    X: int,
    modulus: PrimePower | None,
    cache_dir: str | None = None,
) -> SeriesModQ:
    """a(0..X) of the normalized weight-w eigenform, mod q or exact.

    Modular results are cached on disk keyed by (weight, q, X); the cache
    directory comes from the argument, else HECKE_CACHE_DIR, else ./cache.
    """
    if weight not in SUPPORTED_WEIGHTS:
        raise ValueError(f"unsupported weight {weight}; expected one of {SUPPORTED_WEIGHTS}")
    if X < 2:
        raise ValueError("X must be >= 2")
    if modulus is None:
        return _build_eigenform(weight, X, None)
    cdir = cache_dir_from_env(cache_dir)
    path = _cache_path(cdir, weight, modulus, X)
    cached = _cache_read(path, weight, modulus, X)
    if cached is not None:
        return SeriesModQ(modulus, cached)
    out = _build_eigenform(weight, X, modulus)
    _cache_write(path, weight, modulus, X, out.coeffs)
    return out
