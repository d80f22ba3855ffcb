"""Truncated q-expansions of level-1 eigenforms modulo a prime power.

Modular mode stores coefficients as canonical int64 residues and multiplies
dense series on float64 FFTs of signed limbs, whose width a proven rounding
bound sets and a random evaluation mod 2^61 - 1 checks.  Exact mode keeps
Python big integers for tiny ranges (X <= 10^4) and only multiplies naively.
"""

from __future__ import annotations

import functools
import math
import os
import random
import tempfile
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import CapacityError
from .modring import PrimePower

SUPPORTED_WEIGHTS = (12, 16, 18, 20, 22, 26)

EXACT_MAX_X = 10 ** 4
NAIVE_MAX_X = 10 ** 4
DENSE_MAX_BYTES = 3 << 30

# float64 unit roundoff, the allowance for the error of each precomputed root
# of unity, and the Mersenne prime and block length of the random evaluation
_EPS = 2.0 ** -53
_TWIDDLE_ERR = 4 * _EPS
_CHECK_P = (1 << 61) - 1
_CHECK_BLOCK = 1 << 13


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


class ProductPlan(NamedTuple):
    n: int  # transform length, the least power of two >= 2X
    limbs: int  # signed limbs per residue, each of magnitude below 2^limb_bits
    limb_bits: int
    error_bound: float  # proven bound on the rounding error of any coefficient


def _rounding_bound(X: int, n: int, limbs: int, digit: int) -> float:
    """Percival's bound (Math. Comp. 2003, Thm. 5.1) on the error of a length-n
    float64 FFT convolution: |x||y| ((1+e)^(3 lg n) (1+sqrt(5)e)^(3 lg n + 1)
    (1+b)^(3 lg n) - 1) for unit roundoff e and root error b; Brent, Percival
    and Zimmermann (2007) proved the complex-product error sqrt(5)e.  A sum
    of `limbs` products adds `limbs` roundings; |x||y| <= limbs (X+1) digit^2.
    The model is radix-2; `_value_at` checks what numpy computes."""
    lg = n.bit_length() - 1
    growth = math.expm1(
        (3 * lg + limbs) * math.log1p(_EPS)
        + (3 * lg + 1) * math.log1p(math.sqrt(5) * _EPS)
        + 3 * lg * math.log1p(_TWIDDLE_ERR)
    )
    return limbs * (X + 1) * digit * digit * growth


def _plan_product(X: int, q: int) -> ProductPlan:
    """Fewest limbs of L = ceil(bits(q // 2) / k) bits, the residues shifted
    to (-q/2, q/2], whose bound is below 1/2; n is the least power of two
    >= 2X.  At most 2k spectra live with seven more buffers of their size
    (sum, product, inverse, int64 copy, numpy.fft's copies): so counted, the
    bytes stayed above the peak RSS added at X = 2^22..2^24.  CapacityError
    comes before any allocation."""
    n = 1
    while n < 2 * X:
        n *= 2
    bits = (q // 2).bit_length()
    for limbs in range(1, bits + 1):
        L = -(-bits // limbs)
        bound = _rounding_bound(X, n, limbs, min((1 << L) - 1, q // 2))
        if bound < 0.5:
            break
    nbytes = (2 * limbs + 7) * (n // 2 + 1) * 16
    if bound >= 0.5 or nbytes > DENSE_MAX_BYTES:
        raise CapacityError(
            f"dense product at X={X}, q={q} needs {nbytes / 2 ** 30:.1f} GiB of transform buffers "
            f"({limbs} limbs, length {n}); the limit is {DENSE_MAX_BYTES / 2 ** 30:.1f} GiB"
        )
    return ProductPlan(n, limbs, L, bound)


@functools.cache
def _check_point() -> tuple[int, np.ndarray]:
    """r, drawn once per process, and r^0..r^(BLOCK-1) mod P as 16-bit pieces."""
    r = random.SystemRandom().randrange(_CHECK_P)
    powers = np.empty(_CHECK_BLOCK, dtype=np.int64)
    powers[0] = 1
    for i in range(1, _CHECK_BLOCK):
        powers[i] = int(powers[i - 1]) * r % _CHECK_P
    pieces = np.empty((_CHECK_BLOCK, 4))
    for u in range(4):
        pieces[:, u] = (powers >> (16 * u)) & 0xFFFF
    return r, pieces


def _value_at(v: np.ndarray) -> int:
    """v(r) mod P for int64 |v_i| < 2^53, by Horner over blocks; v's 18-bit
    pieces times the powers' 16-bit pieces sum below 2^47, exact in float64."""
    r, pieces = _check_point()
    step = pow(r, _CHECK_BLOCK, _CHECK_P)
    acc = 0
    for start in range((len(v) - 1) // _CHECK_BLOCK * _CHECK_BLOCK, -1, -_CHECK_BLOCK):
        chunk = v[start : start + _CHECK_BLOCK]
        split = np.stack([chunk & 0x3FFFF, (chunk >> 18) & 0x3FFFF, chunk >> 36]).astype(np.float64)
        sums = (split @ pieces[: len(chunk)]).tolist()
        acc = acc * step + sum(int(sums[i][j]) << (18 * i + 16 * j) for i in range(3) for j in range(4))
        acc %= _CHECK_P
    return acc


def _fft_convolve_mod(a: np.ndarray, b: np.ndarray, q: int, X: int) -> np.ndarray:
    """Cauchy product of a and b (each of length X+1) truncated at X, mod q.

    For each s the limb spectrum products A_i B_j, i + j = s, are summed,
    inverted and rounded to the integer convolution c_s; the result is
    sum_s c_s 2^(L s) mod q.  At n = 2X the degree-2X term wraps onto index
    0 and is subtracted.  With `a is b` each A_i A_j is formed once.
    Each c_s is held to its exact bound, then checked (Freivalds) at an r
    mod P = 2^61 - 1 drawn once per process, independent of the inputs: a
    wrong c_s passes with probability <= (n - 1)/P < 2^-36 for n <= 2^25.
    A mismatch raises ArithmeticError.
    """
    square = a is b
    n, k, L, _ = _plan_product(X, q)
    digit = min((1 << L) - 1, q // 2)

    def split(v):
        """Spectra, values at r and top coefficients of v's signed limbs."""
        centred = np.where(v > q // 2, v - q, v)
        sign, mag = np.sign(centred), np.abs(centred)
        limbs = [sign * ((mag >> (L * i)) & ((1 << L) - 1)) for i in range(k)]
        return [np.fft.rfft(x, n) for x in limbs], [_value_at(x) for x in limbs], [int(x[X]) for x in limbs]

    fa, ra, ta = split(a)
    fb, rb, tb = (fa, ra, ta) if square else split(b)
    wrapped = n == 2 * X
    r_top = pow(_check_point()[0], 2 * X, _CHECK_P) if wrapped else 0
    out = np.zeros(X + 1, dtype=np.int64)
    for s in range(2 * k - 1):
        pairs = [(i, s - i) for i in range(max(0, s - k + 1), min(s, k - 1) + 1)]
        spec = None
        for i, j in pairs:
            if square and i > j:
                continue
            term = fa[i] * fb[j]
            if square and i < j:
                term *= 2
            spec = term if spec is None else np.add(spec, term, out=spec)
        c = np.fft.irfft(spec, n)
        c = np.rint(c, out=c).astype(np.int64)
        del spec, term
        top = sum(ta[i] * tb[j] for i, j in pairs)
        if wrapped:
            c[0] -= top
        if int(np.abs(c).max()) > len(pairs) * (X + 1) * digit * digit or (
            _value_at(c) + top * r_top - sum(ra[i] * rb[j] for i, j in pairs)
        ) % _CHECK_P:
            raise ArithmeticError(f"limb product {s} of a length-{n} transform failed its check (X={X}, q={q})")
        out = (out + c[: X + 1] % q * pow(2, L * s, q)) % q
    return out


def _naive_convolve_mod(a: np.ndarray, b: np.ndarray, q: int, X: int) -> np.ndarray:
    if q < 2 ** 31:
        # direct int64 sums over w-bit pieces of b, so (X+1)(q-1)(2^w - 1) < 2^62
        w = 62 - ((X + 1) * (q - 1)).bit_length()
        out = np.zeros(X + 1, dtype=np.int64)
        for shift in range(0, (q - 1).bit_length(), w):
            piece = (b >> shift) & ((1 << w) - 1)
            out = (out + np.convolve(a, piece)[: X + 1] % q * pow(2, shift, q)) % q
        return out
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
        # the limb recombination multiplies two residues below q in int64
        if X > NAIVE_MAX_X:
            raise CapacityError(f"dense products need q < 2^31 (got q={q}) for X > {NAIVE_MAX_X}")
        return series_mul_naive(a, b)
    return SeriesModQ(a.modulus, _fft_convolve_mod(a.coeffs, b.coeffs, q, X))


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
    if len(vals) != X + 1 or vals.min() < 0 or vals.max() >= pp.q:
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
