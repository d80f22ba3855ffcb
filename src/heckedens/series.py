"""Truncated q-expansions of level-1 eigenforms modulo a prime power.

A modular build holds coefficients as canonical residues in the smallest
unsigned dtype that holds q - 1, the dtype the cache stores, from its first
step to the cache write; only `eigenform_coeffs` widens them to int64.
Dense series multiply on float64 FFTs of signed limbs, in one blocked
product: up to 2^15 coefficients form one block, longer inputs are cut into
at most 16 blocks and each output block sums the block products that land
in it, so transforms stay cache-sized and every int64 temporary, the
widened and centred inputs included, is block-sized.  Percival's rounding
bound sets the limbs' width: one limb when the bound in the inputs' own
norms proves it, else the fewest limbs the bound proves for every input.
Each block sum is then held to its exact magnitude bound and
checked at a random point mod 2^61 - 1.  Exact mode keeps Python big
integers for tiny ranges (X <= 10^4) and only multiplies naively.
Modular eigenforms are cached on disk in a checksummed binary file per
(weight, ell, m), and the primes scans walk in one table per cache
directory, under the same header, checksum and writer.
"""

from __future__ import annotations

import functools
import math
import os
import random
import struct
import tempfile
import zlib
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import CapacityError
from .modring import PrimePower, is_prime
from .primes import primes_in

SUPPORTED_WEIGHTS = (12, 16, 18, 20, 22, 26)

EXACT_MAX_X = 10 ** 4
NAIVE_MAX_X = 10 ** 4
DENSE_MAX_BYTES = 3 << 30

# float64 unit roundoff, the allowance for the error of each precomputed root
# of unity, and the Mersenne prime, block length and blocks per matrix
# product of the random evaluation
_EPS = 2.0 ** -53
_TWIDDLE_ERR = 4 * _EPS
_CHECK_P = (1 << 61) - 1
_CHECK_BLOCK = 1 << 13
_CHECK_GROUP = 4


@dataclass
class SeriesModQ:
    """Coefficients a(0..X); modulus None means exact big-integer mode, else
    residues in [0, q) of an integer dtype (int64 from `new_series`, the
    stored dtype from products and builds)."""

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


def _stored_dtype(q: int) -> np.dtype:
    """The dtype of residues mod q in a build and in the cache: the smallest
    unsigned one that holds q - 1.  numpy's arithmetic on it wraps, so every
    arithmetic step widens a block to int64 first."""
    return np.min_scalar_type(q - 1)


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
    if isinstance(values, np.ndarray) and np.can_cast(values.dtype, np.int64):
        a = np.asarray(values, dtype=np.int64) % q
    else:
        # Python ints (q >= 2^31 builds) and uint64 reduce exactly, one by one
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
    n: int  # transform length: 2B, or for one block the least power of two >= 2X
    block: int  # B, the length of each input block; X + 1 for one block
    blocks: int  # K = ceil((X + 1) / B)
    limbs: int  # signed limbs per residue, each of magnitude below 2^limb_bits
    limb_bits: int
    error_bound: float  # proven bound on the rounding error of any coefficient of any sum


# one block while X + 1 <= _BLOCK_MIN; above, blocks of _BLOCK_MIN doubled
# until there are at most _BLOCKS_MAX of them
_BLOCK_MIN = 1 << 15
_BLOCKS_MAX = 16


def _layout(X: int) -> tuple[int, int, int]:
    """(n, B, K): one block of X + 1 on the least power of two n >= 2X, or
    K blocks of a power of two B on transforms of length 2B."""
    if X + 1 <= _BLOCK_MIN:
        n = 1
        while n < 2 * X:
            n *= 2
        return n, X + 1, 1
    B = _BLOCK_MIN
    while -(-(X + 1) // B) > _BLOCKS_MAX:
        B *= 2
    return 2 * B, B, -(-(X + 1) // B)


def _growth(n: int, products: int) -> float:
    """Percival's factor (Math. Comp. 2003, Thm. 5.1) for a length-n float64
    FFT convolution: (1+e)^(3 lg n) (1+sqrt(5)e)^(3 lg n + 1) (1+b)^(3 lg n)
    - 1 for unit roundoff e and root error b; Brent, Percival and Zimmermann
    (2007) proved the complex-product error sqrt(5)e.  A sum of `products`
    spectrum products adds `products` roundings.  Times the sum of |x||y|
    over its products, it bounds the error of every coefficient.  The model
    is radix-2; `_value_at` checks what numpy computes."""
    lg = n.bit_length() - 1
    return math.expm1(
        (3 * lg + products) * math.log1p(_EPS)
        + (3 * lg + 1) * math.log1p(math.sqrt(5) * _EPS)
        + 3 * lg * math.log1p(_TWIDDLE_ERR)
    )


def _rounding_bound(X: int, n: int, limbs: int, digit: int, blocks: int) -> float:
    """Percival's bound for any sum of at most `blocks` block pairs and
    `limbs` limb pairs.  For each limb pair, Cauchy-Schwarz bounds the sum
    over the block pairs i + j = t of |a_i||b_j| by |a||b| <= (X+1) digit^2."""
    return limbs * (X + 1) * digit * digit * _growth(n, blocks * limbs)


def _plan_product(X: int, q: int, square: bool = False) -> ProductPlan:
    """The worst-case plan: the block layout of `_layout`, and the fewest
    limbs of L = ceil(bits(q // 2) / k) bits, the residues shifted to
    (-q/2, q/2], whose bound is below 1/2 for every input.  The held spectra
    take k K (B+1) complex values per input (one input for a square); beside
    them live seven buffers of a block spectrum's size (sum, product,
    inverse, int64 copy, numpy.fft's copies; the inputs' widened and
    centred blocks fit in them) and the output, X + 1 residues of the stored
    dtype.  CapacityError comes before any allocation."""
    n, B, K = _layout(X)
    bits = (q // 2).bit_length()
    for limbs in range(1, bits + 1):
        L = -(-bits // limbs)
        bound = _rounding_bound(X, n, limbs, min((1 << L) - 1, q // 2), K)
        if bound < 0.5:
            break
    nbytes = ((1 if square else 2) * limbs * K + 7) * (n // 2 + 1) * 16 + (X + 1) * _stored_dtype(q).itemsize
    if bound >= 0.5 or nbytes > DENSE_MAX_BYTES:
        raise CapacityError(
            f"dense product at X={X}, q={q} needs {nbytes / 2 ** 30:.1f} GiB of spectra and buffers "
            f"({limbs} limbs, {K} blocks on length-{n} transforms); the limit is {DENSE_MAX_BYTES / 2 ** 30:.1f} GiB"
        )
    return ProductPlan(n, B, K, limbs, L, bound)


def _centre(v: np.ndarray, q: int) -> np.ndarray:
    """Residues below q, of any integer dtype, shifted to (-q/2, q/2] as
    int64."""
    v = v.astype(np.int64)
    return v - q * (v > q // 2)


def _plan_from_norms(plan: ProductPlan, a: np.ndarray, b: np.ndarray, q: int) -> ProductPlan:
    """One limb of bits(q // 2) bits when Percival's bound, taken with the
    exact norms of the centred inputs a and b, is below 1/2; else the
    worst-case plan, which this can only shorten.  |a||b| bounds every block
    sum by Cauchy-Schwarz.  Each block of B is centred as it is read and its
    squared norm, an int64 dot product, is exact while B (q//2)^2 < 2^63 and
    summed as a Python int; past that the plan stands."""
    if plan.limbs == 1 or plan.block * (q // 2) ** 2 >= 1 << 63:
        return plan

    def norm(v):
        blocks = (_centre(v[start : start + plan.block], q) for start in range(0, len(v), plan.block))
        return sum(int(np.dot(c, c)) for c in blocks)

    na = norm(a)
    nb = na if b is a else norm(b)
    bound = (math.isqrt(na * nb) + 1) * _growth(plan.n, plan.blocks)
    return plan._replace(limbs=1, limb_bits=(q // 2).bit_length(), error_bound=bound) if bound < 0.5 else plan


@functools.cache
def _check_point() -> tuple[int, np.ndarray]:
    """r, drawn once per process, and r^0..r^(BLOCK-1) mod P as four rows of
    16-bit pieces."""
    r = random.SystemRandom().randrange(_CHECK_P)
    powers = np.empty(_CHECK_BLOCK, dtype=np.int64)
    powers[0] = 1
    for i in range(1, _CHECK_BLOCK):
        powers[i] = int(powers[i - 1]) * r % _CHECK_P
    pieces = np.empty((4, _CHECK_BLOCK))
    for u in range(4):
        pieces[u] = (powers >> (16 * u)) & 0xFFFF
    return r, pieces


def _value_at(v: np.ndarray, bits: int) -> int:
    """v(r) mod P for int64 |v_i| < 2^bits.  v is cut into ceil(bits/18)
    pieces, the top one signed, and each piece (|piece| <= 2^18) times the
    powers' 16-bit pieces sums over a block below 2^47, exact in float64.
    One matrix product gives those sums for a group of _CHECK_GROUP blocks,
    held in one fixed float buffer, and Horner's rule in r^BLOCK joins the
    blocks from the top."""
    r, pieces = _check_point()
    step = pow(r, _CHECK_BLOCK, _CHECK_P)
    count = max(1, -(-bits // 18))
    shifts = [18 * i + 16 * j for i in range(count) for j in range(4)]
    span = _CHECK_BLOCK * _CHECK_GROUP
    buf = np.empty(count * min(span, -(-len(v) // _CHECK_BLOCK) * _CHECK_BLOCK))
    acc = 0
    for start in range((len(v) - 1) // span * span, -1, -span):
        chunk = v[start : start + span]
        blocks = -(-len(chunk) // _CHECK_BLOCK)
        split = buf[: count * blocks * _CHECK_BLOCK].reshape(count, -1)
        for i in range(count):
            piece = chunk >> (18 * i) if i else chunk
            split[i, : len(chunk)] = piece & 0x3FFFF if i < count - 1 else piece
        split[:, len(chunk) :] = 0
        sums = (split.reshape(count * blocks, _CHECK_BLOCK) @ pieces.T).reshape(count, blocks, 4)
        for row in reversed(sums.transpose(1, 0, 2).reshape(blocks, -1).tolist()):
            acc = (acc * step + sum(int(x) << u for x, u in zip(row, shifts))) % _CHECK_P
    return acc


def _fft_convolve_mod(a: np.ndarray, b: np.ndarray, q: int, X: int) -> np.ndarray:
    """Cauchy product of residues a and b (each X+1 of them, of any integer
    dtype) truncated at X, mod q, in the stored dtype.

    The product is planned first: the worst-case plan, which may raise
    CapacityError, then `_plan_from_norms`.  Each input is cut into K blocks
    of length B, each block is widened to int64 and centred as it is cut,
    and each block into k limbs: one limb is the centred residues
    themselves, and with k >= 2 each centred residue is cut into k signed
    digits of L bits.  Every limb of every block is transformed once
    at length n.  For each output block t < K and limb sum s, the spectrum
    products A_(i,l) B_(j,m) with i + j = t and l + m = s are summed,
    inverted once and rounded to the integer convolution c_(t,s); block t of
    the result is the low half of sum_s c_(t,s) 2^(L s) plus the high half
    of the same sum for t - 1, reduced mod q in int64 and stored in the
    result's dtype.  With one block (B = X + 1) at n = 2X
    the degree-2X term wraps onto index 0 and is subtracted; with K >= 2,
    n = 2B holds every block product.  With `a is b` each pair is formed
    once and doubled.  Each c_(t,s) is held to its exact bound, then checked
    (Freivalds) against the blocks' values at an r mod P = 2^61 - 1 drawn
    once per process, independent of the inputs: a wrong c_(t,s) passes
    with probability <= (n - 1)/P < 2^-36 for n <= 2^25.  A mismatch raises
    ArithmeticError.
    """
    square = a is b
    n, B, K, k, L, _ = _plan_from_norms(_plan_product(X, q, square), a, b, q)
    digit = min((1 << L) - 1, q // 2)

    def split(v):
        """Per block, the spectra and values at r of its signed limbs; and
        the limbs' top coefficients."""
        spectra, values = [], []
        for start in range(0, X + 1, B):
            block = _centre(v[start : start + B], q)
            if k == 1:
                limbs = [block]
            else:
                sign, mag = np.sign(block), np.abs(block)
                limbs = [sign * ((mag >> (L * i)) & ((1 << L) - 1)) for i in range(k)]
            spectra.append([np.fft.rfft(x, n) for x in limbs])
            values.append([_value_at(x, L) for x in limbs])
        return spectra, values, [int(x[-1]) for x in limbs]

    fa, ra, ta = split(a)
    fb, rb, tb = (fa, ra, ta) if square else split(b)
    wrapped = n < 2 * B - 1  # one block of X + 1 at n = 2X
    r_top = pow(_check_point()[0], 2 * X, _CHECK_P) if wrapped else 0
    out = np.empty(X + 1, dtype=_stored_dtype(q))
    carry = None
    for t in range(K):
        start = t * B
        keep = min(n, X + 1 - start)  # the entries of block t's sums that land in blocks t, t + 1
        for s in range(2 * k - 1):
            limb_pairs = [(l, s - l) for l in range(max(0, s - k + 1), min(s, k - 1) + 1)]
            pairs = [((i, l), (t - i, m)) for i in range(t + 1) for l, m in limb_pairs]
            spec = term = None
            for (i, l), (j, m) in pairs:
                if square and (i, l) > (j, m):
                    continue
                if spec is None:
                    spec = product = fa[i][l] * fb[j][m]
                else:
                    term = product = np.multiply(fa[i][l], fb[j][m], out=term)
                if square and (i, l) < (j, m):
                    product *= 2
                if product is term:
                    spec += term
            del term, product
            c = np.fft.irfft(spec, n)
            del spec
            c = np.rint(c, out=c).astype(np.int64)
            top = sum(ta[l] * tb[m] for l, m in limb_pairs)
            if wrapped:
                c[0] -= top
            bound = len(pairs) * B * digit * digit
            if max(int(c.max()), -int(c.min())) > bound or (
                _value_at(c, bound.bit_length()) + top * r_top - sum(ra[i][l] * rb[j][m] for (i, l), (j, m) in pairs)
            ) % _CHECK_P:
                raise ArithmeticError(
                    f"sum {s} of output block {t} of length-{n} transforms failed its check (X={X}, q={q})"
                )
            # with k >= 2 each limb sum is reduced in place and gathered into
            # acc, and c is released before the next inverse transform
            part = c[:keep] if k == 1 else kernels.mod(c[:keep], q, out=c[:keep])
            if s:
                part *= pow(2, L * s, q)
                acc += part
                kernels.mod(acc, q, out=acc)
            else:
                acc = part
            del c, part
        low = acc[:B]
        if carry is not None:
            low += carry
        kernels.mod(low, q, out=out[start : start + len(low)])
        carry = acc[B:]
    return out


def _naive_convolve_mod(a: np.ndarray, b: np.ndarray, q: int, X: int) -> np.ndarray:
    """The quadratic Cauchy product of residues a and b of any integer dtype,
    truncated at X, mod q, as int64."""
    if q >= 2 ** 31:
        return np.asarray([v % q for v in _exact_convolve(a.tolist(), b.tolist(), X)], dtype=np.int64)
    a, b = a.astype(np.int64), b.astype(np.int64)
    # direct int64 sums over w-bit pieces of b, so (X+1)(q-1)(2^w - 1) < 2^62
    w = 62 - ((X + 1) * (q - 1)).bit_length()
    out = np.zeros(X + 1, dtype=np.int64)
    for shift in range(0, (q - 1).bit_length(), w):
        piece = (b >> shift) & ((1 << w) - 1)
        out = (out + np.convolve(a, piece)[: X + 1] % q * pow(2, shift, q)) % q
    return out


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
    """Cauchy product truncated at X, quasi-linear for dense modular inputs;
    modular residues come out in the stored dtype."""
    _check_compatible(a, b)
    if a.is_exact:
        return series_mul_naive(a, b)
    X, q = a.X, a.modulus.q
    if q >= 2 ** 31:
        # the limb recombination multiplies two residues below q in int64
        if X > NAIVE_MAX_X:
            raise CapacityError(f"dense products need q < 2^31 (got q={q}) for X > {NAIVE_MAX_X}")
        return SeriesModQ(a.modulus, series_mul_naive(a, b).coeffs.astype(_stored_dtype(q)))
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
    """E_k for k in 4, 6, 8, 10, 14, truncated at X, reduced mod q into the
    stored dtype (or exact)."""
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
        if modulus is None:
            return SeriesModQ(None, out)
        return SeriesModQ(modulus, np.array([v % modulus.q for v in out], dtype=_stored_dtype(modulus.q)))
    q = modulus.q
    sig = kernels.sigma_pow_sieve(X, e, q)
    sig *= c % q
    out = kernels.mod(sig, q, out=np.empty(X + 1, dtype=_stored_dtype(q)))
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
    # one live array of X + 1 at a time, in the stored dtype: each power
    # replaces the one it squares, and the shift is in place (numpy copies
    # an overlapping 1-d slice backwards, with no temporary)
    eta = SeriesModQ(modulus, kernels.sparse_square(exps, coefs, X, q).astype(_stored_dtype(q)))
    eta = series_mul(eta, eta)
    eta = series_mul(eta, eta)
    eta.coeffs[1:] = eta.coeffs[:X]
    eta.coeffs[0] = 0
    return eta


def _build_eigenform(delta: SeriesModQ, weight: int) -> SeriesModQ:
    """The unique normalized eigenform of weight w is Delta * E_(w-12)."""
    if weight == 12:
        return delta
    return series_mul(delta, eisenstein(weight - 12, delta.X, delta.modulus))


# ---------------------------------------------------------------------------
# disk cache: one file per (weight, ell, m) holding a(0..X) for the largest X
# built so far, and one prime table per directory holding the primes up to
# X', the least prime >= the largest x scanned so far.  Every file is a
# _CACHE_HEADER record (magic, format, algorithm version, weight, ell, m, X,
# dtype, CRC-32 of the payload) and then the payload: the residues in the
# smallest unsigned dtype that holds q - 1, or the primes as uint32 under the
# key (0, 0, 0), which no eigenform has.  Both kinds share one reader and one
# writer, and each is served by prefix.

_CACHE_MAGIC = b"HECKEDNS"
_CACHE_FORMAT = 1
# bumped whenever a change to the build code could change a stored residue
CACHE_ALGO_VERSION = 1
_CACHE_HEADER = struct.Struct("<8sIIIQIQ4sI")
_PRIME_TABLE_FILE = "primes.bin"


class _Kind(NamedTuple):
    """What an entry holds: its header key (weight, ell, m), the dtype of its
    payload, and the check its values must pass against the header's X."""

    key: tuple[int, int, int]
    dtype: np.dtype
    valid: Callable[[int, np.ndarray], bool]


def _residue_kind(weight: int, pp: PrimePower) -> _Kind:
    """a(0..X) of the weight-w eigenform mod q: X + 1 residues, each below q."""
    return _Kind(
        (weight, pp.ell, pp.m), _stored_dtype(pp.q), lambda X, a: len(a) == X + 1 and a.max() < pp.q
    )


def _prime_table_valid(X: int, p: np.ndarray) -> bool:
    """Primes from 2, strictly increasing and ending at X: so the prefix
    found by bisection for x holds exactly the gather indices <= x, and as
    X' is the last prime, a corrupted X' is a miss, never a table short of
    the primes up to it."""
    return len(p) > 0 and p[0] == 2 and int(p[-1]) == X and bool(np.all(p[1:] > p[:-1]))


_PRIME_TABLE = _Kind((0, 0, 0), np.dtype("<u4"), _prime_table_valid)


def cache_dir_from_env(explicit: str | None = None) -> str:
    if explicit:
        return explicit
    return os.environ.get("HECKE_CACHE_DIR", "./cache")


def _cache_path(cache_dir: str, weight: int, pp: PrimePower) -> str:
    return os.path.join(cache_dir, f"eigenform_w{weight}_l{pp.ell}_m{pp.m}.bin")


def _cache_read(path: str, kind: _Kind) -> tuple[int, np.ndarray] | None:
    """(X, the stored values, read-only), or None (a miss) unless the magic,
    both versions, the key, the dtype and the checksum all match, the
    payload is a whole number of values, and they pass the kind's check."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    if len(data) < _CACHE_HEADER.size:
        return None
    magic, fmt, algo, w, ell, m, X, dtype_str, crc = _CACHE_HEADER.unpack_from(data)
    payload = memoryview(data)[_CACHE_HEADER.size :]
    if (
        (magic, fmt, algo, (w, ell, m)) != (_CACHE_MAGIC, _CACHE_FORMAT, CACHE_ALGO_VERSION, kind.key)
        or dtype_str.rstrip(b"\0") != kind.dtype.str.encode()
        or len(payload) % kind.dtype.itemsize
        or zlib.crc32(payload) != crc
    ):
        return None
    values = np.frombuffer(payload, dtype=kind.dtype)
    return (X, values) if kind.valid(X, values) else None


def _cache_write(path: str, kind: _Kind, X: int, values: np.ndarray):
    """Store values under X in the kind's dtype (a build's residues are in
    it already and are written as they are) through a temporary file and an
    atomic rename, unless a valid entry of at least that X is there
    (another process may have written one since this one missed)."""
    current = _cache_read(path, kind)
    if current is not None and current[0] >= X:
        return
    payload = values.astype(kind.dtype, copy=False)
    header = _CACHE_HEADER.pack(
        _CACHE_MAGIC, _CACHE_FORMAT, CACHE_ALGO_VERSION, *kind.key, X, kind.dtype.str.encode(), zlib.crc32(payload)
    )
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cached_residues(cache_dir: str, weight: int, X: int, pp: PrimePower) -> np.ndarray:
    """a(0..X) of the weight-w entry in the stored dtype: on a hit the stored
    residues, read-only; on a miss the build, written back.  Every weight
    takes Delta from the weight-12 entry, read or built, as it is.  A miss
    plans its last product before any build step: weight 12 ends on a
    square, every other weight on a general product, which needs at least
    what a square of the same X does."""
    path = _cache_path(cache_dir, weight, pp)
    kind = _residue_kind(weight, pp)
    entry = _cache_read(path, kind)
    if entry is not None and entry[0] >= X:
        return entry[1][: X + 1]
    if pp.q < 2 ** 31:
        _plan_product(X, pp.q, square=weight == 12)
    elif X > NAIVE_MAX_X:
        raise CapacityError(f"dense products need q < 2^31 (got q={pp.q}) for X > {NAIVE_MAX_X}")
    if weight == 12:
        delta = _delta(X, pp)
    else:
        delta = SeriesModQ(pp, _cached_residues(cache_dir, 12, X, pp))
    out = _build_eigenform(delta, weight).coeffs
    _cache_write(path, kind, X, out)
    return out


def _cached_primes(cache_dir: str, x: int) -> np.ndarray:
    """The primes <= x: on a hit a read-only uint32 prefix of the stored
    table, with no copy; on a miss sieved up to X', the least prime >= x,
    and written back.  A table is read whole, and reading, checksumming and
    checking a stored prime costs about what sieving one integer does, so
    a table of more primes than x (its size says so before it is read) is
    left as it is, and the primes come from the sieve of [2, x] as int64."""
    path = os.path.join(cache_dir, _PRIME_TABLE_FILE)
    try:
        stored = (os.path.getsize(path) - _CACHE_HEADER.size) // _PRIME_TABLE.dtype.itemsize
    except OSError:
        stored = 0
    if stored > x:
        return primes_in(2, x)
    entry = _cache_read(path, _PRIME_TABLE)
    if entry is not None and entry[0] >= x:
        table = entry[1]
    else:
        top = x
        while not is_prime(top):
            top += 1
        table = primes_in(2, top).astype(_PRIME_TABLE.dtype)
        _cache_write(path, _PRIME_TABLE, top, table)
    # x as uint32: against a Python int numpy bisects an int64 copy of the table
    return table[: np.searchsorted(table, table.dtype.type(x), side="right")]


def eigenform_coeffs(
    weight: int,
    X: int,
    modulus: PrimePower | None,
    cache_dir: str | None = None,
) -> SeriesModQ:
    """a(0..X) of the normalized weight-w eigenform, mod q or exact.

    Modular results are cached on disk, one file per (weight, ell, m), and X
    is served by prefix from any cached X' >= X; the cache directory comes
    from the argument, else HECKE_CACHE_DIR, else ./cache.  They are
    returned as a writeable int64 copy of the stored residues.
    """
    if weight not in SUPPORTED_WEIGHTS:
        raise ValueError(f"unsupported weight {weight}; expected one of {SUPPORTED_WEIGHTS}")
    if X < 2:
        raise ValueError("X must be >= 2")
    if modulus is None:
        return _build_eigenform(_delta(X, None), weight)
    residues = _cached_residues(cache_dir_from_env(cache_dir), weight, X, modulus)
    return SeriesModQ(modulus, residues.astype(np.int64))
