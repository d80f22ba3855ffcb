"""Exact generic densities: the joint (p mod q, a_f(p) mod q) class density,
roots of the lift polynomial g_u, assembly of the eigenvalue-divisibility
density, and the partition machinery behind its decay bound.

Each unit's work is done once per call: root_cells forms gamma_i(u) for
every unit in one gamma_table call and then searches the ell-adic balls
around them a block of units at a time, and delta_F_from_roots forms
u^(2k-n-1) once per residue u.  The hot reductions by q are floor division,
x - (x // q) q; the oracles in matcount and the tests keep numpy's %."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError
from .matcount import capped_valuations, count_trace_det, discriminant_classes, pow_mod_array
from .modring import PrimePower
from .series import SUPPORTED_WEIGHTS
from .tower import GENERIC_CAVEAT, generic_L_degree

# budget on the cells the root and count enumerations touch (see
# density_cells).  Near it, (12,4) mod 47^3 took 0.5 s and 54 MB peak RSS on
# a 2-core numpy host.  It also keeps q, and so q^2, inside int64.
DENSITY_CELLS_MAX = 10 ** 7
# root candidates per block of units in root_cells
_BLOCK_CELLS = 1 << 13

# envelope constants fitted on the exhaustive desk-scale grid, not proven
FITTED_UV_SHAPE = 5        # |delta_uv(ell) * ell^2 - 1| <= 5/ell
FITTED_MAIN_TERM = 10      # |delta_F(ell) * 2 ell / n - 1| <= 10 n^2 / ell
FITTED_DECAY_N2 = 4        # delta_F(ell^m) <= 4 / ell^m            (n = 2)
FITTED_DECAY_GEN = 8       # delta_F(ell^m) <= 8 m^2 / ell^(3m/n)   (n > 2)
FITTED_NOTE = "envelope constants fitted on the desk-scale grid, not proven"


@dataclass(frozen=True)
class LiftParams:
    """Siegel weight k and degree n of the lift; the source eigenform has
    weight 2k - n, which must index a one-dimensional cusp space."""

    k: int
    n: int

    def __post_init__(self):
        if self.k % 2 or self.n % 2 or self.n < 2:
            raise ValueError(f"k, n must be even positive, got k={self.k}, n={self.n}")
        if self.k <= self.n + 1:
            raise ValueError(f"need k > n+1, got k={self.k}, n={self.n}")
        if self.source_weight not in SUPPORTED_WEIGHTS:
            raise ValueError(
                f"source weight 2k-n = {self.source_weight} not in {SUPPORTED_WEIGHTS}"
            )

    @property
    def source_weight(self) -> int:
        return 2 * self.k - self.n


@dataclass(frozen=True)
class GammaRoots:
    modulus: PrimePower
    u: int
    params: LiftParams
    gamma: tuple[int, ...]


@dataclass(frozen=True)
class DensityReport:
    kind: str  # "uv" | "ikeda"
    params: dict
    delta_exact: Fraction
    main_term: Fraction | None
    decay_bound: Fraction
    caveats: tuple[str, ...] = (GENERIC_CAVEAT, FITTED_NOTE)


@dataclass(frozen=True)
class PartitionStat:
    n: int
    m: int
    partitions: tuple[tuple[int, ...], ...]
    min_value: int
    argmin: tuple[int, ...]


def gamma_table(params: LiftParams, q: int, u: np.ndarray) -> np.ndarray:
    """gamma_i(u) = -(u^(k-i) + u^(k-n-1+i)) mod q for i = 1..n/2, along a
    new last axis; g_u(w) = prod_i (w - gamma_i(u)).  The exponents are the
    n consecutive k-n .. k-1, so one power and n - 1 products by u give
    them all."""
    k, n = params.k, params.n
    powers = np.empty((n,) + u.shape, dtype=np.int64)
    powers[0] = pow_mod_array(u, k - n, q)
    u = u - u // q * q
    for j in range(1, n):
        p = powers[j - 1] * u
        powers[j] = p - p // q * q
    # gamma_i pairs u^(k-n-1+i) = powers[i-1] with u^(k-i) = powers[n-i]
    g = -(powers[: n // 2] + powers[n // 2 :][::-1])
    g -= g // q * q
    return np.moveaxis(g, 0, -1)


def gamma_roots(u: int, params: LiftParams, pp: PrimePower) -> GammaRoots:
    """The gamma_i(u) of gamma_table for one unit u."""
    u %= pp.q
    if u % pp.ell == 0:
        raise ValueError(f"u = {u} is not a unit mod {pp}")
    g = gamma_table(params, pp.q, np.array([u], dtype=np.int64))[0]
    return GammaRoots(pp, u, params, tuple(int(x) for x in g))


def _ball_exponent(params: LiftParams, pp: PrimePower) -> int:
    """s = ceil(2m/n): every root of g_u is within ell^s of some gamma_i."""
    return -(-2 * pp.m // params.n)


def density_cells(params: LiftParams, pp: PrimePower, n_units: int) -> int:
    """Cells touched for n_units units: the O(q m) valuation and class
    tables, and (n/2) ell^(m-s) root candidates per unit."""
    return pp.q * pp.m + n_units * (params.n // 2) * pp.ell ** (pp.m - _ball_exponent(params, pp))


def root_cells(
    params: LiftParams, pp: PrimePower, units: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Every root w of g_u for each unit u (default: all units mod q), as
    parallel arrays (u, w) ordered by u, each root once.

    w is a root iff sum_i min(nu(w - gamma_i), m) >= m, so some
    nu(w - gamma_i) >= s = ceil(2m/n) and w lies in one of the n/2 balls
    gamma_i + ell^s Z/q.  Only those ell^(m-s) candidates per ball are
    tested, and a candidate inside an earlier ball is dropped.  gamma_table
    runs once, for all units: its phi(q) n/2 int64 are 8 bytes per cell that
    density_cells counts.  Units then go in blocks of about _BLOCK_CELLS
    candidates, which bounds the temporaries.
    """
    cells = density_cells(params, pp, pp.phi if units is None else len(units))
    if cells > DENSITY_CELLS_MAX:
        raise CapacityError(
            f"lift {params.k, params.n} mod {pp} needs {cells} cells > {DENSITY_CELLS_MAX}"
        )
    if units is None:
        units = np.flatnonzero(np.arange(pp.q) % pp.ell)
    s = _ball_exponent(params, pp)
    gamma = gamma_table(params, pp.q, units)
    step = max(1, _BLOCK_CELLS // (params.n // 2 * pp.ell ** (pp.m - s)))
    us, ws = [units[:0]], [units[:0]]
    for i in range(0, len(units), step):
        u, w = _ball_roots(pp, s, units[i : i + step], gamma[i : i + step])
        us.append(u)
        ws.append(w)
    return np.concatenate(us), np.concatenate(ws)


def _ball_roots(pp: PrimePower, s: int, units: np.ndarray, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """root_cells for one block of units, given their rows of gamma_table."""
    q, ell, m = pp.q, pp.ell, pp.m
    h = gamma.shape[1]
    w = gamma[:, :, None] + ell ** s * np.arange(ell ** (m - s), dtype=np.int64)
    w -= w // q * q
    vals = capped_valuations(ell, m)
    total = np.zeros(w.shape, dtype=np.int16)
    earlier = np.zeros(w.shape, dtype=bool)
    ball = np.arange(h)[:, None]
    for j in range(h):
        diff = w - gamma[:, j, None, None]
        diff -= diff // q * q
        v = vals[diff]
        total += v
        earlier |= (v >= s) & (j < ball)
    keep = (total >= m) & ~earlier
    return np.broadcast_to(units[:, None, None], w.shape)[keep], w[keep]


def delta_uv_generic(weight: int, pp: PrimePower, u: int, v: int) -> DensityReport:
    """Generic density of primes with (p, a_f(p)) = (u, v) mod q, for f of the
    given weight: matrices of trace v and determinant u^(weight-1) over the
    generic compositum degree."""
    q = pp.q
    u %= q
    if u % pp.ell == 0:
        raise ValueError(f"u = {u} is not a unit mod {pp}")
    d_u = pow(u, weight - 1, q)
    num = count_trace_det(pp, v % q, d_u).count
    den = generic_L_degree(weight, pp.ell, pp.m)
    delta = Fraction(num, den)
    return DensityReport(
        kind="uv",
        params={"weight": weight, "ell": pp.ell, "m": pp.m, "u": u, "v": v % q},
        delta_exact=delta,
        main_term=Fraction(1, pp.ell ** (2 * pp.m)),
        decay_bound=Fraction(pp.ell + FITTED_UV_SHAPE, pp.ell ** (2 * pp.m + 1)),
    )


def delta_F_generic(params: LiftParams, pp: PrimePower) -> DensityReport:
    """Exact generic density of primes whose lift eigenvalue vanishes mod q:
    sum over units u and roots w of g_u of the (u, w) class density.

    The determinant exponent uses the source-form weight 2k - n (the
    representation attached to f has det = p^(2k-n-1)); the gamma exponents
    use the Siegel weight k.  Both weights are exposed on LiftParams.

    Cost O(q m + phi(q) (n/2) ell^(m - ceil(2m/n))): root_cells enumerates
    the candidates, and each root's count is a bincount over the classes of
    discriminant_classes, for every ell.  Inputs above DENSITY_CELLS_MAX
    cells raise CapacityError before any array is built.
    """
    return delta_F_from_roots(params, pp, *root_cells(params, pp))


def delta_F_from_roots(params: LiftParams, pp: PrimePower, u: np.ndarray, w: np.ndarray) -> DensityReport:
    """delta_F_generic from the root cells (u, w) that root_cells(params, pp)
    returns, for a caller that also needs them."""
    wf = params.source_weight
    q, ell, m = pp.q, pp.ell, pp.m
    den = generic_L_degree(wf, ell, m)
    cls, counts, _ = discriminant_classes(ell, m)
    disc = w * w - 4 * pow_mod_array(np.arange(q, dtype=np.int64), wf - 1, q)[u]
    disc -= disc // len(cls) * len(cls)
    hist = np.bincount(cls[disc], minlength=len(counts))
    num = sum(int(c) * v for c, v in zip(hist, counts))
    delta = Fraction(num, den)
    n = params.n
    if n == 2:
        bound = Fraction(FITTED_DECAY_N2, q)
    else:
        # rational envelope with the exponent floored: 8 m^2 / ell^floor(3m/n)
        bound = Fraction(FITTED_DECAY_GEN * m * m, ell ** (3 * m // n))
    return DensityReport(
        kind="ikeda",
        params={"k": params.k, "n": params.n, "ell": ell, "m": m},
        delta_exact=delta,
        main_term=Fraction(n, 2 * ell) if m == 1 else None,
        decay_bound=bound,
    )


def _partitions(parts: int, total: int, cap: int | None = None):
    """Weakly decreasing nonnegative tuples of given length summing to total."""
    if parts == 1:
        if cap is None or total <= cap:
            yield (total,)
        return
    hi = total if cap is None else min(cap, total)
    for first in range(hi, -1, -1):
        if first * parts < total:
            break
        for rest in _partitions(parts - 1, total - first, first):
            yield (first,) + rest


def partitions_stat(n: int, m: int) -> PartitionStat:
    """Enumerate partitions of m into n/2 weakly decreasing parts and minimize
    s_1 + floor((s_2 + 1)/2); the closed-form argmin is the near-equal vector."""
    if n % 2 or n < 2:
        raise ValueError("n must be even >= 2")
    if m < 1:
        raise ValueError("m must be >= 1")
    parts = tuple(_partitions(n // 2, m))

    def score(vec: tuple[int, ...]) -> int:
        s2 = vec[1] if len(vec) > 1 else 0
        return vec[0] + (s2 + 1) // 2

    min_value = min(score(v) for v in parts)
    qq, i = divmod(m, n // 2)
    closed_form = tuple([qq + 1] * i + [qq] * (n // 2 - i))
    if score(closed_form) != min_value:
        raise AssertionError(
            f"closed-form argmin {closed_form} scores {score(closed_form)} != min {min_value}"
        )
    # the 3m/n bound belongs to the n >= 4 decay analysis; n = 2 has the
    # single partition (m) and no such claim
    if n >= 4 and min_value * n < 3 * m:
        raise AssertionError(f"partition minimum {min_value} below 3m/n for n={n}, m={m}")
    return PartitionStat(n=n, m=m, partitions=parts, min_value=min_value, argmin=closed_form)
