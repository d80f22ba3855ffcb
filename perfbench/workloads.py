"""The benchmark's seeded workloads and the oracles that check them.

A workload makes its inputs from the seed, runs one operation at a time
through the public heckedens API and checks every result outside the timed
region.  Operations come in rounds of fixed composition (the seed picks the
moduli within each band and the order), and a timed pass always ends on a
whole round, so the mix behind every percentile is the same in every run.
The oracles use Python-int arithmetic, or a code path other than the one
under test, so a check cannot overflow along with the code it checks.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from fractions import Fraction


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def primes_upto(x: int) -> list[int]:
    """Primes <= x by a plain bytearray sieve, independent of heckedens.primes."""
    sieve = bytearray([1]) * (x + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(x) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, x + 1, p)))
    return list(itertools.compress(range(x + 1), sieve))


def lift_roots(gammas: list[int], ell: int, m: int) -> list[int]:
    """All w mod ell^m with prod(w - gamma_i) = 0 mod ell^m, lifted digit by
    digit: a root mod ell^(j+1) reduces to a root mod ell^j."""

    def g(w: int) -> int:
        out = 1
        for c in gammas:
            out *= w - c
        return out

    roots = [w for w in range(ell) if g(w) % ell == 0]
    mod = ell
    for _ in range(1, m):
        nxt = mod * ell
        roots = [r + t * mod for r in roots for t in range(ell) if g(r + t * mod) % nxt == 0]
        mod = nxt
    return roots


def delta_F_oracle(hd, count_trace_det, k: int, n: int, ell: int, m: int) -> Fraction:
    """delta_F(ell^m) for the lift (k, n), summed cell by cell: for each unit
    u and each root w of g_u, count_trace_det (the z-profile path) at trace w
    and determinant u^(2k-n-1), over |SL2(Z/q)| * phi(q)."""
    q = ell ** m
    pp = hd.PrimePower(ell, m)
    num = 0
    for u in range(1, q):
        if u % ell == 0:
            continue
        gammas = [-(pow(u, k - i, q) + pow(u, k - n - 1 + i, q)) % q for i in range(1, n // 2 + 1)]
        d = pow(u, 2 * k - n - 1, q)
        for w in lift_roots(gammas, ell, m):
            num += count_trace_det(pp, w, d).count
    sl2 = ell ** (3 * m - 2) * (ell * ell - 1)
    phi = ell ** (m - 1) * (ell - 1)
    return Fraction(num, sl2 * phi)


class CoeffOracle:
    """Checks a(0..X) of a weight-w eigenform mod q in Python ints: a(0) = 0,
    a(1) = 1, every residue in [0, q), a(0..200) against the exact
    big-integer expansion, and one seeded sample of a(mn) = a(m)a(n) for
    coprime m, n and of a(p^2) = a(p)^2 - p^(w-1)."""

    def __init__(self, rng: random.Random, X: int, exact_eigenform):
        self.X = X
        self.exact_eigenform = exact_eigenform
        self._exact: dict[tuple[int, int], list[int]] = {}
        primes = [p for p in range(2, math.isqrt(X) + 1) if _is_prime(p)]
        self.hecke_primes = rng.sample(primes, min(8, len(primes)))
        self.pairs = []
        while len(self.pairs) < 32:
            a = rng.randrange(2, X // 2 + 1)
            b = rng.randrange(2, X // a + 1)
            if math.gcd(a, b) == 1:
                self.pairs.append((a, b))

    def wrong_residues(self, w: int, q: int, coeffs) -> int:
        """Residues of a(0..len-1) that differ from the exact expansion mod q."""
        key = (w, len(coeffs) - 1)
        if key not in self._exact:
            self._exact[key] = [int(v) for v in self.exact_eigenform(w, key[1], None).coeffs]
        return sum((int(c) - r) % q != 0 for c, r in zip(coeffs, self._exact[key]))

    def ok(self, w: int, q: int, coeffs) -> bool:
        """coeffs is any integer sequence; the identities read the sampled
        entries as Python ints."""
        if len(coeffs) != self.X + 1 or min(coeffs) < 0 or max(coeffs) >= q:
            return False
        if int(coeffs[0]) != 0 or int(coeffs[1]) != 1 or self.wrong_residues(w, q, coeffs[:201]):
            return False
        sampled = [i for x, y in self.pairs for i in (x, y, x * y)] + [i for p in self.hecke_primes for i in (p, p * p)]
        a = {i: int(coeffs[i]) for i in sampled}
        if any((a[x * y] - a[x] * a[y]) % q for x, y in self.pairs):
            return False
        return not any((a[p * p] - a[p] ** 2 + p ** (w - 1)) % q for p in self.hecke_primes)


class Workload:
    """One seeded workload; subclasses define the operations and checks."""

    name = ""
    tail_pct = 90  # the op_s.tail percentile
    item = ""

    def __init__(self, hd, seed: int, work_dir: str):
        self.hd = hd
        self.rng = random.Random(seed)
        self.work_dir = work_dir
        # oracles keep the functions bound now, so a traced pass never
        # counts their calls as the workload's
        self.oracle_eigenform = hd.eigenform_coeffs
        self.oracle_count = hd.count_trace_det

    def setup(self, attempt: int):
        """Set-up work timed as part of setup_s; run once per attempt."""

    def next_round(self) -> list[tuple]:
        raise NotImplementedError

    def run(self, op: tuple):
        raise NotImplementedError

    def check(self, op: tuple, result) -> bool:
        raise NotImplementedError

    def items(self, op: tuple, result) -> int:
        raise NotImplementedError


WEIGHTS = (12, 18, 26)
COEFF_ELLS = tuple(p for p in range(11, 84) if _is_prime(p))
# prime powers in [2000, 3200]: 2187, 2197, 2209, 2401, 2809, 3125
COEFF_QS = ((3, 7), (13, 3), (47, 2), (7, 4), (53, 2), (5, 5))


class CoeffsCold(Workload):
    """eigenform_coeffs(w, X, q) into an empty cache directory."""

    name = "coeffs_cold"
    tail_pct = 80
    item = "coefficients"

    def __init__(self, hd, seed, work_dir, X=1 << 14, ells=COEFF_ELLS, qs=COEFF_QS):
        super().__init__(hd, seed, work_dir)
        self.X = X
        self.ells = [(ell, 1) for ell in ells]
        self.qs = qs
        self._dirs = 0
        # the same seeded sample of identities is checked on every result
        self.oracle = CoeffOracle(self.rng, X, self.oracle_eigenform)

    def next_round(self):
        # Costs rise as w12 < w18 (small ell) < w18 (q) < w26 (small ell)
        # < w26 (q), since q needs two transform primes.  Three slots for
        # weight 18 mod q put the median inside that cost level and p80
        # inside the next, not on the gap between two levels.
        slots = [(12, self.ells), (12, self.qs), (18, self.ells), (26, self.ells), (26, self.qs)]
        slots += [(18, self.qs)] * 3
        ops = [(w, *self.rng.choice(band)) for w, band in slots]
        self.rng.shuffle(ops)
        return ops

    def _fresh_dir(self) -> str:
        self._dirs += 1
        return os.path.join(self.work_dir, f"cold{self._dirs}")

    def run(self, op):
        w, ell, m = op
        return self.hd.eigenform_coeffs(w, self.X, self.hd.PrimePower(ell, m), cache_dir=self._fresh_dir())

    def check(self, op, result):
        w, ell, m = op
        return self.oracle.ok(w, ell ** m, result.coeffs)

    def items(self, op, result):
        return self.X + 1

    def probe(self) -> tuple[int, int]:
        """Weight 18 mod 3^30 at X = 500: (wrong residues, residues) against
        the exact expansion.  q > 2^31 takes the divisor-power sieve past
        int64, which the package does not yet guard."""
        out = self.hd.eigenform_coeffs(18, 500, self.hd.PrimePower(3, 30), cache_dir=self._fresh_dir())
        return self.oracle.wrong_residues(18, 3 ** 30, out.coeffs), len(out.coeffs)


# Fixed moduli: a scan's cost moves by up to 25% across ell in 11..23, so a
# seeded choice of moduli spread the figures of different seeds past any
# useful bound.  The seed orders the scans.
SCAN_OPS = (("pi_f", 11, 1), ("pi_f", 7, 3), ("pi_F", 23, 1))
SCAN_LIFT = (10, 2)  # source weight 18


class ScanWarm(Workload):
    """scan_pi_f and scan_pi_F to x over a cache filled during set-up.

    Set-up keeps the coefficients it built and wrote to the cache.  They are
    checked once, outside the timed region, with the coefficient oracle, and
    every scan must then reproduce, from its cache read, the counts those
    coefficients give in Python ints over the primes of an independent sieve.
    """

    name = "scan_warm"
    tail_pct = 95
    item = "primes scanned"

    def __init__(self, hd, seed, work_dir, x=250_000, ops=SCAN_OPS):
        super().__init__(hd, seed, work_dir)
        self.x, self.ops = x, ops
        self.primes = primes_upto(x)
        self.pi_x = len(self.primes) - 1  # every scan leaves out ell <= x
        self.oracle = CoeffOracle(self.rng, x, self.oracle_eigenform)
        self.built: dict[tuple[int, int, int], object] = {}
        self._expected: dict[tuple, object] = {}  # op -> what a correct scan counts
        self._density: dict[tuple[int, int], Fraction] = {}
        self.cache_dir = None

    @staticmethod
    def weight(kind: str) -> int:
        k, n = SCAN_LIFT
        return 12 if kind == "pi_f" else 2 * k - n

    def setup(self, attempt):
        self.cache_dir = os.path.join(self.work_dir, f"cache{attempt}")
        for kind, ell, m in self.ops:
            w = self.weight(kind)
            out = self.hd.eigenform_coeffs(w, self.x, self.hd.PrimePower(ell, m), cache_dir=self.cache_dir)
            self.built[(w, ell, m)] = out.coeffs

    def next_round(self):
        ops = list(self.ops)
        self.rng.shuffle(ops)
        return ops

    def run(self, op):
        kind, ell, m = op
        pp = self.hd.PrimePower(ell, m)
        if kind == "pi_f":
            return self.hd.scan_pi_f(12, pp, self.x, cache_dir=self.cache_dir)
        return self.hd.scan_pi_F(self.hd.LiftParams(*SCAN_LIFT), pp, self.x, cache_dir=self.cache_dir)

    def expected(self, op):
        """What a correct scan of op counts, from the coefficients set-up
        built, each checked once with the coefficient oracle: the pi_f table
        of (p mod q, a(p)), or the number of p with lambda_F(p) = 0 mod q,
        lambda_F as an exact product.  None if set-up built wrong
        coefficients."""
        if op not in self._expected:
            self._expected[op] = self._count(*op)
        return self._expected[op]

    def _count(self, kind, ell, m):
        q, w = ell ** m, self.weight(kind)
        coeffs = self.built[(w, ell, m)]
        if not self.oracle.ok(w, q, coeffs):
            return None
        a = {p: int(coeffs[p]) for p in self.primes if p != ell}
        if kind == "pi_F":
            k, n = SCAN_LIFT
            return sum(
                math.prod(a[p] + p ** (k - i) + p ** (k - n - 1 + i) for i in range(1, n // 2 + 1)) % q == 0
                for p in a
            )
        table = [[0] * q for _ in range(q)]
        for p, ap in a.items():
            table[p % q][ap] += 1
        return table

    def check(self, op, res):
        kind, ell, m = op
        q = ell ** m
        expected = self.expected(op)
        if expected is None or res.pi_x != self.pi_x:
            return False
        if kind == "pi_F":
            if (ell, m) not in self._density:
                self._density[ell, m] = delta_F_oracle(self.hd, self.oracle_count, *SCAN_LIFT, ell, m)
            density = Fraction(int(res.expected_num), int(res.expected_den))
            return int(res.counts) == res.rootset_count == expected and density == self._density[ell, m]
        if res.counts.tolist() != expected:
            return False
        # a unit row sums the trace-det counts over all traces: the matrices
        # of one determinant, |SL2(Z/q)|.  Entries are below q^4 < 2^36, so
        # the int64 row sums are exact.
        sl2 = q ** 3 - q ** 3 // (ell * ell)
        rows = res.expected_num.sum(axis=1).tolist()
        return all(r == (sl2 if u % ell else 0) for u, r in enumerate(rows))

    def items(self, op, res):
        return res.pi_x


LIFTS = ((10, 2), (12, 4))
# q in two bands, 289..361 and 1331..1369: the median falls on the near-equal
# q = 343 and 361 cost levels and p75 on the near-equal 1331 and 1369 ones,
# not on a gap between levels
DENSITY_MODULI = ((17, 2), (7, 3), (19, 2), (11, 3), (37, 2))


class DensityExact(Workload):
    """delta_F_generic for both lifts at one q per operation."""

    name = "density_exact"
    tail_pct = 75
    item = "unit classes"

    def __init__(self, hd, seed, work_dir, moduli=DENSITY_MODULI):
        super().__init__(hd, seed, work_dir)
        self.moduli = moduli
        self._oracle: dict[tuple, Fraction] = {}

    def next_round(self):
        ops = list(self.moduli)
        self.rng.shuffle(ops)
        return ops

    def run(self, op):
        pp = self.hd.PrimePower(*op)
        return [self.hd.delta_F_generic(self.hd.LiftParams(k, n), pp) for k, n in LIFTS]

    def check(self, op, reports):
        for (k, n), report in zip(LIFTS, reports, strict=True):
            key = (k, n, *op)
            if key not in self._oracle:
                self._oracle[key] = delta_F_oracle(self.hd, self.oracle_count, *key)
            if report.delta_exact != self._oracle[key]:
                return False
        return True

    def items(self, op, reports):
        ell, m = op
        return len(LIFTS) * ell ** (m - 1) * (ell - 1)


WORKLOADS = {cls.name: cls for cls in (CoeffsCold, ScanWarm, DensityExact)}
