import dataclasses
import os
import tracemalloc
import zlib

import numpy as np
import pytest

from heckedens import experiment, primes, series
from heckedens.density import LiftParams, delta_uv_generic
from heckedens.errors import CapacityError
from heckedens.experiment import (
    ScanResult,
    _deviation_table,
    scan_pi_F,
    scan_pi_f,
)
from heckedens.modring import PrimePower
from heckedens.primes import primes_in
from heckedens.series import SUPPORTED_WEIGHTS, eigenform_coeffs
from oracles import lambda_F_exact, lambda_F_mod


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
    # the benchmark's scan check reads the count under its former name
    assert res.rootset_count is res.counts
    assert scan_pi_f(12, pp, 10 ** 4).rootset_count is None
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
    # one, two and three factors of lambda_F
    pp = PrimePower(ell, m)
    x = 10 ** 4
    ps = primes_in(2, x)
    ps = ps[ps != ell].tolist()
    for params in (LiftParams(10, 2), LiftParams(12, 4), LiftParams(16, 6)):
        res = scan_pi_F(params, pp, x)
        a = eigenform_coeffs(params.source_weight, x, pp).coeffs
        manual = sum(lambda_F_mod(int(a[p]), p, params, pp) == 0 for p in ps)
        assert res.counts == manual, params


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


def test_sigma_reference_points():
    # verify's statistical scan and the acceptance criteria read SIGMA_PASS
    assert (experiment.SIGMA_PASS, experiment.SIGMA_EXCEPTIONAL) == (4.0, 10.0)


def test_scan_guards():
    with pytest.raises(CapacityError):
        scan_pi_f(12, PrimePower(101, 2), 10 ** 4)
    with pytest.raises(ValueError):
        scan_pi_f(12, PrimePower(5, 1), 50)


@pytest.mark.parametrize(
    "ell, m, x, segment, block",
    [
        # the segments are the miss's sieve, the blocks the scans' walk
        (23, 1, 3000, 22, 3),  # ell ends the first segment and the third block
        (23, 1, 3000, 21, 1),  # ell opens the second segment, alone in its block
        (13, 1, 2000, 64, 5),  # ell inside a segment, opening the second block
        (2, 5, 2000, 50, 2),  # q = 2^5: ell = 2 opens the first block
        (3, 3, 2000, 7, 4),  # segments of 7 integers, some without primes
        (101, 1, 100, 30, 3),  # ell > x
        (7, 2, 2500, None, None),  # one segment, one block
    ],
)
def test_blocked_scans_match_a_per_prime_oracle(tmp_path, monkeypatch, ell, m, x, segment, block, python_primes):
    pp = PrimePower(ell, m)
    q = pp.q
    ps = [p for p in python_primes(x) if p != ell]
    if segment is not None:
        monkeypatch.setattr(primes, "SEGMENT_SIZE", segment)
        monkeypatch.setattr(experiment, "_BLOCK_PRIMES", block)
        assert len(list(primes.iter_prime_segments(2, x))) == -(-(x - 1) // segment)
    a = eigenform_coeffs(12, x, pp).coeffs.tolist()
    table = [[0] * q for _ in range(q)]
    for p in ps:
        table[p % q][a[p]] += 1
    # a prime-table miss (sieved in the patched segments) against a hit
    cdir = str(tmp_path)
    f_miss, f_hit = scan_pi_f(12, pp, x, cache_dir=cdir), scan_pi_f(12, pp, x, cache_dir=cdir)
    assert f_miss.pi_x == len(ps) and f_miss.counts.tolist() == table
    _assert_same(f_miss, f_hit)
    for params in (LiftParams(10, 2), LiftParams(12, 4)):
        a = eigenform_coeffs(params.source_weight, x, pp).coeffs.tolist()
        manual = sum(lambda_F_mod(a[p], p, params, pp) == 0 for p in ps)
        os.remove(tmp_path / "primes.bin")
        miss = scan_pi_F(params, pp, x, cache_dir=cdir)
        assert miss.pi_x == len(ps) and miss.counts == manual, params
        _assert_same(miss, scan_pi_F(params, pp, x, cache_dir=cdir))
    # and a hit on a table sieved past x
    series._cached_primes(cdir, 2 * x)
    _assert_same(f_miss, scan_pi_f(12, pp, x, cache_dir=cdir))


def _assert_same(want, got):
    """Every ScanResult field equal, arrays in dtype and value."""
    for field in dataclasses.fields(ScanResult):
        w, g = getattr(want, field.name), getattr(got, field.name)
        if isinstance(w, np.ndarray):
            assert w.dtype == g.dtype and np.array_equal(w, g), field.name
        else:
            assert type(w) is type(g) and w == g, field.name


def _fail(*args, **kwargs):
    raise AssertionError("a warm scan must not build coefficients or sieve primes")


@pytest.mark.parametrize("ell, m", [(11, 1), (7, 3)])  # uint8 and uint16 residues
def test_warm_hit_scan_matches_cold_miss_scan(tmp_path, monkeypatch, ell, m):
    pp = PrimePower(ell, m)
    x = 20000
    for scan, arg in ((scan_pi_f, 12), (scan_pi_F, LiftParams(10, 2))):
        cdir = str(tmp_path / scan.__name__)
        cold = scan(arg, pp, x, cache_dir=cdir)
        small = scan(arg, pp, x // 2, cache_dir=str(tmp_path / f"{scan.__name__}_small"))
        # a warm hit builds no coefficients and sieves no primes
        with monkeypatch.context() as patch:
            patch.setattr(series, "_delta", _fail)
            patch.setattr(series, "series_mul", _fail)
            patch.setattr(primes, "iter_prime_segments", _fail)
            warm = scan(arg, pp, x, cache_dir=cdir)
            prefix = scan(arg, pp, x // 2, cache_dir=cdir)
        # stored residues with a prime-table miss
        os.remove(os.path.join(cdir, "primes.bin"))
        with monkeypatch.context() as patch:
            patch.setattr(series, "_delta", _fail)
            patch.setattr(series, "series_mul", _fail)
            table_miss = scan(arg, pp, x, cache_dir=cdir)
        # x = 1000 is below the 2262 primes of the table, which is sieved
        # past, not read or rewritten
        tiny = scan(arg, pp, 1000, cache_dir=str(tmp_path / f"{scan.__name__}_tiny"))
        with monkeypatch.context() as patch:
            patch.setattr(series, "_delta", _fail)
            patch.setattr(series, "series_mul", _fail)
            patch.setattr(series, "_cache_write", _fail)
            sieved = scan(arg, pp, 1000, cache_dir=cdir)
        for want, got in ((cold, warm), (small, prefix), (cold, table_miss), (tiny, sieved)):
            _assert_same(want, got)


def _reseal(fields, payload):
    fields[8] = zlib.crc32(payload)


# corruptions of a prime table ending at X' = 3001; where only the check
# under test would catch one, the checksum is resealed


def _table_bit_flipped(fields, payload):
    payload[9] ^= 1


def _table_cut_mid_value(fields, payload):
    del payload[-1]
    _reseal(fields, payload)


def _table_truncated(fields, payload):
    del payload[-4:]
    _reseal(fields, payload)


def _table_foreign_key(fields, payload):
    fields[3:6] = [12, 11, 1]  # the weight-12 eigenform's key mod 11


def _table_wrong_dtype(fields, payload):
    fields[7] = b"<u2\0"


def _table_unsorted(fields, payload):
    p = np.frombuffer(bytes(payload), "<u4").copy()
    p[[5, 6]] = p[[6, 5]]
    payload[:] = p.tobytes()
    _reseal(fields, payload)


def _table_not_from_two(fields, payload):
    del payload[:4]
    _reseal(fields, payload)


def _table_past_bound(fields, payload):
    fields[6] -= 2  # X' = 2999, below the last prime


def _table_short_of_bound(fields, payload):
    fields[6] += 16  # X' = 3017, and the prime 3011 is missing


@pytest.mark.parametrize("corrupt", [
    _table_bit_flipped, _table_cut_mid_value, _table_truncated, _table_foreign_key, _table_wrong_dtype,
    _table_unsorted, _table_not_from_two, _table_past_bound, _table_short_of_bound,
])
def test_refused_prime_table_is_rebuilt_and_the_scan_stays_exact(tmp_path, corrupt):
    pp = PrimePower(11, 1)
    x = 3000
    truth = scan_pi_f(12, pp, x, cache_dir=str(tmp_path / "fresh"))
    path = tmp_path / "primes.bin"
    scan_pi_f(12, pp, x, cache_dir=str(tmp_path))
    good = path.read_bytes()
    fields = list(series._CACHE_HEADER.unpack_from(good))
    payload = bytearray(good[series._CACHE_HEADER.size :])
    corrupt(fields, payload)
    path.write_bytes(series._CACHE_HEADER.pack(*fields) + bytes(payload))
    assert series._cache_read(str(path), series._PRIME_TABLE) is None
    _assert_same(truth, scan_pi_f(12, pp, x, cache_dir=str(tmp_path)))
    assert path.read_bytes() == good


def test_table_scan_refuses_tables_over_the_byte_budget(tmp_path, monkeypatch):
    pp = PrimePower(101, 1)
    cdir = str(tmp_path)
    want = scan_pi_f(12, pp, 10 ** 4, cache_dir=cdir)  # fills the cache
    default = series.DENSE_MAX_BYTES
    need = experiment._TABLE_CELL_BYTES * 101 * 101
    monkeypatch.setattr(series, "DENSE_MAX_BYTES", need)
    assert np.array_equal(scan_pi_f(12, pp, 10 ** 4, cache_dir=cdir).counts, want.counts)
    # one byte less is refused before the prime table and the cache read
    monkeypatch.setattr(series, "DENSE_MAX_BYTES", need - 1)
    monkeypatch.setattr(series, "_cached_primes", _fail)
    monkeypatch.setattr(series, "_cached_residues", _fail)
    with pytest.raises(CapacityError, match="q x q tables"):
        scan_pi_f(12, pp, 10 ** 4, cache_dir=cdir)
    # the default budget refuses the largest moduli TABLE_MAX_Q admits
    monkeypatch.setattr(series, "DENSE_MAX_BYTES", default)
    with pytest.raises(CapacityError, match="q x q tables"):
        scan_pi_f(12, PrimePower(9973, 1), 10 ** 4, cache_dir=cdir)


@pytest.mark.parametrize("scan, arg, ell", [(scan_pi_F, LiftParams(10, 2), 23), (scan_pi_f, 12, 11)])
def test_warm_scan_peak_stays_below_an_int64_prefix(tmp_path, scan, arg, ell):
    # a warm scan reads the stored residues in blocks: its traced peak stays
    # below the 8 (X + 1) bytes of an int64 copy of a(0..X)
    X = 2 * 10 ** 5
    pp = PrimePower(ell, 1)
    scan(arg, pp, X, cache_dir=str(tmp_path))
    tracemalloc.start()
    try:
        scan(arg, pp, X, cache_dir=str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (X + 1)
