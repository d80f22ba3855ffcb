import json
import time
from fractions import Fraction

import pytest

import numpy as np

from heckedens import series, verify
from heckedens.cli import main
from heckedens.density import LiftParams, delta_F_generic
from heckedens.experiment import scan_pi_f
from heckedens.modring import PrimePower
from heckedens.primes import primes_in
from oracles import lambda_F_mod


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_example(capsys):
    code, out, _ = run_cli(capsys, "count", "--ell", "5", "--m", "1", "--t", "0", "--d", "1", "--brute")
    assert code == 0
    assert out.splitlines() == ["30", "30", "3,2"]


def test_density_ikeda_json_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "--no-timestamp",
        "density", "ikeda", "--k", "10", "--n", "2", "--ell", "7", "--m", "1",
    )
    assert code == 0
    payload = json.loads(out)
    got = Fraction(int(payload["num"]), int(payload["den"]))
    assert got == delta_F_generic(LiftParams(10, 2), PrimePower(7, 1)).delta_exact
    assert "timestamp" not in payload
    assert len(payload["decimal"]) <= 17


def test_density_uv_plain(capsys):
    code, out, _ = run_cli(capsys, "density", "uv", "--k", "12", "--ell", "5", "--m", "1", "--u", "1", "--v", "0")
    assert code == 0
    assert out.startswith("1/16")


def test_tower_csv(capsys):
    code, out, _ = run_cli(capsys, "tower", "--k", "12", "--ell", "11", "--max-m", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,r,deg_A,index,image_size,L_degree"
    assert [row.split(",")[3] for row in lines[1:]] == ["1", "11", "11"]


def test_scan_pif_cell_and_csv(capsys, tmp_path):
    out_csv = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys, "--no-timestamp",
        "scan", "pif", "--weight", "12", "--ell", "5", "--m", "1",
        "--x", "10000", "--csv", str(out_csv),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["pi_x"] == summary["count"]
    rows = out_csv.read_text().splitlines()
    assert rows[0] == "u,v,count,expected_num,expected_den,sigmas"
    assert len(rows) == 1 + 4 * 5
    total = sum(int(r.split(",")[2]) for r in rows[1:])
    assert total == summary["pi_x"]

    code, out, _ = run_cli(
        capsys, "--no-timestamp",
        "scan", "pif-cell", "--weight", "12", "--ell", "5", "--m", "1",
        "--x", "10000", "--u", "1", "--v", "0",
    )
    assert code == 0
    cell = json.loads(out)
    matching = [r for r in rows[1:] if r.startswith("1,0,")]
    assert len(matching) == 1
    fields = matching[0].split(",")
    assert int(fields[2]) == cell["count"]
    # exact rationals round-trip through the CSV as integer strings
    assert fields[3] == cell["expected_num"] and fields[4] == cell["expected_den"]
    assert Fraction(int(fields[3]), int(fields[4])) == Fraction(
        int(cell["expected_num"]), int(cell["expected_den"])
    )


@pytest.mark.parametrize("ell, m", [(5, 1), (2, 3), (7, 2)])
def test_scan_pif_csv_matches_a_per_cell_oracle(capsys, tmp_path, ell, m):
    # the row-list writer against the per-cell f-strings it replaced
    out_csv = tmp_path / "table.csv"
    argv = ["--cache-dir", str(tmp_path), "scan", "pif", "--weight", "12", "--ell", str(ell), "--m", str(m)]
    code, _, _ = run_cli(capsys, *argv, "--x", "10000", "--csv", str(out_csv))
    assert code == 0
    res = scan_pi_f(12, PrimePower(ell, m), 10 ** 4, str(tmp_path))
    q = ell ** m
    want = ["u,v,count,expected_num,expected_den,sigmas\n"]
    for u in range(1, q):
        if u % ell:
            want += [
                f"{u},{v},{res.counts[u, v]},{res.expected_num[u, v]},{res.expected_den},{res.sigmas[u, v]:.6f}\n"
                for v in range(q)
            ]
    assert out_csv.read_bytes() == "".join(want).encode()


def test_scan_ikeda_identity(capsys):
    code, out, _ = run_cli(
        capsys, "--no-timestamp",
        "scan", "ikeda", "--k", "10", "--n", "2", "--ell", "5", "--m", "1", "--x", "10000",
    )
    assert code == 0
    payload = json.loads(out)
    assert "rootset_count" not in payload and "grh_scale" not in payload
    params, pp = LiftParams(10, 2), PrimePower(5, 1)
    a = series.eigenform_coeffs(18, 10 ** 4, pp).coeffs
    ps = [p for p in primes_in(2, 10 ** 4).tolist() if p != 5]
    assert payload["pi_x"] == len(ps)
    assert payload["count"] == sum(lambda_F_mod(int(a[p]), p, params, pp) == 0 for p in ps)


def test_output_bit_identical_without_timestamp(capsys):
    args = ("--format", "json", "--no-timestamp", "density", "uv",
            "--k", "12", "--ell", "7", "--m", "1", "--u", "2", "--v", "3")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_timestamp_present_by_default(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json",
        "density", "uv", "--k", "12", "--ell", "7", "--m", "1", "--u", "2", "--v", "3",
    )
    assert code == 0
    assert "timestamp" in json.loads(out)


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "count", "--ell", "5")
    assert code == 1
    assert "error:" in err


def test_guard_violation_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "scan", "pif", "--weight", "12", "--ell", "10007", "--m", "2", "--x", "10000"
    )
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run_cli(capsys, "count", "--ell", "11", "--m", "2", "--t", "0", "--d", "1", "--brute")
    assert code == 2


def test_failed_product_check_exit_code(capsys, monkeypatch, tmp_path):
    # a product whose random evaluation disagrees raises ArithmeticError,
    # reported as a verification failure, not a traceback
    rng = np.random.default_rng(3)
    monkeypatch.setattr(series, "_value_at", lambda v, bits: int(rng.integers(1 << 61)))
    code, out, err = run_cli(
        capsys, "--cache-dir", str(tmp_path), "scan", "pif", "--weight", "12", "--ell", "11", "--m", "1", "--x", "1000"
    )
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "failed its check" in err


def test_out_of_memory_exit_code(capsys, monkeypatch, tmp_path):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.38 GiB")

    monkeypatch.setattr(series, "_delta", no_memory)
    code, out, err = run_cli(
        capsys, "--cache-dir", str(tmp_path), "scan", "pif", "--weight", "12", "--ell", "11", "--m", "1", "--x", "1000"
    )
    assert code == 2 and out == ""
    assert err == "error: out of memory: Unable to allocate 2.38 GiB\n"


def test_invalid_value_exit_code(capsys):
    code, _, err = run_cli(capsys, "count", "--ell", "9", "--m", "1", "--t", "0", "--d", "1")
    assert code == 1
    assert "not prime" in err
    # an exponent far past 2^62 is refused before 3^m is formed
    t0 = time.perf_counter()
    code, _, err = run_cli(capsys, "density", "ikeda", "--k", "10", "--n", "2", "--ell", "3", "--m", "1000000000")
    assert code == 1 and "exceeds 2^62" in err
    assert time.perf_counter() - t0 < 0.5


def test_config_precedence(capsys, tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    flag_dir = tmp_path / "from_flag"
    monkeypatch.setenv("HECKE_CACHE_DIR", str(env_dir))

    args = ("scan", "pif", "--weight", "12", "--ell", "5", "--m", "1", "--x", "10000")
    code, _, _ = run_cli(capsys, *args)
    assert code == 0 and env_dir.exists()

    code, _, _ = run_cli(capsys, "--cache-dir", str(flag_dir), *args)
    assert code == 0 and flag_dir.exists()

    # there is no config file: the flag is a usage error, not ignored
    cfg = tmp_path / "hecke.cfg"
    cfg.write_text(f"cache_dir={tmp_path / 'from_cfg'}\n")
    code, _, err = run_cli(capsys, "--config", str(cfg), *args)
    assert code == 1 and err.startswith("error:") and not (tmp_path / "from_cfg").exists()


def test_verify_quick_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--level", "quick")
    assert code == 0
    lines = out.splitlines()
    assert all(l.startswith(("PASS", "FAIL")) or "checks passed" in l for l in lines)
    assert not any(l.startswith("FAIL") for l in lines)
    # every check reports its wall time
    assert all(l.endswith(" s)") for l in lines if l.startswith("PASS"))


def test_verify_failure_exit_three(capsys, monkeypatch):
    import heckedens.cli as cli_mod

    monkeypatch.setattr(
        cli_mod.verify_mod, "run", lambda level, cache_dir: [("stub", False, "boom")]
    )
    code, out, _ = run_cli(capsys, "verify")
    assert code == 3
    assert "FAIL stub: boom" in out


def test_verify_identity_check_catches_a_dropped_root_cell(capsys, monkeypatch, tmp_path):
    # the scan's one count against the product formula: a root cell missing
    # from the scan's mask must fail the check and the verb
    from heckedens import experiment

    root_cells = experiment.root_cells

    def drop_last(params, pp, units=None):
        # the last cell of each lift the check scans, for u = -1, holds
        # about 200 of the primes up to 10^4; some first cells hold none
        u, w = root_cells(params, pp, units)
        return u[:-1], w[:-1]

    monkeypatch.setattr(experiment, "root_cells", drop_last)
    ok, detail = verify.check_pi_F_identity(str(tmp_path))
    assert not ok and "product formula" in detail
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "verify", "--level", "quick")
    assert code == 3
    assert any(l.startswith("FAIL eigenvalue-count identity") for l in out.splitlines())


def test_verify_identity_check_catches_a_dropped_first_root_cell(capsys, monkeypatch, tmp_path):
    # the first cells of (10,2) mod 5, (12,4) mod 9 and (16,6) mod 7 hold no
    # prime up to 10^4; (10,2) mod 23 holds primes in every root cell
    from heckedens import experiment

    root_cells = experiment.root_cells

    def drop_first(params, pp, units=None):
        u, w = root_cells(params, pp, units)
        return u[1:], w[1:]

    monkeypatch.setattr(experiment, "root_cells", drop_first)
    ok, detail = verify.check_pi_F_identity(str(tmp_path))
    assert not ok and detail.startswith("(10,2) mod 23:")
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "verify", "--level", "quick")
    assert code == 3
    assert any(l.startswith("FAIL eigenvalue-count identity") for l in out.splitlines())


def test_verify_statistical_scan_checks_the_expected_table(monkeypatch, tmp_path):
    from heckedens import experiment

    assert verify.check_statistical_scan(str(tmp_path))[0]
    gather = experiment.trace_class_gather

    def shifted(pp, num, *values):
        # every class takes its neighbour's count
        return gather(pp, np.roll(num, 1), *values)

    monkeypatch.setattr(experiment, "trace_class_gather", shifted)
    ok, detail = verify.check_statistical_scan(str(tmp_path))
    assert not ok and detail == "expected numerators of row u = 1 differ from the trace-det counts"


def test_verify_prime_table_check(tmp_path):
    cdir = str(tmp_path)
    ok, detail = verify.check_prime_table(cdir)
    assert not ok and "no valid prime table" in detail
    verify.check_pi_F_identity(cdir)  # a scan to 10^4 leaves the table
    assert verify.check_prime_table(cdir) == (True, "cached prime table equals the sieve up to X' = 10007")
    # a table that passes every read check but lacks a prime is caught
    table = series._cached_primes(cdir, 10007)
    series._cache_write(str(tmp_path / "other" / "primes.bin"), series._PRIME_TABLE, 10007, np.delete(table, 100))
    ok, detail = verify.check_prime_table(str(tmp_path / "other"))
    assert not ok and "differ from the sieve" in detail
