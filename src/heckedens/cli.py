"""Command-line entry point: tower reports, matrix counts, exact densities,
empirical scans, and the self-verification suite.

Exit codes: 0 success, 1 usage error, 2 guard violation or out of memory,
3 verification failure (a failed `verify` check, or a series product that
failed its exactness check).  All errors go to stderr with an `error:`
prefix.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

import numpy as np

from . import verify as verify_mod
from .density import LiftParams, delta_F_generic, delta_uv_generic
from .errors import CapacityError
from .experiment import scan_pi_F, scan_pi_f
from .matcount import count_trace_det, count_trace_det_brute, z_profile
from .modring import PrimePower
from .tower import tower_report


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _frac_fields(f: Fraction, prefix: str = "") -> dict:
    dec = f"{float(f):.15g}"
    return {f"{prefix}num": str(f.numerator), f"{prefix}den": str(f.denominator),
            f"{prefix}decimal": dec}


def _emit_json(payload: dict, args):
    if not args.no_timestamp:
        payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    print(json.dumps(payload))


def _cmd_tower(args):
    rep = tower_report(args.k, args.ell, args.max_m)
    if args.format == "json":
        payload = {
            "k": rep.k,
            "ell": rep.ell,
            "levels": [
                {"m": lv.m, "r": lv.r, "deg_A": lv.deg_A, "index": lv.index,
                 "image_size": lv.image_size, "L_degree": lv.L_degree}
                for lv in rep.levels
            ],
            "caveat": rep.caveat,
        }
        _emit_json(payload, args)
    else:
        for row in rep.csv_rows():
            print(row)
    return 0


def _cmd_count(args):
    pp = PrimePower(args.ell, args.m)
    res = count_trace_det(pp, args.t, args.d)
    print(res.count)
    if args.brute:
        print(count_trace_det_brute(pp, args.t, args.d).count)
    prof = z_profile(pp, args.t, args.d)
    print(",".join(str(z) for z in prof.counts))
    return 0


def _report_payload(rep) -> dict:
    payload = dict(rep.params)
    payload.update(_frac_fields(rep.delta_exact))
    if rep.main_term is not None:
        payload.update(_frac_fields(rep.main_term, "main_term_"))
    payload.update(_frac_fields(rep.decay_bound, "decay_bound_"))
    payload["caveats"] = list(rep.caveats)
    return payload


def _cmd_density(args):
    if args.which == "uv":
        rep = delta_uv_generic(args.k, PrimePower(args.ell, args.m), args.u, args.v)
    else:
        rep = delta_F_generic(LiftParams(args.k, args.n), PrimePower(args.ell, args.m))
    if args.format == "json":
        _emit_json(_report_payload(rep), args)
    else:
        f = rep.delta_exact
        print(f"{f.numerator}/{f.denominator} = {float(f):.15g}")
    return 0


def _scan_summary(res) -> dict:
    counts = int(res.counts) if res.mode == "pi_F" else int(np.sum(res.counts))
    out = {
        "mode": res.mode,
        "ell": res.modulus.ell,
        "m": res.modulus.m,
        "x": res.x,
        "pi_x": res.pi_x,
        "count": counts,
        "deviation_sigmas": round(res.deviation_sigmas, 4),
        "exceptional": res.exceptional,
    }
    if res.mode == "pi_F":
        out["expected_num"] = str(res.expected_num)
        out["expected_den"] = str(res.expected_den)
    return out


def _write_table_csv(res, path: str):
    pp = res.modulus
    q = pp.q
    with open(path, "w") as fh:
        fh.write("u,v,count,expected_num,expected_den,sigmas\n")
        for u in range(1, q):
            if u % pp.ell == 0:
                continue
            for v in range(q):
                fh.write(
                    f"{u},{v},{res.counts[u, v]},{res.expected_num[u, v]},"
                    f"{res.expected_den},{res.sigmas[u, v]:.6f}\n"
                )


def _cmd_scan(args):
    pp = PrimePower(args.ell, args.m)
    if args.which == "ikeda":
        res = scan_pi_F(LiftParams(args.k, args.n), pp, args.x, args.cache_dir)
        _emit_json(_scan_summary(res), args)
        return 0
    res = scan_pi_f(args.weight, pp, args.x, args.cache_dir)
    if args.which == "pif-cell":
        u, v = args.u % pp.q, args.v % pp.q
        payload = _scan_summary(res)
        payload.update(
            {
                "u": u,
                "v": v,
                "count": int(res.counts[u, v]),
                "expected_num": str(int(res.expected_num[u, v])),
                "expected_den": str(res.expected_den),
                "sigmas": round(float(res.sigmas[u, v]), 4),
            }
        )
        _emit_json(payload, args)
        return 0
    if args.csv:
        _write_table_csv(res, args.csv)
    _emit_json(_scan_summary(res), args)
    return 0


def _cmd_verify(args):
    results = verify_mod.run(args.level, args.cache_dir)
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: {detail}")
        failed += not ok
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 3 if failed else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="heckedens", description=__doc__)
    parser.add_argument("--cache-dir", dest="cache_dir", help="default: HECKE_CACHE_DIR, else ./cache")
    parser.add_argument("--format", choices=("plain", "json"), default="plain")
    parser.add_argument("--no-timestamp", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tower", help="cyclotomic tower degree table (CSV)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--max-m", type=int, required=True)
    p.set_defaults(fn=_cmd_tower)

    p = sub.add_parser("count", help="matrices with fixed trace and determinant")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--brute", action="store_true")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("density", help="exact generic densities")
    dsub = p.add_subparsers(dest="which", required=True)
    duv = dsub.add_parser("uv", help="joint class density of (p, a_f(p)) mod ell^m")
    duv.add_argument("--k", type=int, required=True, help="weight of the eigenform f")
    duv.add_argument("--ell", type=int, required=True)
    duv.add_argument("--m", type=int, required=True)
    duv.add_argument("--u", type=int, required=True)
    duv.add_argument("--v", type=int, required=True)
    duv.set_defaults(fn=_cmd_density)
    dik = dsub.add_parser("ikeda", help="lift eigenvalue divisibility density")
    dik.add_argument("--k", type=int, required=True, help="Siegel weight of the lift")
    dik.add_argument("--n", type=int, required=True, help="degree of the lift")
    dik.add_argument("--ell", type=int, required=True)
    dik.add_argument("--m", type=int, required=True)
    dik.set_defaults(fn=_cmd_density)

    p = sub.add_parser("scan", help="empirical prime scans")
    ssub = p.add_subparsers(dest="which", required=True)
    spif = ssub.add_parser("pif", help="full (u,v) class table for one eigenform")
    spif.add_argument("--weight", type=int, required=True)
    spif.add_argument("--ell", type=int, required=True)
    spif.add_argument("--m", type=int, required=True)
    spif.add_argument("--x", type=int, required=True)
    spif.add_argument("--csv", help="write the full table to this path")
    spif.set_defaults(fn=_cmd_scan)
    scell = ssub.add_parser("pif-cell", help="a single (u,v) cell of the table")
    scell.add_argument("--weight", type=int, required=True)
    scell.add_argument("--ell", type=int, required=True)
    scell.add_argument("--m", type=int, required=True)
    scell.add_argument("--x", type=int, required=True)
    scell.add_argument("--u", type=int, required=True)
    scell.add_argument("--v", type=int, required=True)
    scell.set_defaults(fn=_cmd_scan)
    sik = ssub.add_parser("ikeda", help="count primes with vanishing lift eigenvalue")
    sik.add_argument("--k", type=int, required=True)
    sik.add_argument("--n", type=int, required=True)
    sik.add_argument("--ell", type=int, required=True)
    sik.add_argument("--m", type=int, required=True)
    sik.add_argument("--x", type=int, required=True)
    sik.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("verify", help="run the cross-module invariant suite")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.fn(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
