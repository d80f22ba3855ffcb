#!/usr/bin/env python3
"""Seeded benchmark of heckedens, end to end and per layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

A named workload runs in this process; ``all`` (the default) runs each
workload in a process of its own.  The lines before the last report the
machine, every metric with its value and unit, and the oracle verdicts
(with ``fail_ratio``, failed over attempted).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics below,
with ``--trace 1`` the per-layer metrics, both as listed in ``BENCHMARK.json``.

heckedens is imported from ``src/`` next to this directory.  Without it the
run exits with code 2 and prints no result.  Scratch files go to
``.perfbench_work/`` at the checkout root and are removed on exit.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import heckedens; print(time.perf_counter() - t)"
PROBE_METRIC = "series.probe_q_gt_2_31.wrong_residues"
# the metrics each run reports, with their units: "end_to_end" for --trace 0,
# "per_layer" for --trace 1
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass
class Sample:
    op: tuple
    seconds: float
    ok: bool
    items: int


def import_package():
    """heckedens from this checkout's src/, never from an installed copy,
    with numpy held to one thread (set before numpy is first imported)."""
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    sys.path.insert(0, str(SRC))
    import heckedens

    if not Path(heckedens.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"heckedens imported from {heckedens.__file__}, not from {SRC}")
    return heckedens


def machine_facts(hd) -> str:
    import numpy

    ram_gb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 30
    return (
        f"machine: nproc={os.cpu_count()} ram_gb={ram_gb:.1f} python={platform.python_version()} "
        f"numpy={numpy.__version__} backend={hd.kernels.BACKEND} threads=1"
    )


def measure_setup(wl) -> float:
    """Median over SETUP_REPEATS of: importing heckedens in a fresh
    interpreter plus the workload's own set-up (the cache fill)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    times = []
    for attempt in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        t0 = time.perf_counter()
        wl.setup(attempt)
        times.append(float(child.stdout.split()[-1]) + time.perf_counter() - t0)
    return statistics.median(times)


def timed_pass(wl, seconds: float | None = None, ops: list | None = None) -> list[Sample]:
    """Run whole rounds until `seconds` of operation time have passed, or
    replay `ops`.  Only the operation is timed; its check is not."""
    samples: list[Sample] = []

    def one(op) -> float:
        t0 = time.perf_counter()
        try:
            result = wl.run(op)
        except Exception as exc:  # a refused or crashed operation counts as failed
            dt = time.perf_counter() - t0
            print(f"failed: {wl.name} {op}: {type(exc).__name__}: {exc}", file=sys.stderr)
            samples.append(Sample(op, dt, False, 0))
            return dt
        dt = time.perf_counter() - t0
        try:
            ok = bool(wl.check(op, result))
        except Exception as exc:  # a malformed result fails its check
            print(f"check raised: {wl.name} {op}: {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
        if not ok:
            print(f"wrong: {wl.name} {op}", file=sys.stderr)
        samples.append(Sample(op, dt, ok, wl.items(op, result) if ok else 0))
        return dt

    if ops is not None:
        for op in ops:
            one(op)
        return samples
    busy = 0.0
    while busy < seconds:
        for op in wl.next_round():
            busy += one(op)
    return samples


def end_to_end(wl, samples: list[Sample], setup_s: float) -> dict[str, float]:
    times = sorted(s.seconds for s in samples if s.ok) or sorted(s.seconds for s in samples)
    busy = sum(s.seconds for s in samples)
    tail = statistics.quantiles(times, n=100, method="inclusive")[wl.tail_pct - 1] if len(times) > 1 else times[0]
    return {
        "setup_s": setup_s,
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail,
        "ops_per_s": sum(s.ok for s in samples) / busy,
        "items_per_s": sum(s.items for s in samples) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_probe(wl) -> int:
    """Known-defect probe of a workload, reported beside the result: it is
    measured every run but is not one of the workload's operations."""
    try:
        wrong, total = wl.probe()
    except Exception as exc:  # a refusal is the probe's other honest outcome
        print(f"probe: {wl.name}: refused ({type(exc).__name__}: {exc})")
        return 0
    print(f"probe: {wl.name}: weight 18 mod 3^30, X = 500: {wrong}/{total} residues wrong against the exact expansion")
    return wrong


def measure(wl, seconds: float, trace: bool) -> tuple[list[Sample], dict[str, float], list[str]]:
    """Set up, time and check one workload; returns the samples of every
    pass, the metrics and the functions the tracer found absent."""
    setup_s = measure_setup(wl)
    if not trace:
        samples = timed_pass(wl, seconds)
        metrics = end_to_end(wl, samples, setup_s)
        absent = []
        beyond = sum(s.seconds > metrics["op_s.tail"] for s in samples if s.ok)
        print(f"op_s.tail is p{wl.tail_pct} of {sum(s.ok for s in samples)} correct operations, {beyond} beyond it")
    else:
        plain = timed_pass(wl, seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_pass(wl, ops=[s.op for s in plain])
        finally:
            tracer.uninstall()
        metrics = tracer.metrics([m["name"] for m in SPEC["per_layer"]], len(traced))
        metrics["trace.overhead_ratio"] = sum(s.seconds for s in traced) / sum(s.seconds for s in plain)
        samples = plain + traced
        absent = tracer.absent
    wrong = run_probe(wl) if hasattr(wl, "probe") else 0
    if trace:
        metrics[PROBE_METRIC] = wrong
    return samples, metrics, absent


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    work = WORK / f"{name}-{os.getpid()}"
    try:
        try:
            hd = import_package()
        except ImportError as exc:
            print(f"error: cannot import heckedens from {SRC}: {exc}", file=sys.stderr)
            return 2
        work.mkdir(parents=True, exist_ok=True)
        wl = WORKLOADS[name](hd, seed, str(work))
        print(machine_facts(hd))
        print(f"workload: {name} seed={seed} seconds={seconds} trace={int(trace)}")
        samples, metrics, absent = measure(wl, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for fn in absent:
        print(f"absent: {fn} (its metrics read 0)")
    table = SPEC["per_layer" if trace else "end_to_end"]
    for m in table:
        print(f"{m['name']:44s} {metrics[m['name']]:>16.6g} {m['unit']}")
    if not trace:
        print(f"items_per_s counts {wl.item}")
    failed = sum(not s.ok for s in samples)
    print(f"oracle: {len(samples) - failed}/{len(samples)} operations correct, fail_ratio={failed / len(samples):.6g}")
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in table},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; the last line maps names to results."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
