#!/usr/bin/env python3
"""Self-test of the benchmark harness at toy sizes, in about ten seconds.

    python3 perfbench/selftest.py

Checks that every workload runs and passes its oracle at toy size, traced
and untraced, with every metric named in BENCHMARK.json and no negative self
time; that one corrupted coefficient, one off-by-one count and one wrong
residue read from the cache are each counted as failed; and that a layer
function that no longer exists is reported absent instead of breaking the
traced run.  Exits 1 on the first failed check.
"""

import dataclasses
import os
import shutil
import sys

import run
from workloads import CoeffsCold, DensityExact, ScanWarm

SECONDS = 0.3


def expect(cond: bool, what: str):
    if not cond:
        print(f"selftest FAILED: {what}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {what}")


def toy_workloads(hd, work: str):
    return [
        CoeffsCold(hd, 7, work, X=256, ells=(11, 13), qs=((3, 3), (5, 2))),
        ScanWarm(hd, 7, work, x=3000, ops=(("pi_f", 11, 1), ("pi_f", 3, 2), ("pi_F", 13, 1))),
        DensityExact(hd, 7, work, moduli=((3, 2), (5, 1), (7, 2))),
    ]


class CorruptCoefficient(CoeffsCold):
    """Adds one to a single coefficient of the first result."""

    corrupted = False

    def run(self, op):
        res = super().run(op)
        if not self.corrupted:
            res.coeffs[5] = (res.coeffs[5] + 1) % op[1] ** op[2]
            self.corrupted = True
        return res


class OffByOneCount(ScanWarm):
    """Adds one to a single count of the first result."""

    corrupted = False

    def run(self, op):
        res = super().run(op)
        if self.corrupted:
            return res
        self.corrupted = True
        if res.mode == "pi_F":
            return dataclasses.replace(res, counts=res.counts + 1)
        counts = res.counts.copy()
        counts[1, 0] += 1
        return dataclasses.replace(res, counts=counts)


class WrongCachedResidue(ScanWarm):
    """Scans whose cache read returns a(7) + 1: every residue stays in
    [0, q) and the table still sums to pi_x, so only a check against the
    coefficients set-up built can see it."""

    def run(self, op):
        read = self.hd.experiment.eigenform_coeffs

        def misread(*args, **kwargs):
            out = read(*args, **kwargs)
            coeffs = out.coeffs.copy()
            coeffs[7] = (coeffs[7] + 1) % out.modulus.q
            return dataclasses.replace(out, coeffs=coeffs)

        self.hd.experiment.eigenform_coeffs = misread
        try:
            return super().run(op)
        finally:
            self.hd.experiment.eigenform_coeffs = read


def main() -> int:
    hd = run.import_package()
    work = run.WORK / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for wl in toy_workloads(hd, str(work)):
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                samples, metrics, absent = run.measure(wl, SECONDS, trace)
                expect(all(s.ok for s in samples), f"{wl.name} trace={int(trace)}: every toy operation passes its oracle")
                expect(set(metrics) == {m["name"] for m in run.SPEC[key]} and not absent,
                       f"{wl.name} trace={int(trace)}: every metric of BENCHMARK.json {key} measured, none absent")
                expect(all(v >= 0 for m, v in metrics.items() if m.endswith("self_s")),
                       f"{wl.name} trace={int(trace)}: no negative self time")

        wl = CorruptCoefficient(hd, 7, str(work), X=256, ells=(11,), qs=((3, 3),))
        samples = run.timed_pass(wl, ops=wl.next_round())
        expect(sum(not s.ok for s in samples) == 1, "a corrupted coefficient is counted as failed")

        wl = OffByOneCount(hd, 7, str(work), x=3000, ops=(("pi_f", 5, 2), ("pi_F", 11, 1)))
        wl.setup(0)
        samples = run.timed_pass(wl, ops=wl.next_round() * 2)
        expect(sum(not s.ok for s in samples) == 1, "an off-by-one scan count is counted as failed")

        wl = WrongCachedResidue(hd, 7, str(work), x=3000, ops=(("pi_f", 5, 2), ("pi_f", 11, 1)))
        wl.setup(0)
        samples = run.timed_pass(wl, ops=wl.next_round())
        expect(not any(s.ok for s in samples), "a wrong residue read from the cache fails its scan")

        ntt = hd.kernels.ntt_inplace
        del hd.kernels.ntt_inplace
        try:
            wl = DensityExact(hd, 7, str(work), moduli=((3, 2),))
            samples, metrics, absent = run.measure(wl, SECONDS, True)
        finally:
            hd.kernels.ntt_inplace = ntt
        expect(absent == ["kernels.ntt_inplace"] and metrics["kernels.ntt_inplace.calls"] == 0
               and all(s.ok for s in samples), "a missing layer function is reported absent")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
