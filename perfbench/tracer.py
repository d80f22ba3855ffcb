"""Per-layer spans for the benchmark's traced run.

`Tracer.install` wraps public functions of the heckedens layers at every
module attribute of the same name that is bound to them, which is how one
layer calls another (``experiment.primes_in``, ``density.g_u_root_count``,
``series.series_mul``, ``kernels.ntt_inplace``).  Spans therefore nest: a
function's self time is its busy time minus the busy time of the wrapped
calls made inside it.  Nothing on disk changes and `uninstall` restores the
original bindings.  A listed function that no longer exists is reported
absent and its metrics read 0.

Layers left out: ``modring`` (per-element helpers, a wrapper would time
itself), ``tower`` (closed forms taking microseconds), ``cli`` (the
benchmark drives the API directly) and ``verify`` (a self-test).
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import Counter

# layer -> public functions whose calls become spans
LAYERS = {
    "primes": ("primes_in",),
    "kernels": ("ntt_inplace", "sigma_pow_sieve", "sparse_square"),
    "series": ("series_mul", "eigenform_coeffs"),
    "matcount": ("trace_det_counts_for_det", "count_trace_det"),
    "density": ("delta_F_generic", "g_u_root_count"),
    "experiment": ("scan_pi_f", "scan_pi_F"),
}

# both scans report under one span name
SPAN_NAME = {"experiment.scan_pi_f": "experiment.scan", "experiment.scan_pi_F": "experiment.scan"}

PACKAGE = "heckedens"

# metrics that are not per-operation totals
_NOT_PER_OP = {"series.transform_fill", "series.probe_q_gt_2_31.wrong_residues", "trace.overhead_ratio"}


def _rchar() -> int:
    """Bytes this process has read through read() calls so far."""
    with open("/proc/self/io") as fh:
        for line in fh:
            if line.startswith("rchar:"):
                return int(line.split()[1])
    raise OSError("no rchar line in /proc/self/io")


def _snapshot(path: str) -> dict[str, tuple[int, int]]:
    try:
        with os.scandir(path) as it:
            return {e.name: (e.stat().st_size, e.stat().st_mtime_ns) for e in it if e.is_file()}
    except FileNotFoundError:
        return {}


class Tracer:
    """Span and counter store for one traced pass; single-threaded."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.busy_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[list[int]] = []  # per open span: [child ns, largest child transform]
        self._patched: list[tuple[object, str, object]] = []
        self._rchar_cost = 0

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        hooks = {
            "primes.primes_in": self._primes_in,
            "kernels.ntt_inplace": self._ntt,
            "series.series_mul": self._series_mul,
            "series.eigenform_coeffs": self._eigenform,
            "matcount.trace_det_counts_for_det": self._sweep,
            "density.g_u_root_count": self._root_scan,
        }
        try:
            r0 = _rchar()
            self._rchar_cost = _rchar() - r0
        except OSError:
            self._rchar_cost = None
        for layer, names in LAYERS.items():
            owner = sys.modules.get(f"{PACKAGE}.{layer}")
            for name in names:
                key = f"{layer}.{name}"
                orig = getattr(owner, name, None)
                if orig is None:
                    self.absent.append(key)
                    continue
                wrapper = self._wrap(SPAN_NAME.get(key, key), orig, hooks.get(key))
                for mod in modules:
                    if getattr(mod, name, None) is orig:
                        self._patched.append((mod, name, orig))
                        setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, orig in reversed(self._patched):
            setattr(mod, name, orig)
        self._patched.clear()

    def _wrap(self, span, fn, hook):
        """A span around fn.  hook(fn, args, kwargs) runs first and may
        return finish(out, busy_ns, self_ns, frame), run after the call."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            finish = hook(fn, args, kwargs) if hook else None
            frame = [0, 0]
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self.calls[span] += 1
                self.busy_ns[span] += dt
                self.self_ns[span] += dt - frame[0]
            if finish:
                finish(out, dt, dt - frame[0], frame)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-function counters ----------------------------------------------

    def _primes_in(self, fn, args, kwargs):
        def finish(out, busy, self_ns, frame):
            self.counts["primes.primes_out"] += len(out)
        return finish

    def _ntt(self, fn, args, kwargs):
        n = len(args[0])
        self.counts["kernels.ntt_inplace.points"] += n
        self.counts["kernels.ntt_inplace.butterflies"] += n // 2 * (n.bit_length() - 1)
        if self._stack:  # the enclosing span learns its transform length
            self._stack[-1][1] = max(self._stack[-1][1], n)

    def _series_mul(self, fn, args, kwargs):
        """series.transform_fill takes its transform length from the
        ntt_inplace calls inside the product.  A product that stops calling
        ntt_inplace reads 0 here, so a change that replaces the NTT must
        point this hook at its own transform in the same change."""

        def finish(out, busy, self_ns, frame):
            if frame[1]:  # products without a transform child are naive
                self.counts["series.fill_num"] += len(out.coeffs)
                self.counts["series.fill_den"] += frame[1]
        return finish

    def _eigenform(self, fn, args, kwargs):
        """Hit or miss from the cache directory before and after the call."""
        bound = inspect.signature(fn).bind_partial(*args, **kwargs).arguments
        if bound.get("modulus") is None:  # exact mode has no cache
            return None
        path = sys.modules[f"{PACKAGE}.series"].cache_dir_from_env(bound.get("cache_dir"))
        before = _snapshot(path)
        r0 = _rchar() if self._rchar_cost is not None else 0

        def finish(out, busy, self_ns, frame):
            read = _rchar() - r0 - self._rchar_cost if self._rchar_cost is not None else 0
            after = _snapshot(path)
            changed = [k for k, v in after.items() if before.get(k) != v]
            if changed:
                self.counts["series.cache.misses"] += 1
                self.counts["series.cache.miss_self_ns"] += self_ns
                self.counts["series.cache.bytes_written"] += sum(after[k][0] for k in changed)
            else:
                self.counts["series.cache.hits"] += 1
                self.counts["series.cache.read_ns"] += busy
                self.counts["series.cache.bytes_read"] += max(read, 0)
        return finish

    def _sweep(self, fn, args, kwargs):
        self.counts["matcount.sweep_cells"] += args[0].q

    def _root_scan(self, fn, args, kwargs):
        self.counts["density.root_scan_cells"] += args[2].q

    # -- report -------------------------------------------------------------

    def metrics(self, names: list[str], n_ops: int) -> dict[str, float]:
        """The metrics `names` except the two the caller measures itself
        (the probe and the overhead), per operation of the traced pass."""
        raw: dict[str, float] = dict(self.counts)
        for key, value in self.counts.items():
            if key.endswith("_ns"):
                raw[key[:-3] + "_s"] = value / 1e9
        for span in self.calls:
            raw[f"{span}.calls"] = self.calls[span]
            raw[f"{span}.busy_s"] = self.busy_ns[span] / 1e9
            raw[f"{span}.self_s"] = self.self_ns[span] / 1e9
        out = {name: raw.get(name, 0) / n_ops for name in names if name not in _NOT_PER_OP}
        den = self.counts["series.fill_den"]
        out["series.transform_fill"] = self.counts["series.fill_num"] / den if den else 0.0
        return out
