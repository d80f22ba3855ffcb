"""The benchmark's contract with the package: perfbench/run.py and
perfbench/workloads.py, loaded from their files and left unchanged, run one
round of each workload through the names they read from heckedens."""

import importlib.util
import sys
from pathlib import Path

import pytest

import heckedens

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """(run, workloads) loaded by file path; the modules they import by name
    leave sys.modules again afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    loaded = []
    for name in ("workloads", "run"):
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        loaded.append(module)
    yield loaded[1], loaded[0]
    for name in set(sys.modules) - before:
        del sys.modules[name]


def test_one_round_of_each_workload(perfbench, tmp_path):
    run, workloads = perfbench
    assert "backend=" in run.machine_facts(heckedens)
    cases = (
        workloads.CoeffsCold(heckedens, 1, str(tmp_path / "coeffs"), X=2 ** 10),
        workloads.ScanWarm(heckedens, 2, str(tmp_path / "scan"), x=5000),
        workloads.DensityExact(heckedens, 3, str(tmp_path / "density"), moduli=((5, 1), (3, 2))),
    )
    for wl in cases:
        wl.setup(0)
        for op in wl.next_round():
            result = wl.run(op)
            assert wl.check(op, result), (wl.name, op)
            assert wl.items(op, result) > 0
