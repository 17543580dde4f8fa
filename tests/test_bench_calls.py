"""Every bplab name that the benchmark's workloads call still exists, and
each workload runs a small job whose checks pass.

bench/workloads.py reaches bplab through `solver.X`, `spectral.X`,
`diagnostics.X` and `acceptance.X`. The file is only read here and executed
from its source text, never imported, so no bytecode is written under bench/:
a name deleted from the package, or a changed attribute or return shape that
a workload reads, fails tier-1, not the benchmark run.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
MODULES = ("solver", "spectral", "diagnostics", "acceptance")


def module_attributes(source):
    """Sorted (module, name) of each load `<module>.name` in source, for the
    bplab modules in MODULES."""
    return sorted({(node.value.id, node.attr) for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in MODULES})


def test_scanner_finds_each_form():
    source = ("cfg = solver.SimConfig(n=8)\n"
              "x = spectral.zero_mean(spectral.transform_forward(f)).modes\n"
              "acceptance.run_all(0)[0].index\n"
              "other.step(diagnostics)\n")
    assert module_attributes(source) == [
        ("acceptance", "run_all"), ("solver", "SimConfig"),
        ("spectral", "transform_forward"), ("spectral", "zero_mean")]


def test_every_benchmark_call_resolves():
    used = module_attributes(WORKLOADS.read_text())
    assert ("solver", "run") in used
    missing = [f"{m}.{name}" for m, name in used
               if not hasattr(importlib.import_module(f"bplab.{m}"), name)]
    assert missing == []


def load_workloads():
    """bench/workloads.py as a module, executed from its source text."""
    module = types.ModuleType("workloads")
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("make", [
    lambda w, d: w.Simulate(0, d, steps=2, stride=1),
    lambda w, d: w.Diagnose(0, d, checkpoints=2),
    lambda w, d: w.Probes(0, d, criteria=(8, 11)),
], ids=["simulate", "diagnose", "probes"])
def test_workload_checks_pass(tmp_path, make):
    before = sorted(WORKLOADS.parent.rglob("*"))
    workload = make(load_workloads(), str(tmp_path))
    workload.setup()
    checks = workload.check(workload.job())
    assert checks and [name for name, passed in checks if not passed] == []
    assert sorted(WORKLOADS.parent.rglob("*")) == before
