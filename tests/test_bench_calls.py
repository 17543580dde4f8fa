"""Every bplab name that the benchmark's workloads call still exists.

bench/workloads.py reaches bplab through `solver.X`, `spectral.X`,
`diagnostics.X` and `acceptance.X`. The file is only read here, never
imported: a name deleted from the package fails tier-1, not the benchmark run.
"""

import ast
import importlib
from pathlib import Path

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
