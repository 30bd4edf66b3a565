"""The benchmark reaches into qpwave from ``perfbench/``; every name it uses
must still exist, or ``perfbench/run.py`` breaks.  The span tracer rebinds
module attributes by name, the workloads call module attributes, and both
read fields of the results they get back."""

import ast
import dataclasses
import importlib.util
from pathlib import Path

import pytest

from qpwave import cli, linop, nonlin, solver, spectrum

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKLOADS = PERFBENCH / "workloads.py"

# the result attributes the workloads and the span hooks read
RESULT_READS = {
    linop.GreenReport: ("operator_norm", "norm_ok", "decay_ok"),
    linop.LdeScanReport: ("sigma_grid", "bad_flags", "worst_norm"),
    solver.Solution: ("q", "omega", "trace", "quality", "converged"),
    solver.OracleResult: ("iterations",),
    spectrum.ModelParams: ("with_couplings",),
}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable(spans):
    missing = [f"{module.__name__}.{attr}"
               for targets, _hook in spans.TARGETS.values()
               for module, attr in targets
               if not callable(getattr(module, attr, None))]
    assert spans.TARGETS and not missing


def test_every_module_attribute_the_workloads_read_resolves():
    modules = {m.__name__.rsplit(".", 1)[-1]: m
               for m in (cli, linop, nonlin, solver, spectrum)}
    reads = {(node.value.id, node.attr)
             for node in ast.walk(ast.parse(WORKLOADS.read_text()))
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name)
             and node.value.id in modules}
    missing = [f"{name}.{attr}" for name, attr in sorted(reads)
               if not hasattr(modules[name], attr)]
    assert reads and not missing


@pytest.mark.parametrize("cls", RESULT_READS,
                         ids=[c.__name__ for c in RESULT_READS])
def test_every_result_field_the_benchmark_reads_exists(cls):
    names = {f.name for f in dataclasses.fields(cls)} | set(dir(cls))
    assert [a for a in RESULT_READS[cls] if a not in names] == []
