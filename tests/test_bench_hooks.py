"""The benchmark's span tracer rebinds module attributes by name; every name
it lists must still exist, or ``perfbench/run.py --trace 1`` breaks."""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
