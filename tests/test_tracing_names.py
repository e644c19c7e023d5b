"""The benchmark tracer wraps kecsm functions by module and attribute name;
a renamed function would leave its span silently empty."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _, _ in _tracing().WRAPPED])
def test_every_traced_function_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def test_every_span_records_a_solve_and_a_rounding():
    # a function called by its own module's name, not through the module
    # attribute the tracer replaces, would leave its span empty
    from kecsm.instances import random_closure_instance
    from kecsm.pipeline import round_prepared, run_pipeline

    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = run_pipeline(random_closure_instance(32, 8, 1), seed=1)
        round_prepared(result.relaxation, seed=2)
    finally:
        tracer.uninstall()
    # solve_lp has not called simplex_min since the tour-start LP
    spans = [span for _, _, span, _ in tracing.WRAPPED if span != "lp.simplex"]
    assert [span for span in spans if tracer.calls[span] < 1] == []
    assert tracer.absent == [] and tracer.broken_counters == set()
