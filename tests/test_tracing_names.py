"""The benchmark tracer wraps kecsm functions by module and attribute name;
a renamed function would leave its span silently empty."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _, _ in _wrapped()])
def test_every_traced_function_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))
