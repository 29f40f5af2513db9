"""perfbench/tracer.py wraps package functions by name; every name must bind.

The tracer looks each LAYERS entry up with getattr and reads some arguments
by position, so renaming or removing one of those functions, or reordering
its parameters, breaks `perfbench/run.py --trace 1`. The tracer file is read
as text here, not imported, and is never changed.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_layers() -> dict:
    """The LAYERS literal of the tracer file."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {TRACER}")


LAYER_NAMES = [
    (module, fn) for module, functions in tracer_layers().items() for fn in functions
]


@pytest.mark.parametrize("module, fn", LAYER_NAMES, ids=[f"{m}.{f}" for m, f in LAYER_NAMES])
def test_layer_resolves(module, fn):
    assert callable(getattr(importlib.import_module(f"clustersc.{module}"), fn, None))


def first_parameters(module: str, fn: str, count: int) -> list[str]:
    function = getattr(importlib.import_module(f"clustersc.{module}"), fn)
    return list(inspect.signature(function).parameters)[:count]


def test_fit_parameters_the_tracer_reads():
    # the lasso duality-gap counter binds fit's arguments by these names
    assert first_parameters("regression", "fit", 3) == ["design", "target", "spec"]


def test_regression_spec_fields_the_tracer_reads():
    # the fit counter names spans by spec.method and recomputes the lasso gap
    # from spec.lam, checking it against spec.lasso_tol
    spec = importlib.import_module("clustersc.regression").RegressionSpec
    assert {"method", "lam", "lasso_tol"} <= {field.name for field in dataclasses.fields(spec)}


def test_select_rank_parameter_the_tracer_reads():
    # the saturation counter reads the spectrum as the first argument
    assert first_parameters("linalg", "select_rank", 1) == ["sigma"]
