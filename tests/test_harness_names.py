"""The names the span tracer in perfbench/spans.py wraps must exist on
refl2, or `perfbench/run.py --trace 1` breaks when a function is removed."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve_on_refl2():
    spans = load_spans()
    assert spans.FUNCTIONS and spans.METHODS
    for _, modname, attr in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), attr)), attr
    for _, modname, cls, meth in spans.METHODS:
        owner = getattr(importlib.import_module(modname), cls)
        assert callable(getattr(owner, meth)), f"{cls}.{meth}"
    assert callable(importlib.import_module("refl2.grouplift").Mat3.__mul__)
