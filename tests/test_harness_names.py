"""The names the span tracer in perfbench/spans.py wraps must exist on
refl2, or `perfbench/run.py --trace 1` breaks when a function is removed."""

import importlib
import importlib.util
import os
import subprocess
import sys
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


def test_traced_modules_load_with_refl2_cli():
    # the tracer imports refl2.cli and then looks each module up in
    # sys.modules, so a module only the tests import would break it
    modnames = sorted({modname for _, modname, _ in load_spans().FUNCTIONS})
    code = f"import sys, refl2.cli; sys.exit(not {set(modnames)!r} <= sys.modules.keys())"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
