"""The benchmark's traced layer table must name functions that exist.

perfbench/tracer.py wraps each ``module.function`` in its TRACED tuple; a
rename in the library would otherwise surface only in a traced benchmark run.
The tuple is read from the source, so the tracer module is never imported.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TRACED tuple")


def test_every_traced_name_is_a_library_callable():
    names = traced_names()
    assert names
    for name in names:
        module, func = name.split(".")
        obj = getattr(importlib.import_module(f"haarweight.{module}"), func, None)
        assert callable(obj), f"{name} in perfbench/tracer.TRACED is not a haarweight callable"
