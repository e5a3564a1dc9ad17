"""The benchmark's traced layer table must name functions that exist, and
the benchmark's library calls must fit their signatures.

perfbench/tracer.py wraps each ``module.function`` in its TRACED tuple; a
rename in the library would otherwise surface only in a traced benchmark run.
The tuple and the workloads' calls are read from the source, so nothing
under perfbench/ is ever imported.
"""

import ast
import importlib
import inspect
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


WORKLOADS = TRACER.parent / "workloads.py"
LIBRARY_MODULES = ("carleson", "operators", "maximal", "weights", "dyadic")


def library_calls():
    """(dotted name, positional count, keyword names) of every call that the
    benchmark's workloads make through a library module."""
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if not isinstance(node, ast.Call):
            continue
        parts, func = [], node.func
        while isinstance(func, ast.Attribute):
            parts.insert(0, func.attr)
            func = func.value
        if isinstance(func, ast.Name) and func.id in LIBRARY_MODULES and parts:
            assert not any(isinstance(a, ast.Starred) for a in node.args)
            assert all(k.arg is not None for k in node.keywords)
            yield ".".join([func.id] + parts), len(node.args), [k.arg for k in node.keywords]


def test_workload_calls_bind_to_library_signatures():
    # a dropped keyword or positional argument that the benchmark passes would
    # otherwise show up only as failed benchmark operations
    calls = list(library_calls())
    assert calls
    for name, n_args, keywords in calls:
        module, *path = name.split(".")
        obj = importlib.import_module(f"haarweight.{module}")
        for attr in path:
            obj = getattr(obj, attr)
        try:
            inspect.signature(obj).bind(*[None] * n_args, **dict.fromkeys(keywords))
        except TypeError as exc:
            raise AssertionError(f"perfbench/workloads.py calls {name} "
                                 f"with {n_args} positional and {keywords}: {exc}")
