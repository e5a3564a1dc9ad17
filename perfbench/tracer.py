"""Outside-in span tracer for the haarweight library.

Each traced function is replaced by a wrapper in every ``haarweight.*``
module that binds it, because the library imports functions by name
(``from .dyadic import haar_analyze`` in ``operators``): patching only the
defining module would miss those calls.  Spans (name, start, end, parent)
are kept in memory and reduced to per-layer self times when the run ends.
Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time

# <module>.<function> spans recorded in a traced run.  The list is the
# layer table of BENCHMARK.json: the kernels ROADMAP.md names plus the
# drivers whose self time is I/O and Python glue.
TRACED = (
    "cli.main",
    "experiments.run_sweep",
    "experiments.run_counterexample",
    "operators.weighted_operator_norm",
    "operators.dense_matrix",
    "linalg.spectral_norm",
    "linalg.matfree_spectral_norm",
    "linalg.powm_spd",
    "linalg.opnorm",
    "dyadic.haar_analyze",
    "dyadic.haar_synthesize",
    "dyadic.mean_pyramid",
    "weights.reducing_pyramid",
    "weights.gauge_pyramid",
    "weights.lowner_batched",
    "weights.ap_characteristic",
    "carleson.carleson_b_sup",
    "carleson.carleson_c_constant",
    "carleson.stopping_time_tree",
    "maximal.maximal_mw",
    "maximal.maximal_mw_prime",
    "maximal.weak_type_check",
    "maximal.sparse_generate",
)

# the root span of every operation; its self time is the benchmark's own glue
OP_SPAN = "bench.op"


class Tracer:
    """Collects spans and exact counters while installed."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.counts = {}
        self._stack = []
        self._restore = []

    # -- spans -------------------------------------------------------------
    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)

    def _exit(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def span(self, name, fn):
        """Call ``fn()`` inside a span of its own."""
        self._enter(name)
        try:
            return fn()
        finally:
            self._exit()

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- installation ------------------------------------------------------
    def install(self):
        """Replace every haarweight binding of each TRACED function."""
        for qual in TRACED:
            mod_name, fn_name = qual.split(".")
            orig = getattr(importlib.import_module(f"haarweight.{mod_name}"), fn_name)
            self._restore += rebind(orig, self._wrap(qual, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def _wrap(self, qual, fn):
        before, after = _BEFORE.get(qual), _AFTER.get(qual)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(self, args, kwargs)
            self._enter(qual)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit()
            if after is not None:
                after(self, args, kwargs, out)
            return out

        return traced

    # -- reduction ---------------------------------------------------------
    def self_times(self):
        """Self time per span name: duration minus direct children's time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def call_counts(self):
        out = {}
        for name, *_ in self.spans:
            out[name] = out.get(name, 0) + 1
        return out


def rebind(orig, new):
    """Point every haarweight module attribute bound to ``orig`` at ``new``;
    returns the (module, attribute, orig) triples that undo it."""
    done = []
    for name, mod in list(sys.modules.items()):
        if name == "haarweight" or name.startswith("haarweight."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)
                    done.append((mod, attr, orig))
    return done


# -- exact counters at the layer boundaries ---------------------------------
def _count_matvecs(tr, args, kwargs):
    """Wrap the matvec/rmatvec callables so every application is counted."""
    matvec, rmatvec, *rest = args

    def mv(x):
        tr.count("linalg.matfree_spectral_norm.matvecs")
        return matvec(x)

    def rmv(y):
        tr.count("linalg.matfree_spectral_norm.matvecs")
        return rmatvec(y)

    return (mv, rmv, *rest)


def _count_haar_bytes(tr, args, kwargs):
    values = args[0] if args else kwargs["values"]
    tr.count("dyadic.haar_analyze.bytes_in", int(values.nbytes))
    return args


def _dense_bytes(tr, args, kwargs, out):
    # computed, not measured: a dim x dim float64 matrix
    tr.count("operators.dense_matrix.bytes", int(out.shape[0]) * int(out.shape[1]) * 8)


def _norm_kind(tr, args, kwargs, out):
    tr.count("operators.weighted_operator_norm."
             + ("exact" if out.kind == "exact" else "lower_bound"))


def _net_doublings(tr, args, kwargs, out):
    net_size = kwargs.get("net_size", args[3] if len(args) > 3 else 64)
    tr.count("weights.reducing_pyramid.net_doublings",
             round(math.log2(len(out["net"]) / net_size)))


# hooks run before a call (and may replace its positional arguments) or
# after it (and see its result)
_BEFORE = {
    "linalg.matfree_spectral_norm": _count_matvecs,
    "dyadic.haar_analyze": _count_haar_bytes,
}
_AFTER = {
    "operators.dense_matrix": _dense_bytes,
    "operators.weighted_operator_norm": _norm_kind,
    "weights.reducing_pyramid": _net_doublings,
}
