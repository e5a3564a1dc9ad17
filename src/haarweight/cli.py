"""Command-line driver.

    haarweight COMMAND --config cfg.json [--out DIR]

Commands: apchar, opnorm, bmo, carleson, stopping, maximal, sparse,
counterexample, sweep, equivalence.  Exit code 0 means every assertion the
command makes passed, 2 means an assertion failed (diagnostics are written as
JSON), 1 means the configuration was invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import experiments
from .experiments import _read_int, _read_number, _write_csv, _write_json
from .carleson import bmo_norm, carleson_b_sup, carleson_c_constant, stopping_time_tree
from .dyadic import Grid
from .errors import ConfigError, HaarweightError, SparsenessError
from .maximal import sparse_generate, sparse_op
from .memory import leaf_arrays, refuse_beyond_memory
from .operators import (
    MatrixSequence, MatrixSymbol, ShiftMap, adjoint_paraproduct_op, big_pi_op, commutator_op,
    haar_multiplier_op, norm_need, paraproduct_op, shift_op, weighted_operator_norm,
)
from .weights import MatrixWeight, ap_characteristic, ap_need, reducing_need, reducing_pyramid


def build_grid(cfg, command, *kernels, p, n=2):
    """The standard grid of the spec {"d": ..., "L": ...} (default d=1, L=8),
    refused before it is built when ``command``'s leaf arrays or the need
    ``kernel(d, L, n, p)`` of one of the ``kernels`` exceed physical memory."""
    spec = cfg.get("grid", {"d": 1, "L": 8})
    if not isinstance(spec, dict) or set(spec) - {"d", "L"}:
        raise ConfigError(f"a grid spec is an object with the fields 'd' and 'L', got {spec!r}")
    d, L = _read_int(spec, "d", None, lo=1), _read_int(spec, "L", None, lo=1)
    refuse_beyond_memory(f"{command} at d = {d}, L = {L}",
                         [leaf_arrays(command, d, L), *(k(d, L, n, p) for k in kernels)])
    return Grid(d, L)


def _read_finite(cfg, key):
    return _read_number(cfg, key, None, np.isfinite, "a finite number")


def _read_kind(spec, what, default, fields=None):
    """The string ``kind`` of an object spec (``default`` when absent).  With
    ``fields``, the fields each kind reads besides its kind, a spec of a
    listed kind with any other field is refused."""
    if not isinstance(spec, dict):
        raise ConfigError(f"a {what} spec must be an object, got {spec!r}")
    kind = spec.get("kind", default)
    if not isinstance(kind, str):
        raise ConfigError(f"the {what} 'kind' must be a string, got {kind!r}")
    if fields is not None and kind in fields:
        _refuse_unknown_fields(spec, f"the {kind} {what}", ("kind",) + fields[kind])
    return kind


# the fields that each kind of weight, symbol, sequence and shift reads
# besides its kind, and each operator besides its op
WEIGHT_FIELDS = {"identity": ("n",), "scalar-power": ("alpha", "n"),
                 "random-spd": ("seed", "cond", "n"), "diagonal-power": ("alphas",),
                 "rotated": ("alphas", "theta")}
SYMBOL_FIELDS = {"log-swap": (), "scalar-log": (), "random": ("seed", "scale")}
SEQUENCE_FIELDS = {"constant-swap": (), "random": ("seed",), "from-symbol": ("symbol",)}
SIGMA_FIELDS = {"left-child": (), "random": ("seed",)}
OPERATOR_FIELDS = {"paraproduct": ("symbol",), "adjoint-paraproduct": ("symbol",),
                   "haar-multiplier": ("sequence",), "shift": ("sigma",),
                   "commutator": ("symbol", "sigma"), "embedding": ("sequence",)}


def build_weight(cfg):
    """The weight of the spec {"kind": ..., ...}: identity (n), scalar-power
    (alpha, n), diagonal-power (alphas), rotated (2 alphas, theta) or
    random-spd (seed, cond, n)."""
    spec = cfg.get("weight", {"kind": "identity"})
    kind = _read_kind(spec, "weight", None, WEIGHT_FIELDS)
    if kind in ("identity", "scalar-power", "random-spd"):
        n = _read_int(spec, "n", 2, lo=1)
    if kind == "identity":
        return MatrixWeight.identity(n)
    if kind == "scalar-power":
        return MatrixWeight.scalar_power(_read_finite(spec, "alpha"), n)
    if kind == "random-spd":
        cond = _read_number(spec, "cond", 16.0, lambda v: np.isfinite(v) and v >= 1.0,
                            "a finite number >= 1")
        return MatrixWeight.random_spd(_read_int(spec, "seed", None), cond, n)
    if kind in ("diagonal-power", "rotated"):
        alphas = spec.get("alphas")
        if not isinstance(alphas, list) or not alphas or (kind == "rotated" and len(alphas) != 2):
            size = "2" if kind == "rotated" else "at least 1"
            raise ConfigError(f"a {kind} weight needs 'alphas', a list of {size} numbers, "
                              f"got {alphas!r}")
        alphas = [_read_finite({"alphas": a}, "alphas") for a in alphas]
        if kind == "diagonal-power":
            return MatrixWeight.diagonal_power(alphas)
        return MatrixWeight.rotated_power(alphas, _read_finite(spec, "theta"))
    raise ConfigError(f"unknown weight kind {kind!r}")


def build_2x2_weight(cfg, command):
    """``build_weight`` for a command whose symbols, sequences and operators
    are all 2 x 2."""
    W = build_weight(cfg)
    if W.n != 2:
        raise ConfigError(f"{command} builds 2 x 2 operators, "
                          f"so its weight must be 2 x 2, got n = {W.n}")
    return W


def read_p(cfg):
    """The exponent p (default 2); every command that reads it needs 1 < p < inf."""
    return float(_read_number(cfg, "p", 2.0, lambda v: 1.0 < v < np.inf, "a number in (1, inf)"))


def build_symbol(spec, grid):
    kind = _read_kind(spec, "symbol", "log-swap", SYMBOL_FIELDS)
    if kind in ("log-swap", "scalar-log") and grid.d != 1:
        raise ConfigError(f"the {kind} symbol is log x on [0, 1), defined for d = 1 only, "
                          f"got d = {grid.d}")
    if kind == "log-swap":
        return experiments.log_swap_symbol(grid)
    if kind == "scalar-log":
        vals = experiments.log_leaf_means(grid)[:, None, None] * np.eye(2)
        return MatrixSymbol.from_values(grid, vals)
    if kind == "random":
        rng = np.random.default_rng(_read_int(spec, "seed", 0))
        scale = _read_number(spec, "scale", 1.0, np.isfinite, "a finite number")
        vals = np.cumsum(rng.standard_normal(grid.leaf_shape + (2, 2)), axis=0)
        return MatrixSymbol.from_values(grid, scale * vals / np.sqrt(grid.n_leaves))
    raise ConfigError(f"unknown symbol kind {kind!r}")


def build_sequence(spec, grid):
    kind = _read_kind(spec, "sequence", "random", SEQUENCE_FIELDS)
    if kind == "constant-swap":
        return MatrixSequence.constant(grid, experiments.SWAP)
    if kind == "random":
        return MatrixSequence.random(grid, rng=_read_int(spec, "seed", 0))
    if kind == "from-symbol":
        return MatrixSequence.from_symbol(build_symbol(spec.get("symbol", {}), grid))
    raise ConfigError(f"unknown sequence kind {kind!r}")


def build_sigma(spec, grid):
    """The shift of the spec "left-child" (the default), {"kind": "left-child"}
    or {"kind": "random", "seed": ...}."""
    kind = _read_kind({} if spec in (None, "left-child") else spec, "shift", "left-child",
                      SIGMA_FIELDS)
    if kind == "left-child":
        return ShiftMap.left_child(grid)
    if kind == "random":
        return ShiftMap.random_child(grid, seed=_read_int(spec, "seed", 0))
    raise ConfigError(f"unknown shift kind {kind!r}")


def build_operator(spec, grid, weight, p):
    if not isinstance(spec, dict):
        raise ConfigError(f"an operator spec must be an object, got {spec!r}")
    op_name = spec.get("op")
    if isinstance(op_name, str) and op_name in OPERATOR_FIELDS:
        _refuse_unknown_fields(spec, f"the {op_name} operator", ("op",) + OPERATOR_FIELDS[op_name])
    if op_name == "paraproduct":
        return paraproduct_op(build_symbol(spec.get("symbol", {}), grid))
    if op_name == "adjoint-paraproduct":
        return adjoint_paraproduct_op(build_symbol(spec.get("symbol", {}), grid))
    if op_name == "haar-multiplier":
        return haar_multiplier_op(build_sequence(spec.get("sequence", {}), grid))
    if op_name == "shift":
        return shift_op(build_sigma(spec.get("sigma"), grid))
    if op_name == "commutator":
        return commutator_op(build_symbol(spec.get("symbol", {}), grid),
                             build_sigma(spec.get("sigma"), grid))
    if op_name == "embedding":
        return big_pi_op(build_sequence(spec.get("sequence", {}), grid), weight, p)
    raise ConfigError(f"unknown operator spec {spec!r}")


def _refuse_unknown_fields(cfg, command, known):
    unknown = sorted(set(cfg) - set(known))
    if unknown:
        raise ConfigError(f"{command} reads only the fields {', '.join(known)}; "
                          f"unknown: {', '.join(map(repr, unknown))}")


def cmd_apchar(cfg, out_dir):
    _refuse_unknown_fields(cfg, "apchar", ("weight", "grid", "p"))
    W, p = build_weight(cfg), read_p(cfg)
    grid = build_grid(cfg, "apchar", ap_need, n=W.n, p=p)
    rep = ap_characteristic(W, p, grid)
    payload = rep.record()
    _write_json(os.path.join(out_dir, "apchar.json"), payload)
    _write_csv(os.path.join(out_dir, "apchar.csv"), ["level", "offset", "norm_VVprime_pow_p"],
               ([k, off, float(v)] for k, arr in enumerate(rep.per_level)
                for off, v in enumerate(arr.reshape(-1))))
    return {"passed": True, **payload}


def cmd_opnorm(cfg, out_dir):
    _refuse_unknown_fields(cfg, "opnorm", ("weight", "grid", "p", "operator", "seed"))
    W, p = build_2x2_weight(cfg, "opnorm"), read_p(cfg)
    spec = cfg.get("operator", {})
    # only the embedding operator builds a reducing pyramid
    embedding = isinstance(spec, dict) and spec.get("op") == "embedding"
    grid = build_grid(cfg, "opnorm", norm_need, *([reducing_need] if embedding else []), p=p)
    op = build_operator(spec, grid, W, p)
    rep = weighted_operator_norm(op, W, p, seed=_read_int(cfg, "seed", 0))
    payload = {**rep.record(), "operator": op.name}
    _write_json(os.path.join(out_dir, "opnorm.json"), payload)
    return {"passed": True, **payload}


def cmd_bmo(cfg, out_dir):
    _refuse_unknown_fields(cfg, "bmo", ("variant", "weight", "grid", "p", "symbol"))
    variant = cfg.get("variant", "primal")
    if variant not in ("primal", "dual", "unweighted"):
        raise ConfigError(f"unknown BMO variant {variant!r}")
    # the unweighted variant reads no weight and builds no reducing pyramid
    W = build_weight(cfg) if variant == "unweighted" else build_2x2_weight(cfg, "bmo")
    kernels = [] if variant == "unweighted" else [reducing_need]
    p = read_p(cfg)
    grid = build_grid(cfg, f"bmo {variant}", *kernels, p=p)
    B = build_symbol(cfg.get("symbol", {}), grid)
    val, cube = bmo_norm(B, W, p, variant)
    payload = {"value": val, "variant": variant,
               "supremizing_cube": cube.record()}
    _write_json(os.path.join(out_dir, "bmo.json"), payload)
    return {"passed": True, **payload}


def cmd_carleson(cfg, out_dir):
    _refuse_unknown_fields(cfg, "carleson", ("weight", "grid", "p", "sequence"))
    W, p = build_2x2_weight(cfg, "carleson"), read_p(cfg)
    grid = build_grid(cfg, "carleson", reducing_need, p=p)
    A = build_sequence(cfg.get("sequence", {"kind": "random"}), grid)
    red = reducing_pyramid(W, grid, p)
    rb = carleson_b_sup(A, W, p, reducing=red)
    rc = carleson_c_constant(A, W, p, reducing=red)
    payload = {"condition_b": rb.record(), "condition_c": rc.record()}
    _write_json(os.path.join(out_dir, "carleson.json"), payload)
    return {"passed": True, **payload}


def cmd_stopping(cfg, out_dir):
    _refuse_unknown_fields(cfg, "stopping", ("weight", "grid", "p", "lambda1", "lambda2"))
    W, p = build_weight(cfg), read_p(cfg)
    grid = build_grid(cfg, "stopping", reducing_need, n=W.n, p=p)
    for key in ("lambda1", "lambda2"):
        if cfg.get(key) is not None:
            _read_number(cfg, key, None, lambda v: v > 1.0, "a number > 1")
    tree = stopping_time_tree(W, p, grid=grid,
                              lambda1=cfg.get("lambda1"), lambda2=cfg.get("lambda2"))
    decay_ok = all(m <= 2.0 ** (-j) * (1 + 1e-12)
                   for j, m in enumerate(tree.generation_measures))
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "stopping.ndjson"), "w") as fh:
        for j, (gen, meas) in enumerate(zip(tree.generations, tree.generation_measures)):
            fh.write(json.dumps({"generation": j, "cubes": [c.record() for c in gen],
                                 "measure": meas}) + "\n")
    payload = {"passed": bool(decay_ok),
               "lambda1": tree.lambda1, "lambda2": tree.lambda2,
               "generation_measures": tree.generation_measures}
    _write_json(os.path.join(out_dir, "stopping.json"), payload)
    return payload


# the fields that experiments.run_sweep reads; the sweep runs on d = 1 power
# weights of its own, so a grid or weight field would be silently ignored
SWEEP_FIELDS = ("L", "alphas", "seed")


def cmd_maximal(cfg, out_dir):
    _refuse_unknown_fields(cfg, "maximal", SWEEP_FIELDS)
    return experiments.run_sweep("maximal", cfg, out_dir)


def cmd_sparse(cfg, out_dir):
    # only a weight makes it take a norm, and only the norm reads p
    weighted = cfg.get("weight") is not None
    _refuse_unknown_fields(cfg, "sparse", ("weight", "grid", "density", "seed")
                           + (("p",) if weighted else ()))
    W = build_2x2_weight(cfg, "sparse")
    p = read_p(cfg) if weighted else None
    grid = build_grid(cfg, "sparse", *([] if p is None else [norm_need]), p=p)
    density = _read_number(cfg, "density", 0.5, lambda v: 0.0 < v <= 0.5, "in (0, 1/2]")
    try:
        fam = sparse_generate(grid, seed=_read_int(cfg, "seed", 0), density=density)
    except SparsenessError as exc:
        return {"passed": False, "error": str(exc)}
    payload = {"passed": True, "cubes": fam.record(), "size": len(fam)}
    if p is not None:
        rep = weighted_operator_norm(sparse_op(fam), W, p)
        payload["weighted_norm"] = rep.value
    _write_json(os.path.join(out_dir, "sparse.json"), payload)
    return payload


# the fields that each kind of experiments.run_counterexample reads besides
# its kind and alpha
COUNTEREXAMPLE_FIELDS = {"haar-multiplier": ("depth",), "paraproduct": ("n_range", "L"),
                         "commutator": ("l_range",)}


def cmd_counterexample(cfg, out_dir):
    kind = _read_kind(cfg, "counterexample", "haar-multiplier")
    if kind in COUNTEREXAMPLE_FIELDS:
        _refuse_unknown_fields(cfg, f"counterexample {kind}",
                               ("kind", "alpha") + COUNTEREXAMPLE_FIELDS[kind])
    return experiments.run_counterexample(kind, cfg, out_dir)


def cmd_sweep(cfg, out_dir):
    _refuse_unknown_fields(cfg, "sweep", ("kind",) + SWEEP_FIELDS)
    return experiments.run_sweep(_read_kind(cfg, "sweep", "all"), cfg, out_dir)


def cmd_equivalence(cfg, out_dir):
    _refuse_unknown_fields(cfg, "equivalence", ("instances", "L", "seed"))
    return experiments.run_equivalence(cfg, out_dir)


COMMANDS = {
    "apchar": cmd_apchar,
    "opnorm": cmd_opnorm,
    "bmo": cmd_bmo,
    "carleson": cmd_carleson,
    "stopping": cmd_stopping,
    "maximal": cmd_maximal,
    "sparse": cmd_sparse,
    "counterexample": cmd_counterexample,
    "sweep": cmd_sweep,
    "equivalence": cmd_equivalence,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="haarweight", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default="haarweight-out", help="output directory")
    args = parser.parse_args(argv)
    # json.load raises ValueError on bad JSON and on an integer over 4300 digits
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        if not isinstance(cfg, dict):
            raise ConfigError(f"a config must be a JSON object, got {cfg!r}")
        report = COMMANDS[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except HaarweightError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _write_json(os.path.join(args.out, "diagnostics.json"),
                    {"passed": False, "error": str(exc)})
        return 2
    if not report.get("passed", True):
        _write_json(os.path.join(args.out, "diagnostics.json"), report)
        print("assertion failure; diagnostics written", file=sys.stderr)
        return 2
    print(json.dumps({"command": args.command, "passed": True}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
