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
from .experiments import _read_int, _read_number, _write_json, refuse_beyond_memory
from .carleson import bmo_norm, carleson_b_sup, carleson_c_constant, stopping_time_tree
from .dyadic import Grid
from .errors import ConfigError, HaarweightError, SparsenessError
from .maximal import sparse_generate, sparse_op
from .operators import (
    MatrixSequence, MatrixSymbol, ShiftMap, adjoint_paraproduct_op, big_pi_op,
    commutator_op, haar_multiplier_op, paraproduct_op, shift_op,
    weighted_operator_norm,
)
from .weights import MatrixWeight, ap_characteristic, reducing_pyramid


def build_grid(cfg):
    """The standard grid of the spec {"d": ..., "L": ...} (default d=1, L=8)."""
    spec = cfg.get("grid", {"d": 1, "L": 8})
    if not isinstance(spec, dict) or set(spec) - {"d", "L"}:
        raise ConfigError(f"a grid spec is an object with the fields 'd' and 'L', got {spec!r}")
    return Grid(_read_int(spec, "d", None, lo=1), _read_int(spec, "L", None, lo=1))


def _read_finite(cfg, key):
    return _read_number(cfg, key, None, np.isfinite, "a finite number")


def build_weight(cfg):
    """The weight of the spec {"kind": ..., ...}: identity (n), scalar-power
    (alpha, n), diagonal-power (alphas), rotated (2 alphas, theta) or
    random-spd (seed, cond, n)."""
    spec = cfg.get("weight", {"kind": "identity"})
    if not isinstance(spec, dict):
        raise ConfigError(f"weight spec must be an object, got {spec!r}")
    kind = spec.get("kind")
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


def read_p(cfg):
    """The exponent p (default 2); every command that reads it needs 1 < p < inf."""
    try:
        p = float(cfg.get("p", 2.0))
    except (TypeError, ValueError):
        raise ConfigError(f"p must be a number, got {cfg.get('p')!r}")
    if not 1.0 < p < float("inf"):
        raise ConfigError(f"p must satisfy 1 < p < inf, got {p:g}")
    return p


def build_symbol(spec, grid):
    kind = spec.get("kind", "log-swap")
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
    kind = spec.get("kind", "random")
    if kind == "constant-swap":
        return MatrixSequence.constant(grid, experiments.SWAP)
    if kind == "random":
        return MatrixSequence.random(grid, rng=_read_int(spec, "seed", 0))
    if kind == "from-symbol":
        return MatrixSequence.from_symbol(build_symbol(spec.get("symbol", {}), grid))
    raise ConfigError(f"unknown sequence kind {kind!r}")


def build_sigma(spec, grid):
    if spec in (None, "left-child"):
        return ShiftMap.left_child(grid)
    if isinstance(spec, dict) and spec.get("kind") == "random":
        return ShiftMap.random_child(grid, seed=_read_int(spec, "seed", 0))
    raise ConfigError(f"unknown shift spec {spec!r}")


def build_operator(spec, grid, weight, p):
    op_name = spec.get("op")
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


# The A_p double integral holds up to about this many N x N tables of scalars
# at once.  For 2x2 weights they are three of the four sums that
# linalg.pair_opnorms turns into ||W^{1/p}(x) W^{-1/p}(t)||: peak RSS of
# apchar grew by 3.4 tables at d=1, L=11.  Other n form the N^2 n x n products
# for the SVD, which grew by 1.5 n^2 tables (n=3, L=10), so they count 2 n^2.
APCHAR_PAIR_TABLES = 4


def cmd_apchar(cfg, out_dir):
    grid, W = build_grid(cfg), build_weight(cfg)
    if grid.d > 2:
        raise ConfigError(f"apchar supports d <= 2, got d = {grid.d}")
    tables = APCHAR_PAIR_TABLES if W.n == 2 else 2 * W.n ** 2
    refuse_beyond_memory(grid.n_leaves ** 2 * 8 * tables,
                         f"apchar at d = {grid.d}, L = {grid.L}", "its leaf-pair arrays")
    p = read_p(cfg)
    rep = ap_characteristic(W, p, grid)
    payload = rep.record()
    _write_json(os.path.join(out_dir, "apchar.json"), payload)
    rep.to_csv(os.path.join(out_dir, "apchar.csv"))
    return {"passed": True, **payload}


def cmd_opnorm(cfg, out_dir):
    grid, W = build_grid(cfg), build_weight(cfg)
    p = read_p(cfg)
    op = build_operator(cfg.get("operator", {}), grid, W, p)
    rep = weighted_operator_norm(op, W, p, seed=_read_int(cfg, "seed", 0))
    payload = {**rep.record(), "operator": op.name}
    _write_json(os.path.join(out_dir, "opnorm.json"), payload)
    return {"passed": True, **payload}


def cmd_bmo(cfg, out_dir):
    grid, W = build_grid(cfg), build_weight(cfg)
    p = read_p(cfg)
    B = build_symbol(cfg.get("symbol", {}), grid)
    variant = cfg.get("variant", "primal")
    if variant not in ("primal", "dual", "unweighted"):
        raise ConfigError(f"unknown BMO variant {variant!r}")
    val, cube = bmo_norm(B, W, p, variant)
    payload = {"value": val, "variant": variant,
               "supremizing_cube": cube.record()}
    _write_json(os.path.join(out_dir, "bmo.json"), payload)
    return {"passed": True, **payload}


def cmd_carleson(cfg, out_dir):
    grid, W = build_grid(cfg), build_weight(cfg)
    p = read_p(cfg)
    A = build_sequence(cfg.get("sequence", {"kind": "random"}), grid)
    red = reducing_pyramid(W, grid, p)
    rb = carleson_b_sup(A, W, p, reducing=red)
    rc = carleson_c_constant(A, W, p, reducing=red)
    payload = {"condition_b": rb.record(), "condition_c": rc.record()}
    _write_json(os.path.join(out_dir, "carleson.json"), payload)
    return {"passed": True, **payload}


def cmd_stopping(cfg, out_dir):
    grid, W = build_grid(cfg), build_weight(cfg)
    p = read_p(cfg)
    for key in ("lambda1", "lambda2"):
        if cfg.get(key) is not None:
            _read_number(cfg, key, None, lambda v: v > 1.0, "a number > 1")
    tree = stopping_time_tree(W, p, grid=grid,
                              lambda1=cfg.get("lambda1"), lambda2=cfg.get("lambda2"))
    decay_ok = all(m <= 2.0 ** (-j) * (1 + 1e-12)
                   for j, m in enumerate(tree.generation_measures))
    os.makedirs(out_dir, exist_ok=True)
    tree.to_ndjson(os.path.join(out_dir, "stopping.ndjson"))
    payload = {"passed": bool(decay_ok),
               "lambda1": tree.lambda1, "lambda2": tree.lambda2,
               "generation_measures": tree.generation_measures}
    _write_json(os.path.join(out_dir, "stopping.json"), payload)
    return payload


def cmd_maximal(cfg, out_dir):
    return experiments.run_sweep("maximal", cfg, out_dir)


def cmd_sparse(cfg, out_dir):
    grid = build_grid(cfg)
    W = build_weight(cfg)
    density = _read_number(cfg, "density", 0.5, lambda v: 0.0 < v <= 0.5, "in (0, 1/2]")
    try:
        fam = sparse_generate(grid, seed=_read_int(cfg, "seed", 0), density=density)
    except SparsenessError as exc:
        return {"passed": False, "error": str(exc)}
    payload = {"passed": True, "cubes": fam.record(), "size": len(fam)}
    if cfg.get("weight") is not None:
        rep = weighted_operator_norm(sparse_op(fam), W, read_p(cfg))
        payload["weighted_norm"] = rep.value
    _write_json(os.path.join(out_dir, "sparse.json"), payload)
    return payload


def cmd_counterexample(cfg, out_dir):
    kind = cfg.get("kind", "haar-multiplier")
    return experiments.run_counterexample(kind, cfg, out_dir)


def cmd_sweep(cfg, out_dir):
    return experiments.run_sweep(cfg.get("kind", "all"), cfg, out_dir)


def cmd_equivalence(cfg, out_dir):
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
