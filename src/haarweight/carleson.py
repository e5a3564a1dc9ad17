"""Carleson embedding criteria, weighted BMO norms, and stopping trees.

The two embedding criteria for a coefficient sequence A are
  (b)  sup_J (1/|J|) sum_{I in J, eps} ||V_I A_I^eps V_I^{-1}||^2
  (c)  the least C with (1/|J|) sum (A_I^eps)^T V_I^2 A_I^eps <= C V_J^2
       (dual form with V' and A V'^2 A^T on the small-exponent side),
both computed exactly on the finite tree by subtree reductions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .dyadic import (
    Cube, Grid, carleson_intensity, coarsen_levels, refine, refine_to_leaves, subtree_sums,
    sup_over_cubes,
)
from .errors import ThresholdError
from .operators import MatrixSequence, MatrixSymbol, _mv, big_pi_op, weighted_operator_norm
from .weights import MatrixWeight, _refuse_overflow, ap_from_reducing, power_of, reducing_pyramid


@dataclass
class CarlesonReport:
    value: float
    cube: Cube
    p: float
    kind: str
    primal_value: float = None    # condition (c) forms, where computed
    dual_value: float = None

    def record(self):
        payload = {"value": self.value, "p": self.p, "kind": self.kind,
                   "supremizing_cube": self.cube.record()}
        if self.primal_value is not None:
            payload["primal_value"] = self.primal_value
        if self.dual_value is not None:
            payload["dual_value"] = self.dual_value
        return payload


def conjugated_norms(A: MatrixSequence, reducing):
    """Per-level ||V_I A_I^eps V_I^{-1}|| over the cubes I and signatures eps."""
    return [linalg.opnorm(V[..., None, :, :] @ Ak @ linalg.powm_spd(V, -1.0)[..., None, :, :])
            for V, Ak in zip(reducing["V"], A.levels)]


def carleson_b_sup(A: MatrixSequence, W: MatrixWeight, p, reducing=None) -> CarlesonReport:
    """Condition (b): exact supremum with its supremizing cube."""
    grid = A.grid
    if reducing is None:
        reducing = reducing_pyramid(W, grid, p)
    _, normalized = carleson_intensity([a ** 2 for a in conjugated_norms(A, reducing)], grid.d)
    value, cube = sup_over_cubes(normalized)
    return CarlesonReport(value, cube, p, "condition-b")


def carleson_c_constant(A: MatrixSequence, W: MatrixWeight, p, reducing=None) -> CarlesonReport:
    """Condition (c): the least admissible constant, via the top eigenvalue of
    V_J^{-1} [(1/|J|) sum (A_I^eps)^T V_I^2 A_I^eps] V_J^{-1} (p >= 2), or the
    dual form with V' and transposes (p <= 2); at p = 2 the larger of both."""
    grid = A.grid
    if reducing is None:
        reducing = reducing_pyramid(W, grid, p)
    forms = {}
    if p >= 2.0:
        forms["primal"] = ("V", False)
    if p <= 2.0:
        forms["dual"] = ("V_prime", True)
    d = grid.d
    sups = {}
    for name, (vkey, transpose) in forms.items():
        per_cube = []
        for k in range(grid.L):
            Vsq = reducing[vkey][k] @ reducing[vkey][k]
            Ak = A.levels[k]
            if transpose:
                G = Ak @ Vsq[..., None, :, :] @ np.swapaxes(Ak, -1, -2)
            else:
                G = np.swapaxes(Ak, -1, -2) @ Vsq[..., None, :, :] @ Ak
            per_cube.append(G.sum(axis=d))
        per_cube.append(np.zeros((1 << grid.L,) * d + (A.n, A.n)))
        levels = []
        for k, s in enumerate(subtree_sums(per_cube, d)):
            Vinv = linalg.powm_spd(reducing[vkey][k], -1.0)
            levels.append(linalg.lambda_max(Vinv @ (s * (2.0 ** (k * d))) @ Vinv))
        sups[name] = sup_over_cubes(levels)
    # the larger form's supremum and cube; ties go to the primal form
    value, cube = max(sups.values(), key=lambda sup: sup[0])
    kind = "condition-c-" + ("both" if len(sups) == 2 else next(iter(sups)))
    primal, dual = (sups[name][0] if name in sups else None for name in ("primal", "dual"))
    return CarlesonReport(value, cube, p, kind, primal, dual)


def p2_necessity(A: MatrixSequence, W: MatrixWeight, reducing=None):
    """Condition (c) at p=2, with the norm reports of the embedding operators
    that bound its forms: Pi_A on L^2(W) (primal) and Pi_{A^T} on L^2(W^{-1})
    (dual).  W^{-1}'s pyramid is W's with V and V' swapped, so one serves all."""
    if reducing is None:
        reducing = reducing_pyramid(W, A.grid, 2.0)
    swapped = {**reducing, "V": reducing["V_prime"], "V_prime": reducing["V"]}
    ops = (big_pi_op(A, W, 2.0, reducing),
           big_pi_op(A.transpose(), power_of(W, -1.0), 2.0, swapped))
    return (carleson_c_constant(A, W, 2.0, reducing=reducing),
            *(weighted_operator_norm(op, MatrixWeight.identity(), 2.0) for op in ops))


# ---------------------------------------------------------------------------
# Weighted BMO
# ---------------------------------------------------------------------------

def _oscillation_sup(B: MatrixSymbol, weight_reps, V_inv, power, grid):
    """sup_I (1/|I|) sum_{leaves in I} w ||rep_leaf (B - m_I B) V_I^{-1}||^power."""
    d, L = grid.d, grid.L
    per_level = []
    vals = B.step.values
    for k in range(L + 1):
        centered = vals - refine_to_leaves(B.means[k], d, L - k)
        X = _mv(weight_reps, centered)
        X = X @ refine_to_leaves(V_inv[k], d, L - k)
        contrib = linalg.opnorm(X) ** power
        per_level.append(coarsen_levels(contrib, d, L - k))
    return sup_over_cubes(per_level)


def bmo_norm(B: MatrixSymbol, W: MatrixWeight, p, variant="primal"):
    """Weighted BMO norm of a matrix symbol over the grid's cubes.

    primal:   sup_I (1/|I|) int ||W^{1/p}(x)(B - m_I B) V_I^{-1}||^p
    dual:     sup_I (1/|I|) int ||W^{-1/p}(x)(B^T - m_I B^T) (V_I')^{-1}||^{p'}
    unweighted: sup_I (1/|I|) int ||B - m_I B||^2.
    Returns (value, supremizing cube).
    """
    grid = B.grid
    if variant == "unweighted":
        eye = np.broadcast_to(np.eye(B.n), grid.leaf_shape + (B.n, B.n))
        Vinv = [np.broadcast_to(np.eye(B.n), (1 << k,) * grid.d + (B.n, B.n))
                for k in range(grid.L + 1)]
        return _oscillation_sup(B, eye, Vinv, 2.0, grid)
    reducing = reducing_pyramid(W, grid, p)
    pprime = p / (p - 1.0)
    if variant == "primal":
        reps = W.leaf_reps(grid, 1.0 / p)
        Vinv = [linalg.powm_spd(v, -1.0) for v in reducing["V"]]
        return _oscillation_sup(B, reps, Vinv, p, grid)
    if variant == "dual":
        reps = W.leaf_reps(grid, -1.0 / p)
        Vinv = [linalg.powm_spd(v, -1.0) for v in reducing["V_prime"]]
        return _oscillation_sup(B.transpose(), reps, Vinv, pprime, grid)
    raise ValueError(f"unknown BMO variant {variant!r}")


# ---------------------------------------------------------------------------
# Stopping trees
# ---------------------------------------------------------------------------

@dataclass
class StoppingTree:
    root: Cube
    p: float
    lambda1: float
    lambda2: float
    generations: list                                   # generations[j]: list of Cube
    generation_measures: list = field(default_factory=list)


STOPPING_SLACK = 0.05   # absorbs the ellipsoid certification tolerance


def stopping_constants(n, p):
    """Runtime thresholds lambda1 = 4 C1, lambda2 = 4 C2' ||W||^{p'/p} with the
    dimensional constants traced through the decay proof:
      C1  = n^{p/2} * n^{max(p/2, 1)}   (gauge sandwich + norm-vs-column bounds)
      C2' = n^{p'/2} * n^{max(p'/2, 1)}
    inflated by STOPPING_SLACK.  Near p = 1, C2' ~ n^{p'} is inf."""
    pp, n = p / (p - 1.0), np.float64(n)
    with np.errstate(over="ignore"):
        C1 = n ** (p / 2.0) * n ** max(p / 2.0, 1.0)
        C2 = n ** (pp / 2.0) * n ** max(pp / 2.0, 1.0)
        return float(4.0 * C1 * (1.0 + STOPPING_SLACK)), float(4.0 * C2 * (1.0 + STOPPING_SLACK))


def stopping_time_tree(W: MatrixWeight, p, grid: Grid, lambda1=None, lambda2=None,
                       reducing=None) -> StoppingTree:
    """Generations of maximal subcubes of the grid's root where the reducing
    operators deviate: J is a stopping child of its stopping ancestor I when
    ||V_J V_I^{-1}||^p > lambda1 or ||V_J^{-1} V_I||^{p'} > lambda2."""
    pp = p / (p - 1.0)
    if reducing is None:
        reducing = reducing_pyramid(W, grid, p)
    if lambda1 is None or lambda2 is None:
        l1, l2 = stopping_constants(W.n, p)
        lambda1 = l1 if lambda1 is None else lambda1
        if lambda2 is None:
            with np.errstate(over="ignore"):
                lambda2 = l2 * np.float64(ap_from_reducing(reducing, p)) ** (pp / p)
            _refuse_overflow([lambda2], p, pp, "the stopping threshold lambda2")
    if lambda1 <= 1.0 or lambda2 <= 1.0:
        raise ThresholdError("stopping thresholds must exceed 1")
    d, L = grid.d, grid.L
    V = reducing["V"]
    Vinv = [linalg.powm_spd(v, -1.0) for v in V]
    root = grid.root()
    gens = [[root]]
    # per cube of the current level: V and V^{-1} of its stopping ancestor and
    # that ancestor's generation, refined from the parent level
    anc_V, anc_Vinv, gen = V[0], Vinv[0], np.zeros((1,) * d, dtype=int)
    for k in range(1, L + 1):
        anc_V, anc_Vinv, gen = refine(anc_V, d), refine(anc_Vinv, d), refine(gen, d)
        t1 = linalg.opnorm(V[k] @ anc_Vinv) ** p
        t2 = linalg.opnorm(Vinv[k] @ anc_V) ** pp
        stop = (t1 > lambda1) | (t2 > lambda2)
        anc_V[stop], anc_Vinv[stop] = V[k][stop], Vinv[k][stop]
        gen[stop] += 1
        # new stoppers by generation, each generation in C order of the cubes
        for j, idx in sorted(zip(gen[stop].tolist(), np.argwhere(stop).tolist())):
            if j == len(gens):
                gens.append([])
            gens[j].append(Cube(k, tuple(idx)))
    return StoppingTree(root, p, float(lambda1), float(lambda2), gens,
                        [float(sum(c.measure for c in cubes)) for cubes in gens])
