"""Carleson embedding criteria, weighted BMO norms, stopping trees, and the
scalar sup-vs-Lp equivalence.

The two embedding criteria for a coefficient sequence A are
  (b)  sup_J (1/|J|) sum_{I in J, eps} ||V_I A_I^eps V_I^{-1}||^2
  (c)  the least C with (1/|J|) sum (A_I^eps)^T V_I^2 A_I^eps <= C V_J^2
       (dual form with V' and A V'^2 A^T on the small-exponent side),
both computed exactly on the finite tree by subtree reductions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg
from .dyadic import (
    Cube, Grid, carleson_intensity, chain_sum, coarsen_levels, refine, refine_to_leaves,
    subtree_sums, sup_over_cubes,
)
from .errors import ThresholdError
from .operators import MatrixSequence, MatrixSymbol, _mv
from .weights import MatrixWeight, _leaf_overlaps, ap_from_reducing, reducing_pyramid


@dataclass
class CarlesonReport:
    value: float
    cube: Cube
    p: float
    kind: str
    per_level: list = field(default_factory=list)
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


def carleson_b_sup(A: MatrixSequence, W: MatrixWeight, p, reducing=None) -> CarlesonReport:
    """Condition (b): exact supremum with its supremizing cube."""
    grid = A.grid
    if reducing is None:
        reducing = reducing_pyramid(W, grid, p)
    lam = []
    for k in range(grid.L):
        V = reducing["V"][k][..., None, :, :]
        Vinv = linalg.powm_spd(reducing["V"][k], -1.0)[..., None, :, :]
        lam.append(linalg.opnorm(V @ A.levels[k] @ Vinv) ** 2)
    _, normalized = carleson_intensity(lam, grid.d)
    value, cube = sup_over_cubes(normalized)
    return CarlesonReport(value, cube, p, "condition-b", normalized)


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
    per_form = {}
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
        sums = subtree_sums(per_cube, d)
        per_form[name] = []
        for k, s in enumerate(sums):
            Vinv = linalg.powm_spd(reducing[vkey][k], -1.0)
            conj = Vinv @ (s * (2.0 ** (k * d))) @ Vinv
            per_form[name].append(linalg.lambda_max(conj))
    sups = {name: sup_over_cubes(lv) for name, lv in per_form.items()}
    # the larger form's supremum and cube; ties go to the primal form
    value, cube = max(sups.values(), key=lambda sup: sup[0])
    kind = "condition-c-" + ("both" if len(sups) == 2 else next(iter(sups)))
    per_level = [np.maximum.reduce(arrs) for arrs in zip(*per_form.values())]
    primal, dual = (sups[name][0] if name in sups else None for name in ("primal", "dual"))
    return CarlesonReport(value, cube, p, kind, per_level, primal, dual)


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


def bmo_norm(B: MatrixSymbol, W: MatrixWeight, p, variant="primal", reducing=None):
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
    if reducing is None:
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


def mean_oscillation(B: MatrixSymbol, W: MatrixWeight, p, lo, hi, center=None):
    """(1/|Q|) int_Q ||W^{1/p}(x)(B(x) - m_Q B) V_Q^{-1}||^p for an arbitrary
    rational interval Q = [lo, hi) in d=1, with exact partial-leaf overlap
    weights.  ``center`` overrides the matrix subtracted from B (the
    infimum-style oscillation uses other centers)."""
    grid = B.grid
    if grid.d != 1:
        raise ValueError("arbitrary-cube oscillation implemented for d=1")
    if p != 2.0:
        raise ValueError("arbitrary-cube oscillation uses the p=2 closed form")
    lo, hi = Fraction(lo), Fraction(hi)
    idxs, weights = _leaf_overlaps(lo, hi, grid.L)
    weights = np.array(weights)
    total = float(hi - lo)
    vals = B.step.values[idxs]
    if center is None:
        center = (weights[:, None, None] * vals).sum(axis=0) / total
    avgW = W.average_over_interval(lo, hi, 1.0, grid=grid)
    VQinv = linalg.powm_spd(linalg.sqrtm_spd(avgW), -1.0)
    reps = W.leaf_reps(grid, 0.5)[idxs]
    X = reps @ (vals - center) @ VQinv
    osc = (linalg.opnorm(X) ** 2 * weights).sum() / total
    return float(osc)


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

    def to_ndjson(self, path):
        with open(path, "w") as fh:
            for j, gen in enumerate(self.generations):
                fh.write(json.dumps({
                    "generation": j,
                    "cubes": [c.record() for c in gen],
                    "measure": self.generation_measures[j],
                }) + "\n")


STOPPING_SLACK = 0.05   # absorbs the ellipsoid certification tolerance


def stopping_constants(n, p):
    """Runtime thresholds lambda1 = 4 C1, lambda2 = 4 C2' ||W||^{p'/p} with the
    dimensional constants traced through the decay proof:
      C1  = n^{p/2} * n^{max(p/2, 1)}   (gauge sandwich + norm-vs-column bounds)
      C2' = n^{p'/2} * n^{max(p'/2, 1)}
    inflated by STOPPING_SLACK."""
    pp = p / (p - 1.0)
    C1 = n ** (p / 2.0) * n ** max(p / 2.0, 1.0)
    C2 = n ** (pp / 2.0) * n ** max(pp / 2.0, 1.0)
    return 4.0 * C1 * (1.0 + STOPPING_SLACK), 4.0 * C2 * (1.0 + STOPPING_SLACK)


def stopping_time_tree(W: MatrixWeight, p, grid: Grid, lambda1=None, lambda2=None,
                       reducing=None) -> StoppingTree:
    """Generations of maximal subcubes of the grid's root where the reducing
    operators deviate: J is a stopping child of its stopping ancestor I when
    ||V_J V_I^{-1}||^p > lambda1 or ||V_J^{-1} V_I||^{p'} > lambda2."""
    if reducing is None:
        reducing = reducing_pyramid(W, grid, p)
    if lambda1 is None or lambda2 is None:
        l1, l2 = stopping_constants(W.n, p)
        lambda1 = l1 if lambda1 is None else lambda1
        if lambda2 is None:
            lambda2 = l2 * ap_from_reducing(reducing, p) ** ((p / (p - 1.0)) / p)
    if lambda1 <= 1.0 or lambda2 <= 1.0:
        raise ThresholdError("stopping thresholds must exceed 1")
    d, L = grid.d, grid.L
    pp = p / (p - 1.0)
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


# ---------------------------------------------------------------------------
# Scalar NTV equivalence
# ---------------------------------------------------------------------------

def ntv_scalar_equivalence(a_levels, d, p):
    """Both sides of the scalar sup-vs-Lp comparison for a nonnegative sequence:
      sup_form = sup_J ((1/|J|) sum_{I in J} a_I^2)^{1/2}
      lp_form  = sup_J ((1/|J|) int_J (sum_{I in J} a_I^2 chi_I / |I|)^{p/2})^{1/p}
    a_levels: per-level scalar arrays for levels 0..L (leaves may carry values).
    """
    L = len(a_levels) - 1
    sq = [np.asarray(a, dtype=float) ** 2 for a in a_levels]
    sums = subtree_sums(sq, d)
    sup_form = max(float((s * 2.0 ** (k * d)).max()) for k, s in enumerate(sums))
    sup_form = np.sqrt(sup_form)
    # for each J: the integrand restricted to J depends on J only through the
    # truncation of the chain sum above J; build it per level
    lp_form = 0.0
    chain = chain_sum([s * (2.0 ** (k * d)) for k, s in enumerate(sq)], d)
    # chain holds, per leaf x, the sum over all I containing x of
    # a_I^2 chi_I / |I|; restricting to J drops the strict-ancestor part
    drop = np.zeros((1,) * d)
    for k in range(L + 1):
        if k > 0:
            # drop(J at level k) = sum over strict ancestors I of a_I^2 / |I|
            drop = refine(drop + sq[k - 1] * (2.0 ** ((k - 1) * d)), d)
        dropL = refine_to_leaves(drop, d, L - k)
        integrand = np.maximum(chain - dropL, 0.0) ** (p / 2.0)
        avg = coarsen_levels(integrand, d, L - k)
        lp_form = max(lp_form, float(avg.max()) ** (1.0 / p))
    return sup_form, lp_form
