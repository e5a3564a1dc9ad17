"""Weighted maximal functions, weak-type checks, and sparse operators.

All maximal functions are finite maxima over the dyadic chain of each leaf.
Within a leaf the weight enters through its exact first-power averages (for
the integrands) and L^2 representatives (for the pointwise conjugations), the
same discretization used everywhere else, so the proof-chain inequalities
verified here are exact statements about computed numbers.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import linalg
from .dyadic import (
    Cube, Grid, ancestor_averages, coarsen_levels, leaf_count, mean_pyramid, refine_to_leaves,
    sequence_maximal,
)
from .errors import SparsenessError
from .operators import Operator, _componentwise_blocks, _mv
from .weights import MatrixWeight


def _cube_averages(outer_levels, t_leaf, grid):
    """a_k(I) = (1/|I|) sum_{leaf in I} w |O_I t_leaf| for every level-k cube I;
    returns per-level cube arrays."""
    d, L = grid.d, grid.L
    out = []
    for k, O in enumerate(outer_levels):
        vals = np.linalg.norm(_mv(refine_to_leaves(O, d, L - k), t_leaf), axis=-1)
        out.append(coarsen_levels(vals, d, L - k))
    return out


def maximal_mw_prime(W: MatrixWeight, f):
    """Christ/Goldberg-type auxiliary maximal function at p = 2,
    M'f(x) = sup_{I: x in I} (1/|I|) int_I |(m_I W^{-1})^{-1/2} W^{-1/2}(y) f(y)| dy,
    as a scalar leaf array.
    """
    grid = f.grid
    outer = [linalg.powm_spd(a, -0.5) for a in W.average_pyramid(grid, -1.0)]
    t_leaf = _mv(W.leaf_reps(grid, -0.5), f.values)
    return sequence_maximal(_cube_averages(outer, t_leaf, grid), grid.d)


def _mw_ancestor_averages(W: MatrixWeight, f):
    """``dyadic.ancestor_averages`` of the leaf-pair table
    P[x, y] = |W^{1/2}(x) W^{-1/2}(y) f(y)|, flat over the leaves in C order
    at every d, each block's GEMM, clamp and root written over the walk's
    one buffer."""
    grid = f.grid
    N = grid.n_leaves
    Mw = W.leaf_averages(grid, 1.0).reshape(N, -1)
    t_leaf = _mv(W.leaf_reps(grid, -0.5), f.values).reshape(N, -1)
    # quad[x, y] = t_y^T Mw_x t_y as one GEMM of flattened Mw_x against t_y t_y^T
    tt = (t_leaf[:, :, None] * t_leaf[:, None, :]).reshape(N, -1).T

    def pair_rows(block, buf):
        quad = np.matmul(Mw[block], tt, out=buf)
        return np.sqrt(np.maximum(quad, 0.0, out=quad), out=quad)

    return ancestor_averages(pair_rows, grid)


# bytes per leaf and level that M_W and M'_W hold on 2x2 weights, whose
# leaf-pair table streams in blocks: the maximal sweep's peak RSS (os.wait4)
# grew by 78, 78 and 65 B per leaf and level over L = 10..12, 12..13, 13..14,
# and by 63 and 72 B over L = 11..12, 12..13 once the blocks shared one buffer
MW_LEVEL_BYTES = 80


def mw_need(d, L):
    """(what, bytes) that the maximal functions hold on the depth-L grid in
    d dimensions, at ``MW_LEVEL_BYTES`` (measured at d = 1) per leaf and level."""
    return "its per-level leaf arrays", MW_LEVEL_BYTES * (min(L, 62) + 1) * leaf_count(d, L)


def maximal_mw(W: MatrixWeight, f):
    """M_W f(x) = sup_{I: x in I} (1/|I|) int_I |W^{1/2}(x) W^{-1/2}(y) f(y)| dy,
    with the x-dependence through the leaf value of W^{1/2}, on the leaf
    array of the grid."""
    return _mw_ancestor_averages(W, f).max(axis=0).reshape(f.grid.leaf_shape)


def weak_type_check(W: MatrixWeight, f):
    """Exhaustive weak (2,2) check for M' with the explicit constant n.

    Returns (max over attained thresholds of lam^2 |{M' > lam}| / ||f||_2^2,
    the threshold achieving it).  The bound lam^2 |{M' > lam}| <= n ||f||^2
    holds exactly in this discretization.  {M' > lam} is the disjoint union
    of the maximal cubes I with (1/|I|) int_I |H R f| > lam, where
    H = (m_I W^{-1})^{-1/2} and R = m_leaf(W^{-1})^{1/2} is the leaf's
    representative of W^{-1/2}.  By |H R f| <= ||H R||_F |f| and
    Cauchy-Schwarz, lam^2 < (1/|I|) int_I ||H R||_F^2 (1/|I|) int_I |f|^2,
    and the trace identity (1/|I|) int_I ||H R||_F^2 = tr(H m_I(W^{-1}) H)
    = n (the leaf averages of W^{-1} average to m_I W^{-1}) gives
    |I| lam^2 < n int_I |f|^2; sum over the disjoint I.
    """
    grid = f.grid
    m = maximal_mw_prime(W, f).ravel()
    norm2 = float((f.values ** 2).sum() * grid.leaf_measure)
    lams = np.unique(m)
    counts = m.size - np.searchsorted(np.sort(m), lams, side="right")
    vals = lams ** 2 * (counts * grid.leaf_measure) / norm2
    best = int(np.argmax(vals))          # the first maximizer on ties
    if not vals[best] > 0.0:
        return 0.0, 0.0
    return float(vals[best]), float(lams[best])


# ---------------------------------------------------------------------------
# Sparse families and operators
# ---------------------------------------------------------------------------

class SparseFamily:
    """A set of cubes, ``masks[k]`` marking those of level k, whose exceptional
    sets E_I = I minus the family cubes strictly inside I hold at least half
    of each member I (the same as in-family children covering at most half).
    Each leaf lies in E_I of the smallest member I containing it."""

    def __init__(self, grid: Grid, cubes):
        self.grid = grid
        self.cubes = sorted(set((c.level, c.offset) for c in cubes))
        self.masks = [np.zeros((1 << k,) * grid.d, dtype=bool) for k in range(grid.L + 1)]
        for lev, off in self.cubes:
            self.masks[lev][off] = True
        for (lev, off), mask in self.exceptional_sets().items():
            if 2 * int(mask.sum()) < 1 << ((grid.L - lev) * grid.d):
                raise SparsenessError(
                    f"exceptional set of (level {lev}, offset {off}) is too small")

    def __len__(self):
        return len(self.cubes)

    def exceptional_sets(self):
        """E_I per family cube as exact leaf masks."""
        L = self.grid.L
        slices = [tuple(slice(m << (L - lev), (m + 1) << (L - lev)) for m in off)
                  for lev, off in self.cubes]
        # level of the smallest member containing each leaf (-1: none): the
        # members are sorted coarse to fine, so finer ones overwrite
        owner = np.full(self.grid.leaf_shape, -1)
        for (lev, _), sl in zip(self.cubes, slices):
            owner[sl] = lev
        out = {}
        for (lev, off), sl in zip(self.cubes, slices):
            mask = np.zeros(self.grid.leaf_shape, dtype=bool)
            mask[sl] = owner[sl] == lev
            out[(lev, off)] = mask
        return out

    def record(self):
        return [Cube(lev, off).record() for lev, off in self.cubes]


def sparse_generate(grid: Grid, seed=0, density=0.5) -> SparseFamily:
    """Random downward-closed family meeting the half-measure constraint by
    construction: each selected cube passes membership to at most 2^{d-1} of
    its children."""
    if not 0.0 < density <= 0.5:
        raise ValueError("density must lie in (0, 1/2]")
    rng = np.random.default_rng(seed)
    d, L = grid.d, grid.L
    cubes = [(0, (0,) * d)]
    frontier = [(0, (0,) * d)]
    max_kids = 1 << (d - 1)
    while frontier:
        lev, off = frontier.pop()
        if lev >= L:
            continue
        n_sel = rng.binomial(max_kids, min(1.0, 2.0 * density))
        if n_sel == 0:
            continue
        selectors = list(itertools.product((0, 1), repeat=d))
        rng.shuffle(selectors)
        for bits in selectors[:n_sel]:
            child = (lev + 1, tuple(2 * m + c for m, c in zip(off, bits)))
            cubes.append(child)
            frontier.append(child)
    return SparseFamily(grid, [Cube(lev, off) for lev, off in cubes])


def sparse_op(G: SparseFamily) -> Operator:
    """S f = sum_{I in G} (m_I f) chi_I as a linear operator (self-adjoint on
    unweighted L^2); it acts on each component alike, so its blocks come
    from the scalar matrix of its own kernel."""
    grid = G.grid
    d, L = grid.d, grid.L
    masks = [(k, m.astype(float)) for k, m in enumerate(G.masks) if m.any()]

    def kernel(vals):
        means = mean_pyramid(vals, d, L)
        out = np.zeros_like(vals)
        for lev, mask in masks:
            contrib = means[lev] * mask.reshape(mask.shape + (1,) * (vals.ndim - d))
            out = out + refine_to_leaves(contrib, d, L - lev)
        return out

    return Operator(grid, 2, kernel, kernel, "sparse", _componentwise_blocks(grid, 2, kernel))


def sparse_proof_chain(W: MatrixWeight, G: SparseFamily, f, g, ap_value):
    """The displayed quadratic-form domination chain for S at p=2.

    Returns the chain values [q0, q1, q2, q3, q4]:
      q0 = |sum_I |I| <m_I(W^{-1/2} f), m_I(W^{1/2} g)>|
      q1 = sum_I |I| |<a_I, b_I>|                       (q0 <= q1, constant 1)
      q2 = A2^{1/2} sum_I |I| alpha_I beta_I            (q1 <= q2)
      q3 = 2 A2^{1/2} sum_I |E_I| alpha_I beta_I        (q2 <= q3, constant 2)
      q4 = 2 A2^{1/2} int M~'_W f  M~'_{W^{-1}} g       (q3 <= q4, exact)
    with alpha_I = (1/|I|) int_I |(m_I W^{-1/2})^{-1/2} W^{-1/2} f|, beta_I
    the same for W^{-1} and g, the integrands' leaf values taken as
    m_leaf(W^{-+1/2}) f_leaf, and M~'_W f, M~'_{W^{-1}} g their chain suprema
    over the cubes that contain each leaf.  Each inequality holds termwise
    for the computed numbers.
    """
    grid = f.grid
    d, L = grid.d, grid.L
    t_f = _mv(W.leaf_averages(grid, -0.5), f.values)
    t_g = _mv(W.leaf_averages(grid, 0.5), g.values)
    a = mean_pyramid(t_f, d, L)
    b = mean_pyramid(t_g, d, L)
    o_f = [linalg.powm_spd(x, -0.5) for x in W.average_pyramid(grid, -0.5)]
    o_g = [linalg.powm_spd(x, -0.5) for x in W.average_pyramid(grid, 0.5)]
    alpha_lv = _cube_averages(o_f, t_f, grid)
    beta_lv = _cube_averages(o_g, t_g, grid)
    exc = G.exceptional_sets()
    q0_sum = 0.0
    q1 = q2 = q3 = 0.0
    for lev, off in G.cubes:
        meas = 2.0 ** (-lev * d)
        aI, bI = a[lev][off], b[lev][off]
        pair = float(np.dot(aI, bI))
        q0_sum += meas * pair
        q1 += meas * abs(pair)
        al, be = float(alpha_lv[lev][off]), float(beta_lv[lev][off])
        q2 += np.sqrt(ap_value) * meas * al * be
        emeas = float(exc[(lev, off)].sum()) * grid.leaf_measure
        q3 += 2.0 * np.sqrt(ap_value) * emeas * al * be
    mf, mg = sequence_maximal(alpha_lv, d), sequence_maximal(beta_lv, d)
    q4 = 2.0 * np.sqrt(ap_value) * float((mf * mg).sum()) * grid.leaf_measure
    return [abs(q0_sum), q1, q2, q3, q4]
