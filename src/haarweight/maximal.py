"""Weighted maximal functions, the local N_Q quantity, weak-type checks, and
sparse operators.

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
    Cube, Grid, coarsen_levels, mean_pyramid, refine_to_leaves, sequence_maximal,
)
from .errors import SparsenessError
from .operators import Operator, _mv
from .weights import MatrixWeight, reducing_pyramid


def _cube_averages(outer_levels, t_leaf, grid):
    """a_k(I) = (1/|I|) sum_{leaf in I} w |O_I t_leaf| for every level-k cube I;
    returns per-level cube arrays."""
    d, L = grid.d, grid.L
    out = []
    for k, O in enumerate(outer_levels):
        vals = np.linalg.norm(_mv(refine_to_leaves(O, d, L - k), t_leaf), axis=-1)
        out.append(coarsen_levels(vals, d, L - k))
    return out


def _chain_averages(outer_levels, t_leaf, grid):
    """A_k(x) = a_k(I_k(x)) for the level-k ancestor I_k(x) of each leaf;
    returns per-level leaf arrays."""
    d, L = grid.d, grid.L
    return [refine_to_leaves(a, d, L - k)
            for k, a in enumerate(_cube_averages(outer_levels, t_leaf, grid))]


def _prime_levels(W: MatrixWeight, f, p):
    """Per-level leaf arrays of the averages whose chain maximum is M'f."""
    grid = f.grid
    if p == 2.0:
        outer = [linalg.powm_spd(a, -0.5) for a in W.average_pyramid(grid, -1.0)]
    else:
        outer = reducing_pyramid(W, grid, p)["V"]
    return _chain_averages(outer, _mv(W.leaf_reps(grid, -1.0 / p), f.values), grid)


def maximal_mw_prime(W: MatrixWeight, f, p=2.0):
    """Christ/Goldberg-type auxiliary maximal function.

    p = 2: M'f(x) = sup_{I: x in I} (1/|I|) int_I |(m_I W^{-1})^{-1/2} W^{-1/2}(y) f(y)| dy.
    p != 2: the reducing-operator form sup_I m_I |V_I W^{-1/p} f|.
    Returns a scalar leaf array.
    """
    return np.maximum.reduce(_prime_levels(W, f, p))


def half_power_maximal(W: MatrixWeight, f):
    """sup_I (1/|I|) int_I |(m_I(W^{-1/2}))^{-1/2} W^{-1/2}(y) f(y)| dy with the
    integrand's leaf value m_leaf(W^{-1/2}) f_leaf; the variant the sparse
    domination chain runs through."""
    grid = f.grid
    outer = [linalg.powm_spd(a, -0.5) for a in W.average_pyramid(grid, -0.5)]
    t_leaf = _mv(W.leaf_averages(grid, -0.5), f.values)
    levels = _chain_averages(outer, t_leaf, grid)
    return np.maximum.reduce(levels)


def _mw_ancestor_averages(W: MatrixWeight, f):
    """(L+1, N) array: row k holds, for each leaf x, the average over the
    level-k ancestor of x of P[x, y] = |W^{1/2}(x) W^{-1/2}(y) f(y)| (d = 1)."""
    grid = f.grid
    if grid.d != 1:
        raise ValueError("the two-sided maximal function is implemented for d=1")
    L, N, x = grid.L, grid.n_leaves, np.arange(grid.n_leaves)
    Mw = W.leaf_averages(grid, 1.0)
    t_leaf = _mv(W.leaf_reps(grid, -0.5), f.values)
    # quad[l, m] = t_m^T Mw_l t_m as one GEMM of flattened Mw_l against t_m t_m^T
    quad = Mw.reshape(N, -1) @ (t_leaf[:, :, None] * t_leaf[:, None, :]).reshape(N, -1).T
    avg = np.sqrt(np.maximum(quad, 0.0))      # P[x-leaf, y-leaf] = |W^{1/2}(x)-rep t_y|
    out = np.empty((L + 1, grid.n_leaves))
    out[L] = avg[x, x]
    for k in range(L - 1, -1, -1):
        avg = coarsen_levels(avg, 1, 1, axis=1)
        out[k] = avg[x, x >> (L - k)]
    return out


def maximal_mw(W: MatrixWeight, f):
    """M_W f(x) = sup_{I: x in I} (1/|I|) int_I |W^{1/2}(x) W^{-1/2}(y) f(y)| dy,
    with the x-dependence through the leaf value of W^{1/2} (d = 1)."""
    return _mw_ancestor_averages(W, f).max(axis=0)


def _nq_factors(W: MatrixWeight, grid: Grid):
    """Leaf representatives of W^{1/2} and the per-level (m_R W^{-1})^{1/2}."""
    return (W.leaf_reps(grid, 0.5),
            [linalg.sqrtm_spd(a) for a in W.average_pyramid(grid, -1.0)])


def _nq_on_cube(reps, halves, level, offset, grid):
    """N_Q on the leaves of the cube Q = (level, offset) from ``_nq_factors``."""
    d, L = grid.d, grid.L
    reps_q = reps[tuple(slice(m << (L - level), (m + 1) << (L - level)) for m in offset)]
    best = None
    for k in range(level, L + 1):
        Hk = halves[k][tuple(slice(m << (k - level), (m + 1) << (k - level))
                             for m in offset)]
        vals = linalg.opnorm(reps_q @ refine_to_leaves(Hk, d, L - k))
        best = vals if best is None else np.maximum(best, vals)
    return best


def local_nq(W: MatrixWeight, Q: Cube, grid: Grid):
    """N_Q(x) = sup_{R: x in R, R in Q} ||W^{1/2}(x) (m_R W^{-1})^{1/2}|| on the
    leaves of the grid cube Q, plus its normalized square integral
    (1/|Q|) int_Q N_Q^2."""
    best = _nq_on_cube(*_nq_factors(W, grid), Q.level, Q.offset, grid)
    return best, float((best ** 2).mean())


def weak_type_check(W: MatrixWeight, f, p=2.0):
    """Exhaustive weak (2,2) check for M' with the explicit constant n.

    Returns (max over attained thresholds of lam^2 |{M' > lam}| / ||f||_2^2,
    the threshold achieving it).  The trace identity behind the proof makes
    the bound lam^2 |{M' > lam}| <= n ||f||^2 exact in this discretization.
    """
    grid = f.grid
    m = maximal_mw_prime(W, f, p).ravel()
    norm2 = float((f.values ** 2).sum() * grid.leaf_measure)
    lams = np.unique(m)
    counts = m.size - np.searchsorted(np.sort(m), lams, side="right")
    vals = lams ** 2 * (counts * grid.leaf_measure) / norm2
    best = int(np.argmax(vals))          # the first maximizer on ties
    if not vals[best] > 0.0:
        return 0.0, 0.0
    return float(vals[best]), float(lams[best])


def mw_proof_certificate(W: MatrixWeight, f):
    """Constructive selection behind the M_W bound: for each leaf x pick the
    argmax cube R_x, its dyadic scale class j_x (via the M'-type average), and
    the maximal same-class cube S containing R_x; returns the per-leaf ratio
    M_W(x) / (2^{j_x + 1} N_S(x)), which the chain argument bounds by 8.
    """
    grid = f.grid
    L = grid.L
    N = 1 << L
    x = np.arange(N)
    mw_avgs = _mw_ancestor_averages(W, f)
    k_star = mw_avgs.argmax(axis=0)
    mw_val = mw_avgs.max(axis=0)
    D = np.stack(_prime_levels(W, f, 2.0))[k_star, x]
    j = np.floor(np.log2(np.maximum(D, 1e-300))).astype(int)

    # S_x is the coarsest cube on x's chain that is R_y for a leaf y of x's
    # class: key each level-k ancestor by (class, offset) and look it up
    # among the level-k cubes R_y
    r_key = j * N + (x >> (L - k_star))
    hits = np.stack([np.isin(j * N + (x >> (L - k)), r_key[k_star == k])
                     for k in range(L + 1)])
    s_lev = hits.argmax(axis=0)
    s_off = x >> (L - s_lev)

    reps, halves = _nq_factors(W, grid)
    ratios = np.zeros(N)
    for lev, off in set(zip(s_lev.tolist(), s_off.tolist())):
        xs = x[(s_lev == lev) & (s_off == off)]
        nq = _nq_on_cube(reps, halves, lev, (off,), grid)[xs - (off << (L - lev))]
        den = 2.0 ** (j[xs] + 1) * nq
        ratios[xs] = np.divide(mw_val[xs], den, out=np.zeros(xs.size), where=nq > 0)
    return ratios, mw_val


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
        corners = list(itertools.product((0, 1), repeat=d))
        rng.shuffle(corners)
        for corner in corners[:n_sel]:
            child = (lev + 1, tuple(2 * m + c for m, c in zip(off, corner)))
            cubes.append(child)
            frontier.append(child)
    return SparseFamily(grid, [Cube(lev, off) for lev, off in cubes])


def sparse_op(G: SparseFamily, n=2) -> Operator:
    """S f = sum_{I in G} (m_I f) chi_I as a linear operator (self-adjoint on
    unweighted L^2)."""
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

    return Operator(grid, n, kernel, kernel, "sparse")


def sparse_proof_chain(W: MatrixWeight, G: SparseFamily, f, g, ap_value):
    """The displayed quadratic-form domination chain for S at p=2.

    Returns the chain values [q0, q1, q2, q3, q4]:
      q0 = |sum_I |I| <m_I(W^{-1/2} f), m_I(W^{1/2} g)>|
      q1 = sum_I |I| |<a_I, b_I>|                       (q0 <= q1, constant 1)
      q2 = A2^{1/2} sum_I |I| alpha_I beta_I            (q1 <= q2)
      q3 = 2 A2^{1/2} sum_I |E_I| alpha_I beta_I        (q2 <= q3, constant 2)
      q4 = 2 A2^{1/2} int M~'_W f  M~'_{W^{-1}} g       (q3 <= q4, exact)
    with alpha, beta the half-power averaged quantities and M~' their chain
    suprema (M~'_{W^{-1}} g is ``half_power_maximal(power_of(W, -1), g)``,
    bit for bit).  Each inequality holds termwise for the computed numbers.
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
