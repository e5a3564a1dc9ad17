"""Finite linear operators: paraproducts, Haar multipliers, shifts, commutators,
the weighted embedding operator, and operator norms.

Every operator acts on vector step functions.  The array-level kernels accept
leaf values shaped grid + (n,) or grid + (n, B); the trailing batch axis is
how dense matrices get assembled, one block of identity columns per pass.  All operators
annihilate the coarse mean (their sums run over cancellative Haar terms); the
mean channel of the input still matters wherever cube averages appear.
The kernels take C- or Fortran-ordered leaf values and give the same bits
for both; the matrix-free norm runs them leaf-contiguous (Fortran order), so
that their elementwise loops run along the leaves.

Each operator also carries its unweighted-L^2 adjoint kernel (the leaf basis
is orthogonal with equal cell measures, so the adjoint is the dense
transpose), which makes matrix-free norm iterations possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .dyadic import (
    Grid, StepFunction, chain_sum, haar_analyze, haar_synthesize, leaf_count, mean_pyramid,
    memory_order, refine, signature_product, signatures,
)
from .errors import ShapeError
from .weights import MatrixWeight, _lp_power, reducing_pyramid


def _mv(mats, vecs):
    """Matrix-vector product broadcasting over leading axes; vecs may carry a
    trailing batch axis (then it is a plain batched matmul).

    Without a batch axis, 2x2 matrices take the closed form
    m_i0 v_0 + m_i1 v_1 on leaf slices, written in the memory order of vecs,
    so that its loops run along the leaves of a leaf-contiguous input.  It
    has the bits of the einsum that other matrix sizes take: that sum starts
    from +0, and the final += 0.0 turns a -0 into +0 and changes nothing
    else."""
    if vecs.ndim == mats.ndim:
        return mats @ vecs
    if mats.shape[-2:] != (2, 2):
        return np.einsum("...ij,...j->...i", mats, vecs)
    out = np.empty_like(vecs, dtype=np.result_type(mats, vecs),
                        shape=np.broadcast_shapes(mats.shape[:-1], vecs.shape))
    for i in range(2):
        np.multiply(mats[..., i, 0], vecs[..., 0], out=out[..., i])
        out[..., i] += mats[..., i, 1] * vecs[..., 1]
    out += 0.0
    return out


def _transpose(mats):
    return np.swapaxes(mats, -1, -2)


# ---------------------------------------------------------------------------
# Symbols, sequences, shifts
# ---------------------------------------------------------------------------

class MatrixSymbol:
    """Matrix-valued step function with cached Haar coefficients and cube means."""

    def __init__(self, step: StepFunction):
        if step.kind != "matrix":
            raise ShapeError("a symbol must be a matrix step function")
        self.step = step
        self.grid = step.grid
        self.n = step.value_shape[0]
        mean, coeffs, means = haar_analyze(step.values, self.grid.d, self.grid.L)
        self.mean = mean
        self.coeffs = coeffs          # levels 0..L-1, (2^k,)*d + (S, n, n)
        self.means = means            # levels 0..L, (2^k,)*d + (n, n)

    @classmethod
    def from_values(cls, grid, values):
        return cls(StepFunction(grid, values))

    def transpose(self):
        return MatrixSymbol(StepFunction(self.grid, _transpose(self.step.values)))


class MatrixSequence:
    """Coefficient sequence A_I^eps: per-level arrays (2^k,)*d + (S, n, n)."""

    def __init__(self, grid: Grid, levels):
        self.grid = grid
        nsig = (1 << grid.d) - 1
        self.levels = [np.asarray(a, dtype=float) for a in levels]
        if len(self.levels) != grid.L:
            raise ShapeError(f"need {grid.L} coefficient levels")
        self.n = self.levels[0].shape[-1]
        for k, a in enumerate(self.levels):
            want = (1 << k,) * grid.d + (nsig, self.n, self.n)
            if a.shape != want:
                raise ShapeError(f"level {k} has shape {a.shape}, want {want}")

    @classmethod
    def constant(cls, grid, mat):
        mat = np.asarray(mat, dtype=float)
        nsig = (1 << grid.d) - 1
        levels = [np.broadcast_to(mat, (1 << k,) * grid.d + (nsig,) + mat.shape).copy()
                  for k in range(grid.L)]
        return cls(grid, levels)

    @classmethod
    def from_symbol(cls, B: MatrixSymbol):
        return cls(B.grid, [c.copy() for c in B.coeffs])

    @classmethod
    def random(cls, grid, rng=None):
        """Random 2x2 sequence whose A_I^eps shrink like |I|^{1/2}, mimicking
        Haar coefficients of a bounded-oscillation symbol."""
        rng = np.random.default_rng(rng)
        nsig = (1 << grid.d) - 1
        return cls(grid, [rng.standard_normal((1 << k,) * grid.d + (nsig, 2, 2))
                          * 2.0 ** (-k * grid.d / 2.0) for k in range(grid.L)])

    def transpose(self):
        return MatrixSequence(self.grid, [_transpose(a) for a in self.levels])


class ShiftMap:
    """The cube map of a dyadic shift: each cube I goes to one of its children
    sigma(I) (2 ell(sigma(I)) = ell(I), sigma(I) inside I), and each
    cancellative signature to itself.  targets[k] holds the flat level-(k+1)
    indices of sigma(I) over the level-k cubes I, for k < L - 1 (sigma of a
    level L - 1 cube is a leaf, below the coefficient levels).
    ``corner_levels[k]`` picks each child by its d selector bits; they come
    from ``left_child`` or ``random_child``."""

    def __init__(self, grid: Grid, corner_levels):
        self.grid = grid
        self.targets = []
        for c in corner_levels:
            child = 2 * np.indices(c.shape[:-1]) + np.moveaxis(c, -1, 0)
            fine = (2 * c.shape[0],) * grid.d
            self.targets.append(np.ravel_multi_index(tuple(child), fine).ravel())

    @classmethod
    def left_child(cls, grid):
        return cls(grid, [np.zeros((1 << k,) * grid.d + (grid.d,), dtype=int)
                          for k in range(grid.L - 1)])

    @classmethod
    def random_child(cls, grid, seed=0):
        rng = np.random.default_rng(seed)
        return cls(grid, [rng.integers(0, 2, size=(1 << k,) * grid.d + (grid.d,))
                          for k in range(grid.L - 1)])


# ---------------------------------------------------------------------------
# Operator kernels: maps on Haar coefficient levels
# ---------------------------------------------------------------------------

def _sig_first(arr, d):
    """View with the signature axis moved to the front."""
    return np.moveaxis(arr, d, 0)


def _on_coefficients(grid, level_map, vals):
    """Analyze vals once, map its coefficient levels, synthesize once; the
    coarse mean is dropped."""
    d, L = grid.d, grid.L
    _, fc, _ = haar_analyze(vals, d, L)
    return haar_synthesize(np.zeros(vals.shape[d:]), level_map(fc), d, L)


def _multiply_levels(mats, fc):
    """Haar multiplier on coefficient levels: f_I^eps -> A_I^eps f_I^eps."""
    return [_mv(a, c) for a, c in zip(mats, fc)]


def _paraproduct_levels(coeffs, means, d):
    """Coefficients C_I^eps m_I f of pi f from the cube means of f."""
    return [_mv(c, np.expand_dims(m, d)) for c, m in zip(coeffs, means)]


def _shift_levels(sigma: ShiftMap, fc, adjoint=False):
    """Q_sigma on coefficient levels: f_I^eps moves to (sigma(I), eps)
    (scatter), and what moves below the leaf level is dropped.  With
    ``adjoint``, (Q^T g)_I^eps = g_{sigma(I)}^eps (gather).  sigma sends the
    cubes of a level to distinct children, so one fancy-index assignment per
    level is a complete scatter.

    The levels are flattened by a reshape that merges the d cube axes, a
    view of the output only in C order when d >= 2; so the outputs keep a
    Fortran order of the input at d = 1 only, and are C-ordered otherwise."""
    d = sigma.grid.d
    flat = lambda a: a.reshape((-1,) + a.shape[d:])
    out = [np.zeros(c.shape, order=memory_order(c) if d == 1 else "C") for c in fc]
    for k, tg in enumerate(sigma.targets):
        if adjoint:
            flat(out[k])[:] = flat(fc[k + 1])[tg]
        else:
            flat(out[k + 1])[tg] = flat(fc[k])
    return out


def _mixer_levels(B: MatrixSymbol, fc):
    """Signature mixer on coefficient levels:
    sum_I sum_{eps != eps'} |I|^{-1/2} B_I^{eps'} f_I^eps h_I^{psi(eps',eps)}."""
    d = B.grid.d
    sigs = signatures(d)
    pairs = [(sp, s, signature_product(ep, e)) for sp, ep in enumerate(sigs)
             for s, e in enumerate(sigs) if sp != s]
    out = [np.zeros_like(c) for c in fc]
    for k, (b, f, o) in enumerate(zip(B.coeffs, fc, out)):
        scale = 2.0 ** (k * d / 2.0)   # |I|^{-1/2}
        bs, fs, os = _sig_first(b, d), _sig_first(f, d), _sig_first(o, d)
        for sp, s, psi in pairs:
            os[sigs.index(psi)] += scale * _mv(bs[sp], fs[s])
    return out


def _adjoint_paraproduct_chain(coeffs, fc, d):
    """sum_{I,eps} C_I^eps f_I^eps chi_I / |I| on the leaves, from f's levels fc."""
    terms = [_mv(c, f).sum(axis=d) * (2.0 ** (k * d))
             for k, (c, f) in enumerate(zip(coeffs, fc))]
    return refine(chain_sum(terms, d), d)


def _paraproduct_values(grid, coeffs, vals):
    """pi f = sum_{I,eps} C_I^eps (m_I f) h_I^eps; it reads only cube means, so
    it runs on the mean pyramid without a full analysis."""
    d, L = grid.d, grid.L
    levels = _paraproduct_levels(coeffs, mean_pyramid(vals, d, L), d)
    return haar_synthesize(np.zeros(vals.shape[d:]), levels, d, L)


def _adjoint_paraproduct_values(grid, coeffs, vals):
    """Adjoint of the paraproduct with transposed coefficients; with real
    symbols this is (pi_{B^*})^*."""
    _, fc, _ = haar_analyze(vals, grid.d, grid.L)
    return _adjoint_paraproduct_chain(coeffs, fc, grid.d)


def _shift_values(sigma: ShiftMap, vals, adjoint=False):
    return _on_coefficients(sigma.grid, lambda fc: _shift_levels(sigma, fc, adjoint), vals)


def _shift_pair(sigma: ShiftMap, a, b, adjoint=False):
    """Q_sigma a and Q_sigma b (Q^T with ``adjoint``) as one shift of the
    stacked pair, the pair axis right after the leaf axes and the pair in the
    memory order of a; the shift acts on each value alone, so each half has
    the bits of its own shift."""
    d = sigma.grid.d
    pair = np.empty(a.shape[:d] + (2,) + a.shape[d:], order=memory_order(a))
    halves = np.moveaxis(pair, d, 0)
    halves[0], halves[1] = a, b
    q = np.moveaxis(_shift_values(sigma, pair, adjoint), d, 0)
    return q[0], q[1]


def _product_channels(B: MatrixSymbol, vals):
    """(B g - m(B) m(g), m(g)) from one analysis of g: the paraproduct, cube-means
    multiplier and signature mixer levels are summed and synthesized once, and
    the adjoint-paraproduct chain of the same coefficients is added."""
    d, L = B.grid.d, B.grid.L
    mean, fc, means = haar_analyze(vals, d, L)
    levels = [p + m + x for p, m, x in zip(
        _paraproduct_levels(B.coeffs, means, d),
        _multiply_levels([np.expand_dims(m, d) for m in B.means], fc),
        _mixer_levels(B, fc))]
    out = haar_synthesize(np.zeros(vals.shape[d:]), levels, d, L)
    return out + _adjoint_paraproduct_chain(B.coeffs, fc, d), mean


def product_decomposition_values(B: MatrixSymbol, vals):
    """Exact finite-tree pointwise-product identity
    B g = pi_B g + (means multiplier) g + (adjoint paraproduct) g
          + (signature mixer) g + m(B) m(g) chi."""
    out, mean = _product_channels(B, vals)
    return out + np.broadcast_to(_mv(B.mean, mean), vals.shape)


def commutator_case_sum(B: MatrixSymbol, sigma: ShiftMap, vals):
    """[B, Q_sigma] f as the case sum D(Q f) - Q(D f) over the channels of
    D = B - m(B) m(.).  It is exact on the finite tree: Q f has mean zero and
    Q kills constants, so the constant channel drops from both terms."""
    qf = _shift_values(sigma, vals)
    return _product_channels(B, qf)[0] - _shift_values(sigma, _product_channels(B, vals)[0])


# ---------------------------------------------------------------------------
# Public operator API
# ---------------------------------------------------------------------------

@dataclass
class Operator:
    """A linear map on vector step functions with a batched array kernel and
    the kernel of its unweighted-L^2 adjoint."""

    grid: Grid
    n: int
    kernel: object
    kernel_T: object = None
    name: str = "operator"
    _dense: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __call__(self, f: StepFunction) -> StepFunction:
        if f.grid != self.grid:
            raise ShapeError("operator and argument live on different grids")
        if f.kind != "vector" or f.value_shape != (self.n,):
            raise ShapeError(f"expected vector values of dimension {self.n}")
        return StepFunction(self.grid, self.kernel(f.values))


def paraproduct_op(B: MatrixSymbol):
    g, c, cT = B.grid, B.coeffs, [_transpose(a) for a in B.coeffs]
    return Operator(g, B.n,
                    lambda v: _paraproduct_values(g, c, v),
                    lambda v: _adjoint_paraproduct_values(g, cT, v),
                    "paraproduct")


def adjoint_paraproduct_op(B: MatrixSymbol):
    g, c, cT = B.grid, B.coeffs, [_transpose(a) for a in B.coeffs]
    return Operator(g, B.n,
                    lambda v: _adjoint_paraproduct_values(g, c, v),
                    lambda v: _paraproduct_values(g, cT, v),
                    "adjoint-paraproduct")


def haar_multiplier_op(A: MatrixSequence):
    g, a, aT = A.grid, A.levels, [_transpose(m) for m in A.levels]
    return Operator(g, A.n,
                    lambda v: _on_coefficients(g, lambda fc: _multiply_levels(a, fc), v),
                    lambda v: _on_coefficients(g, lambda fc: _multiply_levels(aT, fc), v),
                    "haar-multiplier")


def shift_op(sigma: ShiftMap):
    return Operator(sigma.grid, 2,
                    lambda v: _shift_values(sigma, v),
                    lambda v: _shift_values(sigma, v, adjoint=True),
                    "haar-shift")


def commutator_op(B: MatrixSymbol, sigma: ShiftMap):
    """[B, Q_sigma] f = B Q f - Q(B f); ``commutator_case_sum`` is the same
    operator split into the paper's cases.  A vector input shifts f and B f
    as one stacked pair (``_shift_pair``); a batch of columns shifts them
    one after the other, which keeps the working set of a column block of
    ``dense_matrix`` at one block."""
    vals, valsT = B.step.values, _transpose(B.step.values)
    batched = lambda v: v.ndim > B.grid.d + 1

    def kernel(v):
        if batched(v):
            return _mv(vals, _shift_values(sigma, v)) - _shift_values(sigma, _mv(vals, v))
        qv, qbv = _shift_pair(sigma, v, _mv(vals, v))
        return _mv(vals, qv) - qbv

    def kernel_T(v):
        if batched(v):
            qt = _shift_values(sigma, _mv(valsT, v), adjoint=True)
            return qt - _mv(valsT, _shift_values(sigma, v, adjoint=True))
        qbv, qv = _shift_pair(sigma, _mv(valsT, v), v, adjoint=True)
        return qbv - _mv(valsT, qv)

    return Operator(B.grid, B.n, kernel, kernel_T, "commutator")


def big_pi_op(A: MatrixSequence, W: MatrixWeight, p, reducing=None):
    """Pi_A f = sum V_I A_I^eps m_I(W^{-1/p} f) h_I^eps: the paraproduct with
    coefficients V_I A_I^eps after the leaf multiplication by W^{-1/p}; its
    adjoint is the adjoint paraproduct with (V_I A_I^eps)^T, then W^{-1/p}."""
    g = A.grid
    if reducing is None:
        reducing = reducing_pyramid(W, g, p)
    inv = W.leaf_averages(g, -1.0 / p)
    invT = _transpose(inv)
    VA = [reducing["V"][k][..., None, :, :] @ A.levels[k] for k in range(g.L)]
    VAT = [_transpose(a) for a in VA]
    return Operator(g, A.n,
                    lambda v: _paraproduct_values(g, VA, _mv(inv, v)),
                    lambda v: _mv(invT, _adjoint_paraproduct_values(g, VAT, v)),
                    "embedding")


# ---------------------------------------------------------------------------
# Dense matrices and weighted operator norms
# ---------------------------------------------------------------------------

# largest dimension whose p=2 norm is assembled densely and certified exact.
# For the commutator on 2 vCPUs with OpenBLAS, column-block assembly takes
# 0.18-0.21 s at 2048 and 0.6-0.9 s at 4096 in a process that has already
# freed arrays of a few MiB, and 0.35-0.43 s and 1.6-1.9 s in a fresh one,
# whose allocator hands each block's temporaries back to the system and
# faults them in again; matrix-free Lanczos needs 0.02-0.04 s at 2048.
# At 2048 the certified bracket of ``linalg.spectral_norm`` takes 0.14-0.16 s
# under a diagonal power weight (two summands of 1024) and 0.37-0.39 s under
# a rotated one (one summand)
DENSE_DIM_CAP = 2048


def norm_need(d, L, n, p):
    """(what, bytes) that ``weighted_operator_norm`` holds at once for
    dim = n 2^(dL) columns: 16 floats of leaf vectors per column (the ascent
    took 169-210 B per leaf at d = 1, n = 2, L = 10..12), plus four dim x dim
    arrays at p = 2 up to the cap; above it the two Lanczos bases instead."""
    dim = n * leaf_count(d, L)
    if p != 2.0:
        return "its ascent", 8 * 16 * dim
    if dim <= DENSE_DIM_CAP:
        return "its dense matrices", 8 * (4 * dim + 16) * dim
    return "its Lanczos bases", 8 * 2 * (linalg.LANCZOS_MAX_STEPS + 1) * dim


@dataclass
class NormReport:
    value: float
    kind: str                     # "exact" | "lower-bound"
    witness: np.ndarray = None
    details: dict = field(default_factory=dict)

    def record(self):
        out = {"value": self.value, "kind": self.kind, "details": self.details}
        if self.witness is not None:
            out["witness"] = np.asarray(self.witness).ravel().tolist()
        return out


def dense_matrix(op: Operator):
    """Dense matrix of op in the leaf-value basis (leaf-major, component-minor).
    It is assembled on the first call and kept on op, read-only.

    The identity goes through the kernel in column blocks of
    ``linalg.block_rows`` columns, each written into its columns of the
    matrix, so besides the matrix assembly holds a few blocks, not a second
    dim x dim identity and kernel output.  The kernels treat the columns as
    a batch, so the matrix does not depend on the block width."""
    if op._dense is None:
        grid, n = op.grid, op.n
        dim = grid.n_leaves * n
        if dim > DENSE_DIM_CAP:
            raise ShapeError(f"dense dimension {dim} exceeds cap {DENSE_DIM_CAP}")
        width = linalg.block_rows(dim, 8 * dim)
        dense = np.empty((dim, dim))
        for lo in range(0, dim, width):
            basis = np.eye(dim, width, -lo).reshape(grid.leaf_shape + (n, width))
            dense[:, lo:lo + width] = op.kernel(basis).reshape(dim, width)
        dense.flags.writeable = False
        op._dense = dense
    return op._dense


def _whitened_summands(D, H, H_inv):
    """The whitened matrix M = H D H^{-1} of a dense operator matrix D, with H
    and H^{-1} given by their (N, n, n) leaf blocks, as the list of its direct
    summands.

    Rows and columns fall into n component classes (the index mod n).  The
    classes that D, H or H^{-1} couple by a nonzero entry form connected
    components, each a set R of row classes and a set C of column classes.
    An entry of M with row class in R and column class outside C is a sum of
    products H_ia D_ab H^{-1}_bj that each have an exact zero factor, so it is
    an exact zero: after regrouping rows and columns by class, M is the direct
    sum of the blocks M_b = H_RR D_RC H^{-1}_CC, each whitened leafwise with
    the same products as the whole M.  Components without rows or without
    columns carry no nonzero entry and are left out.  When fewer than two
    blocks remain, M is returned whole."""
    N, n = H.shape[:2]
    D4 = D.reshape(N, n, N, n)
    d_pattern = D4.any(axis=0).any(axis=1)
    # when D couples every row class to every column class there is one block
    blocks = [] if d_pattern.all() else _coupled_classes(d_pattern, H.any(axis=0),
                                                         H_inv.any(axis=0))
    if len(blocks) < 2:
        dim = N * n
        M = H @ D.reshape(N, n, dim)
        # the right factor as a batched left product: (M H^{-1})^T = H^{-T} M^T
        M = _transpose(H_inv) @ M.reshape(dim, dim).T.reshape(N, n, dim)
        return [M.reshape(dim, dim).T]
    out = []
    for R, C in blocks:
        if len(R) == len(C) == 1:
            # one row and one column class: the leaf blocks are scalars, and
            # scaling rows and columns gives the einsums' bits
            r, c = R[0], C[0]
            out.append((H[:, r, r][:, None] * D4[:, r, :, c]) * H_inv[:, c, c][None, :])
            continue
        left = np.einsum("lia,lamc->limc", H[:, R[:, None], R], D4[:, R][..., C])
        right = np.einsum("limb,mbj->limj", left, H_inv[:, C[:, None], C])
        out.append(right.reshape(N * len(R), N * len(C)))
    return out


def _coupled_classes(d_pattern, h_pattern, h_inv_pattern):
    """Connected components (R, C), both sets non-empty, of the n row classes
    and n column classes linked by the n x n nonzero patterns of D (row class
    to column class), of H (row classes) and of H^{-1} (column classes)."""
    n = len(d_pattern)
    link = np.block([[h_pattern, d_pattern], [d_pattern.T, h_inv_pattern]])
    link |= link.T | np.eye(2 * n, dtype=bool)
    for _ in range((2 * n).bit_length()):      # paths of up to 2^k links
        link = link @ link
    first = link.argmax(axis=1)               # smallest node of each component
    parts = [(np.flatnonzero(first[:n] == c), np.flatnonzero(first[n:] == c))
             for c in np.unique(first)]
    return [(R, C) for R, C in parts if len(R) and len(C)]


# p != 2 ascent budget: this many restarts from random inputs, each at most
# this many gradient steps
ASCENT_RESTARTS = 3
ASCENT_ITERS = 200


def weighted_operator_norm(op: Operator, W: MatrixWeight, p=2.0, seed=0) -> NormReport:
    """Weighted operator norm of ``op`` on L^p(W).

    p = 2, dimension up to DENSE_DIM_CAP: op's dense matrix (assembled once
    per operator by ``dense_matrix``) is whitened by the leaf blocks
    m_leaf(W)^{+-1/2}.  When neither the weight nor the operator couples some
    components (a diagonal weight and a componentwise or swapping operator),
    the whitened matrix is a direct sum, and it is whitened and certified one
    summand at a time (``_whitened_summands``).  ``linalg.spectral_norm``
    brackets the largest singular value: the value is the lower end (Lanczos
    on the whole direct sum, or an eigensolve of the Gram matrices at small
    dimension), and one Cholesky per summand proves the upper end.
    ``details`` carries ``lower``, ``upper``, ``shift``, ``fallback``,
    ``summands`` and ``lanczos_steps`` or ``lower_from``.  The label is
    ``exact`` (the bracket is about n^2 u wide) only when every Cholesky
    succeeded; otherwise it is ``lower-bound`` with ``certified`` false.  No
    witness.
    p = 2 above the cap: Golub-Kahan-Lanczos on the same whitening around
    op's kernel and its adjoint kernel; the value is ||T x|| of its unit
    witness x, hence a ``lower-bound``, and ``details`` carries the
    iteration count, the relative Ritz residual and whether it converged.
    p != 2: lower bound via normalized gradient ascent on the Rayleigh
    quotient of the leaf gauges.
    Witnesses are inputs f shaped grid.leaf_shape + (n,), so that
    ||op f|| / ||f|| in L^p(W) is the value; at p = 2 that is
    f = m_leaf(W)^{-1/2} x.
    """
    grid, n = op.grid, op.n
    dim = grid.n_leaves * n
    if p != 2.0:
        return _ascent_lower_bound(op, W, p, seed)
    # ||op||_{L^2(W)} = ||H op H^{-1}||, H = m_leaf(W)^{1/2} leafwise (cell measures cancel)
    gram = W.leaf_averages(grid, 1.0)
    half, half_inv = linalg.powm_spd(gram, 0.5), linalg.powm_spd(gram, -0.5)
    if dim <= DENSE_DIM_CAP:
        summands = _whitened_summands(dense_matrix(op), half.reshape(-1, n, n),
                                      half_inv.reshape(-1, n, n))
        val, cert = linalg.spectral_norm(summands, seed)
        return NormReport(val, "exact" if cert["certified"] else "lower-bound",
                          details={"dim": dim, "method": "certified Gram bracket", **cert})
    shape = grid.leaf_shape + (n,)
    # the Lanczos vectors stay leaf-major, component-minor; the kernels run on
    # a leaf-contiguous (Fortran-ordered) copy, and the result is read back
    # into that order by the final reshape
    leafwise = lambda x: np.asfortranarray(x.reshape(shape))
    val, wit, diag = linalg.matfree_spectral_norm(
        lambda x: _mv(half, op.kernel(_mv(half_inv, leafwise(x)))).reshape(-1),
        lambda y: _mv(half_inv, op.kernel_T(_mv(half, leafwise(y)))).reshape(-1),
        dim, seed=seed)
    return NormReport(val, "lower-bound", _mv(half_inv, wit.reshape(shape)),
                      {"dim": dim, "method": "Golub-Kahan-Lanczos", **diag})


def _ascent_lower_bound(op, W, p, seed):
    grid, n = op.grid, op.n
    M_in = W.leaf_averages(grid, 2.0 / p)
    meas = grid.leaf_measure
    rng = np.random.default_rng(seed)

    def norm_p(vals):
        return _lp_power(vals, M_in, p, meas)

    def grad_norm_p(vals):
        q = np.einsum("...i,...ij,...j->...", vals, M_in, vals)
        w = np.maximum(q, 1e-300) ** (p / 2.0 - 1.0)
        return p * meas * w[..., None] * _mv(M_in, vals)

    best_val, best_wit = 0.0, None
    for _ in range(ASCENT_RESTARTS):
        f = rng.standard_normal(grid.leaf_shape + (n,))
        f /= np.abs(f).max()
        step = 0.5
        for _ in range(ASCENT_ITERS):
            Tf = op.kernel(f)
            A, Bv = norm_p(Tf), norm_p(f)
            if Bv <= 0:
                break
            ratio = (A / max(Bv, 1e-300)) ** (1.0 / p)
            if ratio > best_val:
                best_val, best_wit = ratio, f.copy()
            g = op.kernel_T(grad_norm_p(Tf)) / max(A, 1e-300) - grad_norm_p(f) / max(Bv, 1e-300)
            gn = np.abs(g).max()
            if gn <= 0:
                break
            f_new = f + step * g / gn
            A2, B2 = norm_p(op.kernel(f_new)), norm_p(f_new)
            if B2 > 0 and A2 / B2 > A / Bv:
                f = f_new / np.abs(f_new).max()
                step = min(step * 1.25, 2.0)
            else:
                step *= 0.5
                if step < 1e-9:
                    break
    return NormReport(float(best_val), "lower-bound", best_wit,
                      {"p": p, "method": "rayleigh ascent"})

