"""Finite linear operators: paraproducts, Haar multipliers, shifts, commutators,
the weighted embedding operator, and operator norms.

Every operator acts on vector step functions.  The array-level kernels accept
leaf values shaped grid + (n,) or grid + (n, B); the trailing batch axis is
how an operator's matrix gets built, one block of identity columns per pass.
Each operator describes its matrix by one table of n x n component blocks
over the leaves, None where a block is zero: the shift, the sparse operator
and the commutator build theirs from one scalar matrix q on the leaves,
pushed once through a scalar map, and any other operator views its blocks
in the matrix that the vector identity pushed through its kernel gives.  A
dense p = 2 norm whitens that matrix in one place, ``_summands``: whole
under a weight with off-diagonal leaf entries, and otherwise one summand
per block when no component class holds two blocks.  All operators
annihilate the coarse mean (their sums run over cancellative Haar terms); the
mean channel of the input still matters wherever cube averages appear.
The kernels take C- or Fortran-ordered leaf values and give the same bits
for both; the matrix-free norm runs them leaf-contiguous (Fortran order), so
that their elementwise loops run along the leaves.

Each operator also carries its unweighted-L^2 adjoint kernel (the leaf basis
is orthogonal with equal cell measures, so the adjoint is the dense
transpose), which makes matrix-free norm iterations possible.

Weighted operator norms are norms on L^p(W_{L,p}) with the leaf-constant
W_{L,p} = (m_leaf W^{2/p})^{p/2}, which equals W for leaf-valued weights.
At p = 2 the two norms agree on every step function (a leaf integral of
f^T W f is f^T m_leaf(W) f |leaf|); at p != 2 only for leaf-valued weights.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .dyadic import (
    Grid, StepFunction, chain_sum, haar_analyze, haar_synthesize, leaf_count, mean_pyramid,
    memory_order, refine, signature_product, signatures,
)
from .errors import ShapeError
from .weights import MatrixWeight, reducing_pyramid


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
    the kernel of its unweighted-L^2 adjoint.

    ``blocks`` describes the map's matrix D in the leaf-value basis: called,
    it returns (table, matrix), the n x n table of the N x N component
    blocks D[(x, i), (y, j)] over the leaves, None exactly where a block is
    zero, and the dim x dim matrix D that the blocks are views of, or None
    when they are arrays of their own.  A dense norm reads the table once
    and takes its block pattern from the None entries alone.  By default
    (``_kernel_blocks``) the blocks are views of the kernel's matrix, the
    vector identity pushed through it; an operator built from a scalar
    matrix q on the leaves passes blocks built from q
    (``_componentwise_blocks``, and the commutator's in ``commutator_op``)."""

    grid: Grid
    n: int
    kernel: object
    kernel_T: object = None
    name: str = "operator"
    blocks: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.blocks is None:
            self.blocks = _kernel_blocks(self.grid, self.n, self.kernel)

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
    """Q_sigma; it acts on each component alike, so its blocks come from
    the scalar matrix of its own kernel."""
    shift = lambda v: _shift_values(sigma, v)
    return Operator(sigma.grid, 2, shift, lambda v: _shift_values(sigma, v, adjoint=True),
                    "haar-shift", _componentwise_blocks(sigma.grid, 2, shift))


def commutator_op(B: MatrixSymbol, sigma: ShiftMap):
    """[B, Q_sigma] f = B Q f - Q(B f); ``commutator_case_sum`` is the same
    operator split into the paper's cases.  The kernel shifts f and B f as
    one stacked pair (``_shift_pair``).

    Its matrix is q(x,y) (B(x) - B(y)) with q the shift's scalar matrix,
    pushed once and kept.  Each call of its ``blocks`` computes every
    component block D[(x, i), (y, j)] = fl(fl(B(x)_ij - B(y)_ij) q(x, y))
    + 0.0 (the += 0.0 turns a -0 into +0, as ``_mv`` does) as a new array,
    within a derived rounding bound of the vector push.  A block is None
    where it is zero: where B_ij is the same on every leaf (the zero
    diagonal of the log-swap symbol), which makes every difference zero and
    every entry +0, and where q vanishes wherever B_ij varies (q is zero at
    L = 1)."""
    vals, valsT = B.step.values, _transpose(B.step.values)
    q = functools.cache(lambda: _identity_image(lambda v: _shift_values(sigma, v),
                                                B.grid.leaf_shape))
    entries = vals.reshape(-1, B.n, B.n)

    def blocks():
        table = [[None] * B.n for _ in range(B.n)]
        for i in range(B.n):
            for j in range(B.n):
                b = entries[:, i, j]
                if not (b == b[0]).all():
                    block = np.subtract.outer(b, b)
                    block *= q()
                    block += 0.0
                    if block.any():
                        table[i][j] = block
        return table, None

    def kernel(v):
        qv, qbv = _shift_pair(sigma, v, _mv(vals, v))
        return _mv(vals, qv) - qbv

    def kernel_T(v):
        qbv, qv = _shift_pair(sigma, _mv(valsT, v), v, adjoint=True)
        return qbv - _mv(valsT, qv)

    return Operator(B.grid, B.n, kernel, kernel_T, "commutator", blocks)


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
# For the commutator on 2 vCPUs with OpenBLAS, pushing q and writing the
# matrix from its block table takes 0.03-0.05 s at 2048 and 0.11-0.18 s at
# 4096 (0.01 s to write it again from the kept q at 2048); matrix-free
# Lanczos needs 0.02-0.04 s at 2048.
# At 2048 the certified bracket of ``linalg.spectral_norm`` takes 0.14-0.16 s
# under a diagonal power weight (two summands of 1024) and 0.37-0.39 s under
# a rotated one (one summand)
DENSE_DIM_CAP = 2048


def norm_need(d, L, n, p):
    """(what, bytes) that ``weighted_operator_norm`` holds at once for
    dim = n 2^(dL) columns: 28 floats of leaf vectors per column at p != 2
    (the power method's peak RSS grew by up to 434 B per leaf at d = 1,
    n = 2, L = 10..16, one BLAS thread), plus four dim x dim arrays at
    p = 2 up to the cap; above it the two Lanczos bases instead.  The four
    arrays are the case of a matrix whitened whole (``_summands``): a kept
    matrix, its whitened copy, and the Gram matrix and its Cholesky factor
    of the certified bracket (the L = 10 embedding under the identity
    traced 128 MiB of these 128).
    An operator whose summands come from its block table holds less (the
    L = 10 commutator under a diagonal weight traced 40 MiB), but the need
    stays the bound of the whole case, so that a refusal does not depend
    on the weight."""
    dim = n * leaf_count(d, L)
    if p != 2.0:
        return "its power method", 8 * 28 * dim
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
    """Dense matrix D of op in the leaf-value basis (leaf-major, component-minor),
    from op's block table: the kept, read-only matrix that its blocks view,
    or else a new one written from the blocks (``_written_matrix``)."""
    N, n = op.grid.n_leaves, op.n
    if N * n > DENSE_DIM_CAP:
        raise ShapeError(f"dense dimension {N * n} exceeds cap {DENSE_DIM_CAP}")
    table, dense = op.blocks()
    return _written_matrix(table, N, n) if dense is None else dense


def _written_matrix(table, N, n):
    """A new N n x N n matrix with each block of ``table`` written into its
    place, zero elsewhere."""
    dense = np.zeros((N * n, N * n))
    D4 = dense.reshape(N, n, N, n)
    for i, row in enumerate(table):
        for j, block in enumerate(row):
            if block is not None:
                D4[:, i, :, j] = block
    return dense


def _identity_image(fn, shape):
    """The read-only matrix of the linear map fn on leaf values shaped
    ``shape`` (grid.leaf_shape, or that plus (n,)): the identity pushed
    through fn in column blocks of ``linalg.block_rows`` columns, each written
    into its columns.  One zeroed buffer carries every block, and its ones
    move along from block to block, so besides the matrix the push holds a
    few blocks, not a second identity and its image.  fn treats the columns
    as a batch, so the matrix does not depend on the block width."""
    rows = int(np.prod(shape))
    width = linalg.block_rows(rows, 8 * rows)
    basis, diag = np.zeros((rows, width)), np.arange(width)
    out = np.empty((rows, rows))
    for lo in range(0, rows, width):
        basis[lo + diag, diag] = 1.0
        out[:, lo:lo + width] = fn(basis.reshape(shape + (width,))).reshape(rows, width)
        basis[lo + diag, diag] = 0.0
    out.flags.writeable = False
    return out


def _kernel_blocks(grid, n, kernel):
    """The ``blocks`` of an operator without a scalar matrix: the views
    D4[:, i, :, j] of its matrix D, the vector identity pushed through
    ``kernel``, None where a view has no nonzero entry; built on the first
    call and kept with D."""
    def build():
        D = _identity_image(kernel, grid.leaf_shape + (n,))
        D4 = D.reshape(grid.n_leaves, n, -1, n)
        return [[D4[:, i, :, j] if D4[:, i, :, j].any() else None for j in range(n)]
                for i in range(n)], D
    return functools.cache(build)


def _componentwise_blocks(grid, n, scalar):
    """The ``blocks`` of an operator that acts on each of its n components by
    the scalar map ``scalar``: its scalar matrix q, pushed on the first call
    and kept, on the diagonal, None off it (and on it where q is zero)."""
    @functools.cache
    def q():
        m = _identity_image(scalar, grid.leaf_shape)
        return m if m.any() else None
    return lambda: ([[q() if i == j else None for j in range(n)] for i in range(n)], None)


def _summands(op, H, H_inv):
    """The whitened matrix M = H D H^{-1} of op's matrix D, with H and H^{-1}
    given by their (N, n, n) leaf blocks, as the list of its direct summands.

    A weight with an off-diagonal leaf entry couples the components: D comes
    from ``dense_matrix`` and M is whitened whole.  Under any other weight
    op's table is read once.  When it has two or more blocks, at most one in
    each row class and each column class, M is the direct sum of the blocks
    H_rr D_rc H^{-1}_cc (every other entry is a sum of products with an exact
    zero factor), taken in the order of their row classes; each is whitened
    straight from the table by scaling its rows by H_rr and its columns by
    H^{-1}_cc, a shared, read-only block (q, or a view of the kept matrix)
    into a new array, a new one in place.  Any other table gives D, the kept
    matrix or one written from the table, which is dropped before M is
    whitened whole."""
    N, n = H.shape[:2]
    if ((H.any(axis=0) | H_inv.any(axis=0)) & ~np.eye(n, dtype=bool)).any():
        D = dense_matrix(op)
    else:
        table, D = op.blocks()
        live = np.array([[block is not None for block in row] for row in table])
        if live.sum() > 1 and (live.sum(axis=0) <= 1).all() and (live.sum(axis=1) <= 1).all():
            out = []
            for r, c in zip(*np.nonzero(live)):
                block = table[r][c]
                block = np.multiply(H[:, r, r][:, None], block,
                                    out=block if block.flags.writeable else None)
                block *= H_inv[:, c, c][None, :]
                out.append(block)
            return out
        if D is None:
            D = _written_matrix(table, N, n)
        del table         # a table of new blocks is not held beside the whitening
    dim = N * n
    M = H @ D.reshape(N, n, dim)
    # the right factor as a batched left product: (M H^{-1})^T = H^{-T} M^T
    M = _transpose(H_inv) @ M.reshape(dim, dim).T.reshape(N, n, dim)
    return [M.reshape(dim, dim).T]


def weighted_operator_norm(op: Operator, W: MatrixWeight, p=2.0, seed=0) -> NormReport:
    """Weighted operator norm of ``op`` on L^p(W_{L,p}), W_{L,p} =
    (m_leaf W^{2/p})^{p/2} (see the module docstring): the norm of the
    whitened map H op H^{-1} on l^p(l^2) over the leaves, with the leaf blocks
    H = m_leaf(W^{2/p})^{1/2} (the cell measures cancel).

    p = 2, dimension up to DENSE_DIM_CAP: op's matrix, described by its
    block table (``Operator.blocks``), is whitened by the leaf blocks
    H^{+-1} (``_summands``).  A weight with off-diagonal leaf entries
    (rotated, random SPD) is whitened whole from ``dense_matrix``.  Under
    any other weight the table is read once: when no row or column class
    holds two of its blocks (a componentwise or swapping operator) and it
    has two or more, the whitened matrix is their direct sum, each summand
    whitened straight from its block, and the dense matrix is never
    written; any other table is written into the matrix once and whitened
    whole.  ``linalg.spectral_norm`` brackets its largest
    singular value, and the value is the lower end, with its ``details``.
    The label is ``exact`` (the bracket is about n^2 u wide) only when the
    upper end was certified, otherwise ``lower-bound``.  No witness.
    Otherwise the whitened map runs matrix-free, as closures around op's
    kernel and its adjoint kernel: at p = 2 by ``linalg.matfree_spectral_norm``
    (Golub-Kahan-Lanczos), at p != 2 by ``linalg.matfree_lp_norm`` (Boyd's
    power method).  The value is ||T x|| / ||x|| of its witness x, hence a
    ``lower-bound``, and ``details`` carries the iteration count and
    whether it converged (with the relative Ritz residual at p = 2).
    Witnesses are inputs f = H^{-1} x shaped grid.leaf_shape + (n,), so that
    ||op f|| / ||f|| in L^p(W_{L,p}) is the value.
    """
    grid, n = op.grid, op.n
    dim = grid.n_leaves * n
    gram = W.leaf_averages(grid, 2.0 / p)
    half, half_inv = linalg.powm_spd(gram, 0.5), linalg.powm_spd(gram, -0.5)
    if p == 2.0 and dim <= DENSE_DIM_CAP:
        summands = _summands(op, half.reshape(-1, n, n), half_inv.reshape(-1, n, n))
        val, cert = linalg.spectral_norm(summands, seed)
        return NormReport(val, "exact" if cert["certified"] else "lower-bound",
                          details={"dim": dim, "method": "certified Gram bracket", **cert})
    shape = grid.leaf_shape + (n,)
    # leaf-major, component-minor vectors; the kernels run on a leaf-contiguous
    # (Fortran-ordered) copy, read back into that order by the final reshape
    leafwise = lambda x: np.asfortranarray(x.reshape(shape))
    matvec = lambda x: _mv(half, op.kernel(_mv(half_inv, leafwise(x)))).reshape(-1)
    rmatvec = lambda y: _mv(half_inv, op.kernel_T(_mv(half, leafwise(y)))).reshape(-1)
    if p == 2.0:
        val, wit, diag = linalg.matfree_spectral_norm(matvec, rmatvec, dim, seed=seed)
        method = "Golub-Kahan-Lanczos"
    else:
        val, wit, diag = linalg.matfree_lp_norm(matvec, rmatvec, dim, n, p, seed=seed)
        method = "power method"
    return NormReport(val, "lower-bound", _mv(half_inv, wit.reshape(shape)),
                      {"dim": dim, "method": method, **diag})
