"""Finite linear operators: paraproducts, Haar multipliers, shifts, commutators,
the weighted embedding operator, square functions, and operator norms.

Every operator acts on vector step functions.  The array-level kernels accept
leaf values shaped grid + (n,) or grid + (n, B); the trailing batch axis is
how dense matrices get assembled in one vectorized pass.  All operators
annihilate the coarse mean (their sums run over cancellative Haar terms); the
mean channel of the input still matters wherever cube averages appear.

Each operator also carries its unweighted-L^2 adjoint kernel (the leaf basis
is orthogonal with equal cell measures, so the adjoint is the dense
transpose), which makes matrix-free norm iterations possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .dyadic import (
    Grid, StepFunction, chain_sum, haar_analyze, haar_synthesize, mean_pyramid,
    refine, signature_product, signatures,
)
from .errors import ShapeError, ShiftMapError
from .weights import MatrixWeight, _lp_power, reducing_pyramid


def _mv(mats, vecs):
    """Matrix-vector product broadcasting over leading axes; vecs may carry a
    trailing batch axis (then it is a plain batched matmul)."""
    if vecs.ndim == mats.ndim:
        return mats @ vecs
    return np.einsum("...ij,...j->...i", mats, vecs)


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

    def hs_parseval_gap(self):
        """Parseval defect of the cached coefficients against int ||B||_HS^2."""
        total = float((self.mean ** 2).sum())
        for c in self.coeffs:
            total += float((c ** 2).sum())
        norm2 = float((self.step.values ** 2).sum()) * self.grid.leaf_measure
        return abs(total - norm2)


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
    def zeros(cls, grid, n=2):
        nsig = (1 << grid.d) - 1
        return cls(grid, [np.zeros((1 << k,) * grid.d + (nsig, n, n)) for k in range(grid.L)])

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
    def random(cls, grid, n=2, rng=None, haar_normalized=True):
        """Random sequence; with haar_normalized the size of A_I^eps shrinks like
        |I|^{1/2}, mimicking Haar coefficients of a bounded-oscillation symbol."""
        rng = np.random.default_rng(rng)
        nsig = (1 << grid.d) - 1
        levels = []
        for k in range(grid.L):
            size = 2.0 ** (-k * grid.d / 2.0) if haar_normalized else 1.0
            levels.append(rng.standard_normal((1 << k,) * grid.d + (nsig, n, n)) * size)
        return cls(grid, levels)

    def transpose(self):
        return MatrixSequence(self.grid, [_transpose(a) for a in self.levels])

    def with_entry(self, level, offset, sig_index, mat):
        """Copy with one coefficient overwritten (test utility)."""
        levels = [a.copy() for a in self.levels]
        levels[level][tuple(offset) + (sig_index,)] = np.asarray(mat, dtype=float)
        return MatrixSequence(self.grid, levels)


class ShiftMap:
    """sigma = (sigma_cube, sigma_sig): the cube component maps each cube to one
    of its children (2 ell(sigma(I)) = ell(I), sigma(I) inside I); the signature
    component maps cancellative signatures to cancellative signatures (identity
    by default, bijective or not).  The components act independently so the
    commutator case analysis stays well defined."""

    def __init__(self, grid: Grid, corner_levels, sig_map=None):
        self.grid = grid
        d = grid.d
        self.corners = [np.asarray(c, dtype=int) for c in corner_levels]
        if len(self.corners) != grid.L:
            raise ShiftMapError(f"need corner choices for levels 0..{grid.L - 1}")
        for k, c in enumerate(self.corners):
            if c.shape != (1 << k,) * d + (d,):
                raise ShiftMapError(f"level {k} corner array has shape {c.shape}")
            if c.min() < 0 or c.max() > 1:
                raise ShiftMapError("corner entries must be child-selector bits")
        nsig = (1 << d) - 1
        if sig_map is None:
            sig_map = np.arange(nsig)
        self.sig_map = np.asarray(sig_map, dtype=int)
        if self.sig_map.shape != (nsig,) or self.sig_map.min() < 0 or self.sig_map.max() >= nsig:
            raise ShiftMapError("signature map must send cancellative signatures to themselves")
        # targets[k]: flattened level-(k+1) indices of sigma(I) over the cubes
        # I at level k, for k < L - 1 (sigma of a level L - 1 cube is a leaf)
        self.targets = []
        for c in self.corners[:-1]:
            child = 2 * np.indices(c.shape[:-1]) + np.moveaxis(c, -1, 0)
            self.targets.append(np.ravel_multi_index(tuple(child), (2 * c.shape[0],) * d).ravel())

    @classmethod
    def left_child(cls, grid, sig_map=None):
        corners = [np.zeros((1 << k,) * grid.d + (grid.d,), dtype=int) for k in range(grid.L)]
        return cls(grid, corners, sig_map)

    @classmethod
    def random_child(cls, grid, seed=0, sig_map=None):
        rng = np.random.default_rng(seed)
        corners = [rng.integers(0, 2, size=(1 << k,) * grid.d + (grid.d,))
                   for k in range(grid.L)]
        return cls(grid, corners, sig_map)


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
    """Q_sigma on coefficient levels: f_I^eps moves to (sigma(I), sigma(eps))
    (scatter), and what moves below the leaf level is dropped.  With
    ``adjoint``, (Q^T g)_I^eps = g_{sigma(I)}^{sigma(eps)} (gather).  sigma
    sends the cubes of a level to distinct children, so a fancy-index ``+=``
    is a complete scatter."""
    d = sigma.grid.d
    flat = lambda a: a.reshape((-1,) + a.shape[d:])
    out = [np.zeros(c.shape) for c in fc]
    for k, tg in enumerate(sigma.targets):
        coarse = flat(out[k] if adjoint else fc[k])
        fine = flat(fc[k + 1] if adjoint else out[k + 1])
        for s, t in enumerate(sigma.sig_map):
            if adjoint:
                coarse[:, s] += fine[tg, t]
            else:
                fine[tg, t] += coarse[:, s]
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


def shift_op(sigma: ShiftMap, n=2):
    return Operator(sigma.grid, n,
                    lambda v: _shift_values(sigma, v),
                    lambda v: _shift_values(sigma, v, adjoint=True),
                    "haar-shift")


def multiplication_op(B: MatrixSymbol):
    vals = B.step.values
    valsT = _transpose(vals)
    return Operator(B.grid, B.n,
                    lambda v: _mv(vals, v),
                    lambda v: _mv(valsT, v),
                    "multiplication")


def commutator_op(B: MatrixSymbol, sigma: ShiftMap):
    """[B, Q_sigma] f = B Q f - Q(B f); ``commutator_case_sum`` is the same
    operator split into the paper's cases."""
    vals, valsT = B.step.values, _transpose(B.step.values)

    def kernel(v):
        return _mv(vals, _shift_values(sigma, v)) - _shift_values(sigma, _mv(vals, v))

    def kernel_T(v):
        qt = _shift_values(sigma, _mv(valsT, v), adjoint=True)
        return qt - _mv(valsT, _shift_values(sigma, v, adjoint=True))

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


def square_function(W: MatrixWeight, f: StepFunction):
    """Weighted dyadic square function at p=2.

    Returns (scalar step values S(x), aggregate) with
    S(x)^2 = sum_{I contains x, eps} |(m_I W)^{1/2} f_I^eps|^2 / |I| and
    aggregate = sum_{I,eps} |(m_I W)^{1/2} f_I^eps|^2.
    """
    grid = f.grid
    d, L = grid.d, grid.L
    _, fc, _ = haar_analyze(f.values, d, L)
    Vhalf = [linalg.sqrtm_spd(a) for a in W.average_pyramid(grid, 1.0)]
    terms = []
    aggregate = 0.0
    for k in range(L):
        term = _mv(Vhalf[k][..., None, :, :], fc[k])
        q = (term ** 2).sum(axis=(d, d + 1))
        aggregate += float(q.sum())
        terms.append(q * (2.0 ** (k * d)))
    return np.sqrt(refine(chain_sum(terms, d), d)), aggregate


# ---------------------------------------------------------------------------
# Dense matrices and weighted operator norms
# ---------------------------------------------------------------------------

# largest dimension whose p=2 norm is assembled densely and certified exact.
# For the commutator on 2 vCPUs with OpenBLAS, assembly takes about 0.3 s at
# 2048 and 1.2-1.6 s at 4096, where matrix-free Lanczos needs 0.06-0.07 s;
# the certified bracket of ``linalg.spectral_norm`` takes 0.33-0.42 s at 2048
# (the Gram product and eigensolve it replaces took about 0.9 s)
DENSE_DIM_CAP = 2048


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
    It is assembled on the first call and kept on op, read-only."""
    if op._dense is None:
        grid, n = op.grid, op.n
        dim = grid.n_leaves * n
        if dim > DENSE_DIM_CAP:
            raise ShapeError(f"dense dimension {dim} exceeds cap {DENSE_DIM_CAP}")
        basis = np.eye(dim).reshape(grid.leaf_shape + (n, dim))
        op._dense = op.kernel(basis).reshape(dim, dim)
        op._dense.flags.writeable = False
    return op._dense


# p != 2 ascent budget: this many restarts from random inputs, each at most
# this many gradient steps
ASCENT_RESTARTS = 3
ASCENT_ITERS = 200


def weighted_operator_norm(op: Operator, W: MatrixWeight, p=2.0, seed=0) -> NormReport:
    """Weighted operator norm of ``op`` on L^p(W).

    p = 2, dimension up to DENSE_DIM_CAP: op's dense matrix (assembled once
    per operator by ``dense_matrix``) is whitened by the leaf blocks
    m_leaf(W)^{+-1/2}, and ``linalg.spectral_norm`` brackets its largest
    singular value: the value is the lower end (Lanczos, or an eigensolve of
    the Gram matrix at small dimension), and a Cholesky proves the upper end.
    ``details`` carries ``lower``, ``upper``, ``shift``, ``fallback`` and
    ``lanczos_steps`` or ``lower_from``.  The label is ``exact`` (the bracket
    is about n^2 u wide) only when the Cholesky succeeded; otherwise it is
    ``lower-bound`` with ``certified`` false.  No witness.
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
        N = grid.n_leaves
        M = half.reshape(N, n, n) @ dense_matrix(op).reshape(N, n, dim)
        # the right factor as a batched left product: (M H^{-1})^T = H^{-T} M^T
        M = (_transpose(half_inv).reshape(N, n, n)
             @ M.reshape(dim, dim).T.reshape(N, n, dim)).reshape(dim, dim).T
        val, cert = linalg.spectral_norm(M, seed)
        return NormReport(val, "exact" if cert["certified"] else "lower-bound",
                          details={"dim": dim, "method": "certified Gram bracket", **cert})
    shape = grid.leaf_shape + (n,)
    val, wit, diag = linalg.matfree_spectral_norm(
        lambda x: _mv(half, op.kernel(_mv(half_inv, x.reshape(shape)))).reshape(-1),
        lambda y: _mv(half_inv, op.kernel_T(_mv(half, y.reshape(shape)))).reshape(-1),
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

