"""Dyadic grids, tensor Haar systems, and transforms on truncated trees.

Functions live on the leaves (depth ``L``) of a dyadic grid over the unit
cube [0,1)^d.  ``haar_analyze`` returns the coarse mean on the root plus one
coefficient per (cube, cancellative signature) pair for levels 0..L-1, so
Parseval closes exactly on the finite tree, and ``haar_synthesize`` inverts it.

Everything here is a pure function of immutable inputs; per-level arrays keep
the spatial axes first and value axes last, so all tree walks are vectorized.
The Haar transforms write their outputs in their input's memory order
(``memory_order``): a Fortran-ordered input keeps the leaf axis contiguous,
so their elementwise loops run along the leaves and not along a short value
axis; the numbers are the same in either order.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import ShapeError


# ---------------------------------------------------------------------------
# Grids and cubes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """The standard truncated dyadic grid on [0,1)^d with leaves at level L.

    All computation runs on this grid; third-shifted cubes appear only in the
    covering search (``find_covering_cube``).
    """

    d: int
    L: int

    def __post_init__(self):
        for name in ("d", "L"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < 1:
                raise ValueError(f"grid {name} must be an integer >= 1, got {v!r}")
            object.__setattr__(self, name, int(v))

    @property
    def n_leaves(self):
        return (1 << self.L) ** self.d

    @property
    def leaf_shape(self):
        return (1 << self.L,) * self.d

    @property
    def leaf_measure(self):
        return 2.0 ** (-self.L * self.d)

    def root(self):
        return Cube(0, (0,) * self.d)


def leaf_count(d, L):
    """2^(dL) leaves, for a memory need taken before the grid is built; past
    2^62 nothing fits, so dL (and in a need d or L) past 62 counts as 62."""
    return 1 << min(d * L, 62)


@dataclass(frozen=True)
class Cube:
    """Dyadic cube 2^{-k}([0,1)^d + m + (-1)^k s) with level k and offset m.

    ``shift`` t in 1..2^d selects the third-shifted grid with s = (bits of
    t-1)/3; t = 1 is the standard grid, the only one computation runs on.
    d is ``len(offset)``.
    """

    level: int
    offset: tuple
    shift: int = 1

    @property
    def measure(self):
        return 2.0 ** (-self.level * len(self.offset))

    def record(self):
        """The JSON record {"level", "offset"} every report writes for a cube."""
        return {"level": self.level, "offset": list(self.offset)}

    def _shift_bits(self):
        d = len(self.offset)
        return [(self.shift - 1) >> (d - 1 - i) & 1 for i in range(d)]

    def bounds(self):
        """Exact per-coordinate (lo, hi) as Fractions."""
        sgn = -1 if self.level % 2 else 1
        step = _pow2(-self.level)
        los = [(m + Fraction(sgn * t, 3)) * step for m, t in zip(self.offset, self._shift_bits())]
        return [(lo, lo + step) for lo in los]


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

def signatures(d):
    """All cancellative signatures {0,1}^d minus the all-ones tuple, lex order."""
    return [eps for eps in itertools.product((0, 1), repeat=d) if eps != (1,) * d]


def signature_product(eps, eps_prime):
    """The signature psi of the pointwise product rule |I|^{1/2} h^eps h^{eps'} = h^{psi}.

    Coordinatewise psi_i = XNOR(eps_i, eps'_i); there is no sign, since
    products of one-dimensional Haar values never flip one (the tests check
    the rule leafwise).  The result is cancellative iff eps != eps'.
    """
    eps, eps_prime = tuple(eps), tuple(eps_prime)
    if len(eps) != len(eps_prime):
        raise ShapeError("signatures must share a dimension")
    return tuple(1 - (a ^ b) for a, b in zip(eps, eps_prime))


# ---------------------------------------------------------------------------
# Per-level array plumbing
# ---------------------------------------------------------------------------

def memory_order(a):
    """"F" for a Fortran-contiguous array that is not also C-contiguous (an
    array with at most one axis longer than 1, such as a level-0 array
    shaped (1, 1, 2), is both), else "C"."""
    return "F" if a.flags.f_contiguous and not a.flags.c_contiguous else "C"


def _halves(a, ax):
    """Sibling halves of axis ``ax`` as strided views: (.., 2m, ..) -> two (.., m, ..)."""
    a = a.reshape(a.shape[:ax] + (a.shape[ax] // 2, 2) + a.shape[ax + 1:])
    pre = (slice(None),) * (ax + 1)
    return a[pre + (0,)], a[pre + (1,)]


def coarsen_sum(a, d, axis=0):
    """Sum sibling blocks on the d cube axes that start at ``axis``:
    (2m,)*d -> (m,)*d there, one x0 + x1 per axis."""
    for ax in range(axis, axis + d):
        a0, a1 = _halves(a, ax)
        a = a0 + a1
    return a


def coarsen_levels(a, d, steps, axis=0):
    """Cube means ``steps`` levels up: sibling sums times 2^-d, ``steps`` times,
    on the d cube axes that start at ``axis``, (2^steps m,)*d -> (m,)*d there."""
    for _ in range(steps):
        a = coarsen_sum(a, d, axis)
        a *= 0.5 ** d
    return a


def refine(a, d):
    """Broadcast cube values to their 2^d children: (m,)*d + rest -> (2m,)*d + rest."""
    for ax in range(d):
        a = np.repeat(a, 2, axis=ax)
    return a


def refine_to_leaves(a, d, steps):
    """Broadcast cube values ``steps`` levels down (``refine`` applied ``steps`` times)."""
    for _ in range(steps):
        a = refine(a, d)
    return a


def mean_pyramid(values, d, L):
    """Cube means at every level: list of arrays, level k shaped (2^k,)*d + rest."""
    means = [None] * (L + 1)
    means[L] = np.asarray(values, dtype=float)
    for k in range(L - 1, -1, -1):
        means[k] = coarsen_levels(means[k + 1], d, 1)
    return means


def ancestor_averages(pair_rows, grid):
    """(L + 1, N) array whose row k holds, for each leaf x in flat C order,
    the average of a leaf-pair table T[x, y] over the leaves y of x's
    level-k ancestor.

    ``pair_rows(block)`` returns the rows T[x, .] of the leaves x in the
    slice ``block``, flat over y in C order.  The table is built
    ``linalg.block_rows`` rows at a time: a block goes up the levels along y
    one at a time and keeps only the entry of x's own ancestor, so the walk
    holds O(N * block) floats, not N x N.  The rows are independent, so the
    result does not depend on the block."""
    d, L, N = grid.d, grid.L, grid.n_leaves
    rows = linalg.block_rows(N, 8 * N)
    out = np.empty((L + 1, N))
    i = np.arange(rows)
    for lo in range(0, N, rows):
        block = slice(lo, lo + rows)
        coords = np.unravel_index(np.arange(lo, lo + rows), grid.leaf_shape)
        table = pair_rows(block).reshape((rows,) + grid.leaf_shape)
        for k in range(L, -1, -1):
            if k < L:
                table = coarsen_levels(table, d, 1, axis=1)
                coords = tuple(c >> 1 for c in coords)
            out[k, block] = table[(i,) + coords]
    return out


def subtree_sums(per_level, d):
    """out[k] = per_level[k] + sum over all strict descendants, levelwise arrays."""
    L = len(per_level) - 1
    out = [None] * (L + 1)
    out[L] = np.asarray(per_level[L], dtype=float)
    for k in range(L - 1, -1, -1):
        out[k] = per_level[k] + coarsen_sum(out[k + 1], d)
    return out


# ---------------------------------------------------------------------------
# Step functions and Haar transforms
# ---------------------------------------------------------------------------

VALUE_KINDS = ("scalar", "vector", "matrix")


def _value_kind(vshape):
    """The kind ("scalar", "vector" or "matrix") of values shaped (), (n,) or (n, n)."""
    if len(vshape) > 2:
        raise ShapeError(f"value shape {vshape} is not scalar, vector or matrix")
    if len(vshape) == 2 and vshape[0] != vshape[1]:
        raise ShapeError("matrix values must be square")
    return VALUE_KINDS[len(vshape)]


class StepFunction:
    """Function constant on depth-L leaf cells, with scalar/vector/matrix values.

    values has shape (2^L,)*d + value_shape; value_shape is () for scalars,
    (n,) for vectors and (n, n) for matrices, and ``kind`` names which.
    """

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape[:grid.d] != grid.leaf_shape:
            raise ShapeError(f"leaf axes {values.shape[:grid.d]} do not match grid {grid.leaf_shape}")
        _value_kind(values.shape[grid.d:])
        self.grid = grid
        self.values = values

    @property
    def value_shape(self):
        return self.values.shape[self.grid.d:]

    @property
    def kind(self):
        return _value_kind(self.value_shape)

    def norm_l2(self):
        """Unweighted L^2 norm; for matrix values the Hilbert-Schmidt norm is used."""
        return float(np.sqrt((self.values ** 2).sum() * self.grid.leaf_measure))


def haar_analyze(values, d, L):
    """Array-level forward transform.

    values: (2^L,)*d + value_shape.  Returns (mean, coeffs, means_pyramid)
    with coeffs[k] shaped (2^k,)*d + (2^d - 1,) + value_shape; the signature
    axis sits right after the spatial axes.  Value axes are arbitrary, so a
    trailing batch axis rides along for free.  Every output is written in the
    memory order of ``values``.

    Each level is a separable butterfly on strided views: per child axis the
    sibling halves x0, x1 give x0 - x1 and x0 + x1, so after d axes the 2^d
    parts are indexed by signature bits (0 = difference, 1 = sum) in lex
    order.  The 2^d - 1 cancellative parts, scaled, are the coefficients and
    are written in place; the all-sum part times 2^-d is the parent mean.
    """
    nsig = (1 << d) - 1
    means = [None] * (L + 1)
    means[L] = np.asarray(values, dtype=float)
    order = memory_order(means[L])
    coeffs = [None] * L
    for k in range(L - 1, -1, -1):
        rest = means[k + 1].shape[d:]
        co = np.empty((1 << k,) * d + (nsig,) + rest, order=order)
        mean = np.empty((1 << k,) * d + rest, order=order)
        parts = [means[k + 1]]
        for ax in range(d):
            outs = ([co[(slice(None),) * d + (s,)] for s in range(nsig)] + [mean]
                    if ax == d - 1 else [None] * (2 * len(parts)))
            nxt = []
            for p, o_dif, o_sum in zip(parts, outs[0::2], outs[1::2]):
                x0, x1 = _halves(p, ax)
                nxt += [np.subtract(x0, x1, out=o_dif), np.add(x0, x1, out=o_sum)]
            parts = nxt
        co *= 2.0 ** (-k * d / 2.0) / (1 << d)
        mean *= 0.5 ** d
        coeffs[k], means[k] = co, mean
    return means[0][(0,) * d], coeffs, means


def _merge(dif, tot, ax, order):
    """Inverse butterfly on axis ``ax``: tot + dif and tot - dif become the
    sibling halves of a new array in memory order ``order``, (.., m, ..) ->
    (.., 2m, ..).  Splitting an axis is a view in either order, so the halves
    are written in place."""
    out = np.empty(tot.shape[:ax] + (2 * tot.shape[ax],) + tot.shape[ax + 1:], order=order)
    y0, y1 = _halves(out, ax)
    np.add(tot, dif, out=y0)
    np.subtract(tot, dif, out=y1)
    return out


def haar_synthesize(mean, coeffs, d, L):
    """Array-level inverse transform: leaf values of mean + sum f_I^eps h_I^eps.

    Per level the scaled coefficients and the current cube values (the
    all-sum part) run the butterflies of ``haar_analyze`` backwards, last
    child axis first.  The output is written in the memory order of the
    finest level, ``coeffs[L - 1]``: level 0 has one cube, so a
    Fortran-ordered level 0 is C-contiguous as well."""
    nsig = (1 << d) - 1
    order = memory_order(coeffs[L - 1])
    cur = np.broadcast_to(mean, (1,) * d + np.shape(mean)).copy()
    for k in range(L):
        v = coeffs[k] * 2.0 ** (k * d / 2.0)
        parts = [v[(slice(None),) * d + (s,)] for s in range(nsig)] + [cur]
        for ax in reversed(range(d)):
            parts = [_merge(dif, tot, ax, order) for dif, tot in zip(parts[0::2], parts[1::2])]
        cur = parts[0]
    return cur


# ---------------------------------------------------------------------------
# Covering of arbitrary cubes by shifted-grid cubes
# ---------------------------------------------------------------------------

# the covering cube's side is at most this many times the covered cube's
COVERING_RATIO = 6


def find_covering_cube(lo, hi):
    """Find (t, cube) with cube in the t-th shifted grid, [lo,hi) inside it and
    side length at most ``COVERING_RATIO`` times the input's.

    lo, hi are per-coordinate rationals (anything Fraction accepts).  The
    search scans the at most three candidate levels and all 2^d shifts; a
    result is guaranteed by the third-shift covering lemma.
    """
    lo = [Fraction(x) for x in lo]
    hi = [Fraction(x) for x in hi]
    d = len(lo)
    h = max(b - a for a, b in zip(lo, hi))
    if h <= 0:
        raise ValueError("degenerate cube")
    # candidate levels: 2^{-k} in [h, COVERING_RATIO*h], largest k (smallest cube) first
    k = 0
    while _pow2(-(k + 1)) >= h:
        k += 1
    while _pow2(-k) < h:
        k -= 1
    candidates = [kk for kk in (k, k - 1, k - 2) if _pow2(-kk) <= COVERING_RATIO * h]
    for kk in sorted(candidates, reverse=True):
        step = _pow2(-kk)
        sgn = -1 if kk % 2 else 1
        for t in range(1, (1 << d) + 1):
            bits = [(t - 1) >> (d - 1 - i) & 1 for i in range(d)]
            offs = []
            ok = True
            for a, b, tau in zip(lo, hi, bits):
                shift = Fraction(sgn * tau, 3) * step
                m = (a - shift) / step
                mi = m.numerator // m.denominator  # floor
                if b > step * (mi + 1) + shift:
                    ok = False
                    break
                offs.append(mi)
            if ok:
                return t, Cube(kk, tuple(offs), t)
    raise AssertionError("covering lemma failed; should be unreachable")


def _pow2(k):
    return Fraction(1 << k) if k >= 0 else Fraction(1, 1 << -k)


# ---------------------------------------------------------------------------
# Chain maxima and the scalar Carleson bound
# ---------------------------------------------------------------------------

def sequence_maximal(per_level, d) -> np.ndarray:
    """Leafwise a*(x) = max over the chain of cubes containing x's leaf.

    per_level: nonnegative arrays for levels 0..L, level k shaped (2^k,)*d.
    Returns the leaf array of chain maxima.
    """
    cur = np.asarray(per_level[0], dtype=float)
    for k in range(1, len(per_level)):
        cur = np.maximum(refine(cur, d), per_level[k])
    return cur


def chain_sum(per_level, d) -> np.ndarray:
    """Sum analogue of ``sequence_maximal`` over levels 0..K, accumulated
    coarse to fine (cur = refine(cur) + per_level[k]); lands on level K."""
    cur = np.asarray(per_level[0], dtype=float)
    for k in range(1, len(per_level)):
        cur = refine(cur, d) + per_level[k]
    return cur


def sup_over_cubes(per_level):
    """(max, a Cube attaining it) over per-level arrays shaped (2^k,)*d; ties
    go to the coarsest level, then to the first cube in C order."""
    best, cube = -np.inf, None
    for k, arr in enumerate(per_level):
        mx = float(arr.max())
        if mx > best:
            best = mx
            idx = np.unravel_index(int(arr.argmax()), arr.shape)
            cube = Cube(k, tuple(int(i) for i in idx))
    return best, cube


def carleson_intensity(lam_levels, d):
    """Smallest C with sup_J (1/|J|) sum_{I subset J, eps} lam_I^eps <= C.

    lam_levels: per-level arrays shaped (2^k,)*d + (nsig,), levels 0..L-1.
    Returns (C, per-level normalized subtree sums).
    """
    L = len(lam_levels)
    per_cube = [np.asarray(a, dtype=float).sum(axis=-1) for a in lam_levels]
    per_cube.append(np.zeros((1 << L,) * d))  # leaves carry no coefficients
    sums = subtree_sums(per_cube, d)
    best = 0.0
    normalized = []
    for k, s in enumerate(sums):
        meas = 2.0 ** (-k * d)
        normalized.append(s / meas)
        best = max(best, float(s.max()) / meas)
    return best, normalized
