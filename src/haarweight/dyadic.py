"""Dyadic grids, tensor Haar systems, and transforms on truncated trees.

Functions live on the leaves (depth ``L``) of a dyadic grid over the unit
cube [0,1)^d.  A Haar expansion carries the coarse mean on the root plus one
coefficient per (cube, cancellative signature) pair for levels 0..L-1, so
Parseval closes exactly on the finite tree.

Everything here is a pure function of immutable inputs; per-level arrays keep
the spatial axes first and value axes last, so all tree walks are vectorized.
"""

from __future__ import annotations

import csv
import itertools
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CompletenessError, ShapeError


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

    def cubes_at_level(self, k):
        return [Cube(k, m) for m in itertools.product(range(1 << k), repeat=self.d)]

    def all_cubes(self, max_level=None):
        top = self.L if max_level is None else max_level
        return [c for k in range(top + 1) for c in self.cubes_at_level(k)]


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
    def side(self):
        return 2.0 ** (-self.level)

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

    def children(self):
        # child offsets follow the (-1)^k alternation so nesting is exact
        sgn = -1 if self.level % 2 else 1
        base = tuple(2 * m + (sgn if t else 0) for m, t in zip(self.offset, self._shift_bits()))
        return [Cube(self.level + 1, tuple(b + c for b, c in zip(base, corner)), self.shift)
                for corner in itertools.product((0, 1), repeat=len(self.offset))]

    def parent(self):
        if self.level == 0:
            raise ValueError("root cube has no parent")
        # invert children(): m_child = 2*m_parent + sgn_parent*tau + corner
        sgn_parent = -1 if (self.level - 1) % 2 else 1
        par = tuple((m - (sgn_parent if t else 0)) // 2
                    for m, t in zip(self.offset, self._shift_bits()))
        return Cube(self.level - 1, par, self.shift)

    def contains(self, other):
        """Exact containment check via rational bounds."""
        for (a, b), (c, e) in zip(self.bounds(), other.bounds()):
            if not (a <= c and e <= b):
                return False
        return True


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


def subtree_sums(per_level, d):
    """out[k] = per_level[k] + sum over all strict descendants, levelwise arrays."""
    L = len(per_level) - 1
    out = [None] * (L + 1)
    out[L] = np.asarray(per_level[L], dtype=float)
    for k in range(L - 1, -1, -1):
        out[k] = per_level[k] + coarsen_sum(out[k + 1], d)
    return out


# ---------------------------------------------------------------------------
# Step functions and Haar expansions
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

    @classmethod
    def constant(cls, grid, value):
        value = np.asarray(value, dtype=float)
        values = np.broadcast_to(value, grid.leaf_shape + value.shape).copy()
        return cls(grid, values)


class HaarExpansion:
    """Coarse mean plus coefficients over (cube, cancellative signature) pairs.

    coeffs[k] has shape (2^k,)*d + (2^d - 1,) + value_shape for k in 0..L-1.
    """

    def __init__(self, grid, mean, coeffs):
        mean = np.asarray(mean, dtype=float)
        _value_kind(mean.shape)
        self.grid = grid
        self.mean = mean
        if len(coeffs) != grid.L:
            raise CompletenessError(f"expected {grid.L} coefficient levels, got {len(coeffs)}")
        nsig = (1 << grid.d) - 1
        for k, c in enumerate(coeffs):
            want = (1 << k,) * grid.d + (nsig,) + mean.shape
            if c.shape != want:
                raise CompletenessError(f"level {k} coefficients have shape {c.shape}, want {want}")
        self.coeffs = list(coeffs)

    @property
    def value_shape(self):
        return self.mean.shape

    @property
    def kind(self):
        return _value_kind(self.value_shape)

    def coefficient(self, cube, eps):
        """Single coefficient f_I^eps (cube from the expansion's grid)."""
        sig_index = signatures(self.grid.d).index(tuple(eps))
        return self.coeffs[cube.level][cube.offset + (sig_index,)]

    def parseval_total(self):
        """|Q0| |mean|^2 + sum of squared coefficients (equals the squared L^2 norm)."""
        total = float((self.mean ** 2).sum())
        for c in self.coeffs:
            total += float((c ** 2).sum())
        return total

    def to_csv(self, path):
        """Rows: level, offset coordinates, signature bits, coefficient entries."""
        sigs = signatures(self.grid.d)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            off_cols = [f"m{i}" for i in range(self.grid.d)]
            sig_cols = [f"eps{i}" for i in range(self.grid.d)]
            val_cols = [f"c{i}" for i in range(int(np.prod(self.value_shape, dtype=int)) or 1)]
            writer.writerow(["level", *off_cols, *sig_cols, *val_cols])
            for k, arr in enumerate(self.coeffs):
                side = 1 << k
                for off in itertools.product(range(side), repeat=self.grid.d):
                    for s, eps in enumerate(sigs):
                        vals = np.ravel(arr[off + (s,)])
                        writer.writerow([k, *off, *eps, *(repr(float(v)) for v in vals)])


def haar_analyze(values, d, L):
    """Array-level forward transform.

    values: (2^L,)*d + value_shape.  Returns (mean, coeffs, means_pyramid)
    with coeffs[k] shaped (2^k,)*d + (2^d - 1,) + value_shape; the signature
    axis sits right after the spatial axes.  Value axes are arbitrary, so a
    trailing batch axis rides along for free.

    Each level is a separable butterfly on strided views: per child axis the
    sibling halves x0, x1 give x0 - x1 and x0 + x1, so after d axes the 2^d
    parts are indexed by signature bits (0 = difference, 1 = sum) in lex
    order.  The 2^d - 1 cancellative parts, scaled, are the coefficients and
    are written in place; the all-sum part times 2^-d is the parent mean.
    """
    nsig = (1 << d) - 1
    means = [None] * (L + 1)
    means[L] = np.asarray(values, dtype=float)
    coeffs = [None] * L
    for k in range(L - 1, -1, -1):
        rest = means[k + 1].shape[d:]
        co = np.empty((1 << k,) * d + (nsig,) + rest)
        mean = np.empty((1 << k,) * d + rest)
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


def _merge(dif, tot, ax):
    """Inverse butterfly on axis ``ax``: tot + dif and tot - dif become the
    sibling halves of a new array, (.., m, ..) -> (.., 2m, ..)."""
    out = np.empty(tot.shape[:ax] + (2 * tot.shape[ax],) + tot.shape[ax + 1:])
    y0, y1 = _halves(out, ax)
    np.add(tot, dif, out=y0)
    np.subtract(tot, dif, out=y1)
    return out


def haar_synthesize(mean, coeffs, d, L):
    """Array-level inverse transform: leaf values of mean + sum f_I^eps h_I^eps.

    Per level the scaled coefficients and the current cube values (the
    all-sum part) run the butterflies of ``haar_analyze`` backwards, last
    child axis first."""
    nsig = (1 << d) - 1
    cur = np.broadcast_to(mean, (1,) * d + np.shape(mean)).copy()
    for k in range(L):
        v = coeffs[k] * 2.0 ** (k * d / 2.0)
        parts = [v[(slice(None),) * d + (s,)] for s in range(nsig)] + [cur]
        for ax in reversed(range(d)):
            parts = [_merge(dif, tot, ax) for dif, tot in zip(parts[0::2], parts[1::2])]
        cur = parts[0]
    return cur


def haar_transform(f: StepFunction) -> HaarExpansion:
    """Forward transform: exact coefficients f_I^eps = int f h_I^eps from leaf values."""
    mean, coeffs, _ = haar_analyze(f.values, f.grid.d, f.grid.L)
    return HaarExpansion(f.grid, mean, coeffs)


def inverse_haar(e: HaarExpansion) -> StepFunction:
    """Reconstruct leaf values; exact inverse of haar_transform."""
    vals = haar_synthesize(e.mean, e.coeffs, e.grid.d, e.grid.L)
    return StepFunction(e.grid, vals)


# ---------------------------------------------------------------------------
# Covering of arbitrary cubes by shifted-grid cubes
# ---------------------------------------------------------------------------

def find_covering_cube(lo, hi, max_ratio=6):
    """Find (t, cube) with cube in the t-th shifted grid, [lo,hi) inside it and
    side length at most ``max_ratio`` times the input's.

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
    # candidate levels: 2^{-k} in [h, max_ratio*h], largest k (smallest cube) first
    k = 0
    while _pow2(-(k + 1)) >= h:
        k += 1
    while _pow2(-k) < h:
        k -= 1
    candidates = [kk for kk in (k, k - 1, k - 2) if _pow2(-kk) <= max_ratio * h]
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
