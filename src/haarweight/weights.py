"""Matrix weights: exact cell averages, A_p characteristics, reducing operators.

A weight is a generator of a.e. positive definite matrix values, held in one
of two representations.  Power laws (|x|^alpha, the identity among them)
average exactly through closed-form integrals; leaf values are constant on
leaf cells by definition, so their averages are exact too.  Reducing
operators are closed-form symmetric square roots at p=2 and certified
maximal-volume ellipsoids for general p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .dyadic import Cube, Grid, coarsen_levels, mean_pyramid, sup_over_cubes
from .errors import IntegrabilityError, ShapeError


class MatrixWeight:
    """Generator of SPD matrix values with exact cell averaging of W^s.

    Exactly one representation is given:
      alphas       -- the power law R diag(|x|^{alpha_1}, ..., |x|^{alpha_n}) R^T,
                      with R = ``rotation`` (the identity when None); every
                      alpha = 0 is the identity weight;
      leaf_values  -- a callable grid -> SPD values constant on its leaves,
                      leaf_shape + (n, n); the weight is their pointwise power
                      ``exponent``.
    """

    def __init__(self, n, alphas=None, rotation=None, leaf_values=None, exponent=1.0):
        if (alphas is None) == (leaf_values is None):
            raise ValueError("a weight needs exactly one of alphas and leaf_values")
        self.n = int(n)
        self.alphas = None if alphas is None else tuple(float(a) for a in alphas)
        self.rotation = None if rotation is None else np.asarray(rotation, dtype=float)
        self.leaf_values = leaf_values
        self.exponent = float(exponent)
        self._cache = {}
        if self.alphas is not None and len(self.alphas) != self.n:
            raise ShapeError(f"{len(self.alphas)} exponents for an n={self.n} weight")

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n=2):
        return cls(n, alphas=(0.0,) * n)

    @classmethod
    def scalar_power(cls, alpha, n=2):
        return cls(n, alphas=(float(alpha),) * n)

    @classmethod
    def diagonal_power(cls, alphas):
        return cls(len(alphas), alphas=alphas)

    @classmethod
    def rotated_power(cls, alphas, theta):
        c, s = np.cos(theta), np.sin(theta)
        R = np.array([[c, -s], [s, c]])
        if len(alphas) != 2:
            raise ShapeError("rotated weight with a scalar angle needs n=2")
        return cls(2, alphas=alphas, rotation=R)

    @classmethod
    def random_spd(cls, seed, cond=16.0, n=2):
        """Per-leaf random SPD values, realized deterministically from
        (seed, grid), with condition number <= cond."""
        if not cond >= 1.0:
            raise ValueError(f"condition number bound must be >= 1, got {cond}")
        n, logc = int(n), np.log(float(cond))

        def leaf_values(grid):
            rng = np.random.default_rng(seed)
            shape = grid.leaf_shape
            nleaf = int(np.prod(shape))
            q, _ = np.linalg.qr(rng.standard_normal((nleaf, n, n)))
            eig = np.exp(rng.uniform(-0.5 * logc, 0.5 * logc, size=(nleaf, n)))
            vals = (q * eig[:, None, :]) @ np.swapaxes(q, -1, -2)
            return linalg.symmetrize(vals).reshape(shape + (n, n))

        return cls(n, leaf_values=leaf_values)

    @classmethod
    def from_leaf_values(cls, grid, values):
        """Explicit per-leaf SPD values, bound to ``grid``."""
        values = np.array(values, dtype=float)

        def leaf_values(g):
            if g != grid:
                raise ShapeError("leaf-valued weight is bound to a different grid")
            return values

        return cls(values.shape[-1], leaf_values=leaf_values)

    # -- averaging core -----------------------------------------------------

    def _power_law(self, s, means):
        """R diag(means(s alpha_i)) R^T, where means(beta) averages |x|^beta
        over each cell; refused unless every |x|^{s alpha_i} is integrable."""
        for a in self.alphas:
            if abs(s * a) >= 1.0:
                raise IntegrabilityError(
                    f"|x|^{s * a:g} is not cell-integrable (|s*alpha| >= 1)")
        diag = np.stack([means(s * a) for a in self.alphas], axis=-1)
        vals = np.zeros(diag.shape + (self.n,))
        idx = np.arange(self.n)
        vals[..., idx, idx] = diag
        if self.rotation is not None:
            vals = self.rotation @ vals @ self.rotation.T
        return vals

    def leaf_averages(self, grid, s=1.0):
        """m_leaf(W^s) on every leaf, shape leaf_shape + (n, n).  Exact."""
        return self._leaf_power(grid, self.exponent * float(s))

    def _leaf_power(self, grid, e):
        """m_leaf of the power law to the power e, or of leaf_values(grid)^e,
        cached by e; ``power_of`` of leaf values shares the cache."""
        key = (grid, e)
        if key in self._cache:
            return self._cache[key]
        if self.leaf_values is not None:
            out = (self.leaf_values(grid) if e == 1.0
                   else linalg.powm_spd(self._leaf_power(grid, 1.0), e))
        elif grid.d == 1:
            edges = np.arange((1 << grid.L) + 1) / (1 << grid.L)
            out = self._power_law(e, lambda beta: _interval_power_means(edges, beta))
        else:
            # no closed form off the line: midpoint value, exactly constant on leaves
            side = 1 << grid.L
            axes = np.meshgrid(*[(np.arange(side) + 0.5) / side] * grid.d, indexing="ij")
            r = np.sqrt(sum(ax ** 2 for ax in axes))
            out = self._power_law(e, lambda beta: r ** beta)
        self._cache[key] = out
        return out

    def leaf_reps(self, grid, r):
        """Leaf representative of the pointwise power W^r: m_leaf(W^{2r})^{1/2}.

        Exact for leaf values; the within-leaf L^2 average for power laws
        (and exactly m_leaf(W)^{1/2}-consistent at r = 1/2).
        """
        return linalg.sqrtm_spd(self.leaf_averages(grid, 2.0 * r))

    def average_pyramid(self, grid, s=1.0):
        """m_I(W^s) for every cube, per-level arrays (exact: integrals add)."""
        return mean_pyramid(self.leaf_averages(grid, s), grid.d, grid.L)

    def average_over_interval(self, lo, hi, s=1.0, grid=None):
        """Exact (1/|I|) int_I W^s over an arbitrary rational interval (d=1).

        Power laws integrate in closed form; leaf values are weighted by the
        exact overlap measure with ``grid``'s leaf partition.
        """
        lo, hi = Fraction(lo), Fraction(hi)
        if hi <= lo:
            raise ValueError("empty interval")
        if self.leaf_values is None:
            width = float(hi - lo)
            return self._power_law(self.exponent * s,
                                   lambda beta: _abs_power_integral(lo, hi, beta) / width)
        if grid is None or grid.d != 1:
            raise ShapeError("leaf-valued weights need a d=1 grid for interval averages")
        if lo < 0 or hi > 1:
            raise ValueError("leaf-valued weights live on [0,1)")
        leaf_vals = self.leaf_averages(grid, s)
        acc = np.zeros((self.n, self.n))
        for i, length in zip(*_leaf_overlaps(lo, hi, grid.L)):
            acc += length * leaf_vals[i]
        return acc / float(hi - lo)


def _leaf_overlaps(lo, hi, L):
    """The leaves i of the level-L partition of [0, 1) that meet the rational
    interval [lo, hi), with their exact overlap lengths as floats."""
    step = Fraction(1, 1 << L)
    idxs, lengths = [], []
    for i in range(max(int(lo / step), 0), min(-((-hi) // step), 1 << L)):
        a, b = max(lo, step * i), min(hi, step * (i + 1))
        if b > a:
            idxs.append(i)
            lengths.append(float(b - a))
    return idxs, lengths


def _abs_power_integral(lo, hi, beta):
    """int_lo^hi |x|^beta dx, exact closed form, beta > -1."""
    lo_f, hi_f = float(lo), float(hi)
    b1 = beta + 1.0

    def prim(x):
        return abs(x) ** b1 / b1

    if lo_f >= 0:
        return prim(hi_f) - prim(lo_f)
    if hi_f <= 0:
        return prim(lo_f) - prim(hi_f)
    return prim(lo_f) + prim(hi_f)


def _interval_power_means(edges, beta):
    """Per-cell averages of |x|^beta over consecutive [edges[i], edges[i+1])."""
    b1 = beta + 1.0
    prim = np.abs(edges) ** b1 / b1
    widths = np.diff(edges)
    return np.diff(prim) / widths


def truncate_weight(W: MatrixWeight, n_cut) -> MatrixWeight:
    """Eigenvalue truncation onto [1/n_cut, n_cut] via the three-band
    projection formula, applied to the weight's leaf values."""
    if n_cut <= 0:
        raise ValueError("truncation level must be positive")
    n_cut = float(n_cut)

    def leaf_values(grid):
        w, v = np.linalg.eigh(linalg.symmetrize(W.leaf_averages(grid, 1.0)))
        w = np.clip(w, 1.0 / n_cut, n_cut)
        return (v * w[..., None, :]) @ np.swapaxes(v, -1, -2)

    return MatrixWeight(W.n, leaf_values=leaf_values)


def power_of(W: MatrixWeight, s0) -> MatrixWeight:
    """The pointwise power W^{s0} as a weight."""
    if W.leaf_values is None:
        return MatrixWeight(W.n, alphas=[a * s0 for a in W.alphas], rotation=W.rotation)
    out = MatrixWeight(W.n, leaf_values=W.leaf_values, exponent=W.exponent * s0)
    out._cache = W._cache
    return out


def dual_weight(W: MatrixWeight, p):
    """(W^{1-p'}, p'); the A_p dual pairing."""
    pprime = p / (p - 1.0)
    return power_of(W, 1.0 - pprime), pprime


# ---------------------------------------------------------------------------
# Cell averages and weighted norms
# ---------------------------------------------------------------------------

def cell_average(W: MatrixWeight, cube: Cube, grid: Grid, s=1.0):
    """(1/|I|) int_I W^s over a cube of the standard grid: closed form for
    power laws in d=1, leaf-summed otherwise."""
    if cube.shift != 1:
        raise ValueError("cell averages are taken over cubes of the standard grid")
    if grid.d == 1 and W.leaf_values is None:
        (lo, hi), = cube.bounds()
        return W.average_over_interval(lo, hi, s)
    leaf_vals = W.leaf_averages(grid, s)
    sl = tuple(slice(m << (grid.L - cube.level), (m + 1) << (grid.L - cube.level))
               for m in cube.offset)
    block = leaf_vals[sl]
    return block.reshape(-1, W.n, W.n).mean(axis=0)


def _lp_power(vals, M, p, meas):
    """sum over leaves of (f^T M f)_+^{p/2} |leaf| for leaf values ``vals`` of
    f and M = m_leaf(W^{2/p}): ||f||_{L^p(W)}^p in the leaf gauge."""
    q = np.einsum("...i,...ij,...j->...", vals, M, vals)
    return float((np.maximum(q, 0.0) ** (p / 2.0)).sum() * meas)


def lp_norm(f, W: MatrixWeight, p=2.0):
    """||f||_{L^p(W)}; exact at p=2, leaf L^2-representative gauge otherwise."""
    grid = f.grid
    if f.kind != "vector":
        raise ShapeError("weighted norms act on vector step functions")
    return _lp_power(f.values, W.leaf_averages(grid, 2.0 / p), p, grid.leaf_measure) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Reducing operators
# ---------------------------------------------------------------------------

@dataclass
class ApReport:
    p: float
    value_reducing: float
    cube_reducing: Cube
    value_integral: float
    cube_integral: Cube
    per_level: list

    def record(self):
        return {
            "p": self.p,
            "characteristic_reducing": self.value_reducing,
            "supremizing_cube_reducing": self.cube_reducing.record(),
            "characteristic_integral": self.value_integral,
            "supremizing_cube_integral": self.cube_integral.record(),
        }

    def to_csv(self, path):
        import csv as _csv
        with open(path, "w", newline="") as fh:
            w = _csv.writer(fh)
            w.writerow(["level", "offset", "norm_VVprime_pow_p"])
            for k, arr in enumerate(self.per_level):
                flat = arr.reshape(-1)
                for off, v in enumerate(flat):
                    w.writerow([k, off, repr(float(v))])


def sphere_net(n, m):
    """m unit directions; for n=2 equally spaced on the half-circle (the gauges
    are symmetric), random-but-seeded otherwise."""
    if n == 2:
        theta = np.arange(m) * np.pi / m
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    rng = np.random.default_rng(12345)
    pts = rng.standard_normal((m, n))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def gauge_pyramid(W, grid, p, dirs, dual=False):
    """rho_{W,I,p}(u) (or the dual gauge) for every cube and net direction.

    Returns per-level arrays shaped (2^k,)*d + (m,).  The gauge integrand is
    the leaf L^2 representative |m_leaf(W^{2s})^{1/2} u| with s = 1/p for the
    primal and s = -1/p (exponent p') for the dual gauge.
    """
    pp = p / (p - 1.0)
    expo = (-2.0 / p) if dual else (2.0 / p)
    power = pp if dual else p
    M = W.leaf_averages(grid, expo)
    quad = np.einsum("...ij,mi,mj->...m", M, dirs, dirs)
    quad = np.maximum(quad, 0.0)
    leaf_vals = quad ** (power / 2.0)
    means = mean_pyramid(leaf_vals, grid.d, grid.L)
    return [mk ** (1.0 / power) for mk in means]


# the n=2 active-set solve stops once no point lies outside the ellipse by
# more than LOWNER_OUTSIDE (q^T M q <= 1 + LOWNER_OUTSIDE); a candidate
# ellipse of a round is feasible when that round's other points are inside
# it to CANDIDATE_SLACK, which is tighter, so an accepted point never
# reappears as the worst violator
LOWNER_OUTSIDE = 1e-10
CANDIDATE_SLACK = 1e-11
# the six candidates of a round over the slots (b0, b1, b2, new) of the basis
# and the new point, as the basis each would become: the new point with one
# basis point (a conjugate pair, written (new, b, new)) or with two (the
# ellipse through a triple).  A pair basis is written (b0, b1, b0), and only
# the first three candidates are open to it.  Each candidate is checked for
# feasibility on the basis slots off it.
_CANDIDATES = np.array([[3, 0, 3], [3, 1, 3], [3, 0, 1], [3, 2, 3], [3, 0, 2], [3, 1, 2]])
_OFF = ((1, 2), (0, 2), (2,), (0, 1), (1,), (0,))


def lowner_batched(radii, dirs, max_iter=400, tol=1e-8):
    """Minimum-volume origin-centered enclosing ellipsoids of the point sets
    {+-radii[k, m] * dirs[m]}, one per row.

    For n = 2 the solve is exact (``_lowner_active_set``): the optimal design
    is supported on at most n(n+1)/2 = 3 points, and an active-set walk over
    such bases stops when no point lies outside by more than
    ``LOWNER_OUTSIDE``, so a row's gap is of that order unless round-off
    stops it early; ``max_iter`` and ``tol`` are not used.  Other n run the
    multiplicative D-optimal-design update (``_lowner_multiplicative``) until
    a row's gap is at most ``tol`` or it has made ``max_iter`` updates.

    Returns (U, design, gap): the ellipsoids {x : |U_k x| <= 1}, the design
    weights u (nonnegative, summing to 1) and the duality gap
    max_m g_km / n - 1 of that design, where g_km = |q_km|^2 d_m^T S_k^{-1} d_m
    are the leverages of the moment matrix S_k = sum_m u_km |q_km|^2 d_m d_m^T.
    Every point satisfies |U_k q| <= 1 exactly: U_k^T U_k = S_k^{-1} / max_m g_km.
    """
    radii = np.asarray(radii, dtype=float)
    K, m = radii.shape
    n = dirs.shape[1]
    scale = radii.max(axis=1, keepdims=True)
    w = radii / scale
    w *= w                                            # |q_km|^2
    D = (dirs[:, :, None] * dirs[:, None, :]).reshape(m, n * n)
    if n == 2:
        u = _lowner_active_set(w, dirs)
    else:
        u = _lowner_multiplicative(w, D, n, max_iter, tol)
    Sinv = linalg._inv_small(((u * w) @ D).reshape(K, n, n))
    g = Sinv.reshape(K, n * n) @ D.T
    g *= w
    gmax = g.max(axis=1)
    M = Sinv / gmax[:, None, None]           # q^T M q <= 1 for all points
    U = linalg._sqrtm_2x2(M) if n == 2 else linalg.sqrtm_spd(M)
    # sum_m u_km g_km = n, so the gap is >= 0 up to round-off
    return U / scale[..., None], u, np.maximum(gmax / n - 1.0, 0.0)


def _lowner_multiplicative(w, D, n, max_iter, tol):
    """Design weights from the multiplicative update u_km <- u_km g_km / n
    (Titterington 1976; Todd & Yildirim 2007) from the uniform design.

    The net is fixed, so each iteration is two GEMMs against the flattened
    outer products D[m] = d_m d_m^T: the moment matrices are ``(u w) @ D`` and
    the leverages ``w (S^{-1} @ D^T)``.  Each row stops on its own once its gap
    is at most ``tol`` and later iterations update only the remaining rows;
    rows still open after ``max_iter`` updates stop there.  The update is
    sublinear on nearly elliptic point sets, so such rows can keep gaps well
    above ``tol``.
    """
    K, m = w.shape
    u = np.full((K, m), 1.0 / m)
    rows, ua, wa = np.arange(K), u, w                 # the rows still iterating
    for it in range(max_iter + 1):
        Sa = linalg._inv_small(((ua * wa) @ D).reshape(-1, n, n))
        ga = wa * (Sa.reshape(-1, n * n) @ D.T)
        stop = ga.max(axis=1) <= n * (1.0 + tol)
        if it == max_iter:
            stop[:] = True
        if stop.any():
            u[rows[stop]] = ua[stop]
            keep = ~stop
            rows, ua, wa, ga = rows[keep], ua[keep], wa[keep], ga[keep]
            if rows.size == 0:
                break
        ua = ua * (ga / n)
        ua /= ua.sum(axis=1, keepdims=True)
    return u


def _conic_features(x, y):
    """(x^2, 2xy, y^2) on the first axis for plane points (x, y): q^T M q is
    their dot product with the entries (a, b, c) of M = [[a, b], [b, c]]."""
    return np.stack([x * x, 2.0 * x * y, y * y])


def _cross(u, v):
    """u x v for 3-vectors given by their components u[0], u[1], u[2]."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _triple_conic(f0, f1, f2):
    """Entries (a, b, c) of M for the ellipses q_i^T M q_i = 1 through three
    plane points, from their conic features f_i (first axis), and the design
    weights u_i with sum_i u_i q_i q_i^T = M^{-1} / 2, both by Cramer's rule.
    The 3x3 system with the rows f_i has the inverse with the columns
    c0 = f1 x f2, c1 = f2 x f0, c2 = f0 x f1 over det = f0 . c0, so
    M = (c0 + c1 + c2) / det; the weights solve the transposed system, so
    u_i = c_i . s / det for the features s of M^{-1} / 2."""
    c = (_cross(f1, f2), _cross(f2, f0), _cross(f0, f1))
    det = _dot(f0, c[0])
    a, b, cc = [(c[0][z] + c[1][z] + c[2][z]) / det for z in range(3)]
    h = 2.0 * (a * cc - b * b)
    s = (cc / h, -2.0 * b / h, a / h)
    return np.stack([a, b, cc]), np.stack([_dot(ci, s) for ci in c]) / det


def _pair_conic(x1, y1, x2, y2):
    """Entries (a, b, c) of M = (Q Q^T)^{-1}, Q = [q1 q2], on the first axis:
    the ellipse with conjugate semi-axes q1 = (x1, y1) and q2 = (x2, y2)."""
    det2 = (x1 * y2 - x2 * y1) ** 2
    return np.stack([y1 * y1 + y2 * y2, -(x1 * y1 + x2 * y2), x1 * x1 + x2 * x2]) / det2


def _lowner_active_set(w, dirs):
    """Exact design of the minimum-area ellipses {q : q^T M q <= 1} around
    the plane point sets {+-q_kj}, q_kj = sqrt(w[k, j]) dirs[j], batched over
    rows.

    The problem is LP-type (Welzl 1991): the optimum is the ellipse of a
    basis of at most three points, either a conjugate pair q1, q2, with
    M = (Q Q^T)^{-1} for Q = [q1 q2] and design (1/2, 1/2), or a triple on the
    ellipse, with M from the 3x3 system q_i^T M q_i = 1.  A row starts from
    the pair of its farthest point and the point that spans the largest
    parallelogram with it.  Each round adds the point with the largest
    q^T M q; the optimum of basis + {new} has the new point in its basis, so
    it is the largest-determinant one of the candidates (three for a pair
    basis, six for a triple) that contain the new point, are feasible on the
    basis and, for a triple, have a design u >= 0.  det M falls strictly, so no basis repeats.  A row stops when no
    point is outside by more than ``LOWNER_OUTSIDE``, after at most m rounds,
    or when no candidate is feasible, which only round-off can cause; its gap
    reports how far it got.  Arrays of a round hold the batch on their last
    axis.  Returns the (K, m) design weights, nonzero on the basis.
    """
    K, m = w.shape
    F = _conic_features(dirs[:, 0], dirs[:, 1])       # (3, m)

    def points(rows, idx):
        r = np.sqrt(w.take(rows * m + idx))
        return r * dirs[idx, 0], r * dirs[idx, 1]

    rows = np.arange(K)
    j0 = w.argmax(axis=1)
    cross2 = (dirs[:, None, 0] * dirs[:, 1] - dirs[:, None, 1] * dirs[:, 0]) ** 2
    basis = np.stack([j0, (w * cross2[j0]).argmax(axis=1), j0])   # (3, K)
    tri = np.zeros(K, dtype=bool)                     # the basis is a triple
    x, y = points(rows, basis[:2])
    coef = _pair_conic(x[0], y[0], x[1], y[1]).T      # (K, 3)
    live, wl = rows, w                                # the open rows, their w
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(m):
            val = coef[live] @ F
            val *= wl
            j = val.argmax(axis=1)
            out = np.take_along_axis(val, j[:, None], axis=1)[:, 0] > 1.0 + LOWNER_OUTSIDE
            live, j, wl = live[out], j[out], wl[out]
            if live.size == 0:
                break
            slots = np.concatenate([basis[:, live], j[None]])   # (4, k)
            x, y = points(live, slots)
            f = _conic_features(x, y)                 # (3, 4, k)
            has_b2 = tri[live]
            n_cand = 6 if has_b2.any() else 3
            cand = np.empty((n_cand, 3, live.size))
            score = np.empty((n_cand, live.size))
            for i, (c, off) in enumerate(zip(_CANDIDATES, _OFF[:n_cand])):
                if c[2] == 3:
                    cand[i] = _pair_conic(x[3], y[3], x[c[1]], y[c[1]])
                    ok = has_b2.copy() if i >= 3 else np.ones(live.size, dtype=bool)
                else:
                    # a triple's ellipse is the optimum of its points only
                    # with a design u >= 0; a fourth point on the optimum
                    # ties two triples in det, and only one has such a design
                    cand[i], u = _triple_conic(f[:, 3], f[:, c[1]], f[:, c[2]])
                    ok = np.all(u >= 0.0, axis=0) & (has_b2 if i >= 3 else True)
                for slot in off:
                    inside = _dot(cand[i], f[:, slot]) <= 1.0 + CANDIDATE_SLACK
                    # a pair basis has no point of its own in slot b2
                    ok &= (inside | ~has_b2) if slot == 2 else inside
                a, b, cc = cand[i]
                det = a * cc - b * b
                score[i] = np.where(ok & (a > 0) & (det > 0), det, -np.inf)
            best = score.argmax(axis=0)
            cols = np.arange(live.size)
            found = score[best, cols] > -np.inf
            if not found.all():
                live, wl, best, slots, cand = (
                    live[found], wl[found], best[found], slots[:, found], cand[..., found])
                cols = np.arange(live.size)
            coef[live] = cand[best, :, cols]
            basis[:, live] = slots[_CANDIDATES[best].T, cols]
            tri[live] = _CANDIDATES[best, 2] != 3
        f = _conic_features(*points(rows, basis))     # (3 features, 3 points, K)
        u3 = np.where(tri, _triple_conic(f[:, 0], f[:, 1], f[:, 2])[1],
                      [[0.5], [0.5], [0.0]])
    u3 /= u3.sum(axis=0)
    return np.bincount((rows * m + basis).ravel(), weights=u3.ravel(),
                       minlength=K * m).reshape(K, m)


def _reducing_from_gauge(rho, dirs, n, max_iter, tol):
    """V = sqrt(n) * Lowner(U) rescaled so rho <= |V e| on the whole net.

    rho: (K, m) gauge values on the net.  Returns (V, eta, gap) with the
    certified sandwich rho(e) <= |V e| <= sqrt(n)(1 + eta) rho(e) on the net
    and the Lowner solve's per-row duality gap.  The ratios |V_k e_m| / rho_km
    come from one GEMM: |V e|^2 = e^T V^T V e is the flattened V^T V against
    the flattened outer products e e^T.
    """
    # boundary points of the gauge ball sit at distance 1/rho along each direction
    U, _, gap = lowner_batched(1.0 / rho, dirs, max_iter=max_iter, tol=tol)
    V = np.sqrt(n) * U
    D = (dirs[:, :, None] * dirs[:, None, :]).reshape(-1, n * n)
    ratios = np.sqrt((np.swapaxes(V, 1, 2) @ V).reshape(-1, n * n) @ D.T)
    ratios /= rho
    c_lo = ratios.min(axis=1)
    V = V / c_lo[:, None, None]
    eta = ratios.max(axis=1) / (c_lo * np.sqrt(n)) - 1.0
    return V, np.maximum(eta, 0.0), gap


def reducing_pyramid(W: MatrixWeight, grid: Grid, p, net_size=64, max_iter=400,
                     tol=1e-8, eta_target=None):
    """Reducing pairs (V_I, V_I') for every cube of the grid.

    Returns dict with per-level arrays 'V', 'V_prime' shaped (2^k,)*d + (n,n),
    per-level 'eta', 'eta_prime' sandwich certificates, per-level 'gap',
    'gap_prime' Lowner duality gaps (see ``lowner_batched``), and the
    direction net used.  At p=2 the closed forms (m_I W)^{1/2},
    (m_I W^{-1})^{1/2} are used and eta = gap = 0.  Otherwise each side is
    one ``lowner_batched`` call over the cubes of all levels: exact for n=2,
    with gaps of order 1e-10; for other n, ``max_iter`` and ``tol`` bound
    the multiplicative update.  The net is doubled until the worst
    certificate meets eta_target (default 1e-3 for p != 2).
    """
    n = W.n
    if p == 2.0:
        V = [linalg.sqrtm_spd(a) for a in W.average_pyramid(grid, 1.0)]
        Vp = [linalg.sqrtm_spd(a) for a in W.average_pyramid(grid, -1.0)]
        zeros = [np.zeros(a.shape[:-2]) for a in V]
        return {"V": V, "V_prime": Vp, "eta": zeros, "eta_prime": zeros,
                "gap": zeros, "gap_prime": zeros, "net": sphere_net(n, net_size), "p": p}
    if eta_target is None:
        eta_target = 1e-3
    m = net_size
    while True:
        dirs = sphere_net(n, m)
        out = {}
        for dual, keys in ((False, ("V", "eta", "gap")),
                           (True, ("V_prime", "eta_prime", "gap_prime"))):
            rho = gauge_pyramid(W, grid, p, dirs, dual=dual)
            flat = np.concatenate([a.reshape(-1, m) for a in rho])
            cuts = np.cumsum([a.size // m for a in rho])[:-1]
            for key, val in zip(keys, _reducing_from_gauge(flat, dirs, n, max_iter, tol)):
                out[key] = [v.reshape(a.shape[:-1] + val.shape[1:])
                            for v, a in zip(np.split(val, cuts), rho)]
        worst = max(e.max() for e in out["eta"] + out["eta_prime"])
        if worst <= eta_target or m >= 8 * net_size:
            return {**out, "net": dirs, "p": p}
        m *= 2


# ---------------------------------------------------------------------------
# A_p characteristic
# ---------------------------------------------------------------------------

def ap_from_reducing(reducing, p):
    """sup_I ||V_I V_I'||^p from a precomputed reducing pyramid (the primary
    characteristic; no double integral)."""
    best = 0.0
    for V, Vp in zip(reducing["V"], reducing["V_prime"]):
        best = max(best, float((linalg.opnorm(V @ Vp) ** p).max()))
    return best


def _cube_diagonal(arr, d, k):
    """arr has x-cube axes then t-cube axes (each (2^k,)*d, d <= 2); take x == t."""
    side = 1 << k
    if d == 1:
        return arr[np.arange(side), np.arange(side)]
    i, j = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    return arr[i, j, i, j]


def _double_average_levels(G, grid, p):
    """Per-level cube values of the A_p double average from the leaf-pair
    table G[x, t] = ||W^{1/p}(x) W^{-1/p}(t)||, which is overwritten."""
    d, L = grid.d, grid.L
    pprime = p / (p - 1.0)
    G **= pprime
    G = G.reshape(grid.leaf_shape + grid.leaf_shape)
    # inner averages over t go up one level at a time; the outer average over
    # x follows the power, so it starts from the leaves at each level
    diags = [None] * (L + 1)
    inner = G
    for k in range(L, -1, -1):
        if k < L:
            inner = coarsen_levels(inner, d, 1, axis=d)
        diags[k] = _cube_diagonal(coarsen_levels(inner ** (p / pprime), d, L - k), d, k)
    return diags


def ap_characteristic(W: MatrixWeight, p, grid: Grid, reducing=None) -> ApReport:
    """Both forms of the A_p characteristic over all grid cubes.

    value_reducing  = sup_I ||V_I V_I'||^p  (primary; all bounds use this one);
    value_integral  = the defining double average, leafwise with the weight's
    leaf representatives for W^{+-1/p}.

    For 2x2 weights every norm here is the closed form of ``linalg.opnorm``,
    and the N x N leaf-pair table of the double average comes from
    ``linalg.pair_opnorms`` in four rank-4 GEMMs, without forming the
    products; other n fall back to the SVD.
    """
    d, n = grid.d, W.n
    if d > 2:
        raise ShapeError("A_p double integral implemented for d <= 2")
    if reducing is None:
        reducing = reducing_pyramid(W, grid, p)
    per_level = [linalg.opnorm(V @ Vp) ** p
                 for V, Vp in zip(reducing["V"], reducing["V_prime"])]
    best_val, best_cube = sup_over_cubes(per_level)
    # defining double average
    P = W.leaf_reps(grid, 1.0 / p)       # W^{1/p}(x) leaf representative
    N = W.leaf_reps(grid, -1.0 / p)      # W^{-1/p}(t) leaf representative
    G = linalg.pair_opnorms(P.reshape(-1, n, n), N.reshape(-1, n, n))
    diags = _double_average_levels(G, grid, p)
    best_int, best_int_cube = sup_over_cubes(diags)
    return ApReport(p, best_val, best_cube, best_int, best_int_cube, per_level)
