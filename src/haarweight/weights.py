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
from .dyadic import Cube, Grid, coarsen_levels, mean_pyramid, refine, sup_over_cubes
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


def lowner_batched(radii, dirs, max_iter=400, tol=1e-8, u0=None):
    """Minimum-volume origin-centered enclosing ellipsoids of the point sets
    {+-radii[k, m] * dirs[m]} via the multiplicative D-optimal-design update
    u_km <- u_km g_km / n (Titterington 1976; Todd & Yildirim 2007).

    The net is fixed, so each iteration is two GEMMs against the flattened
    outer products D[m] = d_m d_m^T, built once: the moment matrices
    S_k = sum_m u_km |q_km|^2 d_m d_m^T are ``(u |q|^2) @ D`` and the
    leverages g_km = |q_km|^2 d_m^T S_k^{-1} d_m are ``|q|^2 (S^{-1} @ D^T)``.
    Each row stops on its own: once its duality gap max_m g_km / n - 1 is at
    most ``tol`` it is frozen at that iterate and later iterations update
    only the remaining rows; rows still open after ``max_iter`` updates stop
    there.  In reducing pyramids of rotated power weights at L=10, every
    cube of the four coarsest levels and about two thirds of those at level 7
    (128 cubes) stop at ``max_iter=400`` with gaps of up to 2e-2, so ``tol``
    is met mostly on the finer levels.

    Returns (U, design, gap): the ellipsoids {x : |U_k x| <= 1}, the final
    design weights and each row's gap when it stopped.  Every point satisfies
    |U_k q| <= 1 exactly (the iterate is rescaled by its own g_max).  ``u0``
    warm-starts the design weights (e.g. from a parent cube).
    """
    radii = np.asarray(radii, dtype=float)
    K, m = radii.shape
    n = dirs.shape[1]
    scale = radii.max(axis=1, keepdims=True)
    w = (radii / scale) ** 2                          # |q_km|^2
    D = (dirs[:, :, None] * dirs[:, None, :]).reshape(m, n * n)
    if u0 is None:
        u = np.full((K, m), 1.0 / m)
    else:
        u = np.maximum(u0, 1e-12 / m)
        u = u / u.sum(axis=1, keepdims=True)
    Sinv = np.empty((K, n, n))
    g = np.empty((K, m))
    rows, ua, wa = np.arange(K), u, w                 # the rows still iterating
    for it in range(max_iter + 1):
        Sa = _inv_small(((ua * wa) @ D).reshape(-1, n, n))
        ga = wa * (Sa.reshape(-1, n * n) @ D.T)
        stop = ga.max(axis=1) <= n * (1.0 + tol)
        if it == max_iter:
            stop[:] = True
        if stop.any():
            done = rows[stop]
            u[done], Sinv[done], g[done] = ua[stop], Sa[stop], ga[stop]
            keep = ~stop
            rows, ua, wa, ga = rows[keep], ua[keep], wa[keep], ga[keep]
            if rows.size == 0:
                break
        ua = ua * (ga / n)
        ua /= ua.sum(axis=1, keepdims=True)
    gmax = g.max(axis=1)
    M = Sinv / gmax[:, None, None]           # q^T M q <= 1 for all points
    U = linalg.sqrtm_spd(M) / scale[..., None]
    return U, u, gmax / n - 1.0


def _inv_small(S):
    """Batched inverse; closed form for the symmetric 2x2 case."""
    if S.shape[-1] != 2:
        return np.linalg.inv(S)
    a, b, c = S[..., 0, 0], S[..., 0, 1], S[..., 1, 1]
    det = a * c - b * b
    out = np.empty_like(S)
    out[..., 0, 0] = c
    out[..., 1, 1] = a
    out[..., 0, 1] = -b
    out[..., 1, 0] = -b
    return out / det[..., None, None]


def _reducing_from_gauge(rho, dirs, n, max_iter, tol, u0=None):
    """V = sqrt(n) * Lowner(U) rescaled so rho <= |V e| on the whole net.

    rho: (K, m) gauge values on the net.  Returns (V, eta, design, gap) with
    the certified sandwich rho(e) <= |V e| <= sqrt(n)(1 + eta) rho(e) on the
    net and the Lowner solve's per-row duality gap.  The ratios |V_k e_m| /
    rho_km come from one product V @ dirs^T, shaped (K, n, m), and a norm over
    its middle axis.
    """
    # boundary points of the gauge ball sit at distance 1/rho along each direction
    U, design, gap = lowner_batched(1.0 / rho, dirs, max_iter=max_iter, tol=tol, u0=u0)
    V = np.sqrt(n) * U
    ratios = np.linalg.norm(V @ dirs.T, axis=1) / rho
    c_lo = ratios.min(axis=1)
    V = V / c_lo[:, None, None]
    eta = ratios.max(axis=1) / (c_lo * np.sqrt(n)) - 1.0
    return V, np.maximum(eta, 0.0), design, gap


def reducing_pyramid(W: MatrixWeight, grid: Grid, p, net_size=64, max_iter=400,
                     tol=1e-8, eta_target=None):
    """Reducing pairs (V_I, V_I') for every cube of the grid.

    Returns dict with per-level arrays 'V', 'V_prime' shaped (2^k,)*d + (n,n),
    per-level 'eta', 'eta_prime' sandwich certificates, per-level 'gap',
    'gap_prime' Lowner duality gaps (see ``lowner_batched``), and the
    direction net used.  At p=2 the closed forms (m_I W)^{1/2},
    (m_I W^{-1})^{1/2} are used and eta = gap = 0.  The net is doubled until
    the worst certificate meets eta_target (default 1e-3 for p != 2).
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
        rho = gauge_pyramid(W, grid, p, dirs, dual=False)
        rho_d = gauge_pyramid(W, grid, p, dirs, dual=True)
        keys = ("V", "V_prime", "eta", "eta_prime", "gap", "gap_prime")
        out = {key: [] for key in keys}
        design = design_d = None
        for k in range(grid.L + 1):
            shape = rho[k].shape[:-1]
            r = rho[k].reshape(-1, m)
            rd = rho_d[k].reshape(-1, m)
            vk, ek, design, gk = _reducing_from_gauge(r, dirs, n, max_iter, tol, u0=design)
            vpk, epk, design_d, gpk = _reducing_from_gauge(rd, dirs, n, max_iter, tol,
                                                           u0=design_d)
            for key, val in zip(keys, (vk, vpk, ek, epk, gk, gpk)):
                out[key].append(val.reshape(shape + val.shape[1:]))
            if k < grid.L:
                # warm-start the children's designs from their parents
                design = refine(design.reshape(shape + (m,)), grid.d).reshape(-1, m)
                design_d = refine(design_d.reshape(shape + (m,)), grid.d).reshape(-1, m)
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
