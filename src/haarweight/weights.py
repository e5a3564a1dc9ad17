"""Matrix weights: exact cell averages, A_p characteristics, reducing operators.

A weight is a generator of a.e. positive definite matrix values.  Power kinds
(|x|^alpha laws, d=1) average exactly through closed-form integrals; every
other kind is constant on leaf cells by definition, so its averages are exact
too.  Reducing operators are closed-form symmetric square roots at p=2 and
certified maximal-volume ellipsoids for general p.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .dyadic import Cube, Grid, coarsen_levels, mean_pyramid, refine, sup_over_cubes
from .errors import IntegrabilityError, ShapeError

POWER_KINDS = ("identity", "scalar-power", "diagonal-power", "rotated")


class MatrixWeight:
    """Generator of SPD matrix values with exact cell averaging of W^s.

    kinds:
      identity        -- the n x n identity;
      scalar-power    -- |x|^alpha Id;
      diagonal-power  -- diag(|x|^{alpha_1}, ..., |x|^{alpha_n});
      rotated         -- R diag(|x|^{alpha_i}) R^T for a fixed rotation R;
      random-spd      -- per-leaf random SPD values, realized deterministically
                         from (seed, grid) with condition number <= cond;
      leaf            -- explicit per-leaf SPD values bound to one grid;
      truncated       -- eigenvalue clamp of a base weight onto [1/n_cut, n_cut];
      power-of        -- pointwise power W0^{s0} of a leaf-constant base.
    """

    def __init__(self, kind, n=2, alphas=None, rotation=None, seed=0, cond=16.0,
                 values=None, grid=None, base=None, n_cut=None, exponent=None):
        self.kind = kind
        self.n = int(n)
        self.alphas = None if alphas is None else tuple(float(a) for a in alphas)
        self.rotation = None if rotation is None else np.asarray(rotation, dtype=float)
        self.seed = seed
        self.cond = float(cond)
        self.values = None if values is None else np.asarray(values, dtype=float)
        self.grid = grid
        self.base = base
        self.n_cut = n_cut
        self.exponent = exponent
        self._cache = {}
        if kind in ("scalar-power", "diagonal-power", "rotated") and self.alphas is None:
            raise ValueError(f"{kind} weight needs exponents")
        if kind == "rotated" and self.rotation is None:
            raise ValueError("rotated weight needs a rotation matrix")

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n=2):
        return cls("identity", n=n)

    @classmethod
    def scalar_power(cls, alpha, n=2):
        return cls("scalar-power", n=n, alphas=(float(alpha),) * n)

    @classmethod
    def diagonal_power(cls, alphas):
        return cls("diagonal-power", n=len(alphas), alphas=alphas)

    @classmethod
    def rotated_power(cls, alphas, theta):
        c, s = np.cos(theta), np.sin(theta)
        R = np.array([[c, -s], [s, c]])
        if len(alphas) != 2:
            raise ShapeError("rotated weight with a scalar angle needs n=2")
        return cls("rotated", n=2, alphas=alphas, rotation=R)

    @classmethod
    def random_spd(cls, seed, cond=16.0, n=2):
        if not cond >= 1.0:
            raise ValueError(f"condition number bound must be >= 1, got {cond}")
        return cls("random-spd", n=n, seed=seed, cond=cond)

    @classmethod
    def from_leaf_values(cls, grid, values):
        values = np.asarray(values, dtype=float)
        return cls("leaf", n=values.shape[-1], values=values, grid=grid)

    @classmethod
    def from_json(cls, spec):
        spec = json.loads(spec) if isinstance(spec, str) else dict(spec)
        kind = spec["kind"]
        if kind == "identity":
            return cls.identity(spec.get("n", 2))
        if kind == "scalar-power":
            return cls.scalar_power(spec["alpha"], spec.get("n", 2))
        if kind == "diagonal-power":
            return cls.diagonal_power(spec["alphas"])
        if kind == "rotated":
            return cls.rotated_power(spec["alphas"], spec["theta"])
        if kind == "random-spd":
            return cls.random_spd(spec["seed"], spec.get("cond", 16.0), spec.get("n", 2))
        raise ValueError(f"unknown weight kind {kind!r}")

    def to_json(self):
        out = {"kind": self.kind, "n": self.n}
        if self.alphas is not None:
            out["alphas"] = list(self.alphas)
        if self.kind == "rotated":
            out["theta"] = float(np.arctan2(self.rotation[1, 0], self.rotation[0, 0]))
        if self.kind == "random-spd":
            out["seed"] = self.seed
            out["cond"] = self.cond
        return json.dumps(out)

    # -- averaging core -----------------------------------------------------

    def _check_power(self, s):
        if self.alphas is None:
            return
        for a in self.alphas:
            if abs(s * a) >= 1.0:
                raise IntegrabilityError(
                    f"|x|^{s * a:g} is not cell-integrable (|s*alpha| >= 1)")

    def leaf_averages(self, grid, s=1.0):
        """m_leaf(W^s) on every leaf, shape leaf_shape + (n, n).  Exact."""
        key = (grid.d, grid.L, grid.shift, float(s))
        if key in self._cache:
            return self._cache[key]
        out = self._leaf_averages(grid, float(s))
        self._cache[key] = out
        return out

    def _leaf_averages(self, grid, s):
        n, d, L = self.n, grid.d, grid.L
        if self.kind == "identity":
            return np.broadcast_to(np.eye(n), grid.leaf_shape + (n, n)).copy()
        if self.kind in ("scalar-power", "diagonal-power", "rotated"):
            self._check_power(s)
            if d == 1:
                edges = np.arange((1 << L) + 1) / (1 << L)
                diag = np.stack(
                    [_interval_power_means(edges, s * a) for a in self.alphas], axis=-1)
            else:
                # no closed form off the line: midpoint value, exactly constant on leaves
                side = 1 << L
                axes = np.meshgrid(*[(np.arange(side) + 0.5) / side] * d, indexing="ij")
                r = np.sqrt(sum(ax ** 2 for ax in axes))
                diag = np.stack([r ** (s * a) for a in self.alphas], axis=-1)
            vals = np.zeros(grid.leaf_shape + (n, n))
            idx = np.arange(n)
            vals[..., idx, idx] = diag
            if self.kind == "rotated":
                vals = self.rotation @ vals @ self.rotation.T
            return vals
        if self.kind == "random-spd":
            vals = self._realize_random(grid)
            return linalg.powm_spd(vals, s) if s != 1.0 else vals
        if self.kind == "leaf":
            if grid != self.grid:
                raise ShapeError("leaf-valued weight is bound to a different grid")
            return linalg.powm_spd(self.values, s) if s != 1.0 else self.values.copy()
        if self.kind == "truncated":
            base_vals = self.base.leaf_averages(grid, 1.0)
            w, v = np.linalg.eigh(linalg.symmetrize(base_vals))
            w = np.clip(w, 1.0 / self.n_cut, self.n_cut)
            vals = (v * (w ** s)[..., None, :]) @ np.swapaxes(v, -1, -2)
            return vals
        if self.kind == "power-of":
            return self.base.leaf_averages(grid, self.exponent * s)
        raise ValueError(f"unknown weight kind {self.kind!r}")

    def _realize_random(self, grid):
        key = ("realize", grid.d, grid.L, grid.shift)
        if key in self._cache:
            return self._cache[key]
        rng = np.random.default_rng(self.seed)
        n = self.n
        shape = grid.leaf_shape
        nleaf = int(np.prod(shape))
        gauss = rng.standard_normal((nleaf, n, n))
        q, _ = np.linalg.qr(gauss)
        logc = np.log(self.cond)
        eig = np.exp(rng.uniform(-0.5 * logc, 0.5 * logc, size=(nleaf, n)))
        vals = (q * eig[:, None, :]) @ np.swapaxes(q, -1, -2)
        vals = linalg.symmetrize(vals).reshape(shape + (n, n))
        self._cache[key] = vals
        return vals

    def leaf_reps(self, grid, r):
        """Leaf representative of the pointwise power W^r: m_leaf(W^{2r})^{1/2}.

        Exact for leaf-constant kinds; the within-leaf L^2 average otherwise
        (and exactly m_leaf(W)^{1/2}-consistent at r = 1/2).
        """
        return linalg.sqrtm_spd(self.leaf_averages(grid, 2.0 * r))

    def average_pyramid(self, grid, s=1.0):
        """m_I(W^s) for every cube, per-level arrays (exact: integrals add)."""
        return mean_pyramid(self.leaf_averages(grid, s), grid.d, grid.L)

    def average_over_interval(self, lo, hi, s=1.0, grid=None):
        """Exact (1/|I|) int_I W^s over an arbitrary rational interval (d=1).

        Power kinds integrate in closed form; leaf-constant kinds weight leaf
        values by the exact overlap measure with the grid's leaf partition.
        """
        lo, hi = Fraction(lo), Fraction(hi)
        if hi <= lo:
            raise ValueError("empty interval")
        if self.kind == "identity":
            return np.eye(self.n)
        if self.kind in ("scalar-power", "diagonal-power", "rotated"):
            self._check_power(s)
            diag = np.array([_abs_power_integral(lo, hi, s * a) / float(hi - lo)
                             for a in self.alphas])
            vals = np.diag(diag)
            if self.kind == "rotated":
                vals = self.rotation @ vals @ self.rotation.T
            return vals
        if grid is None:
            grid = self.grid
        if grid is None or grid.d != 1:
            raise ShapeError("leaf-constant weights need a d=1 grid for interval averages")
        if lo < 0 or hi > 1:
            raise ValueError("leaf-constant weights live on [0,1)")
        leaf_vals = self.leaf_averages(grid, s)
        nleaf = 1 << grid.L
        step = Fraction(1, nleaf)
        i0 = int(lo / step)
        i1 = int(-((-hi) // step))  # ceil
        acc = np.zeros((self.n, self.n))
        for i in range(i0, min(i1, nleaf)):
            a = max(lo, step * i)
            b = min(hi, step * (i + 1))
            if b > a:
                acc += float(b - a) * leaf_vals[i]
        return acc / float(hi - lo)


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
    out = MatrixWeight("truncated", n=W.n, base=W, n_cut=float(n_cut))
    return out


def power_of(W: MatrixWeight, s0) -> MatrixWeight:
    """The pointwise power W^{s0} as a weight."""
    if W.kind == "identity":
        return W
    if W.kind in ("scalar-power", "diagonal-power", "rotated"):
        scaled = tuple(a * s0 for a in W.alphas)
        return MatrixWeight(W.kind, n=W.n, alphas=scaled, rotation=W.rotation)
    return MatrixWeight("power-of", n=W.n, base=W, exponent=float(s0))


def dual_weight(W: MatrixWeight, p):
    """(W^{1-p'}, p'); the A_p dual pairing."""
    pprime = p / (p - 1.0)
    return power_of(W, 1.0 - pprime), pprime


# ---------------------------------------------------------------------------
# Cell averages and weighted norms
# ---------------------------------------------------------------------------

def cell_average(W: MatrixWeight, cube: Cube, s=1.0, grid=None):
    """(1/|I|) int_I W^s: closed form for power kinds in d=1, leaf-summed otherwise."""
    grid = grid or cube.grid
    if grid.d == 1 and W.kind in ("scalar-power", "diagonal-power", "rotated", "identity"):
        (lo, hi), = cube.bounds()
        return W.average_over_interval(lo, hi, s)
    leaf_vals = W.leaf_averages(grid, s)
    sl = tuple(slice(m << (grid.L - cube.level), (m + 1) << (grid.L - cube.level))
               for m in cube.offset)
    block = leaf_vals[sl]
    return block.reshape(-1, W.n, W.n).mean(axis=0)


def lp_norm(f, W: MatrixWeight, p=2.0):
    """||f||_{L^p(W)}; exact at p=2, leaf L^2-representative gauge otherwise."""
    grid = f.grid
    if f.kind != "vector":
        raise ShapeError("weighted norms act on vector step functions")
    M = W.leaf_averages(grid, 2.0 / p)
    quad = np.einsum("...i,...ij,...j->...", f.values, M, f.values)
    quad = np.maximum(quad, 0.0)
    return float((quad ** (p / 2.0)).sum() * grid.leaf_measure) ** (1.0 / p)


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

    def to_json(self):
        return json.dumps({
            "p": self.p,
            "characteristic_reducing": self.value_reducing,
            "supremizing_cube_reducing": {"level": self.cube_reducing.level,
                                          "offset": list(self.cube_reducing.offset)},
            "characteristic_integral": self.value_integral,
            "supremizing_cube_integral": {"level": self.cube_integral.level,
                                          "offset": list(self.cube_integral.offset)},
        })

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
    net and the Lowner solve's per-row duality gap.
    """
    # boundary points of the gauge ball sit at distance 1/rho along each direction
    U, design, gap = lowner_batched(1.0 / rho, dirs, max_iter=max_iter, tol=tol, u0=u0)
    V = np.sqrt(n) * U
    ratios = np.einsum("kij,mj->kmi", V, dirs)
    ratios = np.linalg.norm(ratios, axis=-1) / rho
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


def ap_characteristic(W: MatrixWeight, p, grid: Grid, reducing=None) -> ApReport:
    """Both forms of the A_p characteristic over all grid cubes.

    value_reducing  = sup_I ||V_I V_I'||^p  (primary; all bounds use this one);
    value_integral  = the defining double average, leafwise with the weight's
    leaf representatives for W^{+-1/p}.
    """
    d, L, n = grid.d, grid.L, W.n
    if d > 2:
        raise ShapeError("A_p double integral implemented for d <= 2")
    if reducing is None:
        reducing = reducing_pyramid(W, grid, p)
    per_level = [linalg.opnorm(V @ Vp) ** p
                 for V, Vp in zip(reducing["V"], reducing["V_prime"])]
    best_val, best_cube = sup_over_cubes(per_level, grid)
    # defining double average
    pprime = p / (p - 1.0)
    P = W.leaf_reps(grid, 1.0 / p)       # W^{1/p}(x) leaf representative
    N = W.leaf_reps(grid, -1.0 / p)      # W^{-1/p}(t) leaf representative
    flatP = P.reshape(-1, n, n)
    flatN = N.reshape(-1, n, n)
    G = linalg.opnorm(flatP[:, None] @ flatN[None, :]) ** pprime
    G = G.reshape(grid.leaf_shape + grid.leaf_shape)
    # inner averages over t go up one level at a time; the outer average over
    # x follows the power, so it starts from the leaves at each level
    diags = [None] * (L + 1)
    inner = G
    for k in range(L, -1, -1):
        if k < L:
            inner = coarsen_levels(inner, d, 1, axis=d)
        diags[k] = _cube_diagonal(coarsen_levels(inner ** (p / pprime), d, L - k), d, k)
    best_int, best_int_cube = sup_over_cubes(diags, grid)
    return ApReport(p, best_val, best_cube, best_int, best_int_cube, per_level)
