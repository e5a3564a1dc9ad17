"""Matrix weight tests: exact averages, reducing operators, A_p, dual weights.

Closed-form oracles: int_0^1 x^{+-1/2} dx = 2/3 and 2, the scale law
m_{[0,h)}(|x|^a) = h^a/(1+a), and the product m(x^a) m(x^{-a}) = 1/(1-a^2)
on cubes touching the origin.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from haarweight import linalg
from haarweight import weights as weights_module
from haarweight.dyadic import Grid
from haarweight.errors import IntegrabilityError, ShapeError
from haarweight.weights import (
    MatrixWeight, ap_characteristic, ap_from_reducing, gauge_pyramid, lowner_batched, lp_norm,
    power_of, reducing_pyramid, sphere_net, _lp_power,
)


def sample_weights(seed=0, n_random=3):
    ws = [
        MatrixWeight.diagonal_power([0.5, -0.5]),
        MatrixWeight.rotated_power([0.4, -0.3], 0.7),
        MatrixWeight.scalar_power(0.6),
    ]
    for i in range(n_random):
        ws.append(MatrixWeight.random_spd(seed + i, cond=9.0))
    return ws


class TestCellAverage:
    # the cube averages are the levels of ``average_pyramid``; level k, offset m
    # is the cube [m 2^-k, (m + 1) 2^-k)

    def test_identity(self):
        g = Grid(1, 4)
        for s in (1.0, -1.0, 0.5):
            np.testing.assert_allclose(MatrixWeight.identity().average_pyramid(g, s)[0][0],
                                       np.eye(2))

    def test_closed_form_unit_interval(self):
        W = MatrixWeight.diagonal_power([0.5, -0.5])
        g = Grid(1, 6)
        avg = W.average_pyramid(g, 1.0)[0][0]
        np.testing.assert_allclose(np.diag(avg), [2.0 / 3.0, 2.0], rtol=1e-12)

    def test_closed_form_scaling(self):
        W = MatrixWeight.diagonal_power([0.5, -0.5])
        g = Grid(1, 8)
        pyr = W.average_pyramid(g, 1.0)
        for N in (2, 5, 8):
            want = [2.0 ** (-N / 2) * 2.0 / 3.0, 2.0 ** (N / 2) * 2.0]
            np.testing.assert_allclose(np.diag(pyr[N][0]), want, rtol=1e-12)

    def test_pyramid_matches_cell_average(self):
        # leaf-summed pyramid equals closed-form averages on every cube
        W = MatrixWeight.diagonal_power([0.7, -0.2])
        g = Grid(1, 5)
        pyr = W.average_pyramid(g, 1.0)
        for k in (0, 2, 5):
            for m in range(1 << k):
                want = W.average_over_interval(Fraction(m, 1 << k), Fraction(m + 1, 1 << k))
                np.testing.assert_allclose(pyr[k][m], want, rtol=1e-12)

    def test_rotation_conjugates(self):
        Wd = MatrixWeight.diagonal_power([0.4, -0.3])
        Wr = MatrixWeight.rotated_power([0.4, -0.3], 0.7)
        g = Grid(1, 4)
        R = Wr.rotation
        a = Wd.average_pyramid(g, -1.0)[2][1]
        b = Wr.average_pyramid(g, -1.0)[2][1]
        np.testing.assert_allclose(b, R @ a @ R.T, rtol=1e-12)

    def test_integrability_error(self):
        W = MatrixWeight.diagonal_power([0.6, -0.6])
        g = Grid(1, 3)
        with pytest.raises(IntegrabilityError):
            W.average_pyramid(g, 2.0)

    def test_leaf_constant_spd(self):
        W = MatrixWeight.random_spd(4, cond=25.0)
        g = Grid(1, 5)
        vals = W.leaf_averages(g, 1.0)
        assert np.all(np.linalg.eigvalsh(vals) > 0)
        inv = W.leaf_averages(g, -1.0)
        np.testing.assert_allclose(vals @ inv, np.broadcast_to(np.eye(2), vals.shape), atol=1e-10)

    def test_average_over_interval_partial_leaves(self):
        W = MatrixWeight.random_spd(1, cond=4.0)
        g = Grid(1, 3)
        vals = W.leaf_averages(g, 1.0)
        avg = W.average_over_interval(Fraction(1, 16), Fraction(5, 16), grid=g)
        want = (0.5 * vals[0] + vals[1] + 0.5 * vals[2]) / 2.0
        np.testing.assert_allclose(avg, want, rtol=1e-12)


class TestRepresentations:
    @pytest.mark.parametrize("d, L", [(1, 5), (2, 3)])
    def test_identity_is_the_zero_power_law(self, d, L):
        # every alpha = 0: each cell mean of |x|^0 is exactly 1 and nothing rotates
        g = Grid(d, L)
        want = np.broadcast_to(np.eye(2), g.leaf_shape + (2, 2))
        for s in (1.0, -1.0, 0.5, 2.0 / 3.0, 4.0 / 3.0):
            assert np.array_equal(MatrixWeight.identity().leaf_averages(g, s), want)

    def test_power_of_leaf_values_shares_the_cache(self):
        W = MatrixWeight.random_spd(3, cond=9.0)
        calls = []
        realize = W.leaf_values
        W.leaf_values = lambda grid: calls.append(grid) or realize(grid)
        g = Grid(1, 4)
        inv = W.leaf_averages(g, -1.0)
        assert power_of(W, -1.0).leaf_averages(g, 1.0) is inv
        assert power_of(W, -1.0).leaf_averages(g, -1.0) is W.leaf_averages(g, 1.0)
        assert len(calls) == 1


class TestReducingOperators:
    def test_identity_any_p(self):
        g = Grid(1, 3)
        for p in (1.5, 2.0, 3.0):
            red = reducing_pyramid(MatrixWeight.identity(), g, p)
            np.testing.assert_allclose(red["V"][0][0], np.eye(2), atol=2e-2)
            np.testing.assert_allclose(red["V_prime"][0][0], np.eye(2), atol=2e-2)
            assert max(red["eta"][0][0], red["eta_prime"][0][0]) <= 1e-3

    def test_p2_closed_form(self):
        W = MatrixWeight.diagonal_power([0.5, -0.5])
        g = Grid(1, 6)
        red = reducing_pyramid(W, g, 2.0)
        V, V_prime = red["V"][0][0], red["V_prime"][0][0]
        np.testing.assert_allclose(np.diag(V), [np.sqrt(2.0 / 3.0), np.sqrt(2.0)], rtol=1e-12)
        np.testing.assert_allclose(np.diag(V_prime), [np.sqrt(2.0), np.sqrt(2.0 / 3.0)], rtol=1e-12)
        assert np.linalg.norm(V @ V_prime, 2) ** 2 == pytest.approx(4.0 / 3.0)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_pyramid_stays_within_its_need(self, p):
        # the need that the memory refusals count is at or above what the
        # pyramid holds, the leaf averages it caches on a fresh weight included
        import tracemalloc
        g = Grid(1, 12)
        W = MatrixWeight.rotated_power([-0.45, 0.4], 2.0)
        tracemalloc.start()
        try:
            reducing_pyramid(W, g, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= weights_module.reducing_need(g.d, g.L, W.n, p)[1]

    def test_general_p_sandwich_certificate(self, monkeypatch):
        # direct quadrature of the gauge on coordinate directions sandwiches |V e_i|;
        # gauge_pyramid gives the interior levels, and a leaf's gauge is its
        # representative |m_leaf(W^{2/p})^{1/2} e|
        W = MatrixWeight.diagonal_power([0.5, -0.25])
        g = Grid(1, 5)
        p = 3.0
        monkeypatch.setattr(weights_module, "REDUCING_NET", 128)
        red = reducing_pyramid(W, g, p)
        dirs = red["net"]
        rho = gauge_pyramid(W, g, p, dirs, dual=False)
        assert len(rho) == g.L
        leaf_quad = np.einsum("...ij,mi,mj->...m", W.leaf_averages(g, 2.0 / p), dirs, dirs)
        rho.append(np.sqrt(leaf_quad))
        for k in (0, 3, 5):
            V = red["V"][k]
            vals = np.linalg.norm(np.einsum("kij,mj->kmi", V.reshape(-1, 2, 2), dirs), axis=-1)
            ratio = vals / rho[k].reshape(-1, len(dirs))
            assert ratio.min() >= 1.0 - 1e-12
            assert ratio.max() <= np.sqrt(2.0) * (1.0 + 1e-3)

    @pytest.mark.parametrize("p", [1.2, 3.0, 6.0])
    @pytest.mark.parametrize("net", [4, 8, 32])
    @pytest.mark.parametrize("W", [MatrixWeight.rotated_power([-0.45, 0.4], 2.0),
                                   MatrixWeight.random_spd(8, cond=1e6)],
                             ids=["rotated", "random-spd"])
    def test_one_net_meets_the_john_bound(self, monkeypatch, W, net, p):
        # a p != 2 pyramid draws one net of REDUCING_NET directions and takes
        # one gauge pyramid per side on it.  No finer net is needed: for n = 2
        # the net points e / rho(e) lie on the boundary of their hull, which
        # holds E / sqrt(2) for its Lowner ellipse E (John), so the sandwich
        # certificate eta is 0 on any net, up to LOWNER_OUTSIDE
        nets, sides = [], []
        sphere, gauge = weights_module.sphere_net, weights_module.gauge_pyramid
        monkeypatch.setattr(weights_module, "sphere_net",
                            lambda n, m: nets.append((n, m)) or sphere(n, m))
        monkeypatch.setattr(weights_module, "gauge_pyramid",
                            lambda *a, dual: sides.append(dual) or gauge(*a, dual=dual))
        monkeypatch.setattr(weights_module, "REDUCING_NET", net)
        red = reducing_pyramid(W, Grid(2, 4), p)
        assert nets == [(2, net)]
        assert sides == [False, True]
        assert max(float(e.max()) for e in red["eta"] + red["eta_prime"]) <= 1e-9

    @pytest.mark.parametrize("alphas, theta, L, net", [
        ([-0.45, 0.4], 2.0, 10, None),
        ([0.3, -0.25], 0.7, 14, 32),
    ], ids=["eccentric-leaf-L10", "criterion-4-L14"])
    def test_leaf_sandwich_holds_off_the_net(self, monkeypatch, alphas, theta, L, net):
        # a leaf's reducing pair is m_leaf(W^{+-2/p})^{1/2}, whose sandwich
        # rho <= |V e| <= sqrt(n)(1 + eta) rho holds for every direction, not
        # only on the net; at leaf 0 of the first weight a Lowner solve on the
        # default net read |V e| / rho up to 1.957 with eta = 0, and at the
        # coarse net of criterion 4 leaf 0 of the second read down to 0.978
        if net is not None:
            monkeypatch.setattr(weights_module, "REDUCING_NET", net)
        W = MatrixWeight.rotated_power(alphas, theta)
        g, p, n = Grid(1, L), 1.5, 2
        red = reducing_pyramid(W, g, p)
        theta_s = np.linspace(0.0, np.pi, 20001)
        dirs = np.stack([np.cos(theta_s), np.sin(theta_s)], axis=1)
        D = (dirs[:, :, None] * dirs[:, None, :]).reshape(-1, n * n)
        for key, eta_key, s in (("V", "eta", 2.0 / p), ("V_prime", "eta_prime", -2.0 / p)):
            V = red[key][L].reshape(-1, n, n)
            eta = red[eta_key][L].reshape(-1)
            assert np.all(eta == 0.0)
            gauge2 = W.leaf_averages(g, s).reshape(-1, n * n)
            for lo in range(0, len(V), 256):
                rows = slice(lo, lo + 256)
                ratio2 = ((np.swapaxes(V[rows], 1, 2) @ V[rows]).reshape(-1, n * n) @ D.T
                          / (gauge2[rows] @ D.T))
                assert ratio2.min() >= 1.0 - 1e-12
                assert ratio2.max() <= n * (1.0 + eta[rows].max()) ** 2 * (1.0 + 1e-12)
        # leaf 0 = [0, 2^-L): m(|x|^b) m(|x|^-b) = 1/(1 - b^2) for b = 2 a / p
        beta = 2.0 * max(abs(a) for a in alphas) / p
        leaf0 = float(linalg.opnorm(red["V"][L][0] @ red["V_prime"][L][0]) ** p)
        assert leaf0 == pytest.approx((1.0 / (1.0 - beta ** 2)) ** (p / 2.0), rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_reverse_ap_all_weights(self, p):
        # |V' V e| >= (1 - eta') |e| for any weight kind, on the net
        g = Grid(1, 4)
        tol = 1e-9 if p == 2.0 else 2e-3
        dirs = sphere_net(2, 64)
        for W in sample_weights(seed=10):
            red = reducing_pyramid(W, g, p)
            for k in range(g.L + 1):
                prod = red["V_prime"][k] @ red["V"][k]
                r = np.linalg.norm(np.einsum("...ij,mj->...mi", prod, dirs), axis=-1)
                assert r.min() >= 1.0 - tol

    def test_duality_identity(self, monkeypatch):
        # V(W^{1-p'}, p') matches V'(W, p) within the certification tolerance
        W = MatrixWeight.diagonal_power([0.5, -0.3])
        p = 3.0
        pprime = p / (p - 1.0)
        Wd = power_of(W, 1.0 - pprime)
        g = Grid(1, 4)
        monkeypatch.setattr(weights_module, "REDUCING_NET", 96)
        red = reducing_pyramid(W, g, p)
        red_d = reducing_pyramid(Wd, g, pprime)
        dirs = red["net"]
        for k in (0, 2, 4):
            a = np.linalg.norm(np.einsum("...ij,mj->...mi", red["V_prime"][k], dirs), axis=-1)
            b = np.linalg.norm(np.einsum("...ij,mj->...mi", red_d["V"][k], dirs), axis=-1)
            np.testing.assert_allclose(a, b, rtol=5e-3)

    def test_small_big_and_big_small(self):
        # containment comparisons with the explicit dimensional constants
        g = Grid(1, 5)
        n, d = 2, 1
        C_dim = n * 2 ** d
        for p in (1.5, 2.0, 3.0):
            for W in sample_weights(seed=3, n_random=2):
                red = reducing_pyramid(W, g, p)
                ap = ap_from_reducing(red, p)
                dirs = red["net"]
                for k in range(1, g.L + 1):
                    V_child = red["V"][k]
                    V_par = np.repeat(red["V"][k - 1], 2, axis=0)
                    a = np.linalg.norm(np.einsum("cij,mj->cmi", V_child.reshape(-1, 2, 2), dirs), axis=-1) ** p
                    b = np.linalg.norm(np.einsum("cij,mj->cmi", V_par.reshape(-1, 2, 2), dirs), axis=-1) ** p
                    slack = 1.0 + 1e-9
                    assert np.all(a <= C_dim * b * slack), f"SmallBig p={p} k={k}"
                    assert np.all(b <= C_dim * ap * a * slack), f"BigSmall p={p} k={k}"


def lowner_radii(seed, n_round, n_spiky, m=64, n=2):
    """Net radii of point sets that are hard for the multiplicative Lowner
    update (jittered ellipsoids: every point is nearly on the boundary) and
    easy ones (n orthogonal points on the unit sphere, every other point well
    inside it).  For n > 2 the first n directions of the net are the axes."""
    rng = np.random.default_rng(seed)
    dirs = sphere_net(n, m)
    axes = [0, m // 2]
    if n != 2:
        dirs[:n] = np.eye(n)
        axes = list(range(n))
    A = rng.standard_normal((n_round, n, n))
    A = A @ np.swapaxes(A, 1, 2) + 0.5 * np.eye(n)
    round_ = 1.0 / np.linalg.norm(np.einsum("kij,mj->kmi", A, dirs), axis=-1)
    round_ *= 1.0 + 0.01 * rng.random((n_round, m))
    spiky = rng.uniform(0.3, 0.9, (n_spiky, m))
    spiky[:, axes] = 1.0
    return round_, spiky, dirs


def lowner_reference(radii, dirs, max_iter, tol):
    """The multiplicative update in its batched-matmul form on the (K, m, n)
    points, each row stopped when its own gap max_m g / n - 1 is <= tol."""
    K, m = radii.shape
    n = dirs.shape[1]
    scale = radii.max(axis=1, keepdims=True)
    q = (radii / scale)[..., None] * dirs[None, :, :]
    u = np.full((K, m), 1.0 / m)
    live = np.ones(K, dtype=bool)
    for it in range(max_iter + 1):
        Sinv = np.linalg.inv(q.transpose(0, 2, 1) @ (u[..., None] * q))
        g = ((q @ Sinv) * q).sum(axis=-1)
        if it == max_iter:
            break
        live &= g.max(axis=1) > n * (1.0 + tol)
        step = u * (g / n)
        step /= step.sum(axis=1, keepdims=True)
        u = np.where(live[:, None], step, u)
    gmax = g.max(axis=1)
    U = linalg.sqrtm_spd(Sinv / gmax[:, None, None]) / scale[..., None]
    return U, u, gmax / n - 1.0


def design_gap(radii, dirs, design):
    """max_m g_m / n - 1 of a design, from its moment matrix."""
    n = dirs.shape[1]
    w = (radii / radii.max(axis=1, keepdims=True)) ** 2
    S = np.einsum("km,mi,mj->kij", design * w, dirs, dirs)
    g = w * np.einsum("mi,kij,mj->km", dirs, np.linalg.inv(S), dirs)
    return g.max(axis=1) / n - 1.0


def max_area_ellipse(radii, dirs):
    """det M of the minimum-area ellipse {q^T M q <= 1} around the points
    +-radii[j] dirs[j], by enumeration: every pair as conjugate semi-axes and
    the ellipse through every triple, each shrunk onto the whole point set."""
    q = radii[:, None] * dirs
    best = 0.0
    for idx in itertools.chain(itertools.combinations(range(len(q)), 2),
                               itertools.combinations(range(len(q)), 3)):
        Q = q[list(idx)]
        if len(idx) == 2:
            M = np.linalg.inv(Q.T @ Q)
        else:
            a, b, c = np.linalg.solve(np.stack([Q[:, 0] ** 2, 2 * Q[:, 0] * Q[:, 1],
                                                Q[:, 1] ** 2], axis=1), np.ones(3))
            M = np.array([[a, b], [b, c]])
            if a <= 0 or np.linalg.det(M) <= 0:
                continue
        t = max(float(np.einsum("mi,ij,mj->m", q, M, q).max()), 1.0)
        best = max(best, float(np.linalg.det(M)) / t ** 2)
    return best


class TestLowner:
    @pytest.mark.parametrize("m", [8, 12, 16])
    def test_planar_solve_matches_enumeration(self, m):
        hard, easy, dirs = lowner_radii(m, 6, 4, m=m)
        rng = np.random.default_rng(m)
        radii = np.vstack([hard, easy, rng.uniform(0.2, 1.0, (6, m))])
        U, u, gap = lowner_batched(radii, dirs)
        for k in range(len(radii)):
            want = max_area_ellipse(radii[k], dirs)
            assert abs(np.linalg.det(U[k]) ** 2 / want - 1.0) <= 1e-12
        assert np.all(u >= 0.0)
        np.testing.assert_allclose(u.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        assert np.all((u > 0).sum(axis=1) <= 3)
        np.testing.assert_allclose(gap, design_gap(radii, dirs, u), rtol=0, atol=1e-13)
        assert np.all(gap <= 1e-8)

    def test_certificate_touches_one(self, monkeypatch):
        # the exact planar solve, and the multiplicative update cut early
        monkeypatch.setattr(weights_module, "LOWNER_MAX_ITER", 50)
        for n in (2, 3):
            hard, easy, dirs = lowner_radii(13, 4, 4, n=n)
            radii = np.vstack([hard, easy])
            U, _, _ = lowner_batched(radii, dirs)
            q = radii[..., None] * dirs[None]
            worst = np.linalg.norm(np.einsum("kij,kmj->kmi", U, q), axis=-1).max(axis=1)
            np.testing.assert_allclose(worst, 1.0, rtol=0, atol=1e-12)

    def test_scalar_weight_gives_circles(self):
        # the gauge of |x|^a I is rotation invariant, so its ellipse is a circle
        W = MatrixWeight.scalar_power(0.6)
        red = reducing_pyramid(W, Grid(1, 6), 3.0)
        for key in ("V", "V_prime"):
            for V in red[key]:
                np.testing.assert_allclose(V, V[..., :1, :1] * np.eye(2), rtol=0,
                                           atol=1e-13 * np.abs(V).max())
        assert max(float(g.max()) for g in red["gap"] + red["gap_prime"]) <= 1e-8

    # the multiplicative update, which n = 3 takes

    def test_batch_invariance(self):
        # a row that converges is frozen: harder rows in its batch do not move it
        hard, easy, dirs = lowner_radii(5, 3, 1, n=3)
        U1, u1, gap1 = lowner_batched(easy, dirs)
        assert gap1[0] <= 1e-8
        Ub, ub, gapb = lowner_batched(np.vstack([hard[:2], easy, hard[2:]]), dirs)
        assert np.all(np.delete(gapb, 2) > 1e-8)
        # to round-off, not bit for bit: BLAS picks a different kernel for a
        # one-row product than for a many-row one
        assert np.abs(Ub[2] - U1[0]).max() <= 1e-13 * np.abs(U1[0]).max()
        np.testing.assert_allclose(ub[2], u1[0], rtol=0, atol=1e-14)
        np.testing.assert_allclose(gapb[2], gap1[0], rtol=1e-6)

    def test_agrees_with_batched_matmul_update(self):
        hard, easy, dirs = lowner_radii(11, 3, 5, n=3)
        radii = np.vstack([hard, easy])
        U, u, gap = lowner_batched(radii, dirs)
        U_ref, u_ref, gap_ref = lowner_reference(radii, dirs, weights_module.LOWNER_MAX_ITER,
                                                 weights_module.LOWNER_TOL)
        scale = np.abs(U_ref).max(axis=(1, 2), keepdims=True)
        assert np.abs(U - U_ref).max() <= 1e-12 * scale.min()
        np.testing.assert_allclose(u, u_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(gap, gap_ref, rtol=1e-6, atol=1e-15)

    def test_gap_reported(self, monkeypatch):
        hard, easy, dirs = lowner_radii(5, 1, 1, n=3)
        radii = np.vstack([hard, easy])
        tol = 1e-8
        monkeypatch.setattr(weights_module, "LOWNER_TOL", tol)
        _, u, gap = lowner_batched(radii, dirs)
        assert gap[1] <= tol < gap[0]
        monkeypatch.setattr(weights_module, "LOWNER_MAX_ITER", 10)
        _, u_cut, gap_cut = lowner_batched(radii, dirs)
        assert np.all(gap_cut > tol)
        # the reported gap is the gap of the returned design
        for design, reported in ((u, gap), (u_cut, gap_cut)):
            np.testing.assert_allclose(design_gap(radii, dirs, design), reported,
                                       rtol=1e-6, atol=1e-13)

    def test_pyramid_reports_gaps(self):
        g = Grid(1, 5)
        W = MatrixWeight.rotated_power([0.4, -0.3], 0.7)
        red = reducing_pyramid(W, g, 3.0)
        for key in ("gap", "gap_prime"):
            assert [a.shape for a in red[key]] == [a.shape for a in red["eta"]]
            assert all(np.all(a >= 0.0) for a in red[key])
        red2 = reducing_pyramid(W, g, 2.0)
        assert all(np.all(a == 0.0) for a in red2["gap"] + red2["gap_prime"])


class TestRedOpAverageLemma:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_two_sided_bound(self, p):
        g = Grid(1, 4)
        dirs = sphere_net(2, 64)
        for W in sample_weights(seed=17, n_random=2):
            red = reducing_pyramid(W, g, p)
            ap = ap_from_reducing(red, p)
            factor = ap ** (2.0 / p)
            avg = W.average_pyramid(g, -1.0 / p)
            eta = 2e-3 if p != 2.0 else 1e-9
            for k in range(g.L + 1):
                m_e = np.linalg.norm(np.einsum("...ij,mj->...mi", avg[k], dirs), axis=-1)
                v_e = np.linalg.norm(np.einsum("...ij,mj->...mi", red["V_prime"][k], dirs), axis=-1)
                assert np.all(m_e <= (1.0 + eta) * v_e)
                assert np.all(v_e <= (1.0 + eta) * factor * m_e)

    def test_matrix_jensen_chain(self):
        # det V' <= ||W||^{n/p} det m_I(W^{-1/p}) on all cubes
        g = Grid(1, 4)
        for p in (2.0, 3.0):
            for W in sample_weights(seed=29, n_random=1):
                red = reducing_pyramid(W, g, p)
                ap = ap_from_reducing(red, p)
                avg = W.average_pyramid(g, -1.0 / p)
                for k in range(g.L + 1):
                    lhs = np.linalg.det(red["V_prime"][k])
                    rhs = ap ** (2.0 / p) * np.linalg.det(avg[k])
                    assert np.all(lhs <= rhs * (1 + 1e-9))


class TestMatrixNormLemma:
    def test_expanding_small_determinant(self):
        # if min singular value >= 1 and |det A| <= delta then ||A|| <= delta
        rng = np.random.default_rng(31)
        for _ in range(1000):
            n = int(rng.integers(2, 4))
            u, _ = np.linalg.qr(rng.standard_normal((n, n)))
            v, _ = np.linalg.qr(rng.standard_normal((n, n)))
            sing = 1.0 + rng.random(n) * 3.0
            A = (u * sing) @ v.T
            delta = np.prod(sing)
            assert np.linalg.norm(A, 2) <= delta * (1 + 1e-12)


class TestApCharacteristic:
    def test_identity(self):
        rep = ap_characteristic(MatrixWeight.identity(), 2.0, Grid(1, 4))
        assert rep.value_reducing == pytest.approx(1.0)
        assert rep.value_integral == pytest.approx(1.0)

    def test_d3_refused_before_any_work(self, monkeypatch):
        import haarweight.weights as weights_module
        monkeypatch.setattr(weights_module, "reducing_pyramid",
                            lambda *args, **kwargs: pytest.fail("pyramid built for d=3"))
        with pytest.raises(ShapeError):
            ap_characteristic(MatrixWeight.identity(), 2.0, Grid(3, 2))

    def test_double_average_streams_in_bounded_memory(self):
        # one N x N table of floats is 128 MiB at d=1, L=12; the whole run,
        # reducing pyramid included, stays below it and below the need that
        # apchar's memory refusal counts
        import tracemalloc
        from haarweight.weights import ap_need
        g = Grid(1, 12)
        tracemalloc.start()
        try:
            ap_characteristic(MatrixWeight.rotated_power([0.4, -0.3], 0.7), 1.5, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * g.n_leaves ** 2
        assert peak <= ap_need(g.d, g.L, 2, 1.5)[1]

    def test_power_weight_p2_value(self):
        W = MatrixWeight.diagonal_power([0.5, -0.5])
        rep = ap_characteristic(W, 2.0, Grid(1, 8))
        assert rep.value_reducing == pytest.approx(4.0 / 3.0, rel=1e-9)
        assert rep.cube_reducing.offset == (0,)

    def test_scalar_matches_matrix_path(self):
        # scalar A_2 oracle: sup m(w) m(1/w) over cubes
        W = MatrixWeight.scalar_power(0.5)
        g = Grid(1, 8)
        rep = ap_characteristic(W, 2.0, g)
        scalar = 0.0
        for k in range(g.L + 1):
            pyr = W.average_pyramid(g, 1.0)[k][..., 0, 0]
            pyr_inv = W.average_pyramid(g, -1.0)[k][..., 0, 0]
            scalar = max(scalar, float((pyr * pyr_inv).max()))
        assert rep.value_reducing == pytest.approx(scalar, rel=1e-9)
        assert rep.value_reducing == pytest.approx(4.0 / 3.0, rel=1e-9)

    def test_norm_trace_comparability(self):
        # the two reported forms agree within n^{p/2+1}
        g = Grid(1, 5)
        for p in (2.0, 3.0):
            for W in sample_weights(seed=41, n_random=2):
                rep = ap_characteristic(W, p, g)
                n = W.n
                factor = n ** (p / 2.0 + 1.0)
                assert rep.value_integral <= factor * rep.value_reducing * (1 + 5e-2)
                assert rep.value_reducing <= factor * rep.value_integral * (1 + 5e-2)

    def test_report_json(self):
        import json
        rep = ap_characteristic(MatrixWeight.identity(), 2.0, Grid(1, 2))
        data = json.loads(json.dumps(rep.record()))
        assert data["p"] == 2.0
        assert data["characteristic_reducing"] == pytest.approx(1.0)


def dual_weight(W, p):
    """(W^{1-p'}, p'), the A_p dual pairing, from ``power_of``."""
    pprime = p / (p - 1.0)
    return power_of(W, 1.0 - pprime), pprime


class TestDualWeight:
    def test_p2_inverse(self):
        W = MatrixWeight.diagonal_power([0.5, -0.5])
        Wd, q = dual_weight(W, 2.0)
        assert q == 2.0
        assert Wd.alphas == (-0.5, 0.5)

    def test_exponent_arithmetic(self):
        W = MatrixWeight.scalar_power(0.5)
        Wd, q = dual_weight(W, 3.0)
        assert q == pytest.approx(1.5)
        assert Wd.alphas == tuple([-0.25, -0.25])

    def test_double_dual_involution(self):
        W = MatrixWeight.diagonal_power([0.4, -0.2])
        Wd, q = dual_weight(W, 3.0)
        Wdd, p_back = dual_weight(Wd, q)
        assert p_back == pytest.approx(3.0)
        assert Wdd.alphas == W.alphas


class TestWeightedNorm:
    def test_p2_matches_quadrature(self):
        from haarweight.dyadic import StepFunction
        rng = np.random.default_rng(2)
        g = Grid(1, 5)
        W = MatrixWeight.random_spd(8)
        f = StepFunction(g, rng.standard_normal((32, 2)))
        M = W.leaf_averages(g, 1.0)
        want = np.sqrt(np.einsum("li,lij,lj->", f.values, M, f.values) * g.leaf_measure)
        assert lp_norm(f, W) == pytest.approx(want)

    def test_identity_weight_any_p(self):
        # the leaf gauge of L^p(W) that the p != 2 ascent maximizes, the
        # L^p norm of the leaf-constant weight (m_leaf W^{2/p})^{p/2}
        g = Grid(1, 3)
        f = np.ones((8, 2))
        for p in (1.5, 2.0, 3.0):
            M = MatrixWeight.identity().leaf_averages(g, 2.0 / p)
            assert _lp_power(f, M, p, g.leaf_measure) ** (1.0 / p) == pytest.approx(np.sqrt(2.0))
