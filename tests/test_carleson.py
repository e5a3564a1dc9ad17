"""Carleson criteria, BMO norms, stopping trees: exact and traced-constant tests."""

import numpy as np
import pytest

from haarweight.carleson import (
    bmo_norm, carleson_b_sup, carleson_c_constant, mean_oscillation,
    ntv_scalar_equivalence, stopping_constants, stopping_time_tree,
)
from haarweight.dyadic import Cube, Grid, StepFunction, find_covering_cube
from haarweight.errors import ThresholdError
from haarweight.operators import (
    MatrixSequence, MatrixSymbol, big_pi_op, weighted_operator_norm,
)
from haarweight.weights import MatrixWeight, ap_characteristic, dual_weight, reducing_pyramid

# np.linalg.eigh calls that test_2x2_runs_avoid_eigh's run made before the
# 2x2 closed forms
EIGH_CALLS_BEFORE = 189


class TestConditionB:
    def test_scalar_sequence_identity_weight(self):
        # A_I = b_I Id, W = Id: ||A||_* is the dyadic BMO^2 sup of the scalars
        rng = np.random.default_rng(0)
        g = Grid(1, 4)
        scal = [rng.standard_normal((1 << k, 1)) for k in range(4)]
        levels = [s[..., None, None] * np.eye(2) for s in scal]
        A = MatrixSequence(g, levels)
        rep = carleson_b_sup(A, MatrixWeight.identity(), 2.0)
        # brute-force oracle over all cubes
        best = 0.0
        for k_top in range(5):
            for off in range(1 << k_top):
                s = 0.0
                for k in range(k_top, 4):
                    lo, hi = off << (k - k_top), (off + 1) << (k - k_top)
                    s += float((scal[k][lo:hi] ** 2).sum())
                best = max(best, s * (1 << k_top))
        assert rep.value == pytest.approx(best, rel=1e-12)

    def test_single_root_identity(self):
        g = Grid(1, 4)
        A = MatrixSequence.zeros(g).with_entry(0, (0,), 0, np.eye(2))
        rep = carleson_b_sup(A, MatrixWeight.identity(), 2.0)
        assert rep.value == pytest.approx(1.0)
        assert rep.cube.level == 0

    def test_log_swap_symbol_grows_with_depth(self):
        # the counterexample symbol: sup grows without bound as L increases
        W = MatrixWeight.diagonal_power([0.5, -0.5])
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        vals = []
        for L in (4, 7, 10):
            g = Grid(1, L)
            b = _log_leaf_means(g)
            B = MatrixSymbol.from_values(g, b[:, None, None] * swap)
            A = MatrixSequence.from_symbol(B)
            vals.append(carleson_b_sup(A, W, 2.0).value)
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] > 4 * vals[0]


def _log_leaf_means(grid):
    # exact leaf averages of log x on [0,1): primitive x log x - x
    edges = np.arange(grid.n_leaves + 1) / grid.n_leaves
    prim = np.zeros_like(edges)
    pos = edges > 0
    prim[pos] = edges[pos] * np.log(edges[pos]) - edges[pos]
    return np.diff(prim) * grid.n_leaves


class TestConditionC:
    def test_zero_and_single(self):
        g = Grid(1, 3)
        W = MatrixWeight.identity()
        assert carleson_c_constant(MatrixSequence.zeros(g), W, 2.0).value == 0.0
        A = MatrixSequence.zeros(g).with_entry(0, (0,), 0, np.eye(2))
        assert carleson_c_constant(A, W, 2.0).value == pytest.approx(1.0)

    def test_p2_necessity_dense_svd(self):
        # each (c) form <= the squared dense-SVD norm of its embedding operator
        from haarweight.weights import power_of
        rng = np.random.default_rng(7)
        g = Grid(1, 5)
        for t in range(30):
            W = MatrixWeight.random_spd(300 + t, cond=64.0)
            A = MatrixSequence.random(g, rng=rng)
            red = reducing_pyramid(W, g, 2.0)
            rep = carleson_c_constant(A, W, 2.0, reducing=red)
            nrm = weighted_operator_norm(big_pi_op(A, W, 2.0, red),
                                         MatrixWeight.identity(), 2.0).value
            assert rep.primal_value <= nrm ** 2 * (1 + 1e-9)
            Wd = power_of(W, -1.0)
            red_d = reducing_pyramid(Wd, g, 2.0)
            nrm_d = weighted_operator_norm(big_pi_op(A.transpose(), Wd, 2.0, red_d),
                                           MatrixWeight.identity(), 2.0).value
            assert rep.dual_value <= nrm_d ** 2 * (1 + 1e-9)

    def test_two_sidedness_with_traced_constants(self):
        rng = np.random.default_rng(8)
        g = Grid(1, 5)
        n, d, p = 2, 1, 2.0
        for t in range(12):
            W = MatrixWeight.random_spd(500 + t, cond=36.0)
            A = MatrixSequence.random(g, rng=rng)
            red = reducing_pyramid(W, g, p)
            ap = ap_characteristic(W, p, g, reducing=red).value_reducing
            b = carleson_b_sup(A, W, p, reducing=red).value
            c = carleson_c_constant(A, W, p, reducing=red).value
            assert c <= n * b * (1 + 1e-9)
            l1, l2_base = stopping_constants(n, p)
            l2 = l2_base * ap ** ((p / (p - 1.0)) / p)
            traced = 2.0 * n * l1 ** (1.0 / p) * l2 ** (1.0 - 1.0 / p)
            assert b <= traced * c * (1 + 1e-9)


class TestBMO:
    def test_constant_symbol_zero(self):
        g = Grid(1, 4)
        B = MatrixSymbol.from_values(g, np.broadcast_to(np.diag([1.0, 2.0]), (16, 2, 2)).copy())
        W = MatrixWeight.diagonal_power([0.3, -0.3])
        for variant in ("primal", "dual", "unweighted"):
            val, _ = bmo_norm(B, W, 2.0, variant)
            assert val <= 1e-13

    def test_scalar_symbol_identity_weight(self):
        rng = np.random.default_rng(9)
        g = Grid(1, 5)
        b = rng.standard_normal(32)
        B = MatrixSymbol.from_values(g, b[:, None, None] * np.eye(2))
        val, _ = bmo_norm(B, MatrixWeight.identity(), 2.0, "primal")
        best = max(((b[o << (5 - k):(o + 1) << (5 - k)]
                     - b[o << (5 - k):(o + 1) << (5 - k)].mean()) ** 2).mean()
                   for k in range(6) for o in range(1 << k))
        assert val == pytest.approx(best, rel=1e-12)

    def test_duality_reindexing_exact(self):
        rng = np.random.default_rng(10)
        g = Grid(1, 4)
        W = MatrixWeight.diagonal_power([0.5, -0.3])
        B = MatrixSymbol.from_values(g, rng.standard_normal((16, 2, 2)))
        vd, _ = bmo_norm(B, W, 2.0, "dual")
        Wd, pp = dual_weight(W, 2.0)
        vp, _ = bmo_norm(B.transpose(), Wd, pp, "primal")
        assert vd == pytest.approx(vp, rel=1e-12)

    def test_oscillation_about_mean_vs_infimum(self):
        # (mean-centered oscillation)^{1/p} <= (1 + A_p^{1/p}) inf over centers
        rng = np.random.default_rng(11)
        g = Grid(1, 5)
        W = MatrixWeight.diagonal_power([0.5, -0.5])
        ap = ap_characteristic(W, 2.0, g).value_reducing
        B = MatrixSymbol.from_values(g, rng.standard_normal((32, 2, 2)))
        from fractions import Fraction
        for (lo, hi) in [(0, 1), (Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 8), Fraction(7, 8))]:
            base = mean_oscillation(B, W, 2.0, lo, hi)
            candidates = [B.means[0][0, 0] if lo == 0 else None]
            best = np.inf
            idxs = slice(int(Fraction(lo) * 32), int(Fraction(hi) * 32))
            m_center = B.step.values[idxs].mean(axis=0)
            for trial in range(40):
                center = m_center + rng.standard_normal((2, 2)) * 0.3 * (trial > 0)
                best = min(best, mean_oscillation(B, W, 2.0, lo, hi, center=center))
            assert np.sqrt(base) <= (1 + np.sqrt(ap)) * np.sqrt(best) * (1 + 1e-9)

    def test_oscillation_refuses_p_not_2_before_any_work(self):
        g = Grid(1, 4)
        W = MatrixWeight.random_spd(2)
        calls = []
        W.average_over_interval = lambda *args, **kw: calls.append(args)
        B = MatrixSymbol.from_values(g, np.ones((16, 2, 2)))
        with pytest.raises(ValueError):
            mean_oscillation(B, W, 3.0, 0, 1)
        assert calls == []

    def test_covering_comparability_sampled(self):
        # oscillation over arbitrary rational cubes is controlled by the
        # oscillation over a covering third-shifted cube, with the constant
        # traced through the center-swap and containment lemmas
        rng = np.random.default_rng(12)
        g = Grid(1, 6)
        W = MatrixWeight.diagonal_power([0.4, -0.4])
        ap = ap_characteristic(W, 2.0, g).value_reducing
        B = MatrixSymbol.from_values(g, rng.standard_normal((64, 2, 2)))
        n, d = 2, 1
        C_dim = n * 2 ** d
        const = (1 + np.sqrt(ap)) ** 2 * 6 * (C_dim * ap) ** 3
        from fractions import Fraction
        failures = 0
        for _ in range(150):
            den = int(rng.integers(32, 512))
            a = int(rng.integers(den // 4, 3 * den // 4))
            w = int(rng.integers(1, den // 16 + 1))
            lo, hi = Fraction(a, den), Fraction(a + w, den)
            if hi >= Fraction(3, 4) + Fraction(1, 8):
                continue
            t, cover = find_covering_cube([lo], [hi])
            (ca, cb), = cover.bounds()
            if ca < 0 or cb > 1:
                continue
            lhs = mean_oscillation(B, W, 2.0, lo, hi)
            rhs = mean_oscillation(B, W, 2.0, ca, cb)
            if lhs > const * rhs * (1 + 1e-9) and rhs > 1e-14:
                failures += 1
        assert failures == 0


class TestStoppingTree:
    def test_identity_weight_no_generations(self):
        tree = stopping_time_tree(MatrixWeight.identity(), 2.0, grid=Grid(1, 6))
        assert len(tree.generations) == 1
        assert tree.generation_measures == [1.0]

    def test_threshold_validation(self):
        with pytest.raises(ThresholdError):
            stopping_time_tree(MatrixWeight.identity(), 2.0, grid=Grid(1, 3),
                               lambda1=0.5, lambda2=2.0)

    @pytest.mark.parametrize("alpha", [0.6, 0.9])
    def test_power_weight_decay_p2(self, alpha):
        g = Grid(1, 12)
        W = MatrixWeight.diagonal_power([alpha, -alpha])
        tree = stopping_time_tree(W, 2.0, grid=g)
        for j, meas in enumerate(tree.generation_measures):
            assert meas <= 2.0 ** (-j) * (1 + 1e-12)

    def test_disjointness_and_partition(self):
        # generations pairwise disjoint; every cube lands in exactly one F^j
        W = MatrixWeight.rotated_power([0.8, -0.7], 0.9)
        g = Grid(1, 7)
        tree = stopping_time_tree(W, 2.0, grid=g, lambda1=1.5, lambda2=1.5)
        assert len(tree.generations) > 1   # low thresholds force stopping
        stoppers = {}
        for j, gen in enumerate(tree.generations):
            offs = set()
            for c in gen:
                assert c.offset not in offs or c.level not in [x.level for x in gen]
            # disjointness within a generation via interval arithmetic
            spans = sorted((c.bounds()[0][0], c.bounds()[0][1]) for c in gen)
            for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
                assert b1 <= a2
            for c in gen:
                stoppers[(c.level, c.offset)] = j
        # partition: generation of each cube = generation of nearest
        # stopping ancestor-or-self + (0 if itself a stopper else 1)... every
        # cube must have a unique well-defined membership
        for k in range(g.L + 1):
            for off in range(1 << k):
                hits = []
                lev, o = k, off
                while True:
                    if (lev, (o,)) in stoppers:
                        hits.append(stoppers[(lev, (o,))])
                        break
                    if lev == 0:
                        break
                    lev, o = lev - 1, o >> 1
                assert len(hits) == 1  # chain always reaches the root stopper

    def test_random_rotated_weights_decay_p3(self):
        rng = np.random.default_rng(13)
        g = Grid(1, 9)
        for t in range(3):
            alphas = rng.uniform(-0.6, 0.6, size=2)
            W = MatrixWeight.rotated_power(alphas, rng.uniform(0, np.pi))
            tree = stopping_time_tree(W, 3.0, grid=g)
            for j, meas in enumerate(tree.generation_measures):
                assert meas <= 2.0 ** (-j) * (1 + 1e-12)

    def test_2x2_runs_avoid_eigh(self, monkeypatch):
        # a criterion-4-style run: reducing pyramids and stopping trees of
        # 2x2 weights at p = 1.5, 2, 3.  Before the 2x2 closed forms it made
        # EIGH_CALLS_BEFORE eigh calls, three per level and run (the square
        # roots of both Lowner solves and the inverses of V in the tree); now
        # only the p = 2 square roots take eigh, and every Lowner gap is at
        # most 1e-8
        calls = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        g = Grid(1, 6)
        weights = [MatrixWeight.diagonal_power([0.3, -0.3]),
                   MatrixWeight.rotated_power([0.35, -0.2], 0.9),
                   MatrixWeight.rotated_power([-0.25, -0.4], 2.2)]
        for p in (1.5, 2.0, 3.0):
            for W in weights:
                before = len(calls)
                red = reducing_pyramid(W, g, p, net_size=32, eta_target=0.08)
                stopping_time_tree(W, p, grid=g, reducing=red)
                assert max(float(a.max()) for a in red["gap"] + red["gap_prime"]) <= 1e-8
                assert len(calls) - before == (2 * (g.L + 1) if p == 2.0 else 0)
        assert 3 * len(calls) <= EIGH_CALLS_BEFORE


class TestNTV:
    def test_single_cube_both_forms_one(self):
        g = Grid(1, 4)
        levels = [np.zeros((1 << k,)) for k in range(5)]
        levels[0][0] = 1.0
        s, l = ntv_scalar_equivalence(levels, 1, 2.0)
        assert s == pytest.approx(1.0)
        assert l == pytest.approx(1.0)

    def test_p2_forms_identical(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            levels = [rng.random((1 << k,)) for k in range(5)]
            s, l = ntv_scalar_equivalence(levels, 1, 2.0)
            assert s == pytest.approx(l, rel=1e-12)

    def test_p3_montecarlo_ratio_bounded(self):
        rng = np.random.default_rng(15)
        ratios = []
        for _ in range(200):
            levels = [rng.random((1 << k,)) * (rng.random() < 0.5) for k in range(5)]
            if all(a.max() == 0 for a in levels):
                continue
            s, l = ntv_scalar_equivalence(levels, 1, 3.0)
            if s > 0:
                ratios.append(l / s)
        ratios = np.array(ratios)
        assert ratios.min() >= 1 - 1e-12      # power-mean direction
        assert ratios.max() <= 4.0            # empirical comparability band
