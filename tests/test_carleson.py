"""Carleson criteria, BMO norms, stopping trees: exact and traced-constant tests."""

from fractions import Fraction

import numpy as np
import pytest

from haarweight import linalg
from haarweight.carleson import (
    bmo_norm, carleson_b_sup, carleson_c_constant, p2_necessity, stopping_constants,
    stopping_time_tree,
)
from haarweight.dyadic import Cube, Grid, StepFunction, find_covering_cube, mean_pyramid
from haarweight.errors import ConfigError, ThresholdError
from haarweight.operators import MatrixSequence, MatrixSymbol
from haarweight import weights as weights_module
from haarweight.weights import MatrixWeight, ap_from_reducing, power_of, reducing_pyramid

# np.linalg.eigh calls that test_2x2_runs_avoid_eigh's run made before the
# 2x2 closed forms
EIGH_CALLS_BEFORE = 189


def mean_oscillation(B, W, lo, hi, center=None):
    """(1/|Q|) int_Q ||W^{1/2}(x)(B(x) - c) V_Q^{-1}||^2 over the rational
    interval Q = [lo, hi) in [0, 1) (d = 1, p = 2), with c = m_Q B unless
    ``center`` is given, for a diagonal power weight diag(|x|^a_i): V_Q is
    (m_Q W)^{1/2}, with m_Q |x|^a = (hi^{a+1} - lo^{a+1}) / ((a + 1) |Q|), and
    each leaf enters with its exact overlap with Q."""
    lo, hi = Fraction(lo), Fraction(hi)
    step = Fraction(1, B.grid.n_leaves)
    idxs = range(int(lo / step), -(-hi // step))
    overlaps = np.array([float(min(hi, step * (i + 1)) - max(lo, step * i)) for i in idxs])
    total = float(hi - lo)
    vals = B.step.values[idxs]
    if center is None:
        center = (overlaps[:, None, None] * vals).sum(axis=0) / total
    means = [(float(hi) ** (a + 1) - float(lo) ** (a + 1)) / ((a + 1) * total) for a in W.alphas]
    X = W.leaf_reps(B.grid, 0.5)[idxs] @ (vals - center) @ np.diag(np.power(means, -0.5))
    return float((linalg.opnorm(X) ** 2 * overlaps).sum() / total)


def root_sequence(grid, mat):
    """The sequence whose only nonzero coefficient is A_root^{eps_0} = mat."""
    nsig = (1 << grid.d) - 1
    levels = [np.zeros((1 << k,) * grid.d + (nsig, 2, 2)) for k in range(grid.L)]
    levels[0][(0,) * grid.d + (0,)] = mat
    return MatrixSequence(grid, levels)


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
        A = root_sequence(g, np.eye(2))
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
        assert carleson_c_constant(root_sequence(g, np.zeros((2, 2))), W, 2.0).value == 0.0
        A = root_sequence(g, np.eye(2))
        assert carleson_c_constant(A, W, 2.0).value == pytest.approx(1.0)

    def test_p2_necessity_dense_svd(self):
        # each (c) form <= the squared dense-SVD norm of its embedding operator
        # (dim 64), by Parseval that of its Haar coefficients V_I A_I^eps
        # m_I(W^{-1/2} f), with W^{-1}'s own pyramid for Pi_{A^T}
        rng = np.random.default_rng(7)
        g = Grid(1, 5)

        def svd_norm(A, W):
            V = [linalg.sqrtm_spd(a) for a in W.average_pyramid(g, 1.0)]
            cols = W.leaf_averages(g, -0.5) @ np.eye(64).reshape(32, 2, 64)
            mat = np.concatenate([np.einsum("xij,xsjk,xkb->xsib", v, a, m).reshape(-1, 64)
                                  for v, a, m in zip(V, A.levels, mean_pyramid(cols, 1, 5))])
            return np.linalg.svd(mat, compute_uv=False)[0] / np.sqrt(g.leaf_measure)

        for t in range(30):
            W = MatrixWeight.random_spd(300 + t, cond=64.0)
            A = MatrixSequence.random(g, rng=rng)
            rep, primal, dual = p2_necessity(A, W)
            nrm, nrm_d = svd_norm(A, W), svd_norm(A.transpose(), power_of(W, -1.0))
            assert rep.primal_value <= nrm ** 2 * (1 + 1e-9)
            assert rep.dual_value <= nrm_d ** 2 * (1 + 1e-9)
            # the certified norms agree to dim * eps, either solver's round-off
            assert (primal.kind, dual.kind) == ("exact", "exact")
            assert [primal.value, dual.value] == pytest.approx([nrm, nrm_d],
                                                               rel=64 * np.finfo(float).eps)

    def test_p2_necessity_builds_one_pyramid(self, monkeypatch):
        # W^{-1}'s pyramid is W's with V and V' swapped, so an instance builds
        # one reducing pyramid, and none when it is given one
        import haarweight.carleson as carleson_module
        import haarweight.operators as operators_module
        calls = []
        for module in (carleson_module, operators_module, weights_module):
            monkeypatch.setattr(module, "reducing_pyramid",
                                lambda *args: calls.append(args) or reducing_pyramid(*args))
        g = Grid(1, 3)
        W = MatrixWeight.random_spd(3, cond=8.0)
        A = MatrixSequence.random(g, rng=np.random.default_rng(3))
        p2_necessity(A, W)
        assert len(calls) == 1
        p2_necessity(A, W, reducing_pyramid(W, g, 2.0))
        assert len(calls) == 1

    def test_two_sidedness_with_traced_constants(self):
        rng = np.random.default_rng(8)
        g = Grid(1, 5)
        n, d, p = 2, 1, 2.0
        for t in range(12):
            W = MatrixWeight.random_spd(500 + t, cond=36.0)
            A = MatrixSequence.random(g, rng=rng)
            red = reducing_pyramid(W, g, p)
            ap = ap_from_reducing(red, p)
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
        # the dual weight W^{1-p'} at p = p' = 2
        vp, _ = bmo_norm(B.transpose(), power_of(W, -1.0), 2.0, "primal")
        assert vd == pytest.approx(vp, rel=1e-12)

    def test_oscillation_about_mean_vs_infimum(self):
        # (mean-centered oscillation)^{1/p} <= (1 + A_p^{1/p}) inf over centers
        rng = np.random.default_rng(11)
        g = Grid(1, 5)
        W = MatrixWeight.diagonal_power([0.5, -0.5])
        ap = ap_from_reducing(reducing_pyramid(W, g, 2.0), 2.0)
        B = MatrixSymbol.from_values(g, rng.standard_normal((32, 2, 2)))
        for (lo, hi) in [(0, 1), (Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 8), Fraction(7, 8))]:
            base = mean_oscillation(B, W, lo, hi)
            candidates = [B.means[0][0, 0] if lo == 0 else None]
            best = np.inf
            idxs = slice(int(Fraction(lo) * 32), int(Fraction(hi) * 32))
            m_center = B.step.values[idxs].mean(axis=0)
            for trial in range(40):
                center = m_center + rng.standard_normal((2, 2)) * 0.3 * (trial > 0)
                best = min(best, mean_oscillation(B, W, lo, hi, center=center))
            assert np.sqrt(base) <= (1 + np.sqrt(ap)) * np.sqrt(best) * (1 + 1e-9)

    def test_covering_comparability_sampled(self):
        # oscillation over arbitrary rational cubes is controlled by the
        # oscillation over a covering third-shifted cube, with the constant
        # traced through the center-swap and containment lemmas
        rng = np.random.default_rng(12)
        g = Grid(1, 6)
        W = MatrixWeight.diagonal_power([0.4, -0.4])
        ap = ap_from_reducing(reducing_pyramid(W, g, 2.0), 2.0)
        B = MatrixSymbol.from_values(g, rng.standard_normal((64, 2, 2)))
        n, d = 2, 1
        C_dim = n * 2 ** d
        const = (1 + np.sqrt(ap)) ** 2 * 6 * (C_dim * ap) ** 3
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
            lhs = mean_oscillation(B, W, lo, hi)
            rhs = mean_oscillation(B, W, ca, cb)
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

    def test_threshold_overflow_refused(self):
        # near p = 1, C2' ~ n^{p'} is inf instead of a Python OverflowError,
        # and a default lambda2 that overflows is refused by name
        assert stopping_constants(2, 1.0001)[1] == np.inf
        with pytest.raises(ConfigError, match="lambda2 overflows at p = 1.001"):
            stopping_time_tree(MatrixWeight.scalar_power(-0.3), 1.001, grid=Grid(1, 3))

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
        # only the p = 2 square roots of the rotated weights take eigh (the
        # diagonal weight's averages are diagonal, and their roots are taken
        # entrywise), and every Lowner gap is at most 1e-8
        calls = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        monkeypatch.setattr(weights_module, "REDUCING_NET", 32)
        g = Grid(1, 6)
        weights = [MatrixWeight.diagonal_power([0.3, -0.3]),
                   MatrixWeight.rotated_power([0.35, -0.2], 0.9),
                   MatrixWeight.rotated_power([-0.25, -0.4], 2.2)]
        for p in (1.5, 2.0, 3.0):
            for W in weights:
                before = len(calls)
                red = reducing_pyramid(W, g, p)
                stopping_time_tree(W, p, grid=g, reducing=red)
                assert max(float(a.max()) for a in red["gap"] + red["gap_prime"]) <= 1e-8
                rotated = W.rotation is not None
                assert len(calls) - before == (2 * (g.L + 1) if p == 2.0 and rotated else 0)
        assert 3 * len(calls) <= EIGH_CALLS_BEFORE
