"""Operator tests: paraproducts, multipliers, shifts, commutators, norms.

The dense-matrix adjoint oracle features throughout: each operator's adjoint
kernel must match the transpose of its dense leaf-basis matrix exactly.
"""

import numpy as np
import pytest

from haarweight.dyadic import Grid, StepFunction, haar_analyze, memory_order
from haarweight.errors import ShapeError
from haarweight.operators import (
    MatrixSequence, MatrixSymbol, NormReport, Operator, ShiftMap,
    adjoint_paraproduct_op, big_pi_op, commutator_case_sum, commutator_op,
    dense_matrix, haar_multiplier_op, paraproduct_op,
    product_decomposition_values, shift_op, weighted_operator_norm,
)
from haarweight.maximal import sparse_generate, sparse_op
from haarweight.weights import MatrixWeight, _lp_power, lp_norm
from haarweight import linalg


def random_symbol(grid, rng, scale=1.0):
    return MatrixSymbol.from_values(grid, rng.standard_normal(grid.leaf_shape + (2, 2)) * scale)


def random_vector(grid, rng):
    return StepFunction(grid, rng.standard_normal(grid.leaf_shape + (2,)))


def constant_vector(grid, e):
    return StepFunction(grid, np.broadcast_to(e, grid.leaf_shape + (len(e),)))


def zero_sequence(grid, n=2):
    nsig = (1 << grid.d) - 1
    return [np.zeros((1 << k,) * grid.d + (nsig, n, n)) for k in range(grid.L)]


def leaf_blocks(grid, W, s):
    """Explicit block-diagonal matrix of m_leaf(W)^s, one n x n block per leaf."""
    n = W.n
    blocks = linalg.powm_spd(W.leaf_averages(grid, 1.0), s).reshape(-1, n, n)
    out = np.zeros((n * len(blocks),) * 2)
    for l, b in enumerate(blocks):
        out[n * l:n * l + n, n * l:n * l + n] = b
    return out


class TestParaproduct:
    def test_constant_symbol_annihilates(self):
        g = Grid(1, 4)
        B = MatrixSymbol.from_values(g, np.broadcast_to(np.diag([2.0, 3.0]), (16, 2, 2)).copy())
        f = random_vector(g, np.random.default_rng(0))
        np.testing.assert_allclose(paraproduct_op(B)(f).values, 0.0, atol=1e-14)

    def test_single_term_oracle(self):
        # B = h^0_{[0,1)} Id, f = constant e: pi_B f = e h^0_{[0,1)}
        g = Grid(1, 3)
        h_root = np.repeat([1.0, -1.0], 4)          # h^0 on [0,1)
        B = MatrixSymbol.from_values(g, h_root[:, None, None] * np.eye(2))
        e = np.array([1.0, 2.0])
        f = constant_vector(g, e)
        out = paraproduct_op(B)(f)
        np.testing.assert_allclose(out.values, h_root[:, None] * e, atol=1e-12)

    def test_adjoint_identity_dense(self):
        # matrix of the adjoint paraproduct equals the transpose of the
        # paraproduct with transposed coefficient matrices
        rng = np.random.default_rng(1)
        for d, L in [(1, 3), (2, 2)]:
            g = Grid(d, L)
            B = MatrixSymbol.from_values(g, rng.standard_normal(g.leaf_shape + (2, 2)))
            M1 = dense_matrix(adjoint_paraproduct_op(B))
            M2 = dense_matrix(paraproduct_op(B.transpose()))
            np.testing.assert_allclose(M1, M2.T, atol=1e-12)

    def test_pairing_identity_random(self):
        rng = np.random.default_rng(2)
        g = Grid(1, 4)
        B = random_symbol(g, rng)
        f, h = random_vector(g, rng), random_vector(g, rng)
        lhs = (paraproduct_op(B)(f).values * h.values).sum() * g.leaf_measure
        rhs = (f.values * adjoint_paraproduct_op(B.transpose())(h).values).sum() * g.leaf_measure
        assert lhs == pytest.approx(rhs, rel=1e-11)


class TestAdjointParaproduct:
    def test_constant_symbol(self):
        g = Grid(1, 3)
        B = MatrixSymbol.from_values(g, np.broadcast_to(np.eye(2), (8, 2, 2)).copy())
        f = random_vector(g, np.random.default_rng(3))
        np.testing.assert_allclose(adjoint_paraproduct_op(B)(f).values, 0.0, atol=1e-14)

    def test_single_coefficient_evaluation(self):
        # For f = h^0_{[0,1)} e: output is B^0_{[0,1)} e on all of [0,1)
        rng = np.random.default_rng(4)
        g = Grid(1, 3)
        B = random_symbol(g, rng)
        e = np.array([1.0, -1.0])
        h_root = np.repeat([1.0, -1.0], 4)
        f = StepFunction(g, h_root[:, None] * e)
        out = adjoint_paraproduct_op(B)(f)
        want = B.coeffs[0][0, 0] @ e
        np.testing.assert_allclose(out.values, np.broadcast_to(want, (8, 2)), atol=1e-12)


class TestHaarMultiplier:
    def test_identity_sequence_subtracts_mean(self):
        g = Grid(2, 3)
        A = MatrixSequence.constant(g, np.eye(2))
        f = random_vector(g, np.random.default_rng(5))
        out = haar_multiplier_op(A)(f)
        mean = f.values.mean(axis=(0, 1))
        np.testing.assert_allclose(out.values, f.values - mean, atol=1e-12)

    def test_unweighted_norm_is_max_block_norm(self):
        rng = np.random.default_rng(6)
        g = Grid(1, 4)
        # blocks of one size on every level
        A = MatrixSequence(g, [rng.standard_normal((1 << k, 1, 2, 2)) for k in range(g.L)])
        got = weighted_operator_norm(haar_multiplier_op(A), MatrixWeight.identity(), 2.0)
        want = max(np.linalg.svd(a.reshape(-1, 2, 2), compute_uv=False)[..., 0].max()
                   for a in A.levels)
        assert got.kind == "exact"
        assert got.value == pytest.approx(want, rel=1e-10)

    def test_single_block_norm(self):
        g = Grid(1, 3)
        levels = zero_sequence(g)
        levels[1][0, 0] = np.diag([3.0, 0.0])
        A = MatrixSequence(g, levels)
        got = weighted_operator_norm(haar_multiplier_op(A), MatrixWeight.identity(), 2.0)
        assert got.value == pytest.approx(3.0, rel=1e-12)

    def test_missing_level_raises(self):
        with pytest.raises(ShapeError):
            MatrixSequence(Grid(1, 2), [np.zeros((1, 1, 2, 2))])


class TestShift:
    def test_mean_only_input_gives_zero(self):
        g = Grid(1, 4)
        f = constant_vector(g, np.array([1.0, 2.0]))
        out = shift_op(ShiftMap.left_child(g))(f)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-14)

    def test_single_coefficient_relabeling(self):
        g = Grid(1, 3)
        sigma = ShiftMap.left_child(g)
        mean, coeffs, _ = haar_analyze(np.zeros((8, 2)), 1, 3)
        coeffs[0][0, 0] = [1.0, 0.0]
        from haarweight.dyadic import haar_synthesize
        f = StepFunction(g, haar_synthesize(mean, coeffs, 1, 3))
        out = shift_op(sigma)(f)
        _, oc, _ = haar_analyze(out.values, 1, 3)
        np.testing.assert_allclose(oc[1][0, 0], [1.0, 0.0], atol=1e-12)
        oc[1][0, 0] = 0.0
        assert max(np.abs(c).max() for c in oc) <= 1e-12

    def test_contraction_and_headroom_isometry(self):
        rng = np.random.default_rng(8)
        g = Grid(1, 5)
        sigma = ShiftMap.random_child(g, seed=11)
        f = random_vector(g, rng)
        out = shift_op(sigma)(f)
        # mean channel dies, deepest coefficients truncate: contraction
        assert out.norm_l2() <= f.norm_l2() * (1 + 1e-12)
        # headroom: input supported above the deepest coefficient level,
        # mean-free, injective cube relabeling -> exact isometry
        mean, coeffs, _ = haar_analyze(rng.standard_normal((32, 2)), 1, 5)
        coeffs[4][:] = 0.0
        from haarweight.dyadic import haar_synthesize
        f2 = StepFunction(g, haar_synthesize(np.zeros(2), coeffs, 1, 5))
        out2 = shift_op(sigma)(f2)
        assert out2.norm_l2() == pytest.approx(f2.norm_l2(), rel=1e-12)

    @staticmethod
    def shift_levels_oracle(sigma, fc, adjoint=False):
        """Q_sigma on coefficient levels, cube by cube from sigma.targets: the
        forward scatter accumulates by np.add.at, the adjoint reads each
        cube's target."""
        d = sigma.grid.d
        flat = lambda a: a.reshape((-1,) + a.shape[d:])
        out = [np.zeros_like(c) for c in fc]
        for k, tg in enumerate(sigma.targets):
            if adjoint:
                for i, t in enumerate(tg):
                    flat(out[k])[i] = flat(fc[k + 1])[t]
            else:
                np.add.at(flat(out[k + 1]), tg, flat(fc[k]))
        return out

    @pytest.mark.parametrize("d,L", [(1, 6), (2, 4)])
    def test_scatter_and_gather_match_add_at_oracle(self, d, L):
        from haarweight.operators import _shift_levels
        rng = np.random.default_rng(45)
        g = Grid(d, L)
        sigma = ShiftMap.random_child(g, seed=46)
        nsig = (1 << d) - 1
        fc = [rng.standard_normal((1 << k,) * d + (nsig, 2, 3)) for k in range(L)]
        gc = [rng.standard_normal(c.shape) for c in fc]
        qf = _shift_levels(sigma, fc)
        qtg = _shift_levels(sigma, gc, adjoint=True)
        for got, want in [(qf, self.shift_levels_oracle(sigma, fc)),
                          (qtg, self.shift_levels_oracle(sigma, gc, adjoint=True))]:
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        # <Q f, g> = <f, Q^T g> on the coefficient levels
        lhs = sum(float((a * b).sum()) for a, b in zip(qf, gc))
        rhs = sum(float((a * b).sum()) for a, b in zip(fc, qtg))
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("d,L", [(1, 6), (2, 4), (3, 3)])
    def test_targets_are_distinct_children(self, d, L):
        g = Grid(d, L)
        left, rand = ShiftMap.left_child(g), ShiftMap.random_child(g, seed=47)
        for sigma in (left, rand):
            assert len(sigma.targets) == L - 1
            for k, tg in enumerate(sigma.targets):
                source = np.unravel_index(np.arange(1 << (k * d)), (1 << k,) * d)
                target = np.unravel_index(tg, (2 << k,) * d)
                # sigma(I) is a child of I: each coordinate halves to I's
                assert all(np.array_equal(t // 2, c) for t, c in zip(target, source))
                assert len(np.unique(tg)) == len(tg)
                if sigma is left:
                    assert all((t % 2 == 0).all() for t in target)
        # the random shift picks more than one child position
        bits = np.stack(np.unravel_index(rand.targets[-1], (1 << (L - 1),) * d), -1) % 2
        assert len(np.unique(bits, axis=0)) > 1


class TestCommutator:
    def test_scalar_constant_symbol_commutes(self):
        g = Grid(1, 4)
        B = MatrixSymbol.from_values(g, np.broadcast_to(2.5 * np.eye(2), (16, 2, 2)).copy())
        f = random_vector(g, np.random.default_rng(9))
        sigma = ShiftMap.left_child(g)
        for out in (commutator_op(B, sigma)(f).values, commutator_case_sum(B, sigma, f.values)):
            np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_product_decomposition_identity(self):
        rng = np.random.default_rng(10)
        for d, L in [(1, 4), (2, 3)]:
            g = Grid(d, L)
            B = MatrixSymbol.from_values(g, rng.standard_normal(g.leaf_shape + (2, 2)))
            vals = rng.standard_normal(g.leaf_shape + (2,))
            direct = np.einsum("...ij,...j->...i", B.step.values, vals)
            np.testing.assert_allclose(product_decomposition_values(B, vals), direct, atol=1e-12)

    @pytest.mark.parametrize("d,L", [(1, 5), (2, 3)])
    def test_modes_agree_scalar_symbol(self, d, L):
        rng = np.random.default_rng(12)
        g = Grid(d, L)
        b = rng.standard_normal(g.leaf_shape)
        B = MatrixSymbol.from_values(g, b[..., None, None] * np.eye(2))
        sigma = ShiftMap.random_child(g, seed=13)
        f = random_vector(g, rng)
        a = commutator_op(B, sigma)(f)
        bvals = commutator_case_sum(B, sigma, f.values)
        assert np.abs(a.values).max() > 1e-3   # generically nonzero
        np.testing.assert_allclose(a.values, bvals, atol=1e-10)

    def test_modes_agree_random_instances(self):
        rng = np.random.default_rng(14)
        worst = 0.0
        for trial in range(20):
            d = 1 if trial % 2 == 0 else 2
            L = int(rng.integers(2, 6 if d == 1 else 4))
            g = Grid(d, L)
            B = random_symbol(g, rng)
            sigma = ShiftMap.random_child(g, seed=trial)
            f = random_vector(g, rng)
            a = commutator_op(B, sigma)(f).values
            b = commutator_case_sum(B, sigma, f.values)
            scale = max(1.0, np.abs(a).max())
            worst = max(worst, np.abs(a - b).max() / scale)
        assert worst <= 1e-10

    @pytest.mark.parametrize("d,L", [(1, 11), (2, 3)])
    def test_stacked_shift_has_the_bits_of_two_shifts(self, d, L):
        # a vector input shifts f and B f as one stacked pair; the oracle is
        # B Q f - Q(B f) with a shift of each, in both memory orders
        from haarweight.operators import _mv, _shift_values
        rng = np.random.default_rng(26)
        g = Grid(d, L)
        B = random_symbol(g, rng)
        sigma = ShiftMap.random_child(g, seed=27)
        op = commutator_op(B, sigma)
        vals, valsT = B.step.values, np.swapaxes(B.step.values, -1, -2)
        x = rng.standard_normal(g.leaf_shape + (2,))
        for v in (x, np.asfortranarray(x)):
            want = _mv(vals, _shift_values(sigma, v)) - _shift_values(sigma, _mv(vals, v))
            assert np.array_equal(op.kernel(v), want)
            want_T = (_shift_values(sigma, _mv(valsT, v), adjoint=True)
                      - _mv(valsT, _shift_values(sigma, v, adjoint=True)))
            assert np.array_equal(op.kernel_T(v), want_T)

    def test_one_transform_at_each_end(self, monkeypatch):
        # the case sum analyzes and synthesizes once for Q f, D(Q f), D f and
        # Q(D f); the product decomposition once in all
        import haarweight.operators as ops
        rng = np.random.default_rng(25)
        g = Grid(1, 4)
        B = random_symbol(g, rng)
        sigma = ShiftMap.random_child(g, seed=1)
        vals = random_vector(g, rng).values
        calls = {}
        for name in ("haar_analyze", "haar_synthesize", "mean_pyramid"):
            def counted(*args, _name=name, _fn=getattr(ops, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args)
            monkeypatch.setattr(ops, name, counted)
        commutator_case_sum(B, sigma, vals)
        assert calls == {"haar_analyze": 4, "haar_synthesize": 4}
        calls.clear()
        product_decomposition_values(B, vals)
        assert calls == {"haar_analyze": 1, "haar_synthesize": 1}


class TestBigPi:
    def test_zero_sequence(self):
        g = Grid(1, 3)
        A = MatrixSequence(g, zero_sequence(g))
        f = random_vector(g, np.random.default_rng(15))
        out = big_pi_op(A, MatrixWeight.identity(), 2.0)(f)
        np.testing.assert_allclose(out.values, 0.0)

    def test_identity_weight_collapses_to_paraproduct(self):
        rng = np.random.default_rng(16)
        g = Grid(1, 4)
        B = random_symbol(g, rng)
        A = MatrixSequence.from_symbol(B)
        f = random_vector(g, rng)
        a = big_pi_op(A, MatrixWeight.identity(), 2.0)(f)
        b = paraproduct_op(B)(f)
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)

    def test_p2_necessity_identity_exact(self):
        # f = W^{1/2} chi_J e: (1/|J|) sum_{I in J} |V_I A_I^eps e|^2
        # <= ||Pi_A||^2 |V_J e|^2, with a leaf-constant weight so the
        # cancellation W^{-1/2} W^{1/2} = Id is exact
        rng = np.random.default_rng(17)
        g = Grid(1, 4)
        W = MatrixWeight.random_spd(23, cond=9.0)
        A = MatrixSequence.random(g, rng=24)
        op = big_pi_op(A, W, 2.0)
        norm = weighted_operator_norm(op, MatrixWeight.identity(), 2.0).value
        from haarweight.weights import reducing_pyramid
        red = reducing_pyramid(W, g, 2.0)
        e = np.array([1.0, 0.0])
        for level, off in [(1, (1,)), (2, (2,))]:
            Whalf = W.leaf_reps(g, 0.5)
            mask = np.zeros(g.leaf_shape)
            lo, hi = off[0] << (g.L - level), (off[0] + 1) << (g.L - level)
            mask[lo:hi] = 1.0
            lhs = 0.0
            for k in range(level, g.L):
                sl = slice(off[0] << (k - level), (off[0] + 1) << (k - level))
                VA = red["V"][k][sl, None] @ A.levels[k][sl]
                lhs += ((VA @ e) ** 2).sum() * 2.0 ** (level - k)
            VJ = red["V"][level][off]
            rhs = norm ** 2 * ((VJ @ e) ** 2).sum()
            assert lhs <= rhs * (1 + 1e-9)


class TestWeightedNorms:
    def test_identity_minus_mean_norm_one(self):
        g = Grid(1, 4)
        A = MatrixSequence.constant(g, np.eye(2))
        rep = weighted_operator_norm(haar_multiplier_op(A), MatrixWeight.identity(), 2.0)
        assert rep.kind == "exact"
        assert rep.value == pytest.approx(1.0, rel=1e-12)

    def test_scalar_paraproduct_depth2(self):
        g = Grid(1, 2)
        vals = np.repeat([1.0, -1.0], 2)[:, None, None] * np.eye(2)
        B = MatrixSymbol.from_values(g, vals)   # b = h^0_{[0,1)} Id
        rep = weighted_operator_norm(paraproduct_op(B), MatrixWeight.identity(), 2.0)
        assert rep.value == pytest.approx(1.0, rel=1e-10)

    def test_whitened_matches_direct_quadrature(self):
        # ||T f||_{L^2(W)} / ||f||_{L^2(W)} <= assembled norm, with near-equality
        # at the top singular vector
        rng = np.random.default_rng(19)
        g = Grid(1, 4)
        W = MatrixWeight.diagonal_power([0.5, -0.5])
        B = random_symbol(g, rng)
        op = paraproduct_op(B)
        rep = weighted_operator_norm(op, W, 2.0)
        for _ in range(10):
            f = random_vector(g, rng)
            ratio = lp_norm(op(f), W) / lp_norm(f, W)
            assert ratio <= rep.value * (1 + 1e-9)

    def test_matrix_free_agrees_with_dense(self):
        rng = np.random.default_rng(20)
        g = Grid(1, 5)
        W = MatrixWeight.diagonal_power([0.3, -0.3])
        B = random_symbol(g, rng)
        op = commutator_op(B, ShiftMap.left_child(g))
        H, H_inv = leaf_blocks(g, W, 0.5), leaf_blocks(g, W, -0.5)
        dense = np.linalg.svd(H @ dense_matrix(op) @ H_inv, compute_uv=False)[0]
        shape = g.leaf_shape + (2,)
        matvec = lambda x: H @ op.kernel((H_inv @ x).reshape(shape)).reshape(-1)
        free, witness, diag = linalg.matfree_spectral_norm(
            matvec, lambda y: H_inv.T @ op.kernel_T((H.T @ y).reshape(shape)).reshape(-1),
            2 * g.n_leaves)
        assert diag["converged"]
        assert free == pytest.approx(dense, rel=1e-10)
        assert free <= dense * (1 + 1e-12)      # a lower bound, up to round-off
        achieved = np.linalg.norm(matvec(witness)) / np.linalg.norm(witness)
        assert free == pytest.approx(achieved, rel=1e-14)
        # above the dense cap the dispatch runs Lanczos and labels it honestly
        g = Grid(1, 11)                          # dim 4096
        B = random_symbol(g, rng)
        op = commutator_op(B, ShiftMap.left_child(g))
        rep = weighted_operator_norm(op, W, 2.0)
        assert rep.details["dim"] == 4096
        assert rep.kind == "lower-bound"
        assert rep.details["method"] == "Golub-Kahan-Lanczos"
        assert rep.details["converged"] is True
        # its witness is an input of op, not of the whitened operator
        f = StepFunction(g, rep.witness)
        assert lp_norm(op(f), W) / lp_norm(f, W) == pytest.approx(rep.value, rel=1e-10)

    def test_lanczos_witness_is_an_input(self):
        # the commutator counterexample at alpha = 0.1 above the dense cap: the
        # whitened Lanczos vector itself reaches only 2.24547 against 2.25550
        from haarweight.experiments import log_swap_symbol
        g = Grid(1, 11)
        W = MatrixWeight.diagonal_power([0.1, -0.1])
        op = commutator_op(log_swap_symbol(g), ShiftMap.left_child(g))
        rep = weighted_operator_norm(op, W, 2.0)
        assert rep.kind == "lower-bound"
        assert rep.witness.shape == g.leaf_shape + (2,)
        f = StepFunction(g, rep.witness)
        assert lp_norm(op(f), W) / lp_norm(f, W) == pytest.approx(rep.value, rel=1e-10)

    def test_exact_label_is_exact_at_dense_cap(self):
        # sigma1/sigma2 = 1 + 5e-7 here, so power iteration with a stopping
        # rule ends ~2e-8 below sigma1: an exact label needs a direct solve
        g = Grid(1, 10)
        W = MatrixWeight.diagonal_power([0.1, -0.1])
        op = sparse_op(sparse_generate(g, seed=0, density=0.5))
        rep = weighted_operator_norm(op, W, 2.0)
        white = leaf_blocks(g, W, 0.5) @ dense_matrix(op) @ leaf_blocks(g, W, -0.5)
        want = np.linalg.svd(white, compute_uv=False)[0]
        assert rep.kind == "exact"
        assert rep.details["method"] == "certified Gram bracket"
        assert rep.value == pytest.approx(want, rel=1e-12)
        # the lower end is a computed ||M x||, so it may sit an ulp or two
        # above the SVD value; the upper end is proved
        assert rep.details["lower"] <= want * (1 + 4e-16) and want <= rep.details["upper"]

    def test_direct_summands_are_factored_one_at_a_time(self, monkeypatch):
        # the commutator of log|x| SWAP under diag(x^a, x^-a) maps component 0
        # to 1 and 1 to 0, so its whitened matrix is a direct sum of two
        # 512 x 512 blocks; a rotated weight couples the components, and the
        # whole 1024 x 1024 matrix is factored as before
        from haarweight.experiments import log_swap_symbol
        shapes = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: shapes.append(a.shape) or cholesky(a))
        g = Grid(1, 9)
        op = commutator_op(log_swap_symbol(g), ShiftMap.left_child(g))
        for W, want_shapes in ((MatrixWeight.diagonal_power([0.3, -0.3]), [(512, 512)] * 2),
                               (MatrixWeight.rotated_power([0.4, -0.3], 0.7), [(1024, 1024)])):
            shapes.clear()
            rep = weighted_operator_norm(op, W, 2.0)
            assert shapes == want_shapes
            assert rep.kind == "exact" and rep.details["summands"] == len(want_shapes)
            white = leaf_blocks(g, W, 0.5) @ dense_matrix(op) @ leaf_blocks(g, W, -0.5)
            want = np.linalg.svd(white, compute_uv=False)[0]
            assert rep.value == pytest.approx(want, rel=1e-13)
            assert want <= rep.details["upper"] <= want * (1 + 1e-9)

    def test_one_class_summands_have_the_einsum_bits(self):
        # under a diagonal weight each summand of a swapping or componentwise
        # operator has one row and one column class; scaling its rows and
        # columns gives the bits of the two leafwise einsums
        from haarweight.experiments import log_swap_symbol
        from haarweight.operators import _whitened_summands
        g = Grid(1, 6)
        W = MatrixWeight.diagonal_power([0.3, -0.3])
        gram = W.leaf_averages(g, 1.0)
        H, H_inv = linalg.powm_spd(gram, 0.5), linalg.powm_spd(gram, -0.5)
        N = g.n_leaves
        for op, classes in ((commutator_op(log_swap_symbol(g), ShiftMap.left_child(g)),
                             [(0, 1), (1, 0)]),
                            (shift_op(ShiftMap.random_child(g, seed=3)), [(0, 0), (1, 1)])):
            D = dense_matrix(op)
            got = _whitened_summands(D, H, H_inv)
            assert len(got) == len(classes), op.name
            D4 = D.reshape(N, 2, N, 2)
            for M, (r, c) in zip(got, classes):
                R, C = np.array([r]), np.array([c])
                left = np.einsum("lia,lamc->limc", H[:, R[:, None], R], D4[:, R][..., C])
                want = np.einsum("limb,mbj->limj", left, H_inv[:, C[:, None], C]).reshape(N, N)
                assert np.array_equal(M, want) and M.flags.c_contiguous, op.name
                assert np.array_equal(np.signbit(M), np.signbit(want)), op.name

    def test_summands_of_several_components(self):
        # a 3x3 multiplier that mixes components 0 and 1 and keeps 2 apart,
        # under a diagonal weight: one 2-component and one 1-component block
        g = Grid(1, 5)
        W = MatrixWeight.diagonal_power([0.3, -0.2, 0.5])
        A = MatrixSequence.constant(g, [[1.0, 2.0, 0.0], [-0.5, 0.7, 0.0], [0.0, 0.0, 3.0]])
        op = haar_multiplier_op(A)
        rep = weighted_operator_norm(op, W, 2.0)
        white = leaf_blocks(g, W, 0.5) @ dense_matrix(op) @ leaf_blocks(g, W, -0.5)
        want = np.linalg.svd(white, compute_uv=False)[0]
        assert rep.kind == "exact" and rep.details["summands"] == 2
        assert rep.value == pytest.approx(want, rel=1e-13)
        assert want <= rep.details["upper"] <= want * (1 + 1e-9)

    def test_sweep_operators_split_under_diagonal_weights(self):
        # every operator of the quantitative sweep acts componentwise or swaps
        # the components, so under diag(x^a, x^-a) each norm has two summands
        from haarweight.experiments import SWAP, _conjugated_sequence, log_swap_symbol
        from haarweight.weights import power_of, reducing_pyramid
        g = Grid(1, 5)
        W = MatrixWeight.diagonal_power([0.5, -0.5])
        B = log_swap_symbol(g)
        ops = [(paraproduct_op(B), W), (shift_op(ShiftMap.left_child(g)), W),
               (haar_multiplier_op(MatrixSequence.constant(g, SWAP)), W),
               (haar_multiplier_op(_conjugated_sequence(g, reducing_pyramid(W, g, 2.0), SWAP)), W),
               (commutator_op(B, ShiftMap.left_child(g)), W),
               (paraproduct_op(B.transpose()), power_of(W, -1.0)),
               (sparse_op(sparse_generate(g, seed=0, density=0.5)), W)]
        for op, weight in ops:
            rep = weighted_operator_norm(op, weight, 2.0)
            assert rep.kind == "exact" and rep.details["summands"] == 2, op.name

    def test_p_not_2_lower_bound(self):
        rng = np.random.default_rng(21)
        g = Grid(1, 3)
        W = MatrixWeight.diagonal_power([0.4, -0.4])
        B = random_symbol(g, rng)
        op = paraproduct_op(B)
        rep = weighted_operator_norm(op, W, 3.0)
        assert rep.kind == "lower-bound"
        M = W.leaf_averages(g, 2.0 / 3.0)

        def leaf_gauge_norm(h):
            # the norm the ascent maximizes: L^3 of the leaf-constant weight
            # (m_leaf W^{2/3})^{3/2}
            return _lp_power(h.values, M, 3.0, g.leaf_measure) ** (1.0 / 3.0)

        f = StepFunction(g, rep.witness)
        achieved = leaf_gauge_norm(op(f)) / leaf_gauge_norm(f)
        assert rep.value == pytest.approx(achieved, rel=1e-6)
        # it is a genuine lower bound for the p-norm ratio over random probes
        assert all(leaf_gauge_norm(op(random_vector(g, rng)))
                   / leaf_gauge_norm(random_vector(g, rng)) <= rep.value * 50
                   for _ in range(3))

    def test_norm_report_json(self):
        g = Grid(1, 2)
        A = MatrixSequence.constant(g, np.eye(2))
        rep = weighted_operator_norm(haar_multiplier_op(A), MatrixWeight.identity(), 2.0)
        import json
        data = json.loads(json.dumps(rep.record()))
        assert data["kind"] == "exact"


def assembly_operators(g):
    """One operator of each kind that ``dense_matrix`` assembles, plus the
    counterexample's log-swap commutator at d = 1."""
    rng = np.random.default_rng(g.d * 100 + g.L)
    B = random_symbol(g, rng)
    A = MatrixSequence.random(g, rng=7)
    sigma = ShiftMap.random_child(g, seed=8)
    ops = [paraproduct_op(B), adjoint_paraproduct_op(B), haar_multiplier_op(A),
           shift_op(sigma), commutator_op(B, sigma),
           big_pi_op(A, MatrixWeight.rotated_power([0.4, -0.3], 0.7), 2.0),
           sparse_op(sparse_generate(g, seed=9, density=0.5))]
    if g.d == 1:
        from haarweight.experiments import log_swap_symbol
        ops.append(commutator_op(log_swap_symbol(g), ShiftMap.left_child(g)))
    return ops


class TestDenseAssembly:
    @pytest.mark.parametrize("d, L", [(1, 5), (1, 9), (2, 3), (2, 4)])
    def test_column_blocks_give_the_identity_push_bit_for_bit(self, d, L, monkeypatch):
        # the identity pushed through the kernel in one call is the oracle;
        # blocks of 2 and 64 columns and the whole identity give its bits
        g = Grid(d, L)
        dim = 2 * g.n_leaves
        for op in assembly_operators(g):
            want = op.kernel(np.eye(dim).reshape(g.leaf_shape + (2, dim))).reshape(dim, dim)
            kernel, widths = op.kernel, []
            op.kernel = lambda v: widths.append(v.shape[-1]) or kernel(v)
            for width in (2, 64, dim):
                monkeypatch.setattr(linalg, "BLOCK_BYTES", 8 * dim * width)
                op._dense, widths[:] = None, []
                got = dense_matrix(op)
                assert widths == [width] * (dim // width), op.name
                assert np.array_equal(got, want), (op.name, width)
                assert not got.flags.writeable and dense_matrix(op) is got

    def test_assembly_holds_blocks_not_a_second_matrix(self):
        # the L = 10 counterexample commutator (dim 2048, a 32 MiB matrix)
        # peaks below two matrices; the whole identity and its image peaked
        # at 256 MiB
        import tracemalloc
        from haarweight.experiments import log_swap_symbol
        g = Grid(1, 10)
        op = commutator_op(log_swap_symbol(g), ShiftMap.left_child(g))
        dim = 2 * g.n_leaves
        tracemalloc.start()
        try:
            dense_matrix(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * dim * dim * 8


class TestAdjointKernels:
    def test_all_adjoints_match_dense_transpose(self):
        rng = np.random.default_rng(22)
        g = Grid(1, 4)
        B = random_symbol(g, rng)
        A = MatrixSequence.random(g, rng=33)
        sigma = ShiftMap.random_child(g, seed=44)
        ops = [paraproduct_op(B), adjoint_paraproduct_op(B), haar_multiplier_op(A),
               shift_op(sigma), commutator_op(B, sigma),
               big_pi_op(A, MatrixWeight.random_spd(23, cond=9.0), 2.0)]
        for op in ops:
            M = dense_matrix(op)
            MT = dense_matrix(Operator(op.grid, op.n, op.kernel_T))
            np.testing.assert_allclose(MT, M.T, atol=1e-12, err_msg=op.name)

    def test_adjoints_d2_random_child(self):
        rng = np.random.default_rng(23)
        g = Grid(2, 3)
        sigma = ShiftMap.random_child(g, seed=5)
        for op in (shift_op(sigma), commutator_op(random_symbol(g, rng), sigma)):
            M = dense_matrix(op)
            MT = dense_matrix(Operator(op.grid, op.n, op.kernel_T))
            np.testing.assert_allclose(MT, M.T, atol=1e-12, err_msg=op.name)


class TestMemoryOrder:
    """The matrix-free norms run the kernels on leaf-contiguous
    (Fortran-ordered) inputs: every kernel must give the C-ordered input's
    bits.  At d >= 2 the shift's scatter goes through a reshape that merges
    the cube axes, which copies a Fortran-ordered level and loses the
    scatter, so d = 2 is covered too."""

    @staticmethod
    def operators(g):
        rng = np.random.default_rng(60 + g.d)
        B = random_symbol(g, rng)
        A = MatrixSequence.random(g, rng=61)
        left, rand = ShiftMap.left_child(g), ShiftMap.random_child(g, seed=62)
        return [paraproduct_op(B), adjoint_paraproduct_op(B), haar_multiplier_op(A),
                shift_op(left), shift_op(rand), commutator_op(B, left), commutator_op(B, rand),
                big_pi_op(A, MatrixWeight.rotated_power([0.4, -0.3], 0.7), 2.0)]

    # a few leaves and 2^11 leaves at d = 1, a few and 2^12 at d = 2
    @pytest.mark.parametrize("d,L", [(1, 6), (1, 11), (2, 3), (2, 6)])
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_kernels_give_the_same_bits_in_either_order(self, d, L, batch):
        g = Grid(d, L)
        x = np.random.default_rng(63).standard_normal(g.leaf_shape + (2,) + batch)
        xf = np.asfortranarray(x)
        assert xf.flags.f_contiguous and not xf.flags.c_contiguous
        for op in self.operators(g):
            for kernel in (op.kernel, op.kernel_T):
                want, got = kernel(x), kernel(xf)
                assert got.shape == want.shape, op.name
                assert np.array_equal(got, want), op.name
                assert np.array_equal(np.signbit(got), np.signbit(want)), op.name

    @pytest.mark.parametrize("mats_shape,vecs_shape", [
        ((1024, 2, 2), (1024, 2)),          # a leaf product
        ((2, 2), (1024, 3, 2)),             # one matrix against every vector
        ((1024, 1, 2, 2), (1024, 3, 2)),    # the means multiplier on coefficient levels
        ((1024, 3, 2, 2), (1024, 1, 2)),    # the paraproduct on cube means
        ((3, 2, 2), (3, 2)),                # a few leaves
        ((2, 2), (2,)),                     # the coarse mean
    ])
    def test_2x2_closed_form_has_the_einsum_bits(self, mats_shape, vecs_shape, monkeypatch):
        from haarweight.operators import _mv
        rng = np.random.default_rng(64)
        mats = rng.standard_normal(mats_shape) * np.exp(rng.uniform(-20, 20, mats_shape))
        vecs = rng.standard_normal(vecs_shape) * np.exp(rng.uniform(-20, 20, vecs_shape))
        for a in (mats, vecs):                  # zeros of both signs
            a[rng.random(a.shape) < 0.25] = 0.0
            a[rng.random(a.shape) < 0.25] = -0.0
        want = np.einsum("...ij,...j->...i", mats, vecs)
        einsum, calls = np.einsum, []
        monkeypatch.setattr(np, "einsum", lambda *a: calls.append(a[0]) or einsum(*a))
        inputs = (vecs, np.asfortranarray(vecs), vecs[::-1][::-1])
        for v in inputs:
            got = _mv(mats, v)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        assert calls == []
        if vecs.shape == want.shape and vecs.ndim > 1:
            # written in the memory order of a leaf-contiguous input
            assert memory_order(_mv(mats, np.asfortranarray(vecs))) == "F"
        # other matrix sizes take the einsum
        calls.clear()
        m3, v3 = rng.standard_normal((1024, 3, 3)), rng.standard_normal((1024, 3))
        assert np.array_equal(_mv(m3, v3), einsum("...ij,...j->...i", m3, v3))
        assert calls == ["...ij,...j->...i"]


class TestSymbolInvariants:
    def test_symbol_parseval(self):
        rng = np.random.default_rng(24)
        for d, L in [(1, 5), (2, 3)]:
            g = Grid(d, L)
            B = MatrixSymbol.from_values(g, rng.standard_normal(g.leaf_shape + (2, 2)))
            # the cached coefficients against int ||B||_HS^2
            total = sum((float((c ** 2).sum()) for c in B.coeffs), float((B.mean ** 2).sum()))
            norm2 = float((B.step.values ** 2).sum()) * g.leaf_measure
            assert abs(total - norm2) <= 1e-12 * (np.abs(B.step.values) ** 2).sum()

    def test_grid_mismatch_raises(self):
        g1, g2 = Grid(1, 3), Grid(1, 4)
        B = MatrixSymbol.from_values(g1, np.broadcast_to(np.eye(2), (8, 2, 2)).copy())
        f = StepFunction(g2, np.zeros((16, 2)))
        with pytest.raises(ShapeError):
            paraproduct_op(B)(f)
