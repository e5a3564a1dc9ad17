"""Operator tests: paraproducts, multipliers, shifts, commutators, norms.

The dense-matrix adjoint oracle features throughout: each operator's adjoint
kernel must match the transpose of its dense leaf-basis matrix exactly.
"""

import numpy as np
import pytest

from haarweight.dyadic import Cube, Grid, StepFunction, haar_analyze, haar_transform
from haarweight.errors import ShapeError, ShiftMapError
from haarweight.operators import (
    MatrixSequence, MatrixSymbol, NormReport, Operator, ShiftMap,
    adjoint_paraproduct_op, big_pi_op, commutator_case_sum, commutator_op,
    dense_matrix, haar_multiplier_op, multiplication_op, paraproduct_op,
    product_decomposition_values, shift_op, square_function,
    weighted_operator_norm,
)
from haarweight.maximal import sparse_generate, sparse_op
from haarweight.weights import MatrixWeight, lp_norm
from haarweight import linalg


def random_symbol(grid, rng, scale=1.0):
    return MatrixSymbol.from_values(grid, rng.standard_normal(grid.leaf_shape + (2, 2)) * scale)


def random_vector(grid, rng):
    return StepFunction(grid, rng.standard_normal(grid.leaf_shape + (2,)))


def leaf_blocks(grid, W, s):
    """Explicit block-diagonal matrix of m_leaf(W)^s, one 2x2 block per leaf."""
    blocks = linalg.powm_spd(W.leaf_averages(grid, 1.0), s).reshape(-1, 2, 2)
    out = np.zeros((2 * len(blocks),) * 2)
    for l, b in enumerate(blocks):
        out[2 * l:2 * l + 2, 2 * l:2 * l + 2] = b
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
        f = StepFunction.constant(g, e)
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
        A = MatrixSequence.random(g, rng=7, haar_normalized=False)
        got = weighted_operator_norm(haar_multiplier_op(A), MatrixWeight.identity(), 2.0)
        want = max(np.linalg.svd(a.reshape(-1, 2, 2), compute_uv=False)[..., 0].max()
                   for a in A.levels)
        assert got.kind == "exact"
        assert got.value == pytest.approx(want, rel=1e-10)

    def test_single_block_norm(self):
        g = Grid(1, 3)
        A = MatrixSequence.zeros(g).with_entry(1, (0,), 0, np.diag([3.0, 0.0]))
        got = weighted_operator_norm(haar_multiplier_op(A), MatrixWeight.identity(), 2.0)
        assert got.value == pytest.approx(3.0, rel=1e-12)


class TestShift:
    def test_mean_only_input_gives_zero(self):
        g = Grid(1, 4)
        f = StepFunction.constant(g, np.array([1.0, 2.0]))
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
        """Q_sigma on coefficient levels with targets from a meshgrid and the
        forward scatter by np.add.at."""
        d = sigma.grid.d
        flat = lambda a: a.reshape((-1,) + a.shape[d:])
        out = [np.zeros_like(c) for c in fc]
        for k in range(len(fc) - 1):
            side = 1 << k
            grids = np.meshgrid(*[np.arange(side)] * d, indexing="ij")
            tgt = np.zeros((side,) * d, dtype=int)
            for ax in range(d):
                tgt = tgt * (2 * side) + 2 * grids[ax] + sigma.corners[k][..., ax]
            tgt = tgt.reshape(-1)
            if adjoint:
                src = np.moveaxis(flat(fc[k + 1])[tgt].reshape(fc[k].shape), d, 0)
                dst = np.moveaxis(out[k], d, 0)
                for s, t in enumerate(sigma.sig_map):
                    dst[s] += src[t]
                continue
            relabeled = np.zeros_like(fc[k])
            src, dst = np.moveaxis(fc[k], d, 0), np.moveaxis(relabeled, d, 0)
            for s, t in enumerate(sigma.sig_map):
                dst[t] += src[s]
            np.add.at(flat(out[k + 1]), tgt, flat(relabeled))
        return out

    @pytest.mark.parametrize("d,L,sig_map", [(1, 6, None), (2, 4, None), (2, 4, [2, 0, 1]),
                                             (2, 4, [1, 1, 0])])
    def test_scatter_and_gather_match_add_at_oracle(self, d, L, sig_map):
        from haarweight.operators import _shift_levels
        rng = np.random.default_rng(45)
        g = Grid(d, L)
        sigma = ShiftMap.random_child(g, seed=46, sig_map=sig_map)
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

    def test_invalid_corner_shape(self):
        g = Grid(1, 2)
        with pytest.raises(ShiftMapError):
            ShiftMap(g, [np.zeros((1, 1), dtype=int), np.zeros((2, 1), dtype=int), np.zeros((4, 1), dtype=int)])

    def test_signature_map_validation(self):
        g = Grid(2, 2)
        with pytest.raises(ShiftMapError):
            ShiftMap.left_child(g, sig_map=[0, 1, 3])


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
        A = MatrixSequence.zeros(g)
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


class TestSquareFunction:
    def test_identity_weight_parseval(self):
        rng = np.random.default_rng(18)
        g = Grid(1, 5)
        vals = rng.standard_normal(g.leaf_shape + (2,))
        vals -= vals.mean(axis=0)
        f = StepFunction(g, vals)
        _, agg = square_function(MatrixWeight.identity(), f)
        assert agg == pytest.approx(f.norm_l2() ** 2, rel=1e-12)

    def test_single_coefficient(self):
        g = Grid(1, 3)
        W = MatrixWeight.random_spd(31)
        mean = np.zeros(2)
        _, coeffs, _ = haar_analyze(np.zeros((8, 2)), 1, 3)
        e = np.array([0.6, -0.8])
        coeffs[1][1, 0] = e
        from haarweight.dyadic import haar_synthesize
        f = StepFunction(g, haar_synthesize(mean, coeffs, 1, 3))
        _, agg = square_function(W, f)
        from haarweight.weights import cell_average
        from haarweight import linalg
        V = linalg.sqrtm_spd(cell_average(W, Cube(1, (1,)), g))
        assert agg == pytest.approx(((V @ e) ** 2).sum(), rel=1e-10)


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
            ratio = lp_norm(op(f), W, 2.0) / lp_norm(f, W, 2.0)
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
        assert lp_norm(op(f), W, 2.0) / lp_norm(f, W, 2.0) == pytest.approx(rep.value, rel=1e-10)

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
        assert lp_norm(op(f), W, 2.0) / lp_norm(f, W, 2.0) == pytest.approx(rep.value, rel=1e-10)

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

    def test_p_not_2_lower_bound(self):
        rng = np.random.default_rng(21)
        g = Grid(1, 3)
        W = MatrixWeight.diagonal_power([0.4, -0.4])
        B = random_symbol(g, rng)
        op = paraproduct_op(B)
        rep = weighted_operator_norm(op, W, 3.0)
        assert rep.kind == "lower-bound"
        f = StepFunction(g, rep.witness)
        achieved = lp_norm(op(f), W, 3.0) / lp_norm(f, W, 3.0)
        assert rep.value == pytest.approx(achieved, rel=1e-6)
        # it is a genuine lower bound for the p-norm ratio over random probes
        assert all(lp_norm(op(random_vector(g, rng)), W, 3.0)
                   / lp_norm(random_vector(g, rng), W, 3.0) <= rep.value * 50
                   for _ in range(3))

    def test_norm_report_json(self):
        g = Grid(1, 2)
        A = MatrixSequence.constant(g, np.eye(2))
        rep = weighted_operator_norm(haar_multiplier_op(A), MatrixWeight.identity(), 2.0)
        import json
        data = json.loads(json.dumps(rep.record()))
        assert data["kind"] == "exact"


class TestAdjointKernels:
    def test_all_adjoints_match_dense_transpose(self):
        rng = np.random.default_rng(22)
        g = Grid(1, 4)
        B = random_symbol(g, rng)
        A = MatrixSequence.random(g, rng=33)
        sigma = ShiftMap.random_child(g, seed=44, sig_map=[0])
        ops = [paraproduct_op(B), adjoint_paraproduct_op(B), haar_multiplier_op(A),
               shift_op(sigma), multiplication_op(B), commutator_op(B, sigma),
               big_pi_op(A, MatrixWeight.random_spd(23, cond=9.0), 2.0)]
        for op in ops:
            M = dense_matrix(op)
            MT = dense_matrix(Operator(op.grid, op.n, op.kernel_T))
            np.testing.assert_allclose(MT, M.T, atol=1e-12, err_msg=op.name)

    def test_adjoints_d2_with_noninjective_sig(self):
        rng = np.random.default_rng(23)
        g = Grid(2, 2)
        sigma = ShiftMap.random_child(g, seed=5, sig_map=[2, 2, 0])
        op = shift_op(sigma)
        M = dense_matrix(op)
        MT = dense_matrix(Operator(op.grid, op.n, op.kernel_T))
        np.testing.assert_allclose(MT, M.T, atol=1e-12)


class TestSymbolInvariants:
    def test_symbol_parseval(self):
        rng = np.random.default_rng(24)
        for d, L in [(1, 5), (2, 3)]:
            g = Grid(d, L)
            B = MatrixSymbol.from_values(g, rng.standard_normal(g.leaf_shape + (2, 2)))
            assert B.hs_parseval_gap() <= 1e-12 * (np.abs(B.step.values) ** 2).sum()

    def test_grid_mismatch_raises(self):
        g1, g2 = Grid(1, 3), Grid(1, 4)
        B = MatrixSymbol.from_values(g1, np.broadcast_to(np.eye(2), (8, 2, 2)).copy())
        f = StepFunction(g2, np.zeros((16, 2)))
        with pytest.raises(ShapeError):
            paraproduct_op(B)(f)
