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
    _shift_values, dense_matrix, haar_multiplier_op, paraproduct_op,
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


def whitened_summands(D, H, H_inv):
    """Reference splitter: the whitened matrix M = H D H^{-1} of a dense
    operator matrix D, with H and H^{-1} given by their (N, n, n) leaf
    blocks, as the list of its direct summands.

    Rows and columns fall into n component classes (the index mod n).  The
    classes that D, H or H^{-1} couple by a nonzero entry form connected
    components, each a set R of row classes and a set C of column classes.
    An entry of M with row class in R and column class outside C is a sum of
    products H_ia D_ab H^{-1}_bj that each have an exact zero factor, so it is
    an exact zero: after regrouping rows and columns by class, M is the direct
    sum of the blocks M_b = H_RR D_RC H^{-1}_CC, each whitened leafwise with
    the same products as the whole M.  Components without rows or without
    columns carry no nonzero entry and are left out.  When fewer than two
    blocks remain, M is returned whole."""
    N, n = H.shape[:2]
    D4 = D.reshape(N, n, N, n)
    d_pattern = D4.any(axis=0).any(axis=1)
    # when D couples every row class to every column class there is one block
    blocks = [] if d_pattern.all() else coupled_classes(d_pattern, H.any(axis=0),
                                                        H_inv.any(axis=0))
    if len(blocks) < 2:
        dim = N * n
        M = H @ D.reshape(N, n, dim)
        # the right factor as a batched left product: (M H^{-1})^T = H^{-T} M^T
        M = np.swapaxes(H_inv, -1, -2) @ M.reshape(dim, dim).T.reshape(N, n, dim)
        return [M.reshape(dim, dim).T]
    out = []
    for R, C in blocks:
        if len(R) == len(C) == 1:
            # one row and one column class: the leaf blocks are scalars, and
            # scaling rows and columns gives the einsums' bits
            r, c = R[0], C[0]
            out.append((H[:, r, r][:, None] * D4[:, r, :, c]) * H_inv[:, c, c][None, :])
            continue
        left = np.einsum("lia,lamc->limc", H[:, R[:, None], R], D4[:, R][..., C])
        right = np.einsum("limb,mbj->limj", left, H_inv[:, C[:, None], C])
        out.append(right.reshape(N * len(R), N * len(C)))
    return out


def coupled_classes(d_pattern, h_pattern, h_inv_pattern):
    """Connected components (R, C), both sets non-empty, of the n row classes
    and n column classes linked by the n x n nonzero patterns of D (row class
    to column class), of H (row classes) and of H^{-1} (column classes)."""
    n = len(d_pattern)
    link = np.block([[h_pattern, d_pattern], [d_pattern.T, h_inv_pattern]])
    link |= link.T | np.eye(2 * n, dtype=bool)
    for _ in range((2 * n).bit_length()):      # paths of up to 2^k links
        link = link @ link
    first = link.argmax(axis=1)               # smallest node of each component
    parts = [(np.flatnonzero(first[:n] == c), np.flatnonzero(first[n:] == c))
             for c in np.unique(first)]
    return [(R, C) for R, C in parts if len(R) and len(C)]


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
        # the kernels shift f and B f as one stacked pair; the oracle is
        # B Q f - Q(B f) with a shift of each, in both memory orders and for
        # a batch of columns
        from haarweight.operators import _mv, _shift_values
        rng = np.random.default_rng(26)
        g = Grid(d, L)
        B = random_symbol(g, rng)
        sigma = ShiftMap.random_child(g, seed=27)
        op = commutator_op(B, sigma)
        vals, valsT = B.step.values, np.swapaxes(B.step.values, -1, -2)
        x = rng.standard_normal(g.leaf_shape + (2,))
        batch = rng.standard_normal(g.leaf_shape + (2, 3))
        for v in (x, np.asfortranarray(x), batch):
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
        # 512 x 512 blocks: no Cholesky is taken of the whole matrix, and each
        # block is cleared by its own norm bound or by its own 512 x 512
        # Cholesky.  A rotated weight couples the components, and the whole
        # 1024 x 1024 matrix is factored
        from haarweight.experiments import log_swap_symbol
        shapes = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: shapes.append(a.shape) or cholesky(a))
        g = Grid(1, 9)
        op = commutator_op(log_swap_symbol(g), ShiftMap.left_child(g))
        for W, summands, size in ((MatrixWeight.diagonal_power([0.3, -0.3]), 2, 512),
                                  (MatrixWeight.rotated_power([0.4, -0.3], 0.7), 1, 1024)):
            shapes.clear()
            rep = weighted_operator_norm(op, W, 2.0)
            det = rep.details
            assert rep.kind == "exact" and det["summands"] == summands
            assert shapes == [(size, size)] * det["cholesky_summands"]
            assert det["cholesky_summands"] + det["bound_summands"] == summands
            assert det["cholesky_summands"] >= 1
            white = leaf_blocks(g, W, 0.5) @ dense_matrix(op) @ leaf_blocks(g, W, -0.5)
            want = np.linalg.svd(white, compute_uv=False)[0]
            assert rep.value == pytest.approx(want, rel=1e-13)
            assert want <= det["upper"] <= want * (1 + 1e-9)

    def test_a_summand_whose_bound_fails_takes_its_cholesky(self, monkeypatch):
        # at a = 0.5 the paraproduct's smaller summand has sigma 0.49 against
        # 37.1 at L = 9, and its norm bound clears it; with every bound made
        # infinite it is factored instead, and the number and its label stay
        from haarweight.experiments import log_swap_symbol
        g = Grid(1, 7)
        W = MatrixWeight.diagonal_power([0.5, -0.5])
        op = paraproduct_op(log_swap_symbol(g))
        cleared = weighted_operator_norm(op, W, 2.0)
        monkeypatch.setattr(linalg, "_norm_bound", lambda m: np.inf)
        factored = weighted_operator_norm(op, W, 2.0)
        assert cleared.details["bound_summands"] == 1 == cleared.details["cholesky_summands"]
        assert factored.details["bound_summands"] == 0
        assert factored.details["cholesky_summands"] == 2
        assert cleared.kind == factored.kind == "exact"
        assert cleared.value == factored.value
        for det in (cleared.details, factored.details):
            assert type(det["bound_summands"]) is int and type(det["cholesky_summands"]) is int

    def test_one_class_summands_have_the_einsum_bits(self):
        # under a diagonal weight each summand of a swapping or componentwise
        # operator has one row and one column class; scaling its rows and
        # columns gives the bits of the two leafwise einsums
        from haarweight.experiments import log_swap_symbol
        g = Grid(1, 6)
        W = MatrixWeight.diagonal_power([0.3, -0.3])
        gram = W.leaf_averages(g, 1.0)
        H, H_inv = linalg.powm_spd(gram, 0.5), linalg.powm_spd(gram, -0.5)
        N = g.n_leaves
        for op, classes in ((commutator_op(log_swap_symbol(g), ShiftMap.left_child(g)),
                             [(0, 1), (1, 0)]),
                            (shift_op(ShiftMap.random_child(g, seed=3)), [(0, 0), (1, 1)])):
            D = dense_matrix(op)
            got = whitened_summands(D, H, H_inv)
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
        # under a diagonal weight: its table holds two blocks in row class 0,
        # so its whitened matrix is taken whole, as one exact summand with
        # the value of the reference's two summands (one 2-component and one
        # 1-component block) to round-off.  A diagonal multiplier has one
        # block per class, and its three summands come from its table
        g = Grid(1, 5)
        W = MatrixWeight.diagonal_power([0.3, -0.2, 0.5])
        gram = W.leaf_averages(g, 1.0)
        H, H_inv = (linalg.powm_spd(gram, s).reshape(-1, 3, 3) for s in (0.5, -0.5))
        for mat, summands in (([[1.0, 2.0, 0.0], [-0.5, 0.7, 0.0], [0.0, 0.0, 3.0]], 1),
                              (np.diag([1.0, -0.5, 3.0]), 3)):
            op = haar_multiplier_op(MatrixSequence.constant(g, mat))
            rep = weighted_operator_norm(op, W, 2.0)
            white = leaf_blocks(g, W, 0.5) @ dense_matrix(op) @ leaf_blocks(g, W, -0.5)
            want = np.linalg.svd(white, compute_uv=False)[0]
            assert rep.kind == "exact" and rep.details["summands"] == summands
            assert rep.value == pytest.approx(want, rel=1e-13)
            assert want <= rep.details["upper"] <= want * (1 + 1e-9)
            split = linalg.spectral_norm(whitened_summands(dense_matrix(op), H, H_inv))[0]
            assert rep.value == pytest.approx(split, rel=1e-13)

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
            # the norm the power method maximizes: L^3 of the leaf-constant
            # weight (m_leaf W^{2/3})^{3/2}
            return _lp_power(h.values, M, 3.0, g.leaf_measure) ** (1.0 / 3.0)

        f = StepFunction(g, rep.witness)
        achieved = leaf_gauge_norm(op(f)) / leaf_gauge_norm(f)
        assert rep.value == pytest.approx(achieved, rel=1e-12)
        # it is a genuine lower bound for the p-norm ratio over random probes
        assert all(leaf_gauge_norm(op(random_vector(g, rng)))
                   / leaf_gauge_norm(random_vector(g, rng)) <= rep.value * 50
                   for _ in range(3))

    def test_p_not_2_value_never_falls_with_more_steps(self, monkeypatch):
        # one start from the same seed: each step of the power method keeps
        # or raises the estimate, so a larger step cap cannot lower it
        g = Grid(1, 6)
        B = random_symbol(g, np.random.default_rng(4))
        W = MatrixWeight.rotated_power([0.3, -0.2], 0.7)
        monkeypatch.setattr(linalg, "POWER_STARTS", 1)
        for p in (1.25, 3.0):
            values = []
            for steps in (1, 2, 4, 8, 16, 32, 64):
                monkeypatch.setattr(linalg, "POWER_STEPS", steps)
                values.append(weighted_operator_norm(commutator_op(B, ShiftMap.left_child(g)),
                                                     W, p).value)
            assert all(b >= a * (1 - 1e-12) for a, b in zip(values, values[1:])), (p, values)

    @pytest.mark.parametrize("case", ["log-swap-p1.5", "rotated-p1.02", "rotated-p60"])
    def test_p_not_2_value_is_its_witness_ratio(self, case):
        # the value is the leaf-gauge ratio at its witness to round-off, at
        # the log-swap paraproduct under diag(x^0.45, x^-0.45) and at
        # exponents near 1 and far above 2
        from haarweight.experiments import log_swap_symbol
        g = Grid(1, 8)
        if case == "log-swap-p1.5":
            W, p = MatrixWeight.diagonal_power([0.45, -0.45]), 1.5
            op = paraproduct_op(log_swap_symbol(g))
        else:
            W = MatrixWeight.rotated_power([0.02, -0.03], 0.7)
            p = 1.02 if case == "rotated-p1.02" else 60.0
            op = commutator_op(random_symbol(g, np.random.default_rng(5)),
                               ShiftMap.random_child(g, 1))
        rep = weighted_operator_norm(op, W, p)
        M = W.leaf_averages(g, 2.0 / p)
        ratio = (_lp_power(op.kernel(rep.witness), M, p, g.leaf_measure)
                 / _lp_power(rep.witness, M, p, g.leaf_measure)) ** (1.0 / p)
        assert np.isfinite(rep.value) and rep.value == pytest.approx(ratio, rel=1e-12)
        # every start's final ratio is recorded, in start order, and the
        # value is the best of them
        starts = rep.details["start_values"]
        assert len(starts) == linalg.POWER_STARTS and max(starts) == rep.value
        assert all(type(v) is float for v in starts)
        if case == "log-swap-p1.5":
            assert rep.value >= 43.0

    def test_norm_report_json(self):
        g = Grid(1, 2)
        A = MatrixSequence.constant(g, np.eye(2))
        rep = weighted_operator_norm(haar_multiplier_op(A), MatrixWeight.identity(), 2.0)
        import json
        data = json.loads(json.dumps(rep.record()))
        assert data["kind"] == "exact"


def commutators(g):
    """The commutators that the tests assemble, each with its shift map and
    its symbol: one of a random symbol, and the counterexample's log-swap
    commutator at d = 1."""
    rng = np.random.default_rng(g.d * 100 + g.L)
    sigma = ShiftMap.random_child(g, seed=8)
    B = random_symbol(g, rng)
    out = [(commutator_op(B, sigma), sigma, B)]
    if g.d == 1:
        from haarweight.experiments import log_swap_symbol
        left, B = ShiftMap.left_child(g), log_swap_symbol(g)
        out.append((commutator_op(B, left), left, B))
    return out


def assembly_operators(g):
    """One operator of each kind that ``dense_matrix`` assembles, plus the
    counterexample's log-swap commutator at d = 1."""
    rng = np.random.default_rng(g.d * 100 + g.L)
    B = random_symbol(g, rng)
    A = MatrixSequence.random(g, rng=7)
    ops = [paraproduct_op(B), adjoint_paraproduct_op(B), haar_multiplier_op(A),
           shift_op(ShiftMap.random_child(g, seed=8)),
           big_pi_op(A, MatrixWeight.rotated_power([0.4, -0.3], 0.7), 2.0),
           sparse_op(sparse_generate(g, seed=9, density=0.5))]
    return ops + [op for op, _, _ in commutators(g)]


# the operators whose blocks come from a scalar matrix q on the leaves
SCALAR_BUILT = ("haar-shift", "sparse", "commutator")


def vector_push(op):
    """op's matrix from the dim x dim vector identity pushed through its
    kernel in one call."""
    g, dim = op.grid, op.n * op.grid.n_leaves
    return op.kernel(np.eye(dim).reshape(g.leaf_shape + (op.n, dim))).reshape(dim, dim)


def shift_matrix(g, sigma):
    """The shift's scalar matrix q: the N x N identity pushed through the
    shift in one call."""
    N = g.n_leaves
    return _shift_values(sigma, np.eye(N).reshape(g.leaf_shape + (N,))).reshape(N, N)


def commutator_oracle(g, sigma, B):
    """D[(x,i),(y,j)] = q(x,y) (B(x)_ij - B(y)_ij) + 0.0 with q the shift's
    scalar matrix."""
    N = g.n_leaves
    q = shift_matrix(g, sigma).reshape(N, 1, N, 1)
    b = B.step.values.reshape(N, 2, 2)
    diff = b[:, :, None, :] - b.transpose(1, 0, 2)[None]
    return (q * diff + 0.0).reshape(2 * N, 2 * N)


def counted_pushes(monkeypatch):
    """Make ``_identity_image``, which pushes every identity an operator's
    blocks are built from, record each push as (rows of the identity, the
    widths of its column blocks); returns the list of records."""
    from haarweight import operators
    pushes = []
    real = operators._identity_image

    def image(fn, shape):
        widths = []
        pushes.append((int(np.prod(shape)), widths))
        return real(lambda v: widths.append(v.shape[-1]) or fn(v), shape)
    monkeypatch.setattr(operators, "_identity_image", image)
    return pushes


def leaf_ancestors(g, k):
    """Flat C-order index of each leaf's level-k ancestor."""
    coords = np.unravel_index(np.arange(g.n_leaves), g.leaf_shape)
    return np.ravel_multi_index(tuple(c >> (g.L - k) for c in coords), (1 << k,) * g.d)


class TestDenseAssembly:
    @pytest.mark.parametrize("d, L", [(1, 5), (1, 9), (2, 3), (2, 4)])
    def test_column_blocks_give_the_identity_push_bit_for_bit(self, d, L, monkeypatch):
        # each operator pushes one identity, once, in column blocks: the
        # shift, the sparse operator and the commutator the N x N scalar
        # identity, any other the dim x dim vector identity; blocks of 2 and
        # 16 columns and the whole identity give the same bits, and for
        # every operator but the commutator (whose oracles follow) those of
        # the vector identity pushed through the kernel in one call.  A
        # matrix that the blocks view is kept, read-only; one written from
        # blocks of q is written again from the kept q
        g = Grid(d, L)
        N = g.n_leaves
        wants = [vector_push(op) for op in assembly_operators(g)]
        pushes = counted_pushes(monkeypatch)
        firsts = {}
        for width in (2, 16, None):
            for k, (op, want) in enumerate(zip(assembly_operators(g), wants)):
                rows = N if op.name in SCALAR_BUILT else 2 * N
                w = rows if width is None else width
                monkeypatch.setattr(linalg, "BLOCK_BYTES", 8 * rows * w)
                pushes.clear()
                got = dense_matrix(op)
                assert pushes == [(rows, [w] * (rows // w))], (op.name, w)
                first = firsts.setdefault(k, got)
                assert np.array_equal(got, first), (op.name, w)
                assert np.array_equal(np.signbit(got), np.signbit(first)), (op.name, w)
                if op.name != "commutator":
                    assert np.array_equal(got, want), (op.name, w)
                again = dense_matrix(op)
                assert len(pushes) == 1, op.name
                if op.name in SCALAR_BUILT:
                    assert again is not got and np.array_equal(again, got), op.name
                else:
                    assert not got.flags.writeable and again is got, op.name

    def test_operators_without_a_core_take_the_kernel_push(self, monkeypatch):
        # each operator's structure picks its table: the shift and the
        # sparse operator put their kept, read-only q on the diagonal and
        # None off it, the commutator computes new blocks from its kept q on
        # each call, and the paraproducts, the Haar multiplier and big Pi,
        # which have no scalar matrix, view their blocks in the kept matrix
        # of the vector push
        g = Grid(1, 4)
        N = g.n_leaves
        pushes = counted_pushes(monkeypatch)
        for op in assembly_operators(g):
            pushes.clear()
            table, matrix = op.blocks()
            again, _ = op.blocks()
            scalar = op.name in SCALAR_BUILT
            assert [rows for rows, _ in pushes] == [N if scalar else 2 * N], op.name
            assert (matrix is None) == scalar, op.name
            if op.name in ("haar-shift", "sparse"):
                q = table[0][0]
                assert table[1][1] is q and again[0][0] is q and not q.flags.writeable
                assert table[0][1] is None and table[1][0] is None
            elif op.name == "commutator":
                first = [b for row in table for b in row if b is not None]
                second = [b for row in again for b in row if b is not None]
                assert first and all(b.flags.writeable for b in first)
                assert all(a is not b and np.array_equal(a, b) for a, b in zip(first, second))
            else:
                assert again is table
                D4 = matrix.reshape(N, 2, N, 2)
                for i in range(2):
                    for j in range(2):
                        block = table[i][j]
                        assert block is not None and np.shares_memory(block, matrix)
                        assert np.array_equal(block, D4[:, i, :, j]) and not block.flags.writeable

    @pytest.mark.parametrize("d, L", [(1, 5), (1, 9), (2, 3), (2, 4)])
    def test_commutator_is_the_shift_matrix_times_symbol_differences(self, d, L):
        # D[(x,i),(y,j)] = q(x,y) (B(x)_ij - B(y)_ij) + 0.0 bit for bit, with
        # q the scalar identity pushed through the shift in one call
        g = Grid(d, L)
        for op, sigma, B in commutators(g):
            want = commutator_oracle(g, sigma, B)
            got = dense_matrix(op)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("d, L", [(1, 5), (1, 9), (2, 3), (2, 4)])
    def test_commutator_is_within_rounding_of_the_vector_push(self, d, L):
        # Column (y, j) of the vector push is B(x) Q^(e_y e_j) - Q^(b e_y e_j)
        # with b = B(y)_:j, and the dense matrix is fl(q~ fl(B(x)_ij - B(y)_ij))
        # with q~ = Q^ e_y.  Q^ is the analysis, the shift's scatter (exact)
        # and the synthesis: each output is a sum over paths from the input
        # leaf of products of the scale constants, each path through at most
        # m = (2d + 1) L rounded steps (per level of the analysis d butterfly
        # sums and one scaling, and per level of the synthesis one scaling
        # and d butterfly sums), so |Q^(c e_y)(x) - c q(x,y)| <= gamma_m |c| P
        # with P(x, y) the sum of the paths' absolute products: one path per
        # cancellative signature eps and level k < L - 1 with x in sigma(I),
        # I the level-k ancestor of y, of weight |h_sigma(I)(x) h_I(y)| |leaf|
        # = 2^((2k + 1) d / 2 - dL).  The products with B, the difference and
        # the final subtraction add two roundings on each side, so both are
        # within gamma_(m+2) (|B(x)_ij| + |B(y)_ij|) P of the exact entry.
        # Four more allow for the rounded constants 2^(+-kd/2) and two for
        # evaluating the bound.
        g = Grid(d, L)
        N = g.n_leaves
        u = np.finfo(float).eps / 2
        m = (2 * d + 1) * L + 8
        gamma = m * u / (1 - m * u)
        for op, sigma, B in commutators(g):
            P = np.zeros((N, N))
            for k, target in enumerate(sigma.targets):
                inside = leaf_ancestors(g, k + 1)[:, None] == target[leaf_ancestors(g, k)][None, :]
                P += inside * ((2 ** d - 1) * 2.0 ** ((2 * k + 1) * d / 2 - d * L))
            q = shift_matrix(g, sigma)
            assert np.all(np.abs(q) <= P * (1 + gamma)), "P bounds the shift's matrix"
            vec = vector_push(op).reshape(N, 2, N, 2)
            absB = np.abs(B.step.values.reshape(N, 2, 2))
            bound = 2 * gamma * (absB[:, :, None, :] + absB.transpose(1, 0, 2)[None]) * P[:, None, :, None]
            got = dense_matrix(op).reshape(N, 2, N, 2)
            assert np.all(np.abs(got - vec) <= bound)
            assert bound.max() <= 1e-12 * np.abs(got).max()

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


def table_operators(g):
    """One operator of each kind, with whether it leaves the components
    uncoupled (at most one block in each row and column class of its table)
    and its reference matrix, the one-call vector push (the q (B(x) - B(y))
    oracle for the commutator): the paraproduct, its adjoint and the Haar
    multiplier of a random symbol and sequence (which couple the
    components) and of the swap symbol (log-swap at d = 1) and the constant
    swap (which swap them), the embedding, the left-child and a
    random-child shift, the sparse operator, and the left-child commutator
    of a random symbol, of the swap symbol and of one that acts on each
    component alike (scalar-log at d = 1)."""
    from haarweight.experiments import SWAP, log_leaf_means, log_swap_symbol
    rng = np.random.default_rng(g.d * 100 + g.L)
    if g.d == 1:
        swap = log_swap_symbol(g)
        scalar = MatrixSymbol.from_values(g, log_leaf_means(g)[:, None, None] * np.eye(2))
    else:
        b = rng.standard_normal(g.leaf_shape)[..., None, None]
        swap, scalar = (MatrixSymbol.from_values(g, b * m) for m in (SWAP, np.eye(2)))
    B, A = random_symbol(g, rng), MatrixSequence.random(g, rng=7)
    left = ShiftMap.left_child(g)
    pushed = [(paraproduct_op(B), False), (adjoint_paraproduct_op(B), False),
              (haar_multiplier_op(A), False), (paraproduct_op(swap), True),
              (adjoint_paraproduct_op(swap), True),
              (haar_multiplier_op(MatrixSequence.constant(g, SWAP)), True),
              (big_pi_op(A, MatrixWeight.rotated_power([0.4, -0.3], 0.7), 2.0), False),
              (shift_op(left), True), (shift_op(ShiftMap.random_child(g, seed=8)), True),
              (sparse_op(sparse_generate(g, seed=9, density=0.5)), True)]
    symbols = [(random_symbol(g, rng), False), (swap, True), (scalar, True)]
    return ([(op, splits, vector_push(op)) for op, splits in pushed]
            + [(commutator_op(S, left), splits, commutator_oracle(g, left, S))
               for S, splits in symbols])


class TestCoreSummands:
    WEIGHTS = {"identity": MatrixWeight.identity(),
               "diagonal": MatrixWeight.diagonal_power([0.3, -0.2]),
               "rotated": MatrixWeight.rotated_power([0.3, -0.2], 0.7),
               "random-spd": MatrixWeight.random_spd(3, 16.0)}

    @staticmethod
    def halves(g, W):
        """The (N, 2, 2) leaf blocks H = m_leaf(W)^{1/2} and H^{-1}."""
        gram = W.leaf_averages(g, 1.0)
        return (linalg.powm_spd(gram, 0.5).reshape(-1, 2, 2),
                linalg.powm_spd(gram, -0.5).reshape(-1, 2, 2))

    @pytest.mark.parametrize("d, L", [(1, L) for L in range(3, 10)] + [(2, 2), (2, 3), (2, 4)])
    def test_summands_from_the_core_are_the_dense_summands(self, d, L, monkeypatch):
        # every operator's summands have the bits, the count and the order
        # of those that the reference splitter takes off its whitened
        # reference matrix; under a weight with diagonal leaf blocks
        # (identity, diagonal) an operator that leaves the components
        # uncoupled takes them from its table, an operator that couples them
        # is whitened whole, and neither calls ``dense_matrix``; a weight
        # that couples the components (rotated, random SPD) takes the
        # matrix from ``dense_matrix`` and whitens it whole
        from haarweight import operators
        from haarweight.operators import _summands
        g = Grid(d, L)
        writes = []
        real = operators.dense_matrix
        monkeypatch.setattr(operators, "dense_matrix",
                            lambda op: writes.append(op.name) or real(op))
        for op, splits, D in table_operators(g):
            for name, W in self.WEIGHTS.items():
                H, H_inv = self.halves(g, W)
                writes.clear()
                got = _summands(op, H, H_inv)
                want = whitened_summands(D, H, H_inv)
                diagonal = name in ("identity", "diagonal")
                from_table = diagonal and splits
                assert writes == ([] if diagonal else [op.name]), (op.name, name)
                assert len(got) == len(want) == (2 if from_table else 1), (op.name, name)
                for a, b in zip(got, want):
                    assert a.shape == b.shape, (op.name, name)
                    assert a.flags.c_contiguous or not from_table, (op.name, name)
                    assert np.array_equal(a.view(np.int64), b.view(np.int64)), (op.name, name)

    def test_norms_from_the_core_never_write_the_dense_matrix(self, monkeypatch):
        # under a diagonal weight every operator that leaves the components
        # uncoupled takes its certified norm from its table, without the
        # dense-matrix writer and with the whole-matrix path's bits: the
        # shifts, the sparse operator, the swapping and componentwise
        # commutators, and the log-swap paraproduct, its adjoint and the
        # constant-swap multiplier, whose blocks are views of their kept
        # matrix
        from haarweight import operators
        g = Grid(1, 6)
        W = self.WEIGHTS["diagonal"]
        H, H_inv = self.halves(g, W)
        cases = [(op, D) for op, splits, D in table_operators(g) if splits]
        assert {"paraproduct", "haar-multiplier"} <= {op.name for op, _ in cases}
        want = [linalg.spectral_norm(whitened_summands(D, H, H_inv)) for _, D in cases]

        def refuse(op):
            raise AssertionError("the dense matrix was written")
        monkeypatch.setattr(operators, "dense_matrix", refuse)
        for (op, _), (value, cert) in zip(cases, want):
            rep = weighted_operator_norm(op, W, 2.0)
            assert rep.kind == "exact" and rep.details["summands"] == 2, op.name
            assert rep.value == value and rep.details["upper"] == cert["upper"], op.name

    def test_l10_commutator_norm_holds_no_dense_matrix(self):
        # the counterexample's certified norm at L = 10 (dim 2048) under
        # diag(x^0.1, x^-0.1): two 8 MiB summands and their Gram stage, not
        # the 32 MiB dense matrix (the whole-matrix path traced 65.8 MiB)
        import tracemalloc
        from haarweight.experiments import log_swap_symbol
        g = Grid(1, 10)
        op = commutator_op(log_swap_symbol(g), ShiftMap.left_child(g))
        W = MatrixWeight.diagonal_power([0.1, -0.1])
        tracemalloc.start()
        try:
            rep = weighted_operator_norm(op, W, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.kind == "exact" and rep.details["summands"] == 2
        assert peak <= 45 * 2 ** 20

    @pytest.mark.parametrize("case", ["paraproduct-diagonal", "commutator-rotated",
                                      "commutator-random-diagonal"])
    def test_l10_norm_peaks(self, case):
        # one certified norm at L = 10 (dim 2048, 32 MiB matrices), fresh
        # operator included.  The log-swap paraproduct under
        # diag(x^0.1, x^-0.1) keeps its pushed matrix, whose blocks its two
        # summands are whitened from (65.8 MiB traced).  The commutator under
        # a rotated weight writes its matrix from q for this norm only, so
        # its certified bracket holds q (8 MiB) beside the whitened matrix
        # and its Gram stage, not a kept 32 MiB matrix (129.8 MiB traced
        # when the matrix was kept).  A random-symbol commutator couples the
        # components, and under diag(x^0.3, x^-0.2) its table of four new
        # 8 MiB blocks is written into the matrix and dropped before the
        # matrix is whitened whole (136.1 MiB traced when the table was held
        # through the whitening)
        import tracemalloc
        from haarweight.experiments import log_swap_symbol
        g = Grid(1, 10)
        if case == "paraproduct-diagonal":
            op, W, limit = (paraproduct_op(log_swap_symbol(g)),
                            MatrixWeight.diagonal_power([0.1, -0.1]), 66)
        elif case == "commutator-rotated":
            op, W, limit = (commutator_op(log_swap_symbol(g), ShiftMap.left_child(g)),
                            MatrixWeight.rotated_power([0.3, -0.2], 0.7), 106)
        else:
            op, W, limit = (commutator_op(random_symbol(g, np.random.default_rng(10)),
                                          ShiftMap.left_child(g)),
                            MatrixWeight.diagonal_power([0.3, -0.2]), 105)
        tracemalloc.start()
        try:
            rep = weighted_operator_norm(op, W, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.kind == "exact"
        assert peak <= limit * 2 ** 20

    @pytest.mark.parametrize("d, L", [(1, 5), (2, 3)])
    def test_one_table_read_per_norm(self, d, L):
        # one dense norm asks for op's table once, under every weight: a
        # table that is not split is written into the matrix from the same
        # read, not built again by ``dense_matrix``
        g = Grid(d, L)
        for op, _, _ in table_operators(g):
            blocks = op.blocks
            for name, W in self.WEIGHTS.items():
                calls = []
                op.blocks = lambda: calls.append(1) or blocks()
                weighted_operator_norm(op, W, 2.0)
                assert len(calls) == 1, (op.name, name)

    def test_tables_are_none_exactly_where_a_block_is_zero(self):
        # at L = 1 the shift's q vanishes, so the shift and the log-swap
        # commutator have no nonzero block; a constant symbol makes every
        # commutator block zero; at L = 5 the log-swap commutator has its
        # two off-diagonal blocks.  None marks exactly the zero blocks of the
        # reference matrix (the vector push, or the q (B(x) - B(y)) oracle)
        from haarweight.experiments import log_swap_symbol
        cases = []
        for L in (1, 5):
            g = Grid(1, L)
            left = ShiftMap.left_child(g)
            cases.append((shift_op(left), vector_push(shift_op(left))))
            B = log_swap_symbol(g)
            cases.append((commutator_op(B, left), commutator_oracle(g, left, B)))
        g = Grid(1, 4)
        left = ShiftMap.left_child(g)
        B = MatrixSymbol.from_values(g, np.broadcast_to([[1.0, 2.0], [-3.0, 0.5]], (16, 2, 2)).copy())
        cases.append((commutator_op(B, left), commutator_oracle(g, left, B)))
        for op, D in cases:
            N = op.grid.n_leaves
            D4 = D.reshape(N, 2, N, 2)
            table, _ = op.blocks()
            zero = [[not D4[:, i, :, j].any() for j in range(2)] for i in range(2)]
            assert [[block is None for block in row] for row in table] == zero, \
                (op.name, op.grid.L)
        live = [[block is not None for block in row] for row in cases[3][0].blocks()[0]]
        assert live == [[False, True], [True, False]]


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
