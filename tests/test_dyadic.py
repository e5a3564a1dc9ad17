"""Grid, Haar transform, covering, and Carleson-lemma tests.

Expected values for the worked examples were computed with independent
oracles: direct leaf-cell integration for Haar coefficients, exhaustive
pointwise products for the signature rule, and explicit chain walks for the
sequence maximal function.
"""

import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

from haarweight import dyadic as dy
from haarweight.dyadic import (
    Cube, Grid, StepFunction, carleson_intensity, chain_sum, find_covering_cube,
    haar_analyze, haar_synthesize, sequence_maximal, signature_product, signatures,
)
from haarweight.errors import ShapeError


def cubes_at_level(grid, k):
    """The standard-grid cubes of level k in C order of their offsets."""
    return [Cube(k, m) for m in itertools.product(range(1 << k), repeat=grid.d)]


def coefficient(coeffs, grid, cube, eps):
    """The single coefficient f_I^eps of ``haar_analyze``'s levels."""
    return coeffs[cube.level][cube.offset + (signatures(grid.d).index(tuple(eps)),)]


def haar_leaf_values(grid, cube_offset, level, eps):
    """Oracle: leaf values of h_I^eps by direct evaluation of the tensor
    product of one-dimensional Haar functions."""
    d, L = grid.d, grid.L
    side = 1 << L
    vals = np.ones((side,) * d)
    for axis in range(d):
        lo = cube_offset[axis] << (L - level)
        width = 1 << (L - level)
        axis_vals = np.zeros(side)
        cell = np.ones(width) * 2.0 ** (level / 2.0)
        if eps[axis] == 0:
            cell[width // 2:] *= -1.0
        axis_vals[lo:lo + width] = cell
        shape = [1] * d
        shape[axis] = side
        vals = vals * axis_vals.reshape(shape)
    return vals


class TestGrid:
    def test_leaves_partition_base_cube(self):
        g = Grid(2, 2)
        leaves = cubes_at_level(g, 2)
        assert len(leaves) == 16
        covered = set()
        for leaf in leaves:
            (a0, b0), (a1, b1) = leaf.bounds()
            covered.add((a0, a1))
            assert 0 <= a0 < b0 <= 1
        assert len(covered) == 16

    def test_measure_exact(self):
        c = Cube(2, (1, 3))
        assert c.measure == 2.0 ** (-4)

    def test_fields_and_bad_values(self):
        # a grid is its dimension and depth; a cube knows no grid
        assert [f.name for f in dataclasses.fields(Grid)] == ["d", "L"]
        assert [f.name for f in dataclasses.fields(Cube)] == ["level", "offset", "shift"]
        assert Grid(np.int64(2), 3) == Grid(2, 3)
        assert hash(Grid(np.int64(2), 3)) == hash(Grid(2, 3))
        for d, L in [(1.5, 8), (True, 3), (1, 0), (0, 2), (1, "3")]:
            with pytest.raises(ValueError):
                Grid(d, L)


class TestSignatures:
    def test_signature_set_size(self):
        for d in (1, 2, 3):
            assert len(signatures(d)) == 2 ** d - 1

    def test_product_rule_examples(self):
        assert signature_product((0,), (0,)) == (1,)
        assert signature_product((0, 1), (0, 1)) == (1, 1)
        assert signature_product((0, 1), (1, 0)) == (0, 0)

    def test_product_rule_pointwise_oracle(self):
        # |I|^{1/2} h^eps h^{eps'} = h^{psi} at every leaf
        g = Grid(2, 2)
        all_sigs = list(itertools.product((0, 1), repeat=2))
        for eps, eps_p in itertools.product(signatures(2), repeat=2):
            psi = signature_product(eps, eps_p)
            for cube in cubes_at_level(g, 1):
                ha = haar_leaf_values(g, cube.offset, 1, eps)
                hb = haar_leaf_values(g, cube.offset, 1, eps_p)
                hpsi = haar_leaf_values(g, cube.offset, 1, psi)
                meas_sqrt = cube.measure ** 0.5
                np.testing.assert_allclose(meas_sqrt * ha * hb, hpsi, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            signature_product((0,), (0, 1))


class TestHaarTransform:
    def test_two_cell_oracle(self):
        g = Grid(1, 1)
        mean, coeffs, _ = haar_analyze(np.array([1.0, 0.0]), 1, 1)
        assert mean == pytest.approx(0.5)
        assert coefficient(coeffs, g, g.root(), (0,)) == pytest.approx(0.5)

    def test_constant_is_cancellative(self):
        g = Grid(2, 3)
        mean, coeffs, _ = haar_analyze(np.full(g.leaf_shape, 3.7), 2, 3)
        assert mean == pytest.approx(3.7)
        for c in coeffs:
            np.testing.assert_allclose(c, 0.0)

    def test_four_cell_oracle(self):
        g = Grid(2, 1)
        vals = np.zeros((2, 2))
        vals[0, 0] = 1.0
        mean, coeffs, _ = haar_analyze(vals, 2, 1)
        for eps in signatures(2):
            assert abs(coefficient(coeffs, g, g.root(), eps)) == pytest.approx(0.25)
        assert coefficient(coeffs, g, g.root(), (0, 0)) == pytest.approx(0.25)
        assert mean == pytest.approx(0.25)

    def test_coefficients_against_leaf_integration(self):
        # brute-force oracle: f_I^eps = sum over leaves of f * h_I^eps * leaf measure
        rng = np.random.default_rng(7)
        for d, L in [(1, 3), (2, 2)]:
            g = Grid(d, L)
            f = StepFunction(g, rng.standard_normal(g.leaf_shape))
            _, coeffs, _ = haar_analyze(f.values, d, L)
            for k in range(L):
                for cube in cubes_at_level(g, k):
                    for eps in signatures(d):
                        h = haar_leaf_values(g, cube.offset, k, eps)
                        want = (f.values * h).sum() * g.leaf_measure
                        got = coefficient(coeffs, g, cube, eps)
                        assert got == pytest.approx(want, abs=1e-12)

    def test_orthonormality_by_leaf_summation(self):
        g = Grid(1, 3)
        systems = []
        for k in range(3):
            for cube in cubes_at_level(g, k):
                for eps in signatures(1):
                    systems.append(haar_leaf_values(g, cube.offset, k, eps))
        gram = np.array([[(a * b).sum() * g.leaf_measure for b in systems] for a in systems])
        np.testing.assert_allclose(gram, np.eye(len(systems)), atol=1e-12)

    def test_orthonormality_d2(self):
        g = Grid(2, 2)
        systems = []
        for k in range(2):
            for cube in cubes_at_level(g, k):
                for eps in signatures(2):
                    systems.append(haar_leaf_values(g, cube.offset, k, eps))
        gram = np.array([[(a * b).sum() * g.leaf_measure for b in systems] for a in systems])
        np.testing.assert_allclose(gram, np.eye(len(systems)), atol=1e-12)

    @pytest.mark.parametrize("d,L", [(1, 4), (1, 10), (2, 4)])
    def test_parseval_and_roundtrip_random(self, d, L):
        rng = np.random.default_rng(11 + d + L)
        g = Grid(d, L)
        f = StepFunction(g, rng.standard_normal(g.leaf_shape + (2,)))
        mean, coeffs, _ = haar_analyze(f.values, d, L)
        norm2 = (f.values ** 2).sum() * g.leaf_measure
        total = sum((float((c ** 2).sum()) for c in coeffs), float((mean ** 2).sum()))
        assert abs(total - norm2) <= 1e-12 * norm2
        back = haar_synthesize(mean, coeffs, d, L)
        np.testing.assert_allclose(back, f.values, atol=1e-12)

    def test_single_coefficient_reconstruction(self):
        out = haar_synthesize(np.array(0.0), [np.array([[1.0]])], 1, 1)
        np.testing.assert_allclose(out, [1.0, -1.0])

    def test_zero_coefficients_give_constant(self):
        out = haar_synthesize(np.array(2.5), [np.zeros((1, 1, 3)), np.zeros((2, 2, 3))], 2, 2)
        np.testing.assert_allclose(out, 2.5)

    def test_shape_mismatch_raises(self):
        g = Grid(1, 2)
        with pytest.raises(ShapeError):
            StepFunction(g, np.zeros(7))

    def test_kind_follows_value_shape(self):
        g = Grid(2, 1)
        for vshape, kind in [((), "scalar"), ((3,), "vector"), ((3, 3), "matrix")]:
            assert StepFunction(g, np.zeros(g.leaf_shape + vshape)).kind == kind
        for vshape in [(2, 3), (2, 2, 2)]:
            with pytest.raises(ShapeError):
                StepFunction(g, np.zeros(g.leaf_shape + vshape))


def sign_table(d):
    """Oracle: signs of h^eps on the 2^d child corners, S[sig, corner] =
    (-1)^(sum of the corner bits where eps is 0), corners flattened in lex
    (first axis major) order."""
    corners = list(itertools.product((0, 1), repeat=d))
    return np.array([[(-1.0) ** sum(c for e, c in zip(eps, corner) if e == 0)
                      for corner in corners] for eps in signatures(d)])


def split_children(a, d):
    """Oracle layout: (2m,)*d + rest -> (m,)*d + rest + (2^d,), corners trailing."""
    for ax in range(d):
        a = a.reshape(a.shape[:ax] + (a.shape[ax] // 2, 2) + a.shape[ax + 1:])
        a = np.moveaxis(a, ax + 1, -1)
    return a.reshape(a.shape[:-d] + (1 << d,))


def merge_children(a, d):
    """Inverse of split_children."""
    a = a.reshape(a.shape[:-1] + (2,) * d)
    for ax in reversed(range(d)):
        a = np.moveaxis(a, -1, ax + 1)
        a = a.reshape(a.shape[:ax] + (a.shape[ax] * 2,) + a.shape[ax + 2:])
    return a


def mean_oracle(a, d):
    """One level of cube means by np.mean over each child axis in turn."""
    for ax in range(d):
        a = a.reshape(a.shape[:ax] + (a.shape[ax] // 2, 2) + a.shape[ax + 1:]).mean(axis=ax + 1)
    return a


def analyze_oracle(values, d, L):
    """The sign-table transform: np.mean pyramid, then children @ sign table."""
    means = [None] * L + [np.asarray(values, dtype=float)]
    for k in range(L - 1, -1, -1):
        means[k] = mean_oracle(means[k + 1], d)
    coeffs = [np.moveaxis(split_children(means[k + 1], d) @ sign_table(d).T, -1, d)
              * (2.0 ** (-k * d / 2.0) / (1 << d)) for k in range(L)]
    return means[0][(0,) * d], coeffs, means


def synthesize_oracle(mean, coeffs, d, L):
    cur = np.broadcast_to(mean, (1,) * d + np.shape(mean))
    for k in range(L):
        contrib = np.moveaxis(coeffs[k], d, -1) @ sign_table(d)
        cur = merge_children(contrib * 2.0 ** (k * d / 2.0) + cur[..., None], d)
    return cur


class TestButterflyKernels:
    """The per-axis butterflies against the sign-table transform they replace."""

    @pytest.mark.parametrize("rest", [(), (2,), (2, 2), (2, 2 << 7)])
    def test_d1_bit_identical_to_sign_table(self, rest):
        # vector, matrix and dense-assembly (2^L, n, dim) shapes
        L = 7
        x = np.random.default_rng(31).standard_normal((1 << L,) + rest)
        mean, coeffs, means = dy.haar_analyze(x, 1, L)
        o_mean, o_coeffs, o_means = analyze_oracle(x, 1, L)
        assert np.array_equal(mean, o_mean)
        assert all(np.array_equal(a, b) for a, b in zip(coeffs, o_coeffs))
        assert all(np.array_equal(a, b) for a, b in zip(means, o_means))
        assert np.array_equal(dy.haar_synthesize(mean, coeffs, 1, L),
                              synthesize_oracle(mean, coeffs, 1, L))

    @pytest.mark.parametrize("d,L,rest", [(2, 4, ()), (2, 3, (2, 3)), (3, 3, (2,)), (3, 2, (2, 2))])
    def test_d2_d3_agree_with_sign_table(self, d, L, rest):
        x = np.random.default_rng(32 + d).standard_normal((1 << L,) * d + rest)
        tol = 8 * np.finfo(float).eps * np.abs(x).max()
        mean, coeffs, means = dy.haar_analyze(x, d, L)
        o_mean, o_coeffs, o_means = analyze_oracle(x, d, L)
        assert np.abs(mean - o_mean).max() <= tol
        assert max(np.abs(a - b).max() for a, b in zip(coeffs, o_coeffs)) <= tol
        assert max(np.abs(a - b).max() for a, b in zip(means, o_means)) <= tol
        back = dy.haar_synthesize(mean, coeffs, d, L)
        assert np.abs(back - synthesize_oracle(mean, coeffs, d, L)).max() <= tol
        assert np.abs(back - x).max() <= tol

    @pytest.mark.parametrize("d,L,rest", [(1, 6, (2,)), (1, 5, (2, 2, 3)), (2, 3, (2,)),
                                          (2, 3, (2, 3))])
    def test_transforms_keep_the_memory_order_bit_for_bit(self, d, L, rest):
        # a leaf-contiguous (Fortran-ordered) input gives Fortran-ordered
        # levels and leaf values with the C-ordered input's bits; at d = 1
        # with vector values level 0 is shaped (1, 1, 2) and is C-contiguous
        # too, so the synthesis reads its order from the finest level
        x = np.random.default_rng(34).standard_normal((1 << L,) * d + rest)
        xf = np.asfortranarray(x)
        mean, coeffs, means = dy.haar_analyze(x, d, L)
        f_mean, f_coeffs, f_means = dy.haar_analyze(xf, d, L)
        assert np.array_equal(mean, f_mean)
        for a, b in zip(coeffs + means, f_coeffs + f_means):
            assert np.array_equal(a, b)
            assert dy.memory_order(a) == "C"
            assert b.flags.f_contiguous
        assert dy.memory_order(f_coeffs[-1]) == "F"
        back, f_back = (dy.haar_synthesize(mean, coeffs, d, L),
                        dy.haar_synthesize(mean, f_coeffs, d, L))
        assert np.array_equal(back, f_back)
        assert dy.memory_order(back) == "C" and dy.memory_order(f_back) == "F"

    @pytest.mark.parametrize("d", [1, 2])
    def test_coarsening_bit_identical_to_numpy(self, d):
        x = np.random.default_rng(33).standard_normal((16,) * d + (3,))
        assert np.array_equal(dy.coarsen_levels(x, d, 1), mean_oracle(x, d))
        assert np.array_equal(dy.coarsen_levels(x, d, 3),
                              mean_oracle(mean_oracle(mean_oracle(x, d), d), d))
        summed = x
        for ax in range(d):
            summed = summed.reshape(summed.shape[:ax] + (summed.shape[ax] // 2, 2)
                                    + summed.shape[ax + 1:]).sum(axis=ax + 1)
        assert np.array_equal(dy.coarsen_sum(x, d), summed)
        # the cube axes may start after leading value axes
        y = np.moveaxis(x, -1, 0)
        assert np.array_equal(dy.coarsen_levels(y, d, 2, axis=1),
                              np.moveaxis(dy.coarsen_levels(x, d, 2), -1, 0))


class TestCovering:
    def test_dyadic_input(self):
        t, cube = find_covering_cube([Fraction(0)], [Fraction(1, 4)])
        (a, b), = cube.bounds()
        assert a <= 0 and b >= Fraction(1, 4)
        assert b - a <= Fraction(6, 4)

    def test_straddling_interval(self):
        t, cube = find_covering_cube([Fraction(2, 5)], [Fraction(3, 5)])
        (a, b), = cube.bounds()
        assert a <= Fraction(2, 5) and Fraction(3, 5) <= b
        assert b - a <= 6 * Fraction(1, 5)

    def test_random_intervals_d1(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            den = int(rng.integers(8, 4096))
            a = int(rng.integers(0, den - 1))
            w = int(rng.integers(1, den - a))
            lo, hi = Fraction(a, den), Fraction(a + w, den)
            t, cube = find_covering_cube([lo], [hi])
            (ca, cb), = cube.bounds()
            assert ca <= lo and hi <= cb
            assert cb - ca <= 6 * (hi - lo)

    def test_random_cubes_d2(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            den = int(rng.integers(8, 512))
            a0, a1 = (int(rng.integers(0, den - 2)) for _ in range(2))
            w = int(rng.integers(1, den - max(a0, a1)))
            lo = [Fraction(a0, den), Fraction(a1, den)]
            hi = [Fraction(a0 + w, den), Fraction(a1 + w, den)]
            t, cube = find_covering_cube(lo, hi)
            for (ca, cb), l, h in zip(cube.bounds(), lo, hi):
                assert ca <= l and h <= cb
                assert cb - ca <= 6 * Fraction(w, den)


class TestSequenceMaximal:
    def test_all_ones(self):
        g = Grid(1, 3)
        levels = [np.ones((1 << k,)) for k in range(4)]
        np.testing.assert_allclose(sequence_maximal(levels, 1), 1.0)

    def test_root_only(self):
        g = Grid(2, 2)
        levels = [np.zeros((1 << k,) * 2) for k in range(3)]
        levels[0][0, 0] = 3.0
        np.testing.assert_allclose(sequence_maximal(levels, 2), 3.0)

    def test_random_chain_walk_oracle(self):
        rng = np.random.default_rng(9)
        g = Grid(1, 3)
        levels = [rng.random((1 << k,)) for k in range(4)]
        out = sequence_maximal(levels, 1)
        for leaf in range(8):
            chain = [levels[k][leaf >> (3 - k)] for k in range(4)]
            assert out[leaf] == pytest.approx(max(chain))

    def test_chain_sum_walk_oracle(self):
        rng = np.random.default_rng(10)
        levels = [rng.random((1 << k,) * 2) for k in range(4)]
        out = chain_sum(levels, 2)
        for i in range(8):
            for j in range(8):
                chain = [levels[k][i >> (3 - k), j >> (3 - k)] for k in range(4)]
                assert out[i, j] == pytest.approx(sum(chain), rel=1e-14)

    def test_per_level_input(self):
        # the root carries 2 and the last leaf 5; every other cube 0
        levels = [np.array([2.0]), np.zeros(2), np.array([0.0, 0.0, 0.0, 5.0])]
        out = sequence_maximal(levels, 1)
        np.testing.assert_allclose(out, [2.0, 2.0, 2.0, 5.0])


class TestAncestorAverages:
    @pytest.mark.parametrize("d, L", [(1, 6), (2, 3)])
    def test_streamed_walk_matches_the_table(self, d, L, monkeypatch):
        # integer entries below 2^10 make every cube mean exact, so the
        # whole-table oracle averages each ancestor's leaves directly; x-row
        # blocks of two rows, of a quarter of the rows and of all of them
        # give its values bit for bit
        from haarweight import linalg
        g = Grid(d, L)
        N = g.n_leaves
        table = np.random.default_rng(10 * d + L).integers(0, 1 << 10, (N, N)).astype(float)
        assert len(np.unique(table, axis=0)) == N
        coords = np.array(np.unravel_index(np.arange(N), g.leaf_shape))
        want = np.empty((L + 1, N))
        for k in range(L + 1):
            anc = coords >> (L - k)
            same = (anc[:, :, None] == anc[:, None, :]).all(axis=0)   # y in x's ancestor
            want[k] = (table * same).sum(axis=1) / same.sum(axis=1)
        blocks, buffers = [], set()

        def pair_rows(block, buf):
            blocks.append(block)
            buffers.add(id(buf))
            buf[...] = table[block]
            return buf

        for rows in (2, N // 4, N):
            monkeypatch.setattr(linalg, "BLOCK_BYTES", 8 * N * rows)
            blocks.clear()
            buffers.clear()
            got = dy.ancestor_averages(pair_rows, g)
            assert np.array_equal(got, want)
            assert blocks == [slice(lo, lo + rows) for lo in range(0, N, rows)]
            assert len(buffers) == 1            # every block in one buffer


class TestCarlesonLemma:
    def test_intensity_and_bound_random(self):
        # sum_I a_I lam_I^eps <= C * integral of the chain maximal function,
        # both sides by direct summation
        rng = np.random.default_rng(21)
        g = Grid(1, 4)
        for _ in range(25):
            lam = [rng.random((1 << k, 1)) * rng.random() for k in range(4)]
            a = [rng.random((1 << k,)) for k in range(5)]
            C, _ = carleson_intensity(lam, 1)
            lhs = sum((lam[k][..., 0] * a[k]).sum() for k in range(4))
            astar = sequence_maximal(a, 1)
            rhs = C * astar.sum() * g.leaf_measure
            assert lhs <= rhs * (1 + 1e-12)

    def test_intensity_d2(self):
        rng = np.random.default_rng(22)
        lam = [rng.random((1 << k, 1 << k, 3)) for k in range(3)]
        a = [rng.random((1 << k, 1 << k)) for k in range(4)]
        C, _ = carleson_intensity(lam, 2)
        lhs = sum((lam[k].sum(axis=-1) * a[k]).sum() for k in range(3))
        astar = sequence_maximal(a, 2)
        rhs = C * astar.sum() * 2.0 ** (-6)
        assert lhs <= rhs * (1 + 1e-12)

    def test_single_cube_intensity(self):
        lam = [np.zeros((1, 1)), np.zeros((2, 1))]
        lam[0][0, 0] = 4.0
        C, _ = carleson_intensity(lam, 1)
        assert C == pytest.approx(4.0)
