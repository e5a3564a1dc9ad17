"""Maximal function, weak-type, and sparse-operator tests."""

import itertools

import numpy as np
import pytest

from haarweight.dyadic import (
    Cube, Grid, StepFunction, coarsen_levels, refine_to_leaves, sequence_maximal,
)
from haarweight.errors import SparsenessError
from haarweight.maximal import (
    SparseFamily, maximal_mw, maximal_mw_prime, sparse_generate, sparse_op, sparse_proof_chain,
    weak_type_check,
)
from haarweight import linalg
from haarweight.operators import _mv, weighted_operator_norm
from haarweight.weights import MatrixWeight, ap_from_reducing, power_of, reducing_pyramid


def leaf_weight(values):
    """The weight with the given SPD values on the leaves of its grid."""
    values = np.array(values, dtype=float)
    return MatrixWeight(values.shape[-1], leaf_values=lambda grid: values)


def half_power_maximal(W, f):
    """M~'_W f = sup_I (1/|I|) int_I |(m_I(W^{-1/2}))^{-1/2} W^{-1/2}(y) f(y)| dy
    with the integrand's leaf value m_leaf(W^{-1/2}) f_leaf: the maximal
    function of the last step of the sparse domination chain.  Each level's
    cube averages are spread to their leaves and maximized there, a walk of
    its own rather than ``dyadic.sequence_maximal``'s."""
    grid = f.grid
    d, L = grid.d, grid.L
    outer = [linalg.powm_spd(a, -0.5) for a in W.average_pyramid(grid, -0.5)]
    t_leaf = _mv(W.leaf_averages(grid, -0.5), f.values)
    best = np.zeros(grid.leaf_shape)
    for k, O in enumerate(outer):
        vals = np.linalg.norm(_mv(refine_to_leaves(O, d, L - k), t_leaf), axis=-1)
        best = np.maximum(best, refine_to_leaves(coarsen_levels(vals, d, L - k), d, L - k))
    return best


def all_cubes(grid):
    return [Cube(k, m) for k in range(grid.L + 1)
            for m in itertools.product(range(1 << k), repeat=grid.d)]


def dyadic_maximal_oracle(vals_abs, L):
    best = np.zeros(1 << L)
    for k in range(L + 1):
        avg = vals_abs.reshape(1 << k, -1).mean(axis=1)
        best = np.maximum(best, np.repeat(avg, 1 << (L - k)))
    return best


class TestMWPrime:
    def test_identity_weight_is_dyadic_maximal(self):
        rng = np.random.default_rng(0)
        g = Grid(1, 6)
        f = StepFunction(g, rng.standard_normal((64, 2)))
        m = maximal_mw_prime(MatrixWeight.identity(), f)
        want = dyadic_maximal_oracle(np.linalg.norm(f.values, axis=-1), 6)
        np.testing.assert_allclose(m, want, atol=1e-12)

    def test_adapted_input_closed_form_chain(self):
        # f = W^{1/2} e leafwise: the integrand at I is |(m_I W^{-1})^{-1/2} e'|
        # with e' the leafwise-averaged vector; chain evaluated explicitly
        g = Grid(1, 4)
        W = MatrixWeight.random_spd(3, cond=25.0)
        e = np.array([1.0, 0.0])
        f = StepFunction(g, np.einsum("lij,j->li", W.leaf_reps(g, 0.5), e))
        m = maximal_mw_prime(W, f)
        # oracle: explicit per-leaf chain walk
        inv_avgs = W.average_pyramid(g, -1.0)
        t = np.einsum("lij,lj->li", W.leaf_reps(g, -0.5), f.values)
        for leaf in range(16):
            best = 0.0
            for k in range(5):
                anc = leaf >> (4 - k)
                O = linalg.powm_spd(inv_avgs[k][anc], -0.5)
                seg = t[anc << (4 - k):(anc + 1) << (4 - k)]
                best = max(best, np.linalg.norm(seg @ O.T, axis=1).mean())
            assert m[leaf] == pytest.approx(best, rel=1e-12)

    def test_weak_22_constant_n_random_weights(self):
        rng = np.random.default_rng(2)
        g = Grid(1, 6)
        worst = 0.0
        for t in range(40):
            W = MatrixWeight.random_spd(1000 + t, cond=10.0 ** rng.uniform(0.5, 3))
            f = StepFunction(g, rng.standard_normal((64, 2)) * rng.uniform(0.1, 10))
            ratio, _ = weak_type_check(W, f)
            worst = max(worst, ratio)
        assert worst <= 2.0 * (1 + 1e-12)


def table_ancestor_averages(W, f):
    """The whole-table form of ``maximal._mw_ancestor_averages``: the N x N
    leaf-pair table, coarsened along y one level at a time."""
    from haarweight.dyadic import coarsen_levels
    grid = f.grid
    L, N, x = grid.L, grid.n_leaves, np.arange(grid.n_leaves)
    Mw = W.leaf_averages(grid, 1.0)
    t_leaf = _mv(W.leaf_reps(grid, -0.5), f.values)
    quad = Mw.reshape(N, -1) @ (t_leaf[:, :, None] * t_leaf[:, None, :]).reshape(N, -1).T
    avg = np.sqrt(np.maximum(quad, 0.0))
    out = np.empty((L + 1, N))
    out[L] = avg[x, x]
    for k in range(L - 1, -1, -1):
        avg = coarsen_levels(avg, 1, 1, axis=1)
        out[k] = avg[x, x >> (L - k)]
    return out


def brute_force_mw(W, f):
    """M_W f by an explicit walk over each leaf's ancestors and their
    y-leaves, with the x-side factor m_leaf(W)^{1/2}(x) applied as a matrix,
    on a grid of any d."""
    g = f.grid
    L = g.L
    half = linalg.sqrtm_spd(W.leaf_averages(g, 1.0))
    t = np.einsum("...ij,...j->...i", W.leaf_reps(g, -0.5), f.values)
    out = np.zeros(g.leaf_shape)
    for x in itertools.product(range(1 << L), repeat=g.d):
        for k in range(L + 1):
            cube = tuple(slice((c >> (L - k)) << (L - k), ((c >> (L - k)) + 1) << (L - k))
                         for c in x)
            ys = t[cube].reshape(-1, W.n)
            avg = np.mean([np.linalg.norm(half[x] @ y) for y in ys])
            out[x] = max(out[x], avg)
    return out


class TestMW:
    @pytest.mark.parametrize("L", [6, 9, 11])
    def test_streamed_averages_match_the_table(self, L, monkeypatch):
        # x-row blocks of two rows, of a quarter of the rows and of all of
        # them give the whole table's averages bit for bit
        from haarweight import dyadic, maximal
        rng = np.random.default_rng(L)
        g = Grid(1, L)
        N = g.n_leaves
        coarsen, firsts = dyadic.coarsen_levels, []
        monkeypatch.setattr(dyadic, "coarsen_levels", lambda a, *args, **kw: (
            a.shape[1] == N and firsts.append(len(a))) or coarsen(a, *args, **kw))
        for W in (MatrixWeight.random_spd(12, cond=50.0),
                  MatrixWeight.rotated_power([0.6, -0.4], 0.9)):
            f = StepFunction(g, rng.standard_normal((N, 2)))
            want = table_ancestor_averages(W, f)
            for rows in (2, N // 4, N):
                monkeypatch.setattr(linalg, "BLOCK_BYTES", 8 * N * rows)
                firsts.clear()
                assert np.array_equal(maximal._mw_ancestor_averages(W, f), want)
                assert firsts == [rows] * (N // rows)

    def test_streams_in_bounded_memory(self):
        # at L = 12 one N x N table of floats is 128 MiB; the whole-table code
        # peaked at three of them
        import tracemalloc
        g = Grid(1, 12)
        W = MatrixWeight.rotated_power([0.6, -0.4], 0.9)
        f = StepFunction(g, np.random.default_rng(12).standard_normal((g.n_leaves, 2)))
        tracemalloc.start()
        try:
            maximal_mw(W, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < g.n_leaves ** 2 * 8

    def test_identity_weight(self):
        rng = np.random.default_rng(3)
        g = Grid(1, 5)
        f = StepFunction(g, rng.standard_normal((32, 2)))
        m = maximal_mw(MatrixWeight.identity(), f)
        want = dyadic_maximal_oracle(np.linalg.norm(f.values, axis=-1), 5)
        np.testing.assert_allclose(m, want, atol=1e-12)

    def test_constant_weight_conjugation_cancels(self):
        # constant SPD weight, f along a fixed direction scaled by a scalar step
        rng = np.random.default_rng(4)
        g = Grid(1, 5)
        Wmat = np.diag([9.0, 0.25])
        W = leaf_weight(np.broadcast_to(Wmat, (32, 2, 2)))
        s = rng.standard_normal(32)
        e = np.array([1.0, 0.0])
        f = StepFunction(g, s[:, None] * e)
        m = maximal_mw(W, f)
        want = dyadic_maximal_oracle(np.abs(s) * np.linalg.norm(e), 5)
        np.testing.assert_allclose(m, want, rtol=1e-12)

    @pytest.mark.parametrize("W", [MatrixWeight.random_spd(12, cond=50.0),
                                   MatrixWeight.rotated_power([0.6, -0.4], 0.9)],
                             ids=["random-spd", "rotated"])
    def test_nonconstant_weight_brute_force(self, W):
        rng = np.random.default_rng(6)
        g = Grid(1, 4)
        f = StepFunction(g, rng.standard_normal((16, 2)))
        np.testing.assert_allclose(maximal_mw(W, f), brute_force_mw(W, f), rtol=1e-12)

    @pytest.mark.parametrize("L", [3, 4])
    @pytest.mark.parametrize("W", [MatrixWeight.random_spd(12, cond=50.0),
                                   MatrixWeight.rotated_power([0.6, -0.4], 0.9),
                                   MatrixWeight.diagonal_power([0.9, -0.9])],
                             ids=["random-spd", "rotated", "diagonal"])
    def test_d2_brute_force(self, W, L):
        rng = np.random.default_rng(L)
        g = Grid(2, L)
        f = StepFunction(g, rng.standard_normal(g.leaf_shape + (2,)))
        m = maximal_mw(W, f)
        assert m.shape == g.leaf_shape
        np.testing.assert_allclose(m, brute_force_mw(W, f), rtol=1e-12)


class TestSparse:
    def test_root_only_family(self):
        g = Grid(1, 4)
        fam = SparseFamily(g, [g.root()])
        rng = np.random.default_rng(6)
        f = StepFunction(g, rng.standard_normal((16, 2)))
        out = sparse_op(fam)(f)
        np.testing.assert_allclose(out.values, f.values.mean(axis=0)[None, :].repeat(16, 0))

    def test_full_tree_rejected(self):
        g = Grid(1, 3)
        with pytest.raises(SparsenessError):
            SparseFamily(g, all_cubes(g))

    def test_generated_families_certified(self):
        # constructive guarantee: every generated family passes, and the
        # exceptional sets partition with 2|E_I| >= |I|
        for d, L in [(1, 6), (2, 3)]:
            g = Grid(d, L)
            for seed in range(50):
                fam = sparse_generate(g, seed=seed, density=0.5)
                exc = fam.exceptional_sets()
                used = np.zeros(g.leaf_shape, dtype=int)
                for (lev, off), mask in exc.items():
                    assert 2 * mask.sum() >= 1 << ((L - lev) * d)
                    used += mask
                assert used.max() <= 1

    @pytest.mark.parametrize("d, L", [(1, 5), (2, 3)])
    def test_arbitrary_families_match_bruteforce(self, d, L):
        # E_I = I minus every family cube strictly inside I, by brute force;
        # a family is accepted exactly when every 2|E_I| >= |I|
        g = Grid(d, L)
        cubes = all_cubes(g)
        rng = np.random.default_rng(10 * d + L)
        accepted = rejected = 0
        for _ in range(150):
            q = rng.uniform(0.02, 0.5)
            pick = [c for c in cubes if rng.random() < q]
            want = {}
            for c in sorted(set(pick), key=lambda c: (c.level, c.offset)):
                lo, hi = zip(*c.bounds())
                mask = np.zeros(g.leaf_shape, dtype=bool)
                mask[tuple(slice(int(a * (1 << L)), int(b * (1 << L)))
                           for a, b in zip(lo, hi))] = True
                for o in pick:
                    inside = all(c_lo <= o_lo and o_hi <= c_hi for (c_lo, c_hi), (o_lo, o_hi)
                                 in zip(c.bounds(), o.bounds()))
                    if o.level > c.level and inside:
                        olo, ohi = zip(*o.bounds())
                        mask[tuple(slice(int(a * (1 << L)), int(b * (1 << L)))
                                   for a, b in zip(olo, ohi))] = False
                want[(c.level, c.offset)] = mask
            sparse = all(2 * int(m.sum()) >= 1 << ((L - lev) * d)
                         for (lev, _), m in want.items())
            if not sparse:
                with pytest.raises(SparsenessError):
                    SparseFamily(g, pick)
                rejected += 1
                continue
            exc = SparseFamily(g, pick).exceptional_sets()
            assert list(exc) == list(want)
            assert all(np.array_equal(exc[key], want[key]) for key in want)
            accepted += 1
        assert accepted > 10 and rejected > 10

    def test_exceptional_sets_match_chain_walk(self):
        # reference: the owner array as the chain maximum over all L+1 levels
        # of each member's level (-1 off the family)
        def chain_walk(fam):
            L, d = fam.grid.L, fam.grid.d
            owner = sequence_maximal([np.where(m, k, -1) for k, m in enumerate(fam.masks)], d)
            out = {}
            for lev, off in fam.cubes:
                sl = tuple(slice(m << (L - lev), (m + 1) << (L - lev)) for m in off)
                mask = np.zeros(fam.grid.leaf_shape, dtype=bool)
                mask[sl] = owner[sl] == lev
                out[(lev, off)] = mask
            return out

        # the benchmark's small-instance families (L = 3..6 in turn, density
        # in [0.05, 0.5]), the sweeps' families at L = 9, 10 and some in d = 2
        rng = np.random.default_rng(256)
        families = [sparse_generate(Grid(1, 3 + i % 4), seed=int(rng.integers(1 << 31)),
                                    density=float(rng.uniform(0.05, 0.5)))
                    for i in range(256)]
        families += [sparse_generate(Grid(1, L), seed=0, density=0.5) for L in (9, 10)]
        families += [sparse_generate(Grid(2, 4), seed=s, density=0.5) for s in range(20)]
        for fam in families:
            got, want = fam.exceptional_sets(), chain_walk(fam)
            assert list(got) == list(want)
            assert all(np.array_equal(got[key], want[key]) for key in want)

    def test_density_zero_limit(self):
        g = Grid(1, 5)
        fam = sparse_generate(g, seed=0, density=1e-9)
        assert fam.cubes == [(0, (0,))]

    def test_apply_matches_bruteforce(self):
        rng = np.random.default_rng(7)
        g = Grid(1, 5)
        fam = sparse_generate(g, seed=3, density=0.5)
        f = StepFunction(g, rng.standard_normal((32, 2)))
        out = sparse_op(fam)(f)
        want = np.zeros_like(f.values)
        for lev, off in fam.cubes:
            sl = slice(off[0] << (5 - lev), (off[0] + 1) << (5 - lev))
            want[sl] += f.values[sl].mean(axis=0)
        np.testing.assert_allclose(out.values, want, atol=1e-12)

    def test_self_adjoint(self):
        from haarweight.operators import dense_matrix
        g = Grid(1, 4)
        fam = sparse_generate(g, seed=9, density=0.5)
        M = dense_matrix(sparse_op(fam))
        np.testing.assert_allclose(M, M.T, atol=1e-13)

    def test_proof_chain_termwise(self):
        rng = np.random.default_rng(8)
        g = Grid(1, 6)
        for t in range(8):
            W = MatrixWeight.diagonal_power([rng.uniform(0.1, 0.9) * (-1) ** t / 1.0,
                                             -rng.uniform(0.1, 0.9)])
            ap = ap_from_reducing(reducing_pyramid(W, g, 2.0), 2.0)
            fam = sparse_generate(g, seed=t, density=0.5)
            f = StepFunction(g, rng.standard_normal((64, 2)))
            h = StepFunction(g, rng.standard_normal((64, 2)))
            chain = sparse_proof_chain(W, fam, f, h, ap)
            for a, b in zip(chain, chain[1:]):
                assert a <= b * (1 + 1e-12)

    def test_proof_chain_averages_each_side_once(self, monkeypatch):
        # q4's maximal functions are the chain maxima of the averages behind
        # q2 and q3: one _cube_averages call for f's side and one for g's
        import haarweight.maximal as mx
        calls = []
        orig = mx._cube_averages
        monkeypatch.setattr(mx, "_cube_averages",
                            lambda *args: calls.append(1) or orig(*args))
        rng = np.random.default_rng(12)
        g = Grid(1, 5)
        W = MatrixWeight.random_spd(5, cond=20.0)
        f = StepFunction(g, rng.standard_normal((32, 2)))
        h = StepFunction(g, rng.standard_normal((32, 2)))
        chain = sparse_proof_chain(W, sparse_generate(g, seed=2, density=0.5), f, h, 1.0)
        assert len(calls) == 2
        assert all(np.isfinite(chain))

    def test_weighted_norm_below_a2_32_curve(self):
        # ||S||_{L^2(W)} <= C A_2^{3/2} with a modest fitted constant
        g = Grid(1, 8)
        for alpha in (0.3, 0.6, 0.9):
            W = MatrixWeight.diagonal_power([alpha, -alpha])
            ap = ap_from_reducing(reducing_pyramid(W, g, 2.0), 2.0)
            fam = sparse_generate(g, seed=1, density=0.5)
            rep = weighted_operator_norm(sparse_op(fam), W, 2.0)
            assert rep.value <= 4.0 * ap ** 1.5


class TestHalfPowerMaximal:
    def test_dominates_family_averages(self):
        # the chain suprema dominate the per-cube averages they are built from
        rng = np.random.default_rng(9)
        g = Grid(1, 5)
        W = MatrixWeight.diagonal_power([0.5, -0.5])
        f = StepFunction(g, rng.standard_normal((32, 2)))
        m = half_power_maximal(W, f)
        assert m.min() >= 0
        assert np.isfinite(m).all()

    @pytest.mark.parametrize("L", [4, 6, 8])
    @pytest.mark.parametrize("W", [MatrixWeight.diagonal_power([0.5, -0.3]),
                                   MatrixWeight.rotated_power([0.4, -0.3], 0.7),
                                   MatrixWeight.random_spd(11, cond=20.0)],
                             ids=["diagonal", "rotated", "random-spd"])
    def test_is_the_last_step_of_the_proof_chain(self, W, L):
        # q4 = 2 A2^{1/2} int M~'_W f M~'_{W^{-1}} g, bit for bit
        rng = np.random.default_rng(L)
        g = Grid(1, L)
        f = StepFunction(g, rng.standard_normal((g.n_leaves, 2)))
        h = StepFunction(g, rng.standard_normal((g.n_leaves, 2)))
        ap = ap_from_reducing(reducing_pyramid(W, g, 2.0), 2.0)
        chain = sparse_proof_chain(W, sparse_generate(g, seed=L, density=0.5), f, h, ap)
        m_f, m_h = half_power_maximal(W, f), half_power_maximal(power_of(W, -1.0), h)
        assert chain[4] == 2.0 * np.sqrt(ap) * float((m_f * m_h).sum()) * g.leaf_measure
