"""Maximal function, N_Q, weak-type, and sparse-operator tests."""

import numpy as np
import pytest

from haarweight.dyadic import Cube, Grid, StepFunction, sequence_maximal
from haarweight.errors import SparsenessError
from haarweight.maximal import (
    SparseFamily, half_power_maximal, local_nq, maximal_mw, maximal_mw_prime,
    mw_proof_certificate, sparse_generate, sparse_op,
    sparse_proof_chain, weak_type_check,
)
from haarweight.operators import weighted_operator_norm
from haarweight.weights import MatrixWeight, ap_characteristic, truncate_weight


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
        from haarweight import linalg
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

    def test_general_p_form_identity_weight(self):
        rng = np.random.default_rng(1)
        g = Grid(1, 5)
        f = StepFunction(g, rng.standard_normal((32, 2)))
        m = maximal_mw_prime(MatrixWeight.identity(), f, p=3.0)
        want = dyadic_maximal_oracle(np.linalg.norm(f.values, axis=-1), 5)
        # V_I = Id up to the certification tolerance
        np.testing.assert_allclose(m, want, rtol=5e-3)

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


class TestMW:
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
        W = MatrixWeight.from_leaf_values(g, np.broadcast_to(Wmat, (32, 2, 2)).copy())
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
        # explicit walk over each leaf's ancestors and their y-leaves, with the
        # x-side factor m_leaf(W)^{1/2}(x) applied as a matrix
        from haarweight import linalg
        rng = np.random.default_rng(6)
        L = 4
        g = Grid(1, L)
        f = StepFunction(g, rng.standard_normal((16, 2)))
        half = linalg.sqrtm_spd(W.leaf_averages(g, 1.0))
        t = np.einsum("lij,lj->li", W.leaf_reps(g, -0.5), f.values)
        m = maximal_mw(W, f)
        for x in range(16):
            best = 0.0
            for k in range(L + 1):
                anc = x >> (L - k)
                ys = range(anc << (L - k), (anc + 1) << (L - k))
                best = max(best, np.mean([np.linalg.norm(half[x] @ t[y]) for y in ys]))
            assert m[x] == pytest.approx(best, rel=1e-12)
        _, mw_val = mw_proof_certificate(W, f)
        assert np.array_equal(mw_val, m)

    def test_proof_chain_certificate(self):
        rng = np.random.default_rng(5)
        g = Grid(1, 6)
        for W in [MatrixWeight.diagonal_power([0.5, -0.5]),
                  MatrixWeight.random_spd(77, cond=100.0),
                  MatrixWeight.rotated_power([0.8, -0.6], 0.4)]:
            f = StepFunction(g, rng.standard_normal((64, 2)))
            ratios, _ = mw_proof_certificate(W, f)
            assert ratios.max() <= 8.0


    def test_proof_certificate_matches_per_leaf_local_nq(self):
        # the certificate computes N_S once per maximal cube S; a loop that calls
        # local_nq for every leaf's S gives the same ratios bit for bit
        from haarweight import linalg
        from haarweight.maximal import _chain_averages, _mw_ancestor_averages
        from haarweight.operators import _mv
        rng = np.random.default_rng(9)
        L, N = 6, 64
        g = Grid(1, L)
        W = MatrixWeight.random_spd(21, cond=25.0)
        f = StepFunction(g, rng.standard_normal((N, 2)))
        ratios, _ = mw_proof_certificate(W, f)
        avgs = _mw_ancestor_averages(W, f)
        k_star, mw_val = avgs.argmax(axis=0), avgs.max(axis=0)
        outer = [linalg.powm_spd(a, -0.5) for a in W.average_pyramid(g, -1.0)]
        prime = np.stack(_chain_averages(outer, _mv(W.leaf_reps(g, -0.5), f.values), g))
        j = np.floor(np.log2(prime[k_star, np.arange(N)])).astype(int)
        r_cubes = [(int(k), x >> (L - int(k))) for x, k in enumerate(k_star)]
        want = np.zeros(N)
        for x in range(N):
            lev, off = r_cubes[x]
            same = [c for y, c in enumerate(r_cubes) if j[y] == j[x]]
            S = min((lv, o) for lv, o in same if lv <= lev and (off >> (lev - lv)) == o)
            nq, _ = local_nq(W, Cube(S[0], (S[1],)), g)
            want[x] = mw_val[x] / (2.0 ** (j[x] + 1) * nq[x - (S[1] << (L - S[0]))])
        assert len({S for S in r_cubes}) > 1
        assert np.array_equal(ratios, want)

    @pytest.mark.parametrize("L", [5, 8])
    def test_proof_certificate_matches_selection_oracle(self, L):
        # per-leaf reference of the selection: the R cubes of each class, the
        # maximal ones by explicit containment, and the one containing R_x
        from haarweight.maximal import _chain_averages, _mw_ancestor_averages
        from haarweight import linalg
        from haarweight.operators import _mv
        N = 1 << L
        g = Grid(1, L)
        rng = np.random.default_rng(L)
        for W in [MatrixWeight.random_spd(31, cond=40.0),
                  MatrixWeight.diagonal_power([0.6, -0.3]),
                  MatrixWeight.rotated_power([0.5, -0.4], 1.1)]:
            f = StepFunction(g, rng.standard_normal((N, 2)) * rng.uniform(0.1, 10))
            ratios, mw_val = mw_proof_certificate(W, f)
            avgs = _mw_ancestor_averages(W, f)
            k_star = avgs.argmax(axis=0)
            outer = [linalg.powm_spd(a, -0.5) for a in W.average_pyramid(g, -1.0)]
            prime = np.stack(_chain_averages(outer, _mv(W.leaf_reps(g, -0.5), f.values), g))
            D = np.maximum(prime[k_star, np.arange(N)], 1e-300)
            j = np.floor(np.log2(D)).astype(int)
            R = [(int(k), x >> (L - int(k))) for x, k in enumerate(k_star)]

            def inside(a, b):                 # cube a strictly inside cube b
                return a[0] > b[0] and a[1] >> (a[0] - b[0]) == b[1]

            nq_of, want = {}, np.zeros(N)
            for x in range(N):
                same = {R[y] for y in range(N) if j[y] == j[x]}
                maximal = [c for c in same if not any(inside(c, o) for o in same)]
                S, = [c for c in maximal if c == R[x] or inside(R[x], c)]
                if S not in nq_of:
                    nq_of[S] = local_nq(W, Cube(S[0], (S[1],)), g)[0]
                nq = nq_of[S][x - (S[1] << (L - S[0]))]
                want[x] = mw_val[x] / (2.0 ** (j[x] + 1) * nq) if nq > 0 else 0.0
            assert len(nq_of) > 1
            assert np.array_equal(ratios, want)
            assert np.array_equal(mw_val, avgs.max(axis=0))


class TestNQ:
    def test_identity(self):
        g = Grid(1, 5)
        nq, avg = local_nq(MatrixWeight.identity(), g.root(), g)
        np.testing.assert_allclose(nq, 1.0)
        assert avg == pytest.approx(1.0)

    def test_constant_diagonal(self):
        g = Grid(1, 4)
        W = MatrixWeight.from_leaf_values(g, np.broadcast_to(np.diag([4.0, 0.25]), (16, 2, 2)).copy())
        nq, avg = local_nq(W, g.root(), g)
        np.testing.assert_allclose(nq, 1.0, rtol=1e-12)

    def test_power_weight_bound_with_a2(self):
        # (1/|Q|) int N_Q^2 <= C * A_2 with a stable fitted constant
        for L in (6, 8, 10):
            g = Grid(1, L)
            W = MatrixWeight.scalar_power(0.5)
            ap = ap_characteristic(W, 2.0, g).value_reducing
            _, avg = local_nq(W, g.root(), g)
            assert avg <= 4.0 * ap    # fitted cap, recorded across depths

    def test_truncation_convergence_path(self):
        # N_Q^n -> N_Q as the truncation level grows, on a fixed leaf set;
        # truncation clamps leaf values, so the limit is the leaf-constant
        # snapshot of the power weight
        g = Grid(1, 6)
        W = MatrixWeight.diagonal_power([0.8, -0.8])
        base = MatrixWeight.from_leaf_values(g, W.leaf_averages(g, 1.0))
        nq_full, _ = local_nq(base, g.root(), g)
        prev_err = np.inf
        for n_cut in (10.0, 1e3, 1e9):
            Wn = truncate_weight(W, n_cut)
            nq_n, _ = local_nq(Wn, g.root(), g)
            err = np.abs(nq_n - nq_full).max()
            assert err <= prev_err * (1 + 1e-12)
            prev_err = err
        assert prev_err <= 1e-6 * nq_full.max()


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
            SparseFamily(g, g.all_cubes())

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
        cubes = g.all_cubes()
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
                    if o.level > c.level and c.contains(o):
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
            ap = ap_characteristic(W, 2.0, g).value_reducing
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
            ap = ap_characteristic(W, 2.0, g).value_reducing
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
