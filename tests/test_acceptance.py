"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
Tolerances are pinned here; nothing is calibrated at runtime.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from haarweight import experiments as ex
from haarweight.carleson import carleson_b_sup, carleson_c_constant, stopping_time_tree
from haarweight.dyadic import (
    Grid, StepFunction, find_covering_cube, haar_analyze, haar_transform,
    sequence_maximal, carleson_intensity,
)
from haarweight.errors import IntegrabilityError
from haarweight.maximal import sparse_generate, sparse_proof_chain, weak_type_check
from haarweight.operators import (
    MatrixSequence, MatrixSymbol, ShiftMap, big_pi_op, commutator_case_sum,
    commutator_op, weighted_operator_norm,
)
from haarweight.weights import (
    MatrixWeight, ap_from_reducing, reducing_pyramid, sphere_net,
)
from haarweight import linalg

# pinned caps and tolerances
EXACT_CORE_TOL = 1e-10
PARSEVAL_TOL = 1e-12
RATE_TOL = 1e-6
EXPONENT_REL_TOL = 0.10
NECESSITY_REL_TOL = 1e-9
REVERSE_AP_P2 = 1e-9
REVERSE_AP_GEN = 2e-3
SANDWICH_ETA = 1e-3
WEAK_TYPE_CONSTANT = 2.0          # = n, from the trace identity
SWEEP_FACTOR = 4.0
COVERING_RATIO = 6.0
CAR_EMBED_CAP = 64.0              # dimensional allowance for the p=2 corollary
SPARSE_FAMILIES = 1000


def _line(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_exactness_core():
    rng = np.random.default_rng(101)
    worst_parseval = worst_roundtrip = worst_comm = 0.0
    # orthonormality by leaf summation on depth-3 grids
    worst_gram = 0.0
    for d in (1, 2):
        g = Grid(d, 3)
        basis = []
        for k in range(3):
            for off in itertools.product(range(1 << k), repeat=d):
                for s in range((1 << d) - 1):
                    mean = np.zeros(())
                    coeffs = [np.zeros((1 << kk,) * d + ((1 << d) - 1,)) for kk in range(3)]
                    coeffs[k][off + (s,)] = 1.0
                    from haarweight.dyadic import haar_synthesize
                    basis.append(haar_synthesize(mean, coeffs, d, 3).ravel())
        Bmat = np.stack(basis)
        gram = Bmat @ Bmat.T * 2.0 ** (-3 * d)
        worst_gram = max(worst_gram, float(np.abs(gram - np.eye(len(basis))).max()))
    for trial in range(100):
        d = 1 if trial % 2 == 0 else 2
        L = int(rng.integers(2, 6 if d == 1 else 5))
        g = Grid(d, L)
        f = StepFunction(g, rng.standard_normal(g.leaf_shape + (2,)))
        e = haar_transform(f)
        norm2 = (f.values ** 2).sum() * g.leaf_measure
        worst_parseval = max(worst_parseval, abs(e.parseval_total() - norm2) / norm2)
        from haarweight.dyadic import inverse_haar
        back = inverse_haar(e)
        worst_roundtrip = max(worst_roundtrip, float(np.abs(back.values - f.values).max()))
        B = MatrixSymbol.from_values(g, rng.standard_normal(g.leaf_shape + (2, 2)))
        sigma = ShiftMap.random_child(g, seed=trial)
        a = commutator_op(B, sigma)(f).values
        b = commutator_case_sum(B, sigma, f.values)
        worst_comm = max(worst_comm, float(np.abs(a - b).max() / max(1.0, np.abs(a).max())))
    ok = (worst_parseval <= PARSEVAL_TOL and worst_roundtrip <= PARSEVAL_TOL
          and worst_gram <= PARSEVAL_TOL and worst_comm <= EXACT_CORE_TOL)
    _line(1, ok, f"exactness core: parseval {worst_parseval:.2e}, roundtrip "
                 f"{worst_roundtrip:.2e}, gram {worst_gram:.2e}, commutator {worst_comm:.2e}")


def test_criterion_2_counterexample_rates(tmp_path):
    worst_rate = 0.0
    for alpha in (0.3, 0.5, 0.7):
        rep = ex.run_counterexample("haar-multiplier", {"alpha": alpha, "depth": 20},
                                    str(tmp_path))
        worst_rate = max(worst_rate, rep["ratio_max_error"])
    pp = ex.run_counterexample("paraproduct", {"alpha": 0.5, "n_range": [4, 14]},
                               str(tmp_path))
    ok = worst_rate <= RATE_TOL and pp["relative_exponent_error"] <= EXPONENT_REL_TOL
    _line(2, ok, f"counterexample rates: multiplier ratio error {worst_rate:.2e}, "
                 f"paraproduct exponent {pp['fitted_exponent_log2']:.3f} vs "
                 f"{pp['target_exponent']:.1f}")


def test_criterion_3_exact_p2_necessity():
    # each condition (c) form against the embedding operator its test-function
    # argument bounds it by: primal vs Pi_A, dual vs Pi_{A^T} with weight W^{-1}
    from haarweight.weights import power_of
    rng = np.random.default_rng(103)
    violations = 0
    worst_margin = 0.0
    for t in range(200):
        L = int(rng.integers(3, 7))
        g = Grid(1, L)
        W = MatrixWeight.random_spd(40000 + t, cond=float(rng.uniform(2, 64)))
        A = MatrixSequence.random(g, rng=rng)
        red = reducing_pyramid(W, g, 2.0)
        rep = carleson_c_constant(A, W, 2.0, reducing=red)
        nrm = weighted_operator_norm(big_pi_op(A, W, 2.0, red),
                                     MatrixWeight.identity(), 2.0).value
        Wd = power_of(W, -1.0)
        red_d = reducing_pyramid(Wd, g, 2.0)
        nrm_d = weighted_operator_norm(big_pi_op(A.transpose(), Wd, 2.0, red_d),
                                       MatrixWeight.identity(), 2.0).value
        ok_p = rep.primal_value <= nrm ** 2 * (1 + NECESSITY_REL_TOL)
        ok_d = rep.dual_value <= nrm_d ** 2 * (1 + NECESSITY_REL_TOL)
        if not (ok_p and ok_d):
            violations += 1
        worst_margin = max(worst_margin, rep.primal_value / nrm ** 2,
                           rep.dual_value / nrm_d ** 2)
    ok = violations == 0
    _line(3, ok, f"p=2 necessity C_c <= ||Pi||^2 (both forms): {violations} "
                 f"violations in 200, max ratio {worst_margin:.6f}")


def test_criterion_4_stopping_time_decay():
    rng = np.random.default_rng(104)
    g = Grid(1, 14)
    failures = []
    excluded = 0
    weights = [("power", MatrixWeight.diagonal_power([a, -a]), a) for a in (0.3, 0.6, 0.9)]
    for i in range(20):
        a1, a2 = rng.uniform(0.1, 0.45, size=2) * rng.choice([-1, 1], size=2)
        weights.append((f"rotated{i}", MatrixWeight.rotated_power([a1, a2], rng.uniform(0, np.pi)), max(abs(a1), abs(a2))))
    opts = dict(net_size=32, eta_target=0.08)
    for p in (1.5, 2.0, 3.0):
        pprime = p / (p - 1.0)
        for name, W, amax in weights:
            if amax * max(1.0, pprime / p, 2.0 / p) >= 1.0:
                with pytest.raises(IntegrabilityError):
                    W.leaf_averages(g, -pprime / p)
                excluded += 1
                continue
            red = reducing_pyramid(W, g, p, **opts) if p != 2.0 else reducing_pyramid(W, g, p)
            tree = stopping_time_tree(W, p, grid=g, reducing=red)
            for j, meas in enumerate(tree.generation_measures):
                if meas > 2.0 ** (-j) * (1 + 1e-12):
                    failures.append((name, p, j, meas))
    ok = not failures
    _line(4, ok, f"stopping-time decay at L=14 over {3 * 23 - excluded} runs "
                 f"({excluded} non-integrable combos raised as required); "
                 f"violations: {failures[:3]}")


def test_criterion_5_reducing_operator_calculus():
    g = Grid(1, 6)
    n = 2
    dirs = sphere_net(n, 64)
    weights = [MatrixWeight.diagonal_power([0.5, -0.5]),
               MatrixWeight.rotated_power([0.6, -0.4], 0.8),
               MatrixWeight.random_spd(55, cond=25.0),
               MatrixWeight.scalar_power(0.7)]
    worst_rev = {2.0: 1.0, 1.5: 1.0, 3.0: 1.0}
    worst_eta = 0.0
    redop_ok = True
    for p in (1.5, 2.0, 3.0):
        for W in weights:
            red = reducing_pyramid(W, g, p, net_size=128, eta_target=SANDWICH_ETA)
            ap = ap_from_reducing(red, p)
            factor = ap ** (n / p)
            avg = W.average_pyramid(g, -1.0 / p)
            for k in range(g.L + 1):
                V, Vp = red["V"][k], red["V_prime"][k]
                prod = np.einsum("...ij,...jk->...ik", Vp, V)
                rev = np.linalg.norm(np.einsum("...ij,mj->...mi", prod, dirs), axis=-1).min()
                worst_rev[p] = min(worst_rev[p], float(rev))
                worst_eta = max(worst_eta, float(red["eta"][k].max()),
                                float(red["eta_prime"][k].max()))
                m_e = np.linalg.norm(np.einsum("...ij,mj->...mi", avg[k], dirs), axis=-1)
                v_e = np.linalg.norm(np.einsum("...ij,mj->...mi", Vp, dirs), axis=-1)
                slack = 1.0 + (REVERSE_AP_P2 if p == 2.0 else REVERSE_AP_GEN)
                if not (np.all(m_e <= slack * v_e)
                        and np.all(v_e <= slack * factor * m_e)):
                    redop_ok = False
    ok = (worst_rev[2.0] >= 1 - REVERSE_AP_P2
          and min(worst_rev[1.5], worst_rev[3.0]) >= 1 - REVERSE_AP_GEN
          and worst_eta <= SANDWICH_ETA and redop_ok)
    _line(5, ok, f"reducing operators: ReverseAp p=2 {worst_rev[2.0]:.2e}+, general "
                 f"{min(worst_rev[1.5], worst_rev[3.0]):.6f}, sandwich eta {worst_eta:.2e}, "
                 f"average-lemma two-sided {'ok' if redop_ok else 'violated'}")


def test_criterion_6_weak_type_constant():
    rng = np.random.default_rng(106)
    worst = 0.0
    for t in range(100):
        L = int(rng.integers(4, 8))
        g = Grid(1, L)
        W = MatrixWeight.random_spd(60000 + t, cond=float(10 ** rng.uniform(0.5, 3.0)))
        f = StepFunction(g, rng.standard_normal(g.leaf_shape + (2,)) * rng.uniform(0.1, 10))
        ratio, _ = weak_type_check(W, f)
        worst = max(worst, ratio)
    ok = worst <= WEAK_TYPE_CONSTANT * (1 + 1e-12)
    _line(6, ok, f"weak (2,2) exhaustive thresholds: max lam^2 |{{M'>lam}}| / ||f||^2 "
                 f"= {worst:.4f} <= n = {WEAK_TYPE_CONSTANT:g}")


def test_criterion_7_quantitative_sweeps(tmp_path):
    rep = ex.run_sweep("all", {"L": 10, "seed": 0}, str(tmp_path))
    lines = []
    for name, q in rep["quantities"].items():
        lines.append(f"{name}: C={q['fitted_constant']:.3f} stab={q['stability']:.2f} "
                     f"exp={q['fitted_exponent_vs_A2']:.2f}")
    ok = rep["passed"]
    _line(7, ok, "sweeps at L=10 (fitted exponents report-only): " + "; ".join(lines))


def test_criterion_8_covering_lemma():
    rng = np.random.default_rng(108)
    failures = 0
    for _ in range(10000):
        den = int(rng.integers(4, 1 << 14))
        a = int(rng.integers(0, den - 1))
        w = int(rng.integers(1, den - a))
        lo, hi = Fraction(a, den), Fraction(a + w, den)
        t, cube = find_covering_cube([lo], [hi])
        (ca, cb), = cube.bounds()
        if not (ca <= lo and hi <= cb and cb - ca <= COVERING_RATIO * (hi - lo)):
            failures += 1
    ok = failures == 0
    _line(8, ok, f"covering lemma: {failures} failures in 10000 random intervals, "
                 f"ratio cap {COVERING_RATIO:g}")


def test_criterion_9_carleson_lemma_and_embedding_corollary():
    rng = np.random.default_rng(109)
    # Carleson lemma: exact on random instances
    lemma_ok = True
    for _ in range(50):
        L = int(rng.integers(3, 6))
        g = Grid(1, L)
        lam = [rng.random((1 << k, 1)) * rng.random() for k in range(L)]
        a = [rng.random((1 << k,)) for k in range(L + 1)]
        C, _ = carleson_intensity(lam, 1)
        lhs = sum((lam[k][..., 0] * a[k]).sum() for k in range(L))
        rhs = C * sequence_maximal(a, 1).sum() * g.leaf_measure
        if lhs > rhs * (1 + 1e-12):
            lemma_ok = False
    # p=2 embedding corollary: premise exact, conclusion with fitted cap
    worst_fit = 0.0
    for t in range(100):
        L = int(rng.integers(3, 6))
        g = Grid(1, L)
        W = MatrixWeight.random_spd(90000 + t, cond=float(rng.uniform(2, 32)))
        A = MatrixSequence.random(g, rng=rng)
        red = reducing_pyramid(W, g, 2.0)
        ap = ap_from_reducing(red, 2.0)
        # smallest premise constant: sum (A_I^eps)^T A_I^eps <= C int_J W
        from haarweight.dyadic import subtree_sums
        per_cube = [np.einsum("xsij,xsik->xjk", A.levels[k], A.levels[k])
                    for k in range(L)]
        per_cube.append(np.zeros((1 << L, 2, 2)))
        sums = subtree_sums(per_cube, 1)
        prem = 0.0
        Wavg = W.average_pyramid(g, 1.0)
        for k in range(L + 1):
            intW = Wavg[k] * 2.0 ** (-k)
            conj = linalg.powm_spd(intW, -0.5)
            prem = max(prem, float(linalg.lambda_max(conj @ sums[k] @ conj).max()))
        # exact best constant of sum |A_I^eps m_I f|^2 over ||f||_{L^2(W)}^2
        dim = g.n_leaves * 2
        basis = np.eye(dim).reshape(g.leaf_shape + (2, dim))
        from haarweight.dyadic import mean_pyramid
        means = mean_pyramid(basis, 1, L)
        blocks = [np.einsum("xsij,xjb->xsib", A.levels[k], means[k]).reshape(-1, dim)
                  for k in range(L)]
        theta = np.concatenate(blocks, axis=0)
        Ghalf_inv = linalg.powm_spd(W.leaf_averages(g, 1.0), -0.5)
        white = np.zeros((dim, dim))
        for l in range(g.n_leaves):
            white[2 * l:2 * l + 2, 2 * l:2 * l + 2] = Ghalf_inv[l]
        top = np.linalg.svd(theta @ white, compute_uv=False)[0] ** 2 / g.leaf_measure
        fit = top / (np.sqrt(prem) * ap ** 3)
        worst_fit = max(worst_fit, fit)
    ok = lemma_ok and worst_fit <= CAR_EMBED_CAP
    _line(9, ok, f"Carleson lemma exact; embedding corollary fitted constant "
                 f"{worst_fit:.3f} <= cap {CAR_EMBED_CAP:g}")


def test_criterion_10_sparse_machinery():
    rng = np.random.default_rng(110)
    cert_failures = 0
    count = 0
    for seed in range(SPARSE_FAMILIES):
        d = 1 if seed % 4 else 2
        L = int(rng.integers(3, 7)) if d == 1 else int(rng.integers(2, 4))
        g = Grid(d, L)
        density = float(rng.uniform(0.05, 0.5))
        try:
            fam = sparse_generate(g, seed=seed, density=density)
            exc = fam.exceptional_sets()
            used = np.zeros(g.leaf_shape, dtype=int)
            for (lev, off), mask in exc.items():
                if 2 * int(mask.sum()) < 1 << ((L - lev) * d):
                    cert_failures += 1
                used += mask
            if used.max() > 1:
                cert_failures += 1
        except Exception:
            cert_failures += 1
        count += 1
    # displayed chain with explicit constants on random instances at p=2
    chain_ok = True
    g = Grid(1, 6)
    for t in range(20):
        alpha = float(rng.uniform(0.1, 0.9))
        W = MatrixWeight.diagonal_power([alpha, -alpha])
        red = reducing_pyramid(W, g, 2.0)
        ap = ap_from_reducing(red, 2.0)
        fam = sparse_generate(g, seed=t, density=0.5)
        f = StepFunction(g, rng.standard_normal(g.leaf_shape + (2,)))
        h = StepFunction(g, rng.standard_normal(g.leaf_shape + (2,)))
        chain = sparse_proof_chain(W, fam, f, h, ap)
        for a, b in zip(chain, chain[1:]):
            if a > b * (1 + 1e-12):
                chain_ok = False
    ok = cert_failures == 0 and chain_ok
    _line(10, ok, f"sparse machinery: {count} generated families certified "
                  f"({cert_failures} failures); displayed chain termwise "
                  f"{'ok' if chain_ok else 'violated'}")
