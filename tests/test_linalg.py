"""Closed-form 2x2 spectral norms against LAPACK's SVD, and the 2x2 square
root and inverse against the eigendecomposition.

``opnorm`` takes sigma_1 = (hypot(a+d, b-c) + hypot(a-d, b+c)) / 2 for 2x2
input, and ``pair_opnorms`` builds the leaf-pair table of the A_p double
average from the same four sums as GEMMs, without forming the products.
The oracle is ``np.linalg.svd`` of the formed matrices.

``spectral_norm`` brackets the largest singular value of a dense matrix; its
tests check the bracket against the SVD, that the Cholesky rejects a value
below lambda_max, and that a Lanczos value below sigma_1 falls back to the
eigensolve.
"""

import numpy as np
import pytest

from haarweight import linalg, weights
from haarweight.dyadic import Grid
from haarweight.weights import MatrixWeight, ap_characteristic, reducing_pyramid

CLOSED_FORM_RTOL = 4e-15
PAIR_RTOL = 1e-13


def svd_norm(a):
    return np.linalg.svd(a, compute_uv=False)[..., 0]


def adversarial_sets():
    rng = np.random.default_rng(8)
    u, v = rng.standard_normal((2, 500, 2))
    rank1 = u[:, :, None] * v[:, None, :]
    theta = rng.uniform(0.0, 2.0 * np.pi, 500)
    c, s = np.cos(theta), np.sin(theta)
    general = rng.standard_normal((500, 2, 2))
    return {
        "near-rank-1": rank1 + 1e-9 * rng.standard_normal((500, 2, 2)),
        "singular": np.concatenate([rank1, [[[1.0, 2.0], [2.0, 4.0]], [[0.0, 0.0], [0.0, 3.0]],
                                            [[0.0, -7.0], [0.0, 0.0]]]]),
        "non-symmetric": general,
        "rotations": np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2),
        "reflections": np.stack([np.stack([c, s], -1), np.stack([s, -c], -1)], -2),
        "scaled-1e8": 1e8 * general,
        "scaled-1e-8": 1e-8 * general,
        "mixed-scales": np.array([1e8, 1e-8])[:, None] * general,
    }


@pytest.mark.parametrize("name", list(adversarial_sets()))
def test_opnorm_closed_form_matches_svd(name):
    mats = adversarial_sets()[name]
    got, want = linalg.opnorm(mats), svd_norm(mats)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= CLOSED_FORM_RTOL * want)


def test_opnorm_exact_cases():
    assert linalg.opnorm(np.zeros((2, 2))) == 0.0
    assert float(linalg.opnorm(np.array([[3.0, 0.0], [0.0, -5.0]]))) == 5.0
    assert linalg.opnorm(np.zeros((3, 4, 2, 2))).shape == (3, 4)


def test_only_other_sizes_take_the_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    rng = np.random.default_rng(3)
    linalg.opnorm(rng.standard_normal((10, 2, 2)))
    linalg.pair_opnorms(rng.standard_normal((4, 2, 2)), rng.standard_normal((5, 2, 2)))
    assert calls == []
    m3 = rng.standard_normal((10, 3, 3))
    assert np.array_equal(linalg.opnorm(m3), svd(m3, compute_uv=False)[..., 0])
    P, N = rng.standard_normal((2, 6, 3, 3))
    table = linalg.pair_opnorms(P, N)
    assert table.shape == (6, 6)
    assert np.array_equal(table, svd(P[:, None] @ N[None], compute_uv=False)[..., 0])
    assert calls == [(10, 3, 3), (6, 6, 3, 3)]


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("d,L", [(1, 6), (2, 5)])
@pytest.mark.parametrize("kind", ["rotated", "random-spd"])
def test_leaf_pair_norms_match_formed_products(kind, d, L, p):
    W = (MatrixWeight.rotated_power([0.4, -0.3], 0.7) if kind == "rotated"
         else MatrixWeight.random_spd(5, cond=16.0))
    g = Grid(d, L)
    P = W.leaf_reps(g, 1.0 / p).reshape(-1, 2, 2)
    N = W.leaf_reps(g, -1.0 / p).reshape(-1, 2, 2)
    table = linalg.pair_opnorms(P, N)
    want = svd_norm(P[:, None] @ N[None])
    np.testing.assert_allclose(table, want, rtol=PAIR_RTOL, atol=0)
    diags = weights._double_average_levels(table, g, p)
    for got_k, want_k in zip(diags, weights._double_average_levels(want, g, p)):
        np.testing.assert_allclose(got_k, want_k, rtol=PAIR_RTOL, atol=0)
    red = reducing_pyramid(W, g, p, net_size=16, eta_target=1.0)
    rep = ap_characteristic(W, p, g, reducing=red)
    for got_k, V, Vp in zip(rep.per_level, red["V"], red["V_prime"]):
        np.testing.assert_allclose(got_k, svd_norm(V @ Vp) ** p, rtol=PAIR_RTOL, atol=0)
    assert rep.value_integral == max(float(a.max()) for a in diags)


def spd_2x2(seed, count=500, cond=1e6):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, np.pi, count)
    c, s = np.cos(theta), np.sin(theta)
    R = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    lam = np.exp(rng.uniform(-0.5, 0.5, (count, 2)) * np.log(cond))
    return (R * lam[:, None, :]) @ np.swapaxes(R, 1, 2)


def test_sqrtm_2x2_closed_form_matches_eigh():
    A = spd_2x2(1)
    root = linalg._sqrtm_2x2(A)
    want = linalg.powm_spd(A, 0.5)
    scale = np.abs(want).max(axis=(1, 2))
    assert np.all(np.abs(root - want).max(axis=(1, 2)) <= 1e-12 * scale)
    np.testing.assert_allclose(root @ root, A, rtol=0,
                               atol=1e-12 * np.abs(A).max())


def test_2x2_inverse_takes_no_eigh(monkeypatch):
    A = spd_2x2(2, cond=1e4)
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: pytest.fail("eigh called"))
    inv = linalg.powm_spd(A, -1.0)
    np.testing.assert_allclose(inv @ A, np.broadcast_to(np.eye(2), A.shape), rtol=0, atol=1e-11)
    with pytest.raises(np.linalg.LinAlgError):
        linalg.powm_spd(np.array([[1.0, 2.0], [2.0, 1.0]]), -1.0)


# ---------------------------------------------------------------------------
# Certified dense spectral norms: a lower bound and a Cholesky-proved upper
# bound, with ``eigvalsh`` as the fallback
# ---------------------------------------------------------------------------

def known_svd(sigma, v1, seed):
    """Random U diag(sigma) V^T whose first right singular vector is v1."""
    rng = np.random.default_rng(seed)
    n = len(sigma)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(np.column_stack([v1, rng.standard_normal((n, n - 1))]))
    return (U * sigma) @ V.T


def test_fallback_when_lanczos_misses_the_top(monkeypatch):
    # the top right singular vector is orthogonal to the seeded start vector
    # of Golub-Kahan-Lanczos, which therefore converges to sigma_2; only the
    # failed Cholesky at sigma_2^2 can reveal that
    monkeypatch.setattr(linalg, "LANCZOS_MIN_DIM", 8)
    n, seed = 64, 3
    start = np.random.default_rng(seed).standard_normal(n)
    v1 = np.random.default_rng(99).standard_normal(n)
    v1 -= (v1 @ start) / (start @ start) * start
    sigma = np.concatenate([[2.01, 2.0], np.linspace(1.0, 0.1, n - 2)])
    M = known_svd(sigma, v1 / np.linalg.norm(v1), seed=5)
    missed, _, diag = linalg.matfree_spectral_norm(lambda v: M @ v, lambda u: M.T @ u, n, seed)
    assert diag["converged"] and missed == pytest.approx(sigma[1], rel=1e-12)
    value, det = linalg.spectral_norm(M, seed)
    assert det["fallback"] and det["certified"]
    assert det["lower_from"] == "eigvalsh" and det["lanczos_steps"] == diag["iterations"]
    assert value == pytest.approx(sigma[0], rel=1e-13)
    assert det["lower"] == value <= det["upper"]
    assert sigma[0] <= det["upper"] <= sigma[0] * (1 + 1e-9)


def test_cholesky_rejects_c_below_lambda_max():
    M = known_svd(np.linspace(3.0, 0.5, 40), np.eye(40)[0], seed=7)
    gram = M.T @ M
    before = gram.copy()
    theta2 = np.linalg.eigvalsh(gram)[-1]
    assert not linalg._certify_upper(gram, theta2 * (1 - 1e-8), 40)
    assert np.array_equal(gram, before)           # restored bit for bit
    _, det = linalg.spectral_norm(M)
    assert linalg._certify_upper(gram, det["upper"] ** 2, 40)


@pytest.mark.parametrize("n", [30, 300])
def test_bracket_holds_the_svd_value(n):
    # n = 30 takes its lower end from eigvalsh, n = 300 from Lanczos
    rng = np.random.default_rng(n)
    M = rng.standard_normal((n, n)) * np.logspace(0, -3, n)
    value, det = linalg.spectral_norm(M)
    want = svd_norm(M)
    assert det["certified"] and not det["fallback"]
    assert ("lanczos_steps" in det) == (n > linalg.LANCZOS_MIN_DIM)
    assert value == det["lower"] == pytest.approx(want, rel=1e-13)
    assert want <= det["upper"] <= want * (1 + 1e-9)
    assert det["shift"] == pytest.approx(det["upper"] ** 2 - value ** 2, rel=1e-3)
