"""Closed-form 2x2 spectral norms against LAPACK's SVD, and the 2x2 square
root and inverse against the eigendecomposition.

``opnorm`` takes sigma_1 = (hypot(a+d, b-c) + hypot(a-d, b+c)) / 2 for 2x2
input, and ``pair_opnorm_rows`` builds the leaf-pair table of the A_p double
average from the same four sums as GEMMs, without forming the products,
with sqrt(s*s + t*t) for each hypot on a proved range.  The oracle is
``np.linalg.svd`` of the formed matrices; the hypot form of the same GEMM
sums (``hypot_table``) is the reference for the squares form's ulp bound
and, outside its range, for its bits.

The A_p double average streams the leaf-pair table over blocks of x rows;
its oracle is the whole N x N table, coarsened as a two-sided array and read
on the cube diagonal (``table_double_average``), and the two agree bit for
bit.

``spectral_norm`` brackets the largest singular value of a dense matrix; its
tests check the bracket against the SVD, that the Cholesky rejects a value
below lambda_max, and that a Lanczos value below sigma_1 stays an uncertified
lower end, which a weighted norm labels ``lower-bound``.
"""

from fractions import Fraction

import numpy as np
import pytest

from haarweight import linalg, weights
from haarweight.dyadic import Grid, coarsen_levels
from haarweight.operators import Operator, weighted_operator_norm
from haarweight.weights import MatrixWeight, ap_characteristic, reducing_pyramid

CLOSED_FORM_RTOL = 4e-15
PAIR_RTOL = 1e-13


def svd_norm(a):
    return np.linalg.svd(a, compute_uv=False)[..., 0]


def pair_table(P, N):
    """The whole leaf-pair table ||P_x N_t|| of ``pair_opnorm_rows`` as one block."""
    return linalg.pair_opnorm_rows(P, N)(slice(None), np.empty((len(P), len(N))))


def hypot_table(P, N):
    """The leaf-pair table from the same four GEMM sums as ``pair_opnorm_rows``,
    each half of sigma_1 taken by ``np.hypot`` (``opnorm``'s form)."""
    F = P.reshape(-1, 4)
    n00, n01, n10, n11 = N[:, 0, 0], N[:, 0, 1], N[:, 1, 0], N[:, 1, 1]
    H = ((n00, n10, n01, n11), (n01, n11, -n00, -n10),
         (n00, n10, -n01, -n11), (n01, n11, n00, n10))
    return linalg._sigma1_2x2(F @ np.stack(h) for h in H)


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
    pair_table(rng.standard_normal((4, 2, 2)), rng.standard_normal((5, 2, 2)))
    assert calls == []
    m3 = rng.standard_normal((10, 3, 3))
    assert np.array_equal(linalg.opnorm(m3), svd(m3, compute_uv=False)[..., 0])
    P, N = rng.standard_normal((2, 6, 3, 3))
    table = pair_table(P, N)
    assert table.shape == (6, 6)
    assert np.array_equal(table, svd(P[:, None] @ N[None], compute_uv=False)[..., 0])
    assert calls == [(10, 3, 3), (6, 6, 3, 3)]


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("d,L", [(1, 6), (2, 5)])
@pytest.mark.parametrize("kind", ["rotated", "random-spd"])
def test_leaf_pair_norms_match_formed_products(kind, d, L, p, monkeypatch):
    W = (MatrixWeight.rotated_power([0.4, -0.3], 0.7) if kind == "rotated"
         else MatrixWeight.random_spd(5, cond=16.0))
    g = Grid(d, L)
    P = W.leaf_reps(g, 1.0 / p).reshape(-1, 2, 2)
    N = W.leaf_reps(g, -1.0 / p).reshape(-1, 2, 2)
    table = pair_table(P, N)
    want = svd_norm(P[:, None] @ N[None])
    np.testing.assert_allclose(table, want, rtol=PAIR_RTOL, atol=0)
    diags = table_double_average(table, g, p)
    for got_k, want_k in zip(diags, table_double_average(want, g, p)):
        np.testing.assert_allclose(got_k, want_k, rtol=PAIR_RTOL, atol=0)
    monkeypatch.setattr(weights, "REDUCING_NET", 16)
    red = reducing_pyramid(W, g, p)
    rep = ap_characteristic(W, p, g)
    for got_k, V, Vp in zip(rep.per_level, red["V"], red["V_prime"]):
        np.testing.assert_allclose(got_k, svd_norm(V @ Vp) ** p, rtol=PAIR_RTOL, atol=0)
    assert rep.value_integral == max(float(a.max()) for a in diags)


def table_double_average(G, grid, p):
    """Per-level cube values of the A_p double average from the whole N x N
    leaf-pair table G[x, t] = ||W^{1/p}(x) W^{-1/p}(t)||, which is
    overwritten: the inner t-averages go up one level at a time, and at each
    level the outer x-average of their p/p' powers is read on the cube
    diagonal x-cube == t-cube."""
    d, L = grid.d, grid.L
    pprime = p / (p - 1.0)
    G **= pprime
    G = G.reshape(grid.leaf_shape + grid.leaf_shape)
    diags = [None] * (L + 1)
    inner = G
    for k in range(L, -1, -1):
        if k < L:
            inner = coarsen_levels(inner, d, 1, axis=d)
        outer = coarsen_levels(inner ** (p / pprime), d, L - k)
        side = np.arange(1 << k)
        if d == 1:
            diags[k] = outer[side, side]
        else:
            i, j = np.meshgrid(side, side, indexing="ij")
            diags[k] = outer[i, j, i, j]
    return diags


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("kind, d, L", [
    *[("rotated", d, L) for d, L in [(1, 3), (1, 6), (1, 10), (2, 2), (2, 4)]],
    *[("random-spd-n3", d, L) for d, L in [(1, 3), (1, 6), (2, 2), (2, 4)]],
])
def test_streamed_double_average_matches_the_table(kind, d, L, p, monkeypatch):
    # x-row blocks of a quarter of the rows, of all of them and of twice as
    # many give every level of the whole table's double average bit for bit.
    # n = 3 takes one SVD per leaf pair, about 3.5 s per pass at L = 10, so
    # it runs on the smaller grids only
    W = (MatrixWeight.rotated_power([0.4, -0.3], 0.7) if kind == "rotated"
         else MatrixWeight.random_spd(5, cond=16.0, n=3))
    g, n = Grid(d, L), W.n
    P = W.leaf_reps(g, 1.0 / p).reshape(-1, n, n)
    N = W.leaf_reps(g, -1.0 / p).reshape(-1, n, n)
    want = table_double_average(pair_table(P, N), g, p)
    calls = []
    pair_opnorm_rows = linalg.pair_opnorm_rows

    def spy(A, B):
        rows = pair_opnorm_rows(A, B)
        return lambda block, buf: calls.append(len(buf)) or rows(block, buf)

    monkeypatch.setattr(linalg, "pair_opnorm_rows", spy)
    count = g.n_leaves
    for rows, blocks in ((count // 4, 4), (count, 1), (2 * count, 1)):
        monkeypatch.setattr(linalg, "BLOCK_BYTES", 8 * count * rows)
        calls.clear()
        got = weights._double_average_levels(P, N, g, p)
        assert calls == [min(rows, count)] * blocks
        assert len(got) == L + 1
        for k, (got_k, want_k) in enumerate(zip(got, want)):
            assert got_k.shape == (1 << k,) * d
            assert np.array_equal(got_k, want_k)


def spd_2x2(seed, count=500, cond=1e6):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, np.pi, count)
    c, s = np.cos(theta), np.sin(theta)
    R = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    lam = np.exp(rng.uniform(-0.5, 0.5, (count, 2)) * np.log(cond))
    return (R * lam[:, None, :]) @ np.swapaxes(R, 1, 2)


# u = 2^-53.  ``pair_opnorm_rows`` proves its squares form within 6.03 u
# sigma_1 of the hypot form of the same sums, and ``_double_average_levels``
# a level of the double average within p (11 + 2 d L) u of the hypot form's
U = 2.0 ** -53
SQUARES_VS_HYPOT = 6.03 * U


def rotations(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


def pair_sets():
    """(P, N) stacks whose products are near-conformal (sigma_1 close to
    sigma_2, or equal for the scaled rotations) or products of two very
    ill-conditioned SPD matrices."""
    rng = np.random.default_rng(27)
    R1, R2 = rotations(rng.uniform(0.0, 2.0 * np.pi, (2, 64)))
    return {
        "scaled-rotations": (3.0 * R1, R2),
        "near-conformal": (R1 + 1e-9 * rng.standard_normal((64, 2, 2)), 0.5 * R2),
        "ill-conditioned-spd": (spd_2x2(3, 64, cond=1e12), spd_2x2(4, 64, cond=1e12)),
    }


@pytest.mark.parametrize("name", list(pair_sets()))
def test_squares_form_matches_svd_and_hypot(name):
    P, N = pair_sets()[name]
    table, hyp = pair_table(P, N), hypot_table(P, N)
    np.testing.assert_allclose(table, svd_norm(P[:, None] @ N[None]), rtol=PAIR_RTOL, atol=0)
    assert np.all(np.abs(table - hyp) <= SQUARES_VS_HYPOT * hyp)


@pytest.mark.parametrize("scale", [2.0 ** 600, 2.0 ** -600])
def test_outside_the_squares_range_takes_the_hypot_form(scale):
    # every other P_x scaled past the range: sigma_1 above 2^509 or h1 below
    # 2^-450.  Those rows, and the zero matrix, equal the hypot form bit for
    # bit; the others stay within its bound, and 2-row blocks give the
    # whole table's bits
    rng = np.random.default_rng(28)
    P, N = rng.standard_normal((2, 32, 2, 2))
    P[::2] *= scale
    P[1] = 0.0
    table, hyp = pair_table(P, N), hypot_table(P, N)
    assert np.array_equal(table[::2], hyp[::2]) and np.all(table[1] == 0.0)
    assert np.all(np.abs(table - hyp) <= SQUARES_VS_HYPOT * hyp)
    np.testing.assert_allclose(table, svd_norm(P[:, None] @ N[None]), rtol=PAIR_RTOL, atol=0)
    rows, buf = linalg.pair_opnorm_rows(P, N), np.empty((2, len(N)))
    for lo in range(0, len(P), 2):
        assert np.array_equal(rows(slice(lo, lo + 2), buf), table[lo:lo + 2])


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("d, L", [(1, 10), (2, 4)])
def test_double_average_within_its_bound_of_the_hypot_form(d, L, p):
    g = Grid(d, L)
    for W in (MatrixWeight.rotated_power([0.4, -0.3], 0.7),
              MatrixWeight.rotated_power([-0.45, 0.4], 2.0)):
        P = W.leaf_reps(g, 1.0 / p).reshape(-1, 2, 2)
        N = W.leaf_reps(g, -1.0 / p).reshape(-1, 2, 2)
        want = table_double_average(hypot_table(P, N), g, p)
        for got_k, want_k in zip(weights._double_average_levels(P, N, g, p), want):
            np.testing.assert_allclose(got_k, want_k, rtol=p * (11 + 2 * d * L) * U, atol=0)


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


def eigh_power(a, s):
    """The eigendecomposition path of ``powm_spd``: V diag(w^s) V^T."""
    w, v = np.linalg.eigh(linalg.symmetrize(a))
    return (v * (w ** s)[..., None, :]) @ np.swapaxes(v, -1, -2)


@pytest.mark.parametrize("s", [0.5, -0.5, 1.0 / 3.0, -1.0])
def test_diagonal_powers_have_the_eigh_bits(s, monkeypatch):
    # 1,000 random batches of diagonal 1x1, 2x2 and 3x3 matrices, diagonals
    # over 26 decades with repeated values among them; the 2x2 inverse keeps
    # the closed form of _inv_small, whose bits differ, so it is left out
    rng = np.random.default_rng(24)
    batches = []
    for t in range(1000):
        n = (1, 3)[t % 2] if s == -1.0 else (1, 2, 3)[t % 3]
        shape = tuple(rng.integers(1, 9, size=t % 3)) + (n,)
        d = np.exp(rng.uniform(-30.0, 30.0, size=shape))
        if t % 5 == 0:
            d = np.round(d) + 1.0
        a = np.zeros(shape + (n,))
        np.einsum("...ii->...i", a)[...] = d
        batches.append((a, eigh_power(a, s)))
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: pytest.fail("eigh called"))
    for a, want in batches:
        got = linalg.powm_spd(a, s)
        assert got.tobytes() == want.tobytes()


def test_off_diagonal_entries_take_eigh(monkeypatch):
    a = np.broadcast_to(np.diag([2.0, 3.0]), (4, 2, 2)).copy()
    a[3, 0, 1] = a[3, 1, 0] = 1e-300
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
    # one off-diagonal entry sends the whole batch to eigh
    linalg.powm_spd(a, 0.5)
    assert calls == [(4, 2, 2)]
    with pytest.raises(np.linalg.LinAlgError):
        linalg.powm_spd(np.diag([1.0, 0.0]), 0.5)
    assert calls == [(4, 2, 2)]


# ---------------------------------------------------------------------------
# Certified dense spectral norms: a lower bound and a Cholesky-proved upper
# bound, or the lower bound alone when the Cholesky fails
# ---------------------------------------------------------------------------

def known_svd(sigma, v1, seed):
    """Random U diag(sigma) V^T whose first right singular vector is v1."""
    rng = np.random.default_rng(seed)
    n = len(sigma)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(np.column_stack([v1, rng.standard_normal((n, n - 1))]))
    return (U * sigma) @ V.T


def test_lower_bound_when_lanczos_misses_the_top(monkeypatch):
    # the top right singular vector is orthogonal to the seeded start vector
    # of Golub-Kahan-Lanczos, which therefore converges to sigma_2; only the
    # failed Cholesky at sigma_2^2 can reveal that, and the value stays an
    # uncertified lower end
    monkeypatch.setattr(linalg, "LANCZOS_MIN_DIM", 8)
    n, seed = 64, 3
    start = np.random.default_rng(seed).standard_normal(n)
    v1 = np.random.default_rng(99).standard_normal(n)
    v1 -= (v1 @ start) / (start @ start) * start
    sigma = np.concatenate([[2.01, 2.0], np.linspace(1.0, 0.1, n - 2)])
    M = known_svd(sigma, v1 / np.linalg.norm(v1), seed=5)
    missed, _, diag = linalg.matfree_spectral_norm(lambda v: M @ v, lambda u: M.T @ u, n, seed)
    assert diag["converged"] and missed == pytest.approx(sigma[1], rel=1e-12)
    value, det = linalg.spectral_norm([M], seed)
    assert not det["certified"] and det["upper"] is None and det["shift"] is None
    assert "lower_from" not in det and det["lanczos_steps"] == diag["iterations"]
    assert det["lower"] == value == missed <= sigma[0]
    # as the matrix of an operator, with the identity weight, the norm is
    # labelled a lower bound
    M4 = M.reshape(n // 2, 2, n // 2, 2)
    op = Operator(Grid(1, 5), 2, None, blocks=lambda: (
        [[M4[:, i, :, j] for j in range(2)] for i in range(2)], M))
    rep = weighted_operator_norm(op, MatrixWeight.identity(), 2.0, seed)
    assert rep.kind == "lower-bound" and rep.value == value


def test_cholesky_rejects_c_below_lambda_max():
    M = known_svd(np.linspace(3.0, 0.5, 40), np.eye(40)[0], seed=7)
    gram = M.T @ M
    before = gram.copy()
    theta2 = np.linalg.eigvalsh(gram)[-1]
    assert not linalg._certify_upper(gram, theta2 * (1 - 1e-8), 40)
    assert np.array_equal(gram, before)           # restored bit for bit
    _, det = linalg.spectral_norm([M])
    assert linalg._certify_upper(gram, det["upper"] ** 2, 40)
    assert np.array_equal(gram, before)           # also after a success


@pytest.mark.parametrize("n", [30, 300])
def test_bracket_holds_the_svd_value(n):
    # n = 30 takes its lower end from eigvalsh, n = 300 from Lanczos
    rng = np.random.default_rng(n)
    M = rng.standard_normal((n, n)) * np.logspace(0, -3, n)
    value, det = linalg.spectral_norm([M])
    want = svd_norm(M)
    assert det["certified"]
    assert ("lanczos_steps" in det) == (n > linalg.LANCZOS_MIN_DIM)
    assert value == det["lower"] == pytest.approx(want, rel=1e-13)
    assert want <= det["upper"] <= want * (1 + 1e-9)
    assert det["shift"] == pytest.approx(det["upper"] ** 2 - value ** 2, rel=1e-3)


# ---------------------------------------------------------------------------
# Direct sums: one Gram matrix and one Cholesky per summand, Lanczos on the
# whole sum
# ---------------------------------------------------------------------------

def direct_sum(blocks):
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def test_permuted_direct_sum_matches_the_svd(monkeypatch):
    # the summands of a matrix whose rows and columns interleave two blocks
    # (as the component classes of a leaf-major, component-minor index do)
    rng = np.random.default_rng(11)
    M = rng.standard_normal((300, 300)) * np.logspace(0, -2, 300)
    M[0::2, 1::2] = M[1::2, 0::2] = 0.0
    blocks = [M[0::2, 0::2], M[1::2, 1::2]]
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or cholesky(a))
    value, det = linalg.spectral_norm(blocks)
    want = svd_norm(M)
    assert det["summands"] == 2 and det["certified"]
    assert calls == [(150, 150), (150, 150)]
    assert "lanczos_steps" in det                # 300 columns in all
    assert value == det["lower"] == pytest.approx(want, rel=1e-13)
    assert want <= det["upper"] <= want * (1 + 1e-9)
    assert max(svd_norm(b) for b in blocks) == pytest.approx(want, rel=1e-14)


def test_lower_bound_when_lanczos_misses_the_larger_summand(monkeypatch):
    # the start vector's part on the larger summand's columns is orthogonal
    # to that summand's top right singular vector, so Lanczos on the sum
    # converges to the smaller summand's sigma_1; only the failed Cholesky of
    # the larger summand can reveal that, and the value stays an uncertified
    # lower end
    monkeypatch.setattr(linalg, "LANCZOS_MIN_DIM", 8)
    n, seed = 32, 3
    start = np.random.default_rng(seed).standard_normal(2 * n)
    v1 = np.random.default_rng(99).standard_normal(n)
    tail = start[n:]
    v1 -= (v1 @ tail) / (tail @ tail) * tail
    small = known_svd(np.linspace(2.0, 0.1, n), np.eye(n)[0], seed=4)
    large = known_svd(np.concatenate([[2.01], np.linspace(1.0, 0.1, n - 1)]),
                      v1 / np.linalg.norm(v1), seed=5)
    blocks = [small, large]
    missed, _, diag = linalg.matfree_spectral_norm(
        *linalg._direct_sum_maps(blocks), 2 * n, seed)
    assert diag["converged"] and missed == pytest.approx(2.0, rel=1e-12)
    value, det = linalg.spectral_norm(blocks, seed)
    assert not det["certified"] and det["upper"] is None and det["summands"] == 2
    assert "lower_from" not in det and det["lanczos_steps"] == diag["iterations"]
    assert det["lower"] == value == missed <= 2.01


@pytest.mark.parametrize("n", [30, 300])
def test_all_zero_summand(n):
    rng = np.random.default_rng(n + 1)
    A = rng.standard_normal((n, n - 5))
    zero = np.zeros((n + 4, n))
    value, det = linalg.spectral_norm([zero, A])
    want = svd_norm(direct_sum([zero, A]))
    assert det["certified"] and det["summands"] == 2
    assert ("lanczos_steps" in det) == (n > linalg.LANCZOS_MIN_DIM)
    assert value == pytest.approx(want, rel=1e-13)
    assert want <= det["upper"] <= want * (1 + 1e-9)
    # the zero operator alone is certified at the scale of the underflow allowance
    value, det = linalg.spectral_norm([zero, np.zeros((3, 4))])
    assert value == 0.0 and det["certified"] and det["upper"] ** 2 < 1e-300


# ---------------------------------------------------------------------------
# Norm bounds that clear a summand without its Gram matrix
# ---------------------------------------------------------------------------

def exact_frobenius_sq(m):
    return sum(Fraction(float(x)) ** 2 for x in m.ravel())


def integer_rank1(rng, rows, cols, top):
    """u v^T with integer u, v of at most ``top``: exact in floating point,
    and its lambda_max(M^T M) is the exact (sum u^2)(sum v^2)."""
    u = rng.integers(1, top, rows) * rng.choice([-1, 1], rows)
    v = rng.integers(1, top, cols) * rng.choice([-1, 1], cols)
    return np.outer(u, v).astype(float), Fraction(int((u * u).sum()) * int((v * v).sum()))


@pytest.mark.parametrize("block_bytes", [linalg.BLOCK_BYTES, 4096])
def test_norm_bound_covers_lambda_max(block_bytes, monkeypatch):
    # block_bytes 4096 takes the abs sums over blocks of a few rows
    monkeypatch.setattr(linalg, "BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(12)
    # random and ill-conditioned (cond 1e12): against the SVD, which is far
    # below both norms of the bound
    for M in (rng.standard_normal((300, 200)),
              known_svd(np.logspace(0, -12, 120), np.eye(120)[0], seed=4)[:, :90]):
        assert linalg._norm_bound(M) >= svd_norm(M) ** 2 * (1 + 1e-12)
    # rank 1, where ||M||_F^2 is lambda_max itself: against the exact value,
    # with sums of squares of up to 2^50 that round
    for rows, cols in ((700, 300), (5, 3), (1, 1)):
        M, lam = integer_rank1(rng, rows, cols, 1 << 25)
        assert Fraction(linalg._norm_bound(M)) >= lam
    # entries near 1e-160, whose squares are subnormal and lose their low
    # bits or vanish: rank-1 matrices scaled by 2^-538 exactly, and a random one
    M, lam = integer_rank1(rng, 40, 30, 50)
    tiny = np.ldexp(M, -538)
    assert 1e-162 < np.abs(tiny).max() < 1e-158 and (tiny * tiny).max() < 2.0 ** -1022
    assert Fraction(linalg._norm_bound(tiny)) >= lam / 2 ** 1076
    ones = np.ldexp(np.ones((64, 64)), -538)
    assert Fraction(linalg._norm_bound(ones)) >= Fraction(64 * 64) / 2 ** 1076
    R = rng.standard_normal((50, 40))
    assert (Fraction(linalg._norm_bound(np.ldexp(R, -538)))
            >= Fraction(svd_norm(R) ** 2 * (1 + 1e-12)) / 2 ** 1076)


def test_norm_bound_forms_no_whole_abs_matrix():
    # an 8 MiB matrix: its abs sums run over 1 MiB row blocks, so the bound
    # holds about one block and its sums at a time, not a second 8 MiB |M|
    import tracemalloc
    M = np.random.default_rng(13).standard_normal((1024, 1024))
    tracemalloc.start()
    try:
        linalg._norm_bound(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * linalg.BLOCK_BYTES


def test_norm_bound_is_min_of_two_norms():
    # ||M||_F^2 = n for the identity, ||M||_1 ||M||_inf = n^2 for a row of ones
    n = 50
    assert linalg._norm_bound(np.eye(n)) == pytest.approx(1.0, rel=1e-9)
    assert linalg._norm_bound(np.ones((1, n))) == pytest.approx(n, rel=1e-9)
    assert linalg._norm_bound(np.ones((n, n))) == pytest.approx(n * n, rel=1e-9)
    assert linalg._norm_bound(np.zeros((0, 3))) > 0.0


@pytest.mark.parametrize("n", [30, 300])
def test_small_summand_is_cleared_by_its_bound(n, monkeypatch):
    # a summand with sigma_1 far below the other's is cleared without a
    # Cholesky; with its bound made infinite it is factored, and the bracket
    # still holds
    rng = np.random.default_rng(n + 2)
    large = rng.standard_normal((n, n))
    small = 1e-3 * rng.standard_normal((n // 2, n // 3))
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or cholesky(a))
    value, det = linalg.spectral_norm([small, large])
    assert calls == [(n, n)]
    assert det["cholesky_summands"] == 1 and det["bound_summands"] == 1
    want = svd_norm(large)
    assert det["certified"] and value == pytest.approx(want, rel=1e-13)
    assert want <= det["upper"] <= want * (1 + 1e-9)
    calls.clear()
    monkeypatch.setattr(linalg, "_norm_bound", lambda m: np.inf)
    forced, det = linalg.spectral_norm([small, large])
    assert sorted(calls) == sorted([(n // 3, n // 3), (n, n)])
    assert det["cholesky_summands"] == 2 and det["bound_summands"] == 0
    assert det["certified"] and forced == value
    assert want <= det["upper"] <= want * (1 + 1e-9)


def test_one_summand_gets_no_bound(monkeypatch):
    monkeypatch.setattr(linalg, "_norm_bound", lambda m: pytest.fail("bound taken"))
    _, det = linalg.spectral_norm([np.random.default_rng(3).standard_normal((20, 20))])
    assert det["certified"] and det["cholesky_summands"] == 1 and det["bound_summands"] == 0
