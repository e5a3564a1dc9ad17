"""Batched small-matrix helpers and spectral norms: a closed form for 2x2
matrices, a certified bracket for direct sums of dense matrices (a Lanczos or
eigensolve lower bound and an upper bound proved per summand by a norm bound
or by one floating-point Cholesky) and a matrix-free Golub-Kahan-Lanczos
lower bound."""

from __future__ import annotations

import numpy as np


def symmetrize(a):
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def powm_spd(a, s):
    """Batched symmetric power A^s via eigendecomposition (A must be SPD);
    the 2x2 inverse takes the closed form of ``_inv_small``.  A batch whose
    off-diagonal entries are all zero is diag(d^s) without ``eigh``: for a
    diagonal matrix ``eigh`` returns the diagonal and unit eigenvectors, and
    its product V diag(w^s) V^T has the bits of diag(d^s)."""
    a = symmetrize(np.asarray(a, dtype=float))
    if s == -1 and a.shape[-2:] == (2, 2):
        if np.any(a[..., 0, 0] <= 0) or np.any(a[..., 0, 0] * a[..., 1, 1] <= a[..., 0, 1] ** 2):
            raise np.linalg.LinAlgError("matrix power of a non positive definite matrix")
        return _inv_small(a)
    n = a.shape[-1]
    # a is exactly symmetric, so for 2x2 one off-diagonal entry decides (the
    # cheapest test, as 2x2 batches are nearly every call)
    off = a[..., 0, 1] if n == 2 else a[..., ~np.eye(n, dtype=bool)]
    if not np.count_nonzero(off):
        d = np.diagonal(a, axis1=-2, axis2=-1)
        if np.any(d <= 0):
            raise np.linalg.LinAlgError("matrix power of a non positive definite matrix")
        out = np.zeros_like(a)
        np.einsum("...ii->...i", out)[...] = d ** s
        return out
    w, v = np.linalg.eigh(a)
    if np.any(w <= 0):
        raise np.linalg.LinAlgError("matrix power of a non positive definite matrix")
    return (v * (w ** s)[..., None, :]) @ np.swapaxes(v, -1, -2)


def sqrtm_spd(a):
    return powm_spd(a, 0.5)


def opnorm(a):
    """Batched spectral norm (largest singular value).

    For 2x2 matrices [[a, b], [c, d]] it is the exact closed form
    sigma_1 = (hypot(a + d, b - c) + hypot(a - d, b + c)) / 2; the two hypots
    are sigma_1 + sigma_2 and sigma_1 - sigma_2.  Other sizes fall back to
    the SVD.
    """
    a = np.asarray(a, dtype=float)
    if a.shape[-2:] != (2, 2):
        return np.linalg.svd(a, compute_uv=False)[..., 0]
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    return _sigma1_2x2(np.asarray(v) for v in (a00 + a11, a01 - a10, a00 - a11, a01 + a10))


def _sigma1_2x2(sums):
    """(hypot(a + d, b - c) + hypot(a - d, b + c)) / 2 from an iterator over
    fresh arrays a + d, b - c, a - d, b + c.  They are taken in turn and the
    hypots are written over them, so at most three are alive at once."""
    s = next(sums)
    np.hypot(s, next(sums), out=s)
    t = next(sums)
    s += np.hypot(t, next(sums), out=t)
    s *= 0.5
    return s


def _inv_small(S):
    """Batched inverse; closed form for the symmetric 2x2 case."""
    if S.shape[-1] != 2:
        return np.linalg.inv(S)
    a, b, c = S[..., 0, 0], S[..., 0, 1], S[..., 1, 1]
    det = a * c - b * b
    out = np.empty_like(S)
    out[..., 0, 0] = c
    out[..., 1, 1] = a
    out[..., 0, 1] = -b
    out[..., 1, 0] = -b
    return out / det[..., None, None]


def _sqrtm_2x2(A):
    """Batched square root of symmetric positive definite 2x2 matrices in
    closed form: sqrt(A) = (A + sqrt(det A) I) / sqrt(tr A + 2 sqrt(det A)),
    by Cayley-Hamilton for the root, whose trace is that denominator and whose
    determinant is sqrt(det A)."""
    a, b, c = A[..., 0, 0], A[..., 0, 1], A[..., 1, 1]
    r = np.sqrt(a * c - b * b)
    t = np.sqrt(a + c + 2.0 * r)
    out = np.empty_like(A)
    out[..., 0, 0] = (a + r) / t
    out[..., 1, 1] = (c + r) / t
    out[..., 0, 1] = out[..., 1, 0] = b / t
    return out


def pair_opnorm_rows(P, N):
    """rows(block, out): writes ||P_x N_t|| for the matrices P_x of the
    slice ``block`` of P (x-rows) and every N_t (columns) into ``out``, a
    (rows, len(N)) array, and returns it; P and N are stacks of n x n
    matrices.  The table of ``dyadic.ancestor_averages`` is built with it a
    block of rows at a time, in one buffer.

    For n = 2 no product is formed.  With F = P_x flattened to
    (p00, p01, p10, p11), each of a + d, b - c, a - d and b + c of
    M = P_x N_t is the bilinear form F . H with H a signed rearrangement of
    N_t's entries; the four rearrangements are stacked once, and a block
    takes four (rows x 4) @ (4 x len(N)) GEMMs, one into ``out`` and three
    into two scratch blocks that ``rows`` keeps from call to call.  It goes
    through ``block_rows`` sub-blocks of ``out`` whose three buffers fit in
    one ``BLOCK_BYTES`` together, so that each GEMM and square stays in
    cache: at d = 1, L = 10 the double average took 20 ms this way against
    26 ms on whole 1 MiB blocks (2 vCPUs, OpenBLAS).  Other n take the
    formed products and the SVD.

    sigma_1 = (h1 + h2) / 2 with h1 = sqrt((a + d)^2 + (b - c)^2) =
    sigma_1 + sigma_2 and h2 = sqrt((a - d)^2 + (b + c)^2) = sigma_1 -
    sigma_2, each half taken as sqrt(s*s + t*t) in place rather than by
    ``np.hypot`` (about 3 ns per entry against 8 for the hypot, 2 vCPUs).
    With u = 2^-53, on the entries whose computed h1 >= 2^-450 and
    sigma_1 <= 2^509:

    * nothing overflows: sigma_1 >= h1 (1 - u) / 2 and sigma_1 >= h2 (1 -
      u) / 2, so h1, h2 <= 2^510 (1 + 2u) and every square and sum is below
      2^1021.  An overflow anywhere would have made sigma_1 infinite;
    * h1: s^2 + t^2 > 2^-901, and a square that underflows errs by at most
      2^-1075 in absolute terms, so the computed sum is (s^2 + t^2)(1 + e)
      with |e| <= 2u + u^2 + 2^-173, and its rounded root is within 2.01 u
      of the exact h1;
    * h2 <= h1 needs no range of its own: its computed value is within
      2.01 u h2 + 2^-537 of the exact one, as underflowing squares add at
      most 2^-1074 to the sum and sqrt(q + 2^-1074) <= sqrt(q) + 2^-537;
      and 2^-537 is below 2^-32 u sigma_1, as sigma_1 > 2^-452;
    * the sum adds one rounding u, and the halving is exact.

    So sigma_1 is within 3.02 u sigma_1 of the exact value for the computed
    sums.  ``opnorm``'s hypot form (glibc documents hypot to 1 ulp, at most
    2u relative) is within 3.01 u sigma_1 of it, so the two forms differ by
    at most 6.03 u sigma_1: at most 6 ulps.  Each sub-block takes two
    reductions, min h1 and max sigma_1; when either leaves the range (an
    infinity or a NaN fails it too), its sums are taken again by the same
    GEMMs and every entry outside the range gets ``_sigma1_2x2``'s hypot
    form."""
    P = np.asarray(P, dtype=float)
    N = np.asarray(N, dtype=float)
    if P.shape[-2:] != (2, 2):
        def rows(block, out):
            out[...] = opnorm(P[block][:, None] @ N[None, :])
            return out
        return rows
    F = P.reshape(-1, 4)
    n00, n01, n10, n11 = N[:, 0, 0], N[:, 0, 1], N[:, 1, 0], N[:, 1, 1]
    H = [np.stack(h) for h in ((n00, n10, n01, n11), (n01, n11, -n00, -n10),
                               (n00, n10, -n01, -n11), (n01, n11, n00, n10))]
    scratch = None

    def rows(block, out):
        nonlocal scratch
        f = F[block]
        step = block_rows(len(out), 3 * 8 * len(N))
        if scratch is None or scratch.shape[1:] != (step, len(N)):
            scratch = np.empty((2, step, len(N)))
        t, w = scratch
        # a square past the range may overflow; the range check catches it
        with np.errstate(over="ignore"):
            for lo in range(0, len(out), step):
                _sigma1_squares(f[lo:lo + step], H, out[lo:lo + step], t, w)
        return out

    return rows


# the range of the squares form of ``pair_opnorm_rows``: h1 = sigma_1 +
# sigma_2 at least _H1_MIN and sigma_1 at most _SIGMA1_MAX
_H1_MIN = 2.0 ** -450
_SIGMA1_MAX = 2.0 ** 509


def _sigma1_squares(f, H, out, t, w):
    """sigma_1 of the products with F-rows ``f`` into ``out`` (``t`` and ``w``
    are scratch of its shape), by ``pair_opnorm_rows``'s squares form on its
    range and by ``_sigma1_2x2`` outside it."""
    # out holds h1, whose minimum the range check reads, then (h1 + h2) / 2
    low = _half_sum(np.matmul(f, H[0], out=out), np.matmul(f, H[1], out=t)).min()
    out += _half_sum(np.matmul(f, H[2], out=t), np.matmul(f, H[3], out=w))
    out *= 0.5
    if not (low >= _H1_MIN and out.max() <= _SIGMA1_MAX):
        sums = [f @ h for h in H]
        bad = ~((np.sqrt(sums[0] * sums[0] + sums[1] * sums[1]) >= _H1_MIN)
                & (out <= _SIGMA1_MAX))
        out[bad] = _sigma1_2x2(s[bad] for s in sums)


def _half_sum(s, t):
    """sqrt(s*s + t*t), written over s (t is overwritten too)."""
    s *= s
    t *= t
    s += t
    return np.sqrt(s, out=s)


def lambda_max(a):
    """Batched largest eigenvalue of symmetric matrices."""
    return np.linalg.eigvalsh(symmetrize(a))[..., -1]


# bytes of one block of the tables that are built a block of rows (or
# columns) at a time instead of whole: the leaf-pair tables of the A_p double
# average and of M_W, and the dense matrix of an operator.  Blocks that stay
# in cache are faster too (2 vCPUs with a 2 MiB L2 cache per core, OpenBLAS):
# the A_p double average at d = 1, L = 12 took 0.6-0.8 s with blocks of
# 0.5-4 MiB against 1.05 s for the whole 128 MiB table, and dense assembly at
# dim 1024 ran faster in 1 MiB blocks than whole, and slower in 4 MiB ones
BLOCK_BYTES = 1 << 20


def block_rows(count, row_bytes):
    """Rows per block of a table of ``count`` rows of ``row_bytes`` bytes that
    is built ``BLOCK_BYTES`` at a time: all of them when the whole table fits,
    else the largest power of two, at least two, that fits and divides
    ``count``, so that the blocks tile the table evenly.  BLAS takes a
    one-row product down its matrix-vector path and a width that is not a
    power of two down another remainder path, and both round otherwise than
    the whole table's product; blocks of 2, 4, 8, ... rows give its bits."""
    if count * row_bytes <= BLOCK_BYTES:
        return count
    return min(1 << (max(2, BLOCK_BYTES // row_bytes).bit_length() - 1), count & -count)


# unit round-off, and the smallest normal number (2^-1022) that stands in for
# the smallest subnormal in the underflow allowance of ``_rounding_bound``
_U = np.finfo(float).eps / 2
_TINY = np.finfo(float).tiny


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u)."""
    return k * _U / (1.0 - k * _U)


def _rounding_bound(gdiag, c, rows):
    """e such that a completed floating-point Cholesky of A^ = (c - e) I - G^
    proves lambda_max(G) <= c, where G^ = fl(M^T M) (diagonal ``gdiag``) is
    the computed Gram matrix of an (rows x n) matrix M and G = M^T M exactly.

    With b = c - e and D the rounding of the diagonal update,
    c I - G = A^ + (c - b) I + (G^ - G) - D, so lambda_max(G) <= c follows
    from lambda_min(A^) >= -(e - ||G^ - G||_2 - ||D||_2).  e is the sum of:

    * the Gram product: |G^ - G| <= gamma_rows |M|^T |M| entrywise (Higham,
      *Accuracy and Stability of Numerical Algorithms*, 2nd ed., Ch. 3), so
      ||G^ - G||_2 <= gamma_rows ||M||_F^2, and ||M||_F^2 is tr(G^) up to a
      factor 1 + gamma_rows;
    * the diagonal update: each fl(b - g^_ii) is off by at most
      u |b - g^_ii| <= u max(c, max_i g^_ii), which bounds ||D||_2;
    * the Cholesky itself: if it completes, R^T R = A^ + dA with
      |dA| <= gamma_{n+1} |R^T| |R| (Higham, Thm 10.3), for any order of the
      inner products and so for blocked LAPACK.  Since tr(R^T R) <= tr(A^) +
      gamma_{n+1} ||R||_F^2 and || |R^T| |R| ||_2 <= ||R||_F^2, this gives
      lambda_min(A^) >= -gamma_{n+1} / (1 - gamma_{n+1}) tr(A^) (S. M. Rump,
      "Verification of positive definiteness", BIT 46, 2006); a completed
      Cholesky has a positive diagonal, so tr(A^) <= n c;
    * underflow, which the relative bounds above do not cover: Rump bounds it
      by a small multiple of n (n + max a^_ii) eta, with eta = 2^-1074 the
      smallest subnormal.  The allowance here, (n + rows + 8)^2 (1 + c)
      2^-1022, exceeds n (n + max a^_ii) eta by a factor above 2^52, which
      leaves room for that multiple and for the Gram product's underflow of
      at most rows * n * eta.

    Each term is a sum of at most n + rows positive floating-point numbers,
    whose relative rounding is far below the factor 1.01 that e carries.  The
    Cholesky reads one triangle of A^, and every entry of either triangle
    obeys these bounds.
    """
    n = len(gdiag)
    chol = _gamma(n + 1) / (1.0 - _gamma(n + 1)) * n * c
    return 1.01 * (chol + _gamma(rows) * float(gdiag.sum()) + _U * max(c, float(gdiag.max()))
                   + (n + rows + 8) ** 2 * (1.0 + c) * _TINY)


def _certify_upper(gram, c, rows):
    """True when a floating-point Cholesky proves lambda_max(M^T M) <= c (see
    ``_rounding_bound``).  ``gram`` is the computed M^T M of an (rows x n)
    matrix M; it is overwritten by the shifted matrix for the check (negation
    is exact, so only the diagonal is rounded) and restored bit for bit
    afterwards."""
    n = gram.shape[0]
    gdiag = gram.diagonal().copy()
    e = _rounding_bound(gdiag, c, rows)
    b = c - e
    while c - b < e:                          # c - b is exact (Sterbenz)
        b = np.nextafter(b, -np.inf)
    np.negative(gram, out=gram)
    gram.flat[::n + 1] += b
    try:
        # the transposed view is the same symmetric matrix, and numpy copies
        # it to LAPACK's column-major layout with unit strides
        certified = bool(np.isfinite(np.linalg.cholesky(gram.T).diagonal()).all())
    except np.linalg.LinAlgError:
        certified = False
    np.negative(gram, out=gram)
    gram.flat[::n + 1] = gdiag
    return certified


def _norm_bound(m):
    """b >= lambda_max(M^T M) = ||M||_2^2 from M alone, with no Gram matrix:
    ||M||_2^2 <= min(||M||_F^2, ||M||_1 ||M||_inf) (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., Ch. 6), the sums taken
    over ``block_rows`` row blocks of |M| in one buffer, so that no whole |M|
    is formed (the blocks tile M evenly).

    Rounding: |m_ij| is exact, and every sum is of at most k = rows cols +
    rows + cols nonnegative terms, so in any order it is at least
    (1 - gamma_k) times its exact value; the squares and the product of the
    two largest abs sums add a relative u each.  Underflow in a square or in
    that product is at most one subnormal spacing eta = 2^-1074 apiece.  So
    lambda_max(M^T M) <= (min + k eta) / (1 - gamma_k) <= (1 + 2 gamma_k)
    (min + k eta).  The factor 1 + 4 gamma_k and the allowance k 2^-1022
    (2^52 times k eta) also cover the rounding of b's own three
    operations."""
    rows, cols = m.shape
    step = max(1, block_rows(rows, 8 * cols))
    frob, row_max, col_sums, a = 0.0, 0.0, np.zeros(cols), np.empty((step, cols))
    for lo in range(0, rows, step):
        np.abs(m[lo:lo + step], out=a)
        frob += float(np.vdot(a, a))
        row_max = max(row_max, float(a.sum(axis=1).max(initial=0.0)))
        col_sums += a.sum(axis=0)
    k = rows * cols + rows + cols
    return (1.0 + 4.0 * _gamma(k)) * (min(frob, row_max * float(col_sums.max(initial=0.0)))
                                      + k * _TINY)


# dimension above which the lower bound of ``spectral_norm`` comes from
# Golub-Kahan-Lanczos on the dense matrix instead of a symmetric eigensolve of
# its Gram matrix.  On the sweep's whitened operators (2 vCPUs, OpenBLAS) the
# two tie at 128, Lanczos takes 0.6-1.5x the eigensolve's time at 256 and
# about half of it from 512 up
LANCZOS_MIN_DIM = 256


def spectral_norm(mats, seed=0):
    """Largest singular value of the direct sum of dense matrices M_1, ..., M_m
    (the block-diagonal matrix with these blocks) with a certified bracket.

    The lower bound theta is Golub-Kahan-Lanczos on the whole direct sum
    (above LANCZOS_MIN_DIM columns in all, from the seeded start vector of
    ``matfree_spectral_norm`` over the concatenated columns; each matvec
    concatenates the block products) or else sqrt(lambda_max) of the Gram
    matrices G^_b = M_b^T M_b from ``eigvalsh``.  The Gram matrix of the direct
    sum is block diagonal, so its lambda_max is the largest over the G_b, and
    the upper bound sqrt(c) is proved one summand at a time:

    * with more than one summand, each M_b first gets the norm bound b_b >=
      lambda_max(G_b) of ``_norm_bound``, min(||M_b||_F^2, ||M_b||_1
      ||M_b||_inf) enlarged by 1 + 4 gamma_k and by an underflow allowance.
      A summand with b_b <= theta^2 is cleared with no Gram matrix and no
      Cholesky (a single summand attains theta, so it gets no bound);
    * every other summand forms G^_b (lazily; the eigensolve forms every
      G^_b) and takes one Cholesky (``_certify_upper``)
      at a common c = max_b (theta^2 + s_b) over these summands, with s_b
      twice the rounding bound of G^_b at theta^2 and M_b's own row count
      (``_rounding_bound``).  c then runs about s_b/2 above theta^2 when
      theta is sharp.  When the bounds clear every summand, c is theta^2.

    Every summand is cleared by a check that could have failed.  When a
    Cholesky fails, theta was not sharp (Lanczos converged to another
    singular value, or round-off moved the eigensolve): theta stays the
    lower end, and ``certified`` is false.

    Returns (theta, details) with ``lower``, ``upper`` and ``shift`` c -
    theta^2 (both None when the upper end could not be certified),
    ``certified``, ``summands``, ``cholesky_summands`` and
    ``bound_summands`` (the summands factored and those cleared by their
    norm bound) and ``lanczos_steps`` or ``lower_from``.
    """
    mats = [np.asarray(m, dtype=float) for m in mats]
    n = sum(m.shape[1] for m in mats)
    grams = {}

    def gram(i):
        if i not in grams:
            grams[i] = mats[i].T @ mats[i]
        return grams[i]

    details = {"summands": len(mats)}
    if n > LANCZOS_MIN_DIM:
        theta, _, diag = matfree_spectral_norm(*_direct_sum_maps(mats), n, seed)
        details["lanczos_steps"] = diag["iterations"]
    else:
        details["lower_from"] = "eigvalsh"
        theta = max(_top_singular_value(gram(i)) for i in range(len(mats)))
    t2 = theta * theta
    bounds = [_norm_bound(m) for m in mats] if len(mats) > 1 else [np.inf]
    factor = [i for i, b in enumerate(bounds) if not b <= t2]
    c = max([t2] + [t2 + 2.0 * _rounding_bound(gram(i).diagonal(), t2, len(mats[i]))
                    for i in factor])
    certified = all(_certify_upper(gram(i), c, len(mats[i])) for i in factor)
    details.update(cholesky_summands=len(factor), bound_summands=len(mats) - len(factor),
                   lower=theta, certified=certified,
                   upper=float(np.nextafter(np.sqrt(c), np.inf)) if certified else None,
                   shift=float(c - t2) if certified else None)
    return theta, details


def _direct_sum_maps(mats):
    """matvec and rmatvec of the direct sum of ``mats``: the vector is split
    at the blocks' column (row) boundaries and the block products are
    concatenated."""
    cols = np.cumsum([m.shape[1] for m in mats])[:-1]
    rows = np.cumsum([m.shape[0] for m in mats])[:-1]
    return (lambda v: np.concatenate([m @ x for m, x in zip(mats, np.split(v, cols))]),
            lambda u: np.concatenate([m.T @ y for m, y in zip(mats, np.split(u, rows))]))


def _top_singular_value(gram):
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))


# Golub-Kahan-Lanczos budget: at most this many bidiagonalization steps, and
# stop once the relative Ritz residual is below LANCZOS_TOL
LANCZOS_MAX_STEPS = 300
LANCZOS_TOL = 1e-13


def _orthogonalize(x, basis):
    for _ in range(2):                        # Gram-Schmidt twice is enough
        x = x - basis.T @ (basis @ x)
    return x


def matfree_spectral_norm(matvec, rmatvec, dim, seed=0):
    """Lower bound for the largest singular value of a linear map given only by
    matvec/rmatvec callables: Golub-Kahan-Lanczos bidiagonalization with full
    reorthogonalization from a random unit start vector.

    After k steps A V_k = U_k B_k with orthonormal V_k, U_k and B_k upper
    bidiagonal, so the top Ritz vector x = V_k y of B_k is a unit witness and
    ||A x|| (the returned value) is a true lower bound.  The Ritz residual
    ||A^T u - theta x|| with u = A x / theta equals beta_k |z_k| and is reported
    relative to theta.  Returns (value, witness, {"iterations", "residual",
    "converged"}).
    """
    rng = np.random.default_rng(seed)
    steps = min(LANCZOS_MAX_STEPS, dim)
    V = np.empty((steps + 1, dim))
    U = None
    v = rng.standard_normal(dim)
    V[0] = v / np.linalg.norm(v)
    alphas, betas = [], []
    y, residual = np.ones(1), 0.0
    for k in range(steps):
        u = np.asarray(matvec(V[k]), dtype=float)
        if U is None:
            U = np.empty((steps,) + u.shape)
        u = _orthogonalize(u, U[:k])
        a = float(np.linalg.norm(u))
        if a == 0.0:                          # A v_k lies in span U_{k-1}
            break
        alphas.append(a)
        U[k] = u / a
        w = _orthogonalize(np.asarray(rmatvec(U[k]), dtype=float), V[:k + 1])
        b = float(np.linalg.norm(w))
        betas.append(b)
        zs, sv, yts = np.linalg.svd(np.diag(alphas) + np.diag(betas[:-1], 1))
        y, residual = yts[0], b * abs(zs[-1, 0]) / sv[0]
        if residual <= LANCZOS_TOL:
            break
        V[k + 1] = w / b
    witness = y @ V[:len(y)]
    value = float(np.linalg.norm(matvec(witness)) / np.linalg.norm(witness))
    return value, witness, {"iterations": len(alphas), "residual": float(residual),
                            "converged": bool(residual <= LANCZOS_TOL)}


# power method budget: this many random starts, each at most this many steps
POWER_STARTS = 3
POWER_STEPS = 200


def _lp_dual(v, n, r):
    """(||v||_r, J_r(v / max_l |v_l|)) on l^r(l^2) over the blocks v_l of n
    consecutive entries, with the dual map J_r(u)_l = |u_l|^{r-2} u_l (zero
    at zero) taken as s_l^{r-1} v_l / |v_l|, s_l = |v_l| / max_l |v_l| <= 1,
    so that no power overflows."""
    blocks = v.reshape(-1, n)
    norms = np.linalg.norm(blocks, axis=1)
    top = norms.max()
    s = norms / top if top > 0 else norms
    scale = np.divide(s ** (r - 1.0), norms, out=np.zeros_like(s), where=norms > 0)
    return float(top * (s ** r).sum() ** (1.0 / r)), (blocks * scale[:, None]).reshape(v.shape)


def matfree_lp_norm(matvec, rmatvec, dim, n, p, seed=0):
    """Lower bound for the norm of a linear map A on l^p(l^2) (blocks of n
    consecutive entries, as in ``_lp_dual``) given only by matvec/rmatvec
    callables: Boyd's nonlinear power method (D. W. Boyd, Linear Algebra
    Appl. 9, 1974), x <- J_q(A^T J_p(A x)) with 1/p + 1/q = 1, from
    POWER_STARTS random starts.

    The estimate ||A x||_p / ||x||_p never falls from step to step.  J is
    homogeneous, so take ||x||_p = 1, y = A x and z = A^T J_p(y); with
    <J_r(v), v> = ||v||_r^r and ||J_r(v)||_r' = ||v||_r^{r-1}
    (1/r + 1/r' = 1), Hölder gives
        ||y||_p^p = <J_p(y), A x> = <z, x> <= ||z||_q,
        ||z||_q^q = <J_p(y), A J_q(z)> <= ||y||_p^{p-1} ||A J_q(z)||_p,
        ||A J_q(z)||_p / ||J_q(z)||_p >= ||z||_q / ||y||_p^{p-1} >= ||y||_p.
    A start stops at the fixed-point test ||z||_q ||x||_p <= <z, x> (the
    first inequality holds as an equality) or after POWER_STEPS steps of one
    rmatvec and one matvec each.  Returns (||A x|| / ||x||, x, {"iterations",
    "converged", "start_values"}) of the best start, x its last iterate (its
    start vector when it took no step, as for a zero map); ``start_values``
    holds every start's final ratio, in start order, so that the spread of
    the starts' fixed points shows.
    """
    q = p / (p - 1.0)
    rng = np.random.default_rng(seed)
    best, values = None, []
    for _ in range(POWER_STARTS):
        x, steps, converged = rng.standard_normal(dim), 0, False
        while True:
            (norm_x, _), (norm_y, dual_y) = _lp_dual(x, n, p), _lp_dual(matvec(x), n, p)
            if steps == POWER_STEPS:
                break
            z = rmatvec(dual_y)
            norm_z, dual_z = _lp_dual(z, n, q)
            if converged := bool(norm_z * norm_x <= z @ x):
                break
            x, steps = dual_z, steps + 1
        values.append(norm_y / norm_x)
        if best is None or values[-1] > best[0]:
            best = (values[-1], x, {"iterations": steps, "converged": converged})
    best[2]["start_values"] = values
    return best
