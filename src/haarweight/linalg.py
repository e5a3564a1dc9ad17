"""Batched small-matrix helpers and spectral norms: a closed form for 2x2
matrices, a certified bracket for dense matrices (a Lanczos or eigensolve
lower bound and an upper bound proved by a floating-point Cholesky) and a
matrix-free Golub-Kahan-Lanczos lower bound."""

from __future__ import annotations

import numpy as np


def symmetrize(a):
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def powm_spd(a, s):
    """Batched symmetric power A^s via eigendecomposition (A must be SPD);
    the 2x2 inverse takes the closed form of ``_inv_small``."""
    a = symmetrize(np.asarray(a, dtype=float))
    if s == -1 and a.shape[-2:] == (2, 2):
        if np.any(a[..., 0, 0] <= 0) or np.any(a[..., 0, 0] * a[..., 1, 1] <= a[..., 0, 1] ** 2):
            raise np.linalg.LinAlgError("matrix power of a non positive definite matrix")
        return _inv_small(a)
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


def pair_opnorms(P, N):
    """||P_x N_t|| for every pair of matrices P_x (x < len(P)) and N_t, as a
    (len(P), len(N)) table; P and N are stacks of n x n matrices.

    For n = 2 the table comes from the closed form of ``opnorm`` without
    forming the products: with F = P_x flattened to (p00, p01, p10, p11),
    each of a + d, b - c, a - d and b + c of M = P_x N_t is the bilinear form
    F . H with H a signed rearrangement of N_t's entries, so the four sums
    are four (len(P) x 4) @ (4 x len(N)) GEMMs.  Other n fall back to the
    formed products and the SVD.
    """
    P = np.asarray(P, dtype=float)
    N = np.asarray(N, dtype=float)
    if P.shape[-2:] != (2, 2):
        return opnorm(P[:, None] @ N[None, :])
    F = P.reshape(-1, 4)
    n00, n01, n10, n11 = N[:, 0, 0], N[:, 0, 1], N[:, 1, 0], N[:, 1, 1]
    H = ((n00, n10, n01, n11), (n01, n11, -n00, -n10),
         (n00, n10, -n01, -n11), (n01, n11, n00, n10))
    return _sigma1_2x2(F @ np.stack(h) for h in H)


def lambda_max(a):
    """Batched largest eigenvalue of symmetric matrices."""
    return np.linalg.eigvalsh(symmetrize(a))[..., -1]


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
    matrix M; it is overwritten by the shifted matrix (negation is exact, so
    only the diagonal is rounded) and restored bit for bit when the check
    fails."""
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
    if not certified:
        np.negative(gram, out=gram)
        gram.flat[::n + 1] = gdiag
    return certified


# dimension above which the lower bound of ``spectral_norm`` comes from
# Golub-Kahan-Lanczos on the dense matrix instead of a symmetric eigensolve of
# its Gram matrix.  On the sweep's whitened operators (2 vCPUs, OpenBLAS) the
# two tie at 128, Lanczos takes 0.6-1.5x the eigensolve's time at 256 and
# about half of it from 512 up
LANCZOS_MIN_DIM = 256


def spectral_norm(mat, seed=0):
    """Largest singular value of a dense matrix M with a certified bracket.

    The lower bound theta is Golub-Kahan-Lanczos on M (above LANCZOS_MIN_DIM
    columns, from the seeded start vector of ``matfree_spectral_norm``) or
    sqrt(lambda_max) of the Gram matrix G^ = M^T M from ``eigvalsh``.  The
    upper bound sqrt(c), c = theta^2 + s with s twice the rounding bound at
    theta^2, is proved by a Cholesky (``_certify_upper``), which then runs
    about s/2 above theta^2 when theta is sharp.  When it fails, theta was not
    sharp (Lanczos converged to another singular value): theta is taken again
    from ``eigvalsh`` and certified again, and ``fallback`` is true.

    Returns (theta, details) with ``lower``, ``upper`` and ``shift`` s (both
    None when even the fallback could not be certified), ``certified``,
    ``fallback`` and ``lanczos_steps`` or ``lower_from``.
    """
    mat = np.asarray(mat, dtype=float)
    rows, n = mat.shape
    gram = mat.T @ mat

    def certify(theta):
        c = theta * theta + 2.0 * _rounding_bound(gram.diagonal(), theta * theta, rows)
        return c if _certify_upper(gram, c, rows) else None

    details = {}
    if n > LANCZOS_MIN_DIM:
        theta, _, diag = matfree_spectral_norm(lambda v: mat @ v, lambda u: mat.T @ u, n, seed)
        details["lanczos_steps"] = diag["iterations"]
    else:
        theta = _top_singular_value(gram)
        details["lower_from"] = "eigvalsh"
    c = certify(theta)
    details["fallback"] = c is None and n > LANCZOS_MIN_DIM
    if details["fallback"]:
        theta = _top_singular_value(gram)
        details["lower_from"] = "eigvalsh"
        c = certify(theta)
    details.update(lower=theta, certified=c is not None,
                   upper=None if c is None else float(np.nextafter(np.sqrt(c), np.inf)),
                   shift=None if c is None else float(c - theta * theta))
    return theta, details


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
