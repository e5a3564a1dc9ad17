"""Batched small-matrix helpers and spectral norms: an exact dense eigensolve
and a matrix-free Golub-Kahan-Lanczos lower bound."""

from __future__ import annotations

import numpy as np


def symmetrize(a):
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def powm_spd(a, s):
    """Batched symmetric power A^s via eigendecomposition (A must be SPD)."""
    w, v = np.linalg.eigh(symmetrize(np.asarray(a, dtype=float)))
    if np.any(w <= 0):
        raise np.linalg.LinAlgError("matrix power of a non positive definite matrix")
    return (v * (w ** s)[..., None, :]) @ np.swapaxes(v, -1, -2)


def sqrtm_spd(a):
    return powm_spd(a, 0.5)


def opnorm(a):
    """Batched spectral (largest singular value) norm."""
    return np.linalg.svd(np.asarray(a, dtype=float), compute_uv=False)[..., 0]


def lambda_max(a):
    """Batched largest eigenvalue of symmetric matrices."""
    return np.linalg.eigvalsh(symmetrize(a))[..., -1]


def spectral_norm(mat):
    """Largest singular value of a dense matrix, exact to round-off: the top
    eigenvalue of the Gram matrix M^T M from a symmetric eigensolve."""
    mat = np.asarray(mat, dtype=float)
    return float(np.sqrt(max(np.linalg.eigvalsh(mat.T @ mat)[-1], 0.0)))


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
