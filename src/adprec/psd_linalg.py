"""Dense symmetric/PSD matrix functions used by the block geometries.

Everything here recomputes a full eigendecomposition or SVD per call.  At
the matrix sizes this package targets (block dims up to a few hundred)
that is cheaper than maintaining incremental factorizations correctly.
All functions are pure.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NonPositiveDefinite

# Relative rank cutoff for SVD-based operations: singular values below
# SV_RTOL * sigma_max are treated as zero.
SV_RTOL = 1e-12

# Eigenvalues of a preconditioner state may dip below their theoretical
# floor by rounding; clamp at floor * (1 - CLAMP_RTOL) before inversion.
CLAMP_RTOL = 1e-8


class SvdTriple(NamedTuple):
    """Thin SVD ``A = U @ diag(sigma) @ V.T`` with sigma nonincreasing."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray


def sym(M):
    """Symmetrize a square matrix exactly: returns ``(M + M.T) / 2``."""
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + M.T)


def eigh_clamped(M, floor=None):
    """Eigendecomposition of a symmetric matrix with optional eigenvalue floor.

    Parameters
    ----------
    M : (d, d) array, symmetric.
    floor : float or None
        Known lower bound on the eigenvalues (e.g. the initialization level
        of a preconditioner).  Eigenvalues are clamped from below at
        ``floor * (1 - CLAMP_RTOL)`` to absorb rounding in the eigensolver.

    Returns
    -------
    (w, Q) with ``M ~= Q @ diag(w) @ Q.T``.
    """
    w, Q = np.linalg.eigh(sym(M))
    if floor is not None:
        w = np.maximum(w, floor * (1.0 - CLAMP_RTOL))
    return w, Q


def psd_power(M, p, floor=None):
    """Matrix power ``M**p`` of a symmetric PSD matrix via eigendecomposition.

    For negative ``p`` the matrix must be positive definite (after the
    optional clamping, see ``eigh_clamped``); otherwise NonPositiveDefinite
    is raised.  For ``p >= 0`` tiny negative eigenvalues are clipped to zero.
    """
    w, Q = eigh_clamped(M, floor)
    if p < 0:
        if np.any(w <= 0.0):
            raise NonPositiveDefinite(
                f"matrix power {p} needs a positive definite input "
                f"(min eigenvalue {w.min():.3e})"
            )
    else:
        w = np.clip(w, 0.0, None)
    return (Q * w**p) @ Q.T


def trace_log_psd(M):
    """``tr(log M)`` (= log det M) for a symmetric positive definite M."""
    w, _ = eigh_clamped(M)
    if np.any(w <= 0.0):
        raise NonPositiveDefinite(
            f"tr(log M) needs a positive definite input (min eigenvalue {w.min():.3e})"
        )
    return float(np.sum(np.log(w)))


def svd_triple(G) -> SvdTriple:
    """Thin SVD of an arbitrary real matrix as an SvdTriple."""
    U, s, Vt = np.linalg.svd(np.asarray(G, dtype=float), full_matrices=False)
    return SvdTriple(U, s, Vt.T)


def msign(G):
    """Orthogonal factor U @ V.T of the SVD, restricted to nonzero singular values.

    Singular values below ``SV_RTOL * sigma_max`` are dropped, and the zero
    matrix maps to the zero matrix.  The result has spectral norm 1 for any
    nonzero input and maximizes ``<G, P>_F`` over spectral-norm-unit P, with
    ``<G, msign(G)>_F`` equal to the nuclear norm of G.
    """
    G = np.asarray(G, dtype=float)
    U, s, V = svd_triple(G)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return np.zeros_like(G)
    r = int(np.sum(s > SV_RTOL * smax))
    return U[:, :r] @ V[:, :r].T


def nuclear_norm(G):
    """Sum of singular values."""
    G = np.asarray(G, dtype=float)
    if G.size == 0:
        return 0.0
    return float(np.sum(np.linalg.svd(G, compute_uv=False)))


def spectral_norm(G):
    """Largest singular value."""
    G = np.asarray(G, dtype=float)
    if G.size == 0 or not G.any():
        return 0.0
    return float(np.linalg.svd(G, compute_uv=False)[0])


def random_psd(dim, condition_target, seed):
    """Seeded random PSD matrix ``Q diag(lam) Q.T``.

    Q is a random orthogonal matrix (sign-fixed QR so the draw is a pure
    function of the seed) and the eigenvalues are log-uniform in
    ``[1/condition_target, 1]``.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if condition_target < 1.0:
        raise ValueError("condition_target must be >= 1")
    rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    A = rng.standard_normal((dim, dim))
    Q, Rf = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(Rf))
    lam = np.exp(rng.uniform(np.log(1.0 / condition_target), 0.0, size=dim))
    return (Q * lam) @ Q.T
