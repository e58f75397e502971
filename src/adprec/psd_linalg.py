"""Dense symmetric/PSD matrix functions used by the block geometries.

Every function here except ``random_psd`` and ``random_psd_draws`` also
takes a stack of matrices (leading axes): ``sym``, ``eigh_clamped``,
``psd_power``, ``trace_log_psd``, ``svd_factors``, ``polar``, ``msign``,
``nuclear_norm`` and ``psd_from_draws``.  Those that factorize do so with
one stacked LAPACK call.  Item i of the result equals the call on matrix i,
bit for bit, and a stack with a failing item raises what that item alone
raises.  All functions are pure and factorize their input afresh on every
call; none of them caches.  Reuse lives with the callers: a geometry state
factorizes itself at most once (see ``geometries``), and one optimizer step
factorizes each Muon direction block once, with ``svd_factors``, and reads
its nuclear norm and msign from those factors with ``polar``.  Because the
nuclear norm is 1-homogeneous and msign 0-homogeneous, the same factors
serve every positive multiple of the block, such as its preconditioned
``Z = D / sqrt(gamma)``.  ``msign``, ``polar`` and ``nuclear_norm`` share
one rank cutoff (``SV_RTOL``).  At the matrix sizes this package targets
(block dims up to a few hundred) a fresh factorization per accumulated
state is cheaper than maintaining incremental factorizations correctly.
"""

from __future__ import annotations

import numpy as np

from .errors import NonPositiveDefinite

# Relative rank cutoff for SVD-based operations: singular values below
# SV_RTOL * sigma_max are treated as zero.
SV_RTOL = 1e-12

# Eigenvalues of a preconditioner state may dip below their theoretical
# floor by rounding; clamp at floor * (1 - CLAMP_RTOL) before inversion.
CLAMP_RTOL = 1e-8


def sym(M):
    """Symmetrize a square matrix (or a stack) exactly: returns ``(M + M.T) / 2``."""
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + M.mT)


def eigh_clamped(M, floor=None):
    """Eigendecomposition of a symmetric matrix with optional eigenvalue floor.

    Parameters
    ----------
    M : (..., d, d) array, symmetric.
    floor : float, array of the stack's shape ``M.shape[:-2]``, or None
        Known lower bound on the eigenvalues (e.g. the initialization level
        of a preconditioner).  Eigenvalues are clamped from below at
        ``floor * (1 - CLAMP_RTOL)`` to absorb rounding in the eigensolver.

    Returns
    -------
    (w, Q) with ``M ~= Q @ diag(w) @ Q.T``.
    """
    w, Q = np.linalg.eigh(sym(M))
    if floor is not None:
        w = np.maximum(w, np.asarray(floor)[..., None] * (1.0 - CLAMP_RTOL))
    return w, Q


def _require_positive(w, what):
    """Raise NonPositiveDefinite for the first item of a stack of eigenvalue
    rows with an eigenvalue <= 0, as that item alone would."""
    bad = np.argwhere(np.any(w <= 0.0, axis=-1))
    if len(bad):
        first = w[tuple(bad[0])]
        raise NonPositiveDefinite(
            f"{what} needs a positive definite input (min eigenvalue {first.min():.3e})"
        )


def psd_power(M, p):
    """Matrix power ``M**p`` of a symmetric PSD matrix via eigendecomposition.

    For negative ``p`` the matrix must be positive definite; otherwise
    NonPositiveDefinite is raised.  For ``p >= 0`` tiny negative eigenvalues
    are clipped to zero.
    """
    w, Q = eigh_clamped(M)
    if p < 0:
        _require_positive(w, f"matrix power {p}")
    else:
        w = np.clip(w, 0.0, None)
    return (Q * (w**p)[..., None, :]) @ Q.mT


def trace_log_psd(M):
    """``tr(log M)`` (= log det M) for a symmetric positive definite M."""
    w, _ = eigh_clamped(M)
    _require_positive(w, "tr(log M)")
    return np.add.reduce(np.log(w), axis=-1)


def svd_factors(G):
    """Thin SVD ``(U, s, Vt)`` of G, per matrix of a stack, s descending;
    ``polar`` reads G's nuclear norm and msign from it."""
    return np.linalg.svd(np.asarray(G, dtype=float), full_matrices=False)


def _kept(s):
    """The rank cutoff: which singular values (descending, per matrix) are
    above SV_RTOL * sigma_max; none of the zero matrix's.  NaNs (the SVD of
    a matrix with an infinite entry) are kept, so that they reach the result."""
    return ~(s <= SV_RTOL * s[..., :1])


def _kept_sum(s, kept):
    """Per matrix, the sum of the kept singular values (the dropped ones add
    0.0, so a full-rank matrix sums exactly as ``np.add.reduce(s)``)."""
    return np.add.reduce(np.where(kept, s, 0.0), axis=-1)


def polar(U, s, Vt):
    """``(nuclear_norm(G), msign(G))`` from the thin SVD factors of G.

    Both read the kept rank of the cutoff in ``_kept``.  Scaling G by c > 0
    scales its singular values by c and leaves U and Vt, so the factors of G
    also give ``(c * nuclear_norm(G), msign(G))`` for cG: the nuclear norm is
    1-homogeneous, msign 0-homogeneous.  A matrix whose nuclear norm is NaN
    (one with an infinite entry) gets an all-NaN msign: its SVD has NaN
    singular values but finite U and Vt.
    """
    kept = _kept(s)
    nuclear = _kept_sum(s, kept)
    if kept.all():
        out = U @ Vt
    else:
        # the rank differs per matrix; a product over fewer terms rounds
        # differently from one padded with zeros, so each matrix keeps its
        # own inner dimension
        out = np.empty(U.shape[:-1] + Vt.shape[-1:])
        for i in np.ndindex(s.shape[:-1]):
            r = int(np.sum(kept[i]))
            out[i] = U[i][:, :r] @ Vt[i][:r]
    nan = np.isnan(nuclear)
    return nuclear, np.where(nan[..., None, None], np.nan, out) if nan.any() else out


def msign(G):
    """Orthogonal factor U @ V.T of the SVD, restricted to nonzero singular values.

    Singular values below ``SV_RTOL * sigma_max`` are dropped, and the zero
    matrix maps to the zero matrix.  The result has spectral norm 1 for any
    nonzero input and maximizes ``<G, P>_F`` over spectral-norm-unit P, with
    ``<G, msign(G)>_F`` equal to the nuclear norm of G.
    """
    return polar(*svd_factors(G))[1]


def nuclear_norm(G):
    """Sum of the singular values kept by msign's cutoff, per matrix of a
    stack, from a values-only SVD."""
    s = np.linalg.svd(np.asarray(G, dtype=float), compute_uv=False)
    return _kept_sum(s, _kept(s))


def random_psd(dim, condition_target, seed):
    """Seeded random PSD matrix ``Q diag(lam) Q.T``.

    Q is a random orthogonal matrix (sign-fixed QR so the draw is a pure
    function of the seed) and the eigenvalues are log-uniform in
    ``[1/condition_target, 1]``.
    """
    rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    return psd_from_draws(*random_psd_draws(dim, condition_target, rng))


def random_psd_draws(dim, condition_target, rng):
    """The random numbers behind one ``random_psd`` matrix, drawn from the
    generator rng: a (dim, dim) standard normal matrix and dim log-eigenvalues."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not 1.0 <= condition_target < np.inf:
        raise ValueError(f"condition_target must be finite and >= 1, got {condition_target}")
    normals = rng.standard_normal((dim, dim))
    return normals, rng.uniform(np.log(1.0 / condition_target), 0.0, size=dim)


def psd_from_draws(normals, log_eigs):
    """The ``random_psd`` matrix of ``random_psd_draws``' output, per item of
    a stack: the sign-fixed Q of ``qr(normals)`` times ``diag(exp(log_eigs))``
    times Q.T."""
    Q, Rf = np.linalg.qr(normals)
    Q = Q * np.sign(np.diagonal(Rf, axis1=-2, axis2=-1))[..., None, :]
    return (Q * np.exp(log_eigs)[..., None, :]) @ Q.mT
