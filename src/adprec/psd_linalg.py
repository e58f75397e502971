"""Dense symmetric/PSD matrix functions used by the block geometries.

Every function here except ``random_psd`` and ``random_psd_draws`` also
takes a stack of matrices (leading axes): ``sym``, ``eigh_clamped``,
``psd_power``, ``trace_log_psd``, ``trace_log_and_inverse``,
``svd_factors``, ``polar``, ``msign``, ``nuclear_norm`` and
``psd_from_draws``.  Those that factorize do so with one stacked LAPACK
call.  Item i of the result equals the call on matrix i, bit for bit, and
a stack with a failing item raises what that item alone raises.  All
functions are pure and factorize their input afresh on every call; none
of them caches.  Reuse lives with the callers: a geometry state
factorizes itself at most once (see ``geometries``), and one optimizer step
factorizes each Muon direction block once, with ``svd_factors``, and reads
its nuclear norm and msign from those factors with ``polar``.  Because the
nuclear norm is 1-homogeneous and msign 0-homogeneous, the same factors
serve every positive multiple of the block, such as its preconditioned
``Z = D / sqrt(gamma)``.  ``msign``, ``polar`` and ``nuclear_norm`` share
one rank cutoff (``SV_RTOL``).  At the matrix sizes this package targets
(block dims up to a few hundred) a fresh factorization per accumulated
state is cheaper than maintaining incremental factorizations correctly.

``factorize`` runs the independent factorizations of one optimizer step
and returns their results in order, the largest on the worker thread of
``_second_cpu`` when that module grants it; no bit depends on the thread
that ran a call.  The worker runs only this module's own functions, and
needs the interpreter lock to start and to return its call (``factorize``).
"""

from __future__ import annotations

import numpy as np

from ._second_cpu import executor, spare_thread
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
    return _power(w, Q, p)


def _power(w, Q, p):
    """``Q diag(w**p) Q.T``, per matrix of a stack."""
    return (Q * (w**p)[..., None, :]) @ Q.mT


def _trace_log(w):
    """The sum of log w, per row of a stack of eigenvalue rows."""
    return np.add.reduce(np.log(w), axis=-1)


def trace_log_psd(M):
    """``tr(log M)`` (= log det M) for a symmetric positive definite M."""
    w, _ = eigh_clamped(M)
    _require_positive(w, "tr(log M)")
    return _trace_log(w)


def trace_log_and_inverse(M):
    """``(tr(log M), M**-1)`` for a symmetric positive definite M, from one
    eigendecomposition: the bits of ``trace_log_psd(M)`` and
    ``psd_power(M, -1.0)``, which factorize M once each.  A matrix that is
    not positive definite raises what ``trace_log_psd`` raises."""
    w, Q = eigh_clamped(M)
    _require_positive(w, "tr(log M)")
    return _trace_log(w), _power(w, Q, -1.0)


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
    if kept.all():
        # the sum _kept_sum takes, without its masking
        nuclear, out = np.add.reduce(s, axis=-1), U @ Vt
    else:
        nuclear = _kept_sum(s, kept)
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


# A step fans out (see ``factorize``) only when at least two of its
# factorizations have matrices with at least this many rows and columns.
# Two eighs through ``factorize``, fanned out against in a row, on a 2-vCPU
# VM with BLAS on one thread: 1.89x the time at 8 x 8, 1.20x at 12, 1.02x at
# 16, 0.85x at 20, 0.78x at 24, 0.70x at 32 and 0.63x at 64.  Below 20 the
# hand-off costs more than the overlap saves.
_CONCURRENT_DIM = 20

# Per key of ``factorize``: the index of the call the worker may run, or None
_WORKER_CALLS: dict = {}
_UNKNOWN = object()


def _run(call):
    """One call of a ``factorize`` list."""
    if call[0] == "svd":
        return svd_factors(call[1])
    return eigh_clamped(call[1], floor=call[2])


def _worker_call(calls):
    """The index of the call ``factorize`` may run on the worker, or None:
    the largest call, by rows x columns x the smaller of the two, when at
    least two calls have matrices of at least _CONCURRENT_DIM rows and
    columns and ``spare_thread`` allows it."""
    dims = [call[1].shape[-2:] for call in calls]
    big = [i for i, d in enumerate(dims) if min(d) >= _CONCURRENT_DIM]
    if len(big) < 2 or not spare_thread():
        return None
    return max(big, key=lambda i: dims[i][0] * dims[i][1] * min(dims[i]))


def factorize(calls, key, meanwhile=None):
    """The results of the independent factorizations calls, in order.  Each
    call is ``("eigh", M, floor)``, for ``eigh_clamped(M, floor=floor)``, or
    ``("svd", G)``, for ``svd_factors(G)``.

    key is hashable and fixes the trailing dimensions of the calls'
    matrices, in order (the optimizer passes its block shapes).  Whether
    calls fan out is decided once per key, from the first such calls, by
    ``_worker_call``; inside a fan-out ``executor`` withholds the worker.
    When the worker is granted, the largest call is submitted to it; this
    thread runs its calls, all the others, in list order.  meanwhile, other
    work of the caller, runs once on this thread after its first call, or at
    once when it has none.  The worker needs the interpreter lock to start
    its call and again to return it, and numpy's LAPACK calls release the
    lock, so meanwhile runs while the worker is inside LAPACK, and this
    thread's next call lets the worker return.  Each result is the same call
    on the same input, with the same bits, on either thread.  meanwhile runs
    also when a call fails, and no call of this thread starts after a
    failure.  The worker is always waited for, and a failure raises the
    error of meanwhile, else what running the calls in order raises: the
    error of the first call that fails.
    """
    w = _WORKER_CALLS.get(key, _UNKNOWN) if len(calls) > 1 else None
    if w is _UNKNOWN:
        w = _WORKER_CALLS[key] = _worker_call(calls)
    worker = None if w is None else executor()  # None inside a fan-out
    future = None if worker is None else worker.submit(_run, calls[w])
    mine = calls if future is None else calls[:w] + calls[w + 1:]
    own, error = [], None
    if not mine and meanwhile is not None:
        meanwhile()
    try:  # this thread's first call lets the worker start, its others let it return
        for i, call in enumerate(mine):
            try:
                own.append(_run(call))
            except BaseException as e:
                error = e
            if i == 0 and meanwhile is not None:
                meanwhile()
            if error is not None:
                break
    finally:
        if future is not None:
            future.exception()  # waits; meanwhile's error comes first
    # the worker's call comes after the w calls before it, whose error wins
    if future is not None and (error is None or len(own) >= w):
        own.insert(w, future.result())  # raises the worker's error
    if error is not None:
        raise error
    return own


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
