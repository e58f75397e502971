"""Per-block geometry contract and its five instantiations.

A geometry assigns to a block: a primal/dual norm pair (defined once, in
``block_space``), a normalizing selector S (the maximizer of <D, V> over
the primal unit ball), a quadratic preconditioner map lmap(V) (the PSD
increment added to the block's accumulated preconditioner), the
preconditioned direction ``Gamma**-1/2 V``, and four trace diagnostics of
the accumulated state.

The five variants:

variant               state            lmap(V)                 dual norm
AdaNorm               gamma (scalar)   (|V|_E^2 / n) I         Euclidean
FullAdaGrad           Gram (n x n)     V V^T                   Euclidean
DiagAdaGrad           diag (n,)        Diag(V_i^2)             Euclidean
Shampoo               (L, R) factors   vec(V) vec(V)^T         Frobenius
Muon                  gamma (scalar)   (|V|_nuc^2 / d) I       nuclear

Shampoo's accumulated state is the Kronecker pair (L, R) with
``Gamma = R**1/2 (x) L**1/2``; unlike the other four variants this Gamma
is *not* the additive accumulation of lmap(V) (the Gram factors are
accumulated instead), which the audit module probes explicitly.

Dispatch is on ``shape.geometry``, a ``Geometry`` member checked by
``BlockShape``, so every chain ends in its last variant.  Muon differs from
the Euclidean variants only in its norm pair (norms, selector, step
direction, lmap trace); elsewhere it shares AdaNorm's isotropic branch.

States are immutable value types owned by one trajectory; accumulation
returns fresh states and never decreases eigenvalues.  Because a state never
changes, it factorizes itself at most once: ``FullState.eig`` and
``KroneckerState.left_eig`` / ``right_eig`` hold
``eigh_clamped(gram | lfac | rfac, floor=varsigma)``, computed on first use
and read by both precondition and diagnostics.  Factorizations of a block
(Muon's SVDs) are shared through arguments instead: accumulate and
diagnostics take ``geom_lmap_trace(V)``, and ``geom_step_direction`` takes
the dual norm and selector of Z.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .block_space import BlockShape, Geometry, block_dual_norm
from .errors import InvalidConfig, ShapeMismatch
from .psd_linalg import eigh_clamped, msign, nuclear_norm


@dataclass(frozen=True)
class ScalarState:
    """Isotropic state ``gamma * I`` (AdaNorm and Muon blocks)."""

    gamma: float
    dim: int
    varsigma: float


@dataclass(frozen=True)
class DiagonalState:
    diag: np.ndarray  # (n,) positive
    varsigma: float


@dataclass(frozen=True)
class FullState:
    gram: np.ndarray  # (n, n) symmetric positive definite
    varsigma: float

    @cached_property
    def eig(self):
        """Clamped eigendecomposition (w, Q) of gram, computed on first use."""
        return eigh_clamped(self.gram, floor=self.varsigma)


@dataclass(frozen=True)
class KroneckerState:
    lfac: np.ndarray  # (n, n) SPD
    rfac: np.ndarray  # (m, m) SPD
    varsigma: float

    @cached_property
    def left_eig(self):
        """Clamped eigendecomposition (w, Q) of lfac, computed on first use."""
        return eigh_clamped(self.lfac, floor=self.varsigma)

    @cached_property
    def right_eig(self):
        """Clamped eigendecomposition (w, Q) of rfac, computed on first use."""
        return eigh_clamped(self.rfac, floor=self.varsigma)


GeometryState = ScalarState | DiagonalState | FullState | KroneckerState


@dataclass(frozen=True)
class GeometryDiagnostics:
    """Trace functionals of (state, V) used by the potential inequalities.

    trace_sqrt       tr(Gamma**1/2)
    trace_log        tr(log Gamma)
    weighted_inv     tr(Gamma**-1   lmap(V))
    weighted_invsqrt tr(Gamma**-1/2 lmap(V))
    """

    trace_sqrt: float
    trace_log: float
    weighted_inv: float
    weighted_invsqrt: float


def _check_block(shape: BlockShape, V):
    if V.shape != (shape.rows, shape.cols):
        raise ShapeMismatch(f"block is {V.shape}, geometry declared {(shape.rows, shape.cols)}")


def geom_init(shape: BlockShape, varsigma: float) -> GeometryState:
    """State representing ``varsigma * I`` in the variant's native form."""
    if not varsigma > 0.0:
        raise InvalidConfig(f"varsigma must be positive, got {varsigma}")
    g = shape.geometry
    if g in (Geometry.ADANORM, Geometry.MUON):
        return ScalarState(gamma=float(varsigma), dim=shape.dim, varsigma=float(varsigma))
    if g is Geometry.DIAG_ADAGRAD:
        return DiagonalState(diag=np.full(shape.rows, float(varsigma)), varsigma=float(varsigma))
    if g is Geometry.FULL_ADAGRAD:
        return FullState(gram=varsigma * np.eye(shape.rows), varsigma=float(varsigma))
    return KroneckerState(
        lfac=varsigma * np.eye(shape.rows),
        rfac=varsigma * np.eye(shape.cols),
        varsigma=float(varsigma),
    )


def geom_accumulate(
    shape: BlockShape, state: GeometryState, V, lmap_trace: float
) -> GeometryState:
    """Grow the state by the variant's quadratic map of V (Loewner-monotone).

    lmap_trace is ``geom_lmap_trace(shape, V)``; the isotropic variants grow
    by it over the block dimension.
    """
    _check_block(shape, V)
    g = shape.geometry
    if g in (Geometry.ADANORM, Geometry.MUON):
        return ScalarState(state.gamma + lmap_trace / shape.dim, state.dim, state.varsigma)
    if g is Geometry.DIAG_ADAGRAD:
        v = V[:, 0]
        return DiagonalState(state.diag + v * v, state.varsigma)
    if g is Geometry.FULL_ADAGRAD:
        v = V[:, 0]
        return FullState(state.gram + np.outer(v, v), state.varsigma)
    return KroneckerState(state.lfac + V @ V.T, state.rfac + V.T @ V, state.varsigma)


def geom_precondition(shape: BlockShape, state: GeometryState, V):
    """Preconditioned direction ``Gamma**-1/2 V`` in the native representation."""
    _check_block(shape, V)
    g = shape.geometry
    if g in (Geometry.ADANORM, Geometry.MUON):
        return V / np.sqrt(state.gamma)
    if g is Geometry.DIAG_ADAGRAD:
        return V / np.sqrt(state.diag)[:, None]
    if g is Geometry.FULL_ADAGRAD:
        w, Q = state.eig
        return Q @ ((Q.T @ V) / np.sqrt(w)[:, None])
    wl, Ql = state.left_eig
    wr, Qr = state.right_eig
    # L**-1/4 @ V @ R**-1/4 through the factor eigenbases
    core = Ql.T @ V @ Qr
    core = core / wl[:, None] ** 0.25 / wr[None, :] ** 0.25
    return Ql @ core @ Qr.T


def geom_selector(shape: BlockShape, Z):
    """Normalizing selector: primal-unit maximizer of <Z, .>, with S(0) = 0."""
    if shape.geometry is Geometry.MUON:
        return msign(Z)
    nrm = np.linalg.norm(Z)
    if nrm == 0.0:
        return np.zeros_like(Z)
    return Z / nrm


def geom_dual_norm(shape: BlockShape, V) -> float:
    return block_dual_norm(shape.geometry, V)


def geom_step_direction(shape: BlockShape, Z, dual_norm: float, selector):
    """``|Z|_dual * S(Z)`` from the dual norm and selector of Z the caller holds.

    For Euclidean-normed blocks this is just Z (which avoids the 0/0 at
    Z = 0); for Muon blocks it is the nuclear norm times the orthogonalized Z.
    """
    if shape.geometry is Geometry.MUON:
        return dual_norm * selector
    return Z


def geom_lmap_trace(shape: BlockShape, V) -> float:
    """``tr(lmap(V))``; equals the squared block dual norm for all five variants."""
    if shape.geometry is Geometry.MUON:
        return nuclear_norm(V) ** 2
    return float(np.sum(V * V))


def geom_lmap_matrix(shape: BlockShape, V) -> np.ndarray:
    """Materialize lmap(V) as a dense d x d matrix (audit cross-checks only)."""
    _check_block(shape, V)
    g = shape.geometry
    if g in (Geometry.ADANORM, Geometry.MUON):
        d = shape.dim
        return (geom_lmap_trace(shape, V) / d) * np.eye(d)
    if g is Geometry.DIAG_ADAGRAD:
        return np.diag(V[:, 0] ** 2)
    # FullAdaGrad and Shampoo: vec(V) vec(V)^T
    v = V.ravel(order="F")
    return np.outer(v, v)


def geom_diagnostics(
    shape: BlockShape, state: GeometryState, V, lmap_trace: float
) -> GeometryDiagnostics:
    """The four traces, evaluated in the state's native representation.

    lmap_trace is ``geom_lmap_trace(shape, V)``, which the isotropic variants
    weight by gamma**-1 and gamma**-1/2.  Kronecker blocks use
    ``Gamma = R**1/2 (x) L**1/2``, for which
    ``tr(Gamma**p lmap(V)) = <V, L**(p/2) V R**(p/2)>_F`` and
    ``tr(log Gamma) = (m/2) tr(log L) + (n/2) tr(log R)``.
    """
    _check_block(shape, V)
    g = shape.geometry
    if g in (Geometry.ADANORM, Geometry.MUON):
        gamma, d, tl = state.gamma, state.dim, lmap_trace
        return GeometryDiagnostics(
            trace_sqrt=d * np.sqrt(gamma),
            trace_log=d * np.log(gamma),
            weighted_inv=tl / gamma,
            weighted_invsqrt=tl / np.sqrt(gamma),
        )
    if g is Geometry.SHAMPOO:
        n, m = shape.rows, shape.cols
        wl, Ql = state.left_eig
        wr, Qr = state.right_eig
        core2 = (Ql.T @ V @ Qr) ** 2
        inv_w = 1.0 / (wl[:, None] ** 0.5 * wr[None, :] ** 0.5)
        invsqrt_w = 1.0 / (wl[:, None] ** 0.25 * wr[None, :] ** 0.25)
        return GeometryDiagnostics(
            trace_sqrt=float(np.sum(wl**0.25) * np.sum(wr**0.25)),
            trace_log=float(0.5 * m * np.sum(np.log(wl)) + 0.5 * n * np.sum(np.log(wr))),
            weighted_inv=float(np.sum(core2 * inv_w)),
            weighted_invsqrt=float(np.sum(core2 * invsqrt_w)),
        )
    # Diag- and FullAdaGrad: eigenvalues w and squared eigenbasis coordinates c of v
    if g is Geometry.DIAG_ADAGRAD:
        w, c = state.diag, V[:, 0] ** 2
    else:
        w, Q = state.eig
        c = (Q.T @ V[:, 0]) ** 2
    return GeometryDiagnostics(
        trace_sqrt=float(np.sum(np.sqrt(w))),
        trace_log=float(np.sum(np.log(w))),
        weighted_inv=float(np.sum(c / w)),
        weighted_invsqrt=float(np.sum(c / np.sqrt(w))),
    )


def geom_state_eigenvalues(state: GeometryState) -> np.ndarray:
    """Sorted eigenvalues of the represented preconditioner (invariant checks)."""
    if isinstance(state, ScalarState):
        return np.full(state.dim, state.gamma)
    if isinstance(state, DiagonalState):
        return np.sort(state.diag)
    if isinstance(state, FullState):
        return np.linalg.eigvalsh(state.gram)
    wl = np.linalg.eigvalsh(state.lfac)
    wr = np.linalg.eigvalsh(state.rfac)
    return np.sort(np.sqrt(np.outer(wr, wl)).ravel())


def kron_gamma_explicit(state: KroneckerState) -> np.ndarray:
    """Materialized ``R**1/2 (x) L**1/2`` (audit oracle for small blocks)."""
    wl, Ql = eigh_clamped(state.lfac)
    wr, Qr = eigh_clamped(state.rfac)
    lh = (Ql * np.sqrt(np.clip(wl, 0.0, None))) @ Ql.T
    rh = (Qr * np.sqrt(np.clip(wr, 0.0, None))) @ Qr.T
    return np.kron(rh, lh)
