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

Every operation takes one block, (rows, cols), or a stack of R blocks,
(R, rows, cols), and returns per-item results; a state created with
``lead=(R,)`` holds R states, with one varsigma or one each.  Item r of a
stacked call equals the call on item r alone, bit for bit: the stacked
forms are chosen to round exactly as the single-block ones (see
``block_space.squared`` and ``psd_linalg.msign``).

States are immutable value types owned by one trajectory (or one stack of
them); accumulation returns fresh states and never decreases eigenvalues.
Because a state never changes, it factorizes itself at most once:
``FullState.eig`` and ``KroneckerState.left_eig`` / ``right_eig`` hold
``eigh_clamped(gram | lfac | rfac, floor=varsigma)``, computed on first use
and read by both precondition and diagnostics; ``geom_stack`` joins states
into one stack with the factorizations they cached, so the diagnostics of
many steps' states, taken at once, factorize nothing again.
A step may also hand a state the eighs it would compute: it lists them
with ``geom_factor_calls``, runs them with those of its other blocks, and
``geom_factor`` puts each where the state caches it.
Factorizations of a block (Muon's SVDs) are shared through arguments
instead: accumulate and
diagnostics take ``geom_lmap_trace(V)``, and ``geom_step_direction`` takes
the dual norm and selector of Z.  A step factorizes a Muon direction block D
once: ``geom_factor_calls`` lists its thin SVD, and ``geom_factor`` gives
D's nuclear norm and selector from it.  Z = D / sqrt(gamma) is a positive
multiple of D, and the nuclear norm is 1-homogeneous and the selector
0-homogeneous, so ``geom_dual_norm`` and ``geom_selector`` given that
factor read Z's from it, and
``geom_lmap_trace`` reads D's from it when D is also the accumulated block.
The audits call them without a factor, so they factorize Z itself and check
that homogeneity independently.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .block_space import BlockShape, Geometry, block_dual_norm, squared
from .errors import InvalidConfig, ShapeMismatch
from .psd_linalg import eigh_clamped, msign, nuclear_norm, polar


@dataclass(frozen=True)
class ScalarState:
    """Isotropic state ``gamma * I`` (AdaNorm and Muon blocks)."""

    gamma: np.ndarray  # () or (R,) positive
    dim: int


@dataclass(frozen=True)
class DiagonalState:
    diag: np.ndarray  # (n,) or (R, n) positive


@dataclass(frozen=True)
class FullState:
    gram: np.ndarray  # (n, n) or (R, n, n) symmetric positive definite
    varsigma: float

    @cached_property
    def eig(self):
        """Clamped eigendecomposition (w, Q) of gram, computed on first use."""
        return eigh_clamped(self.gram, floor=self.varsigma)


@dataclass(frozen=True)
class KroneckerState:
    lfac: np.ndarray  # (n, n) or (R, n, n) SPD
    rfac: np.ndarray  # (m, m) or (R, m, m) SPD
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


def _arrays(state: GeometryState) -> list[str]:
    """The names of a state's fields that hold one value per item of a stack."""
    return [
        f.name for f in fields(state)
        if isinstance(getattr(state, f.name), (np.ndarray, np.generic))
    ]


# the cached properties that hold a state's eighs, in the order
# geom_factor_calls lists them
_CACHED_EIGHS = {Geometry.FULL_ADAGRAD: ("eig",), Geometry.SHAMPOO: ("left_eig", "right_eig")}
_CACHED = sum(_CACHED_EIGHS.values(), ())
# the geometries whose blocks geom_factor_calls lists factorizations for; a
# set test is cheaper than comparing with each member, whose every read goes
# through the enum metaclass's attribute hook
_FACTORED = frozenset({Geometry.MUON, *_CACHED_EIGHS})


def geom_stack(states, join) -> GeometryState:
    """One state holding the items of ``states`` (one kind, alike in shape)
    in order.  join is ``np.stack`` for states of one block each, which
    become a stack of len(states), and ``np.concatenate`` for stacks,
    joined along their stack axis.  The factorizations the items have
    cached are stacked with them, so the stack factorizes nothing again;
    each item's values keep their bits."""
    first = states[0]
    names = _arrays(first)
    stacked = replace(first, **{n: join([getattr(s, n) for s in states]) for n in names})
    for name in _CACHED:
        if all(name in vars(s) for s in states):
            w, Q = zip(*(vars(s)[name] for s in states))
            vars(stacked)[name] = (join(w), join(Q))
    return stacked


@dataclass(frozen=True)
class GeometryDiagnostics:
    """Trace functionals of (state, V) used by the potential inequalities.

    trace_sqrt       tr(Gamma**1/2)
    trace_log        tr(log Gamma)
    weighted_inv     tr(Gamma**-1   lmap(V))
    weighted_invsqrt tr(Gamma**-1/2 lmap(V))

    Each is a scalar for one block and an (R,) array for a stack.
    """

    trace_sqrt: np.ndarray
    trace_log: np.ndarray
    weighted_inv: np.ndarray
    weighted_invsqrt: np.ndarray


def _check_block(shape: BlockShape, V):
    if V.shape[-2:] != (shape.rows, shape.cols):
        raise ShapeMismatch(f"block is {V.shape}, geometry declared {(shape.rows, shape.cols)}")


def geom_init(shape: BlockShape, varsigma, lead: tuple[int, ...] = ()) -> GeometryState:
    """State representing ``varsigma * I`` in the variant's native form;
    ``lead=(R,)`` gives a stack of R such states, with one varsigma for all
    of them (a float) or one each (an array of shape ``lead``)."""
    if not np.all(np.asarray(varsigma) > 0.0):
        raise InvalidConfig(f"varsigma must be positive, got {varsigma}")
    s = float(varsigma) if np.ndim(varsigma) == 0 else np.asarray(varsigma, dtype=float)
    g = shape.geometry
    if g in (Geometry.ADANORM, Geometry.MUON):
        return ScalarState(gamma=np.full(lead, s), dim=shape.dim)
    if g is Geometry.DIAG_ADAGRAD:
        return DiagonalState(diag=np.full((*lead, shape.rows), np.asarray(s)[..., None]))
    if g is Geometry.FULL_ADAGRAD:
        return FullState(gram=_scaled_eye(s, shape.rows, lead), varsigma=s)
    return KroneckerState(
        lfac=_scaled_eye(s, shape.rows, lead), rfac=_scaled_eye(s, shape.cols, lead), varsigma=s
    )


def _scaled_eye(s, n: int, lead: tuple[int, ...]) -> np.ndarray:
    """s * I_n over the stack axes `lead`, s a float or an array of shape
    `lead` (a read-only view when a float is repeated)."""
    eye = np.asarray(s)[..., None, None] * np.eye(n)
    return eye if eye.shape[:-2] == lead else np.broadcast_to(eye, lead + (n, n))


def geom_accumulate(
    shape: BlockShape, state: GeometryState, V, lmap_trace
) -> GeometryState:
    """Grow the state by the variant's quadratic map of V (Loewner-monotone).

    lmap_trace is ``geom_lmap_trace(shape, V)``; the isotropic variants grow
    by it over the block dimension.
    """
    _check_block(shape, V)
    g = shape.geometry
    if g in (Geometry.ADANORM, Geometry.MUON):
        return ScalarState(state.gamma + lmap_trace / shape.dim, state.dim)
    v = V[..., 0]
    if g is Geometry.DIAG_ADAGRAD:
        return DiagonalState(state.diag + v * v)
    if g is Geometry.FULL_ADAGRAD:
        return FullState(state.gram + v[..., :, None] * v[..., None, :], state.varsigma)
    return KroneckerState(state.lfac + V @ V.mT, state.rfac + V.mT @ V, state.varsigma)


def geom_precondition(shape: BlockShape, state: GeometryState, V):
    """Preconditioned direction ``Gamma**-1/2 V`` in the native representation."""
    _check_block(shape, V)
    g = shape.geometry
    if g in (Geometry.ADANORM, Geometry.MUON):
        return V / np.sqrt(state.gamma)[..., None, None]
    if g is Geometry.DIAG_ADAGRAD:
        return V / np.sqrt(state.diag)[..., None]
    if g is Geometry.FULL_ADAGRAD:
        w, Q = state.eig
        return Q @ ((Q.mT @ V) / np.sqrt(w)[..., None])
    wl, Ql = state.left_eig
    wr, Qr = state.right_eig
    # L**-1/4 @ V @ R**-1/4 through the factor eigenbases
    core = Ql.mT @ V @ Qr
    core = core / wl[..., :, None] ** 0.25 / wr[..., None, :] ** 0.25
    return Ql @ core @ Qr.mT


def geom_factor_calls(shape: BlockShape, state: GeometryState, D) -> list:
    """The factorizations one step of the block makes, as calls of
    ``psd_linalg.factorize``, in the order the step reads them: for Muon the
    thin SVD of the direction block D, whatever the state; for FullAdaGrad
    and Shampoo the eighs of the accumulated state that it caches (Shampoo's
    left factor first); none for AdaNorm and DiagAdaGrad."""
    g = shape.geometry
    if g is Geometry.MUON:
        return [("svd", D)]
    if g is Geometry.FULL_ADAGRAD:
        return [("eigh", state.gram, state.varsigma)]
    if g is Geometry.SHAMPOO:
        return [("eigh", state.lfac, state.varsigma), ("eigh", state.rfac, state.varsigma)]
    return []


def geom_factor(shape: BlockShape, state: GeometryState, results):
    """Take the results of ``geom_factor_calls`` for the block.  A FullAdaGrad
    or Shampoo state caches its eighs, as if it had computed them on first
    use, and the result is None.  For Muon the result is the factorization
    of D that one step shares: D's nuclear norm and selector,
    ``polar(U, s, Vt)`` of its SVD."""
    if shape.geometry is Geometry.MUON:
        return polar(*results[0])
    vars(state).update(zip(_CACHED_EIGHS.get(shape.geometry, ()), results))
    return None


def geom_selector(shape: BlockShape, Z, dual_norm, factor=None):
    """Normalizing selector: primal-unit maximizer of <Z, .>, with S(0) = 0.

    dual_norm is ``geom_dual_norm(shape, Z)``, which Euclidean blocks divide
    by.  factor, when given, is ``geom_factor`` of the direction D
    that Z preconditions; Muon then takes S(D), which is S(Z) because Z is a
    positive multiple of D and the selector is 0-homogeneous.
    """
    if shape.geometry is Geometry.MUON:
        return msign(Z) if factor is None else factor[1]
    nrm = np.asarray(dual_norm)[..., None, None]
    return np.divide(Z, nrm, out=np.zeros_like(Z), where=nrm != 0.0)


def geom_dual_norm(shape: BlockShape, V, state=None, factor=None):
    """Block dual norm of V.  Given the state and ``geom_factor``
    of the direction D with ``V = geom_precondition(shape, state, D)``, Muon
    reads it from D's factor: ``V = D / sqrt(gamma)`` and the nuclear norm is
    1-homogeneous, so ``|V|_* = |D|_* / sqrt(gamma)``."""
    if factor is not None:
        return factor[0] / np.sqrt(state.gamma)
    return block_dual_norm(shape.geometry, V)


def geom_step_direction(shape: BlockShape, Z, dual_norm, selector):
    """``|Z|_dual * S(Z)`` from the dual norm and selector of Z the caller holds.

    For Euclidean-normed blocks this is just Z (which avoids the 0/0 at
    Z = 0); for Muon blocks it is the nuclear norm times the orthogonalized Z.
    """
    if shape.geometry is Geometry.MUON:
        return np.asarray(dual_norm)[..., None, None] * selector
    return Z


def geom_lmap_trace(shape: BlockShape, V, factor=None):
    """``tr(lmap(V))``; equals the squared block dual norm for all five
    variants.  factor, when given, is ``geom_factor`` of V, whose
    nuclear norm Muon squares instead of factorizing V again."""
    if shape.geometry is Geometry.MUON:
        return squared(nuclear_norm(V) if factor is None else factor[0])
    return np.add.reduce(V * V, axis=(-2, -1))


def geom_lmap_matrix(shape: BlockShape, V) -> np.ndarray:
    """Materialize lmap(V) as a dense d x d matrix, per block of a stack
    (audit cross-checks only)."""
    _check_block(shape, V)
    g = shape.geometry
    d = shape.dim
    if g in (Geometry.ADANORM, Geometry.MUON):
        return (geom_lmap_trace(shape, V) / d)[..., None, None] * np.eye(d)
    if g is Geometry.DIAG_ADAGRAD:
        out = np.zeros(V.shape[:-2] + (d, d))
        out[..., range(d), range(d)] = V[..., 0] ** 2
        return out
    # FullAdaGrad and Shampoo: vec(V) vec(V)^T, vec stacking the columns
    v = V.mT.reshape(V.shape[:-2] + (d,))
    return v[..., :, None] * v[..., None, :]


def geom_diagnostics(
    shape: BlockShape, state: GeometryState, V, lmap_trace
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
    total = np.add.reduce
    if g in (Geometry.ADANORM, Geometry.MUON):
        gamma, d, tl = state.gamma, state.dim, lmap_trace
        root = np.sqrt(gamma)
        return GeometryDiagnostics(
            trace_sqrt=d * root,
            trace_log=d * np.log(gamma),
            weighted_inv=tl / gamma,
            weighted_invsqrt=tl / root,
        )
    if g is Geometry.SHAMPOO:
        n, m = shape.rows, shape.cols
        wl, Ql = state.left_eig
        wr, Qr = state.right_eig
        core2 = (Ql.mT @ V @ Qr) ** 2
        inv_w = 1.0 / (wl[..., :, None] ** 0.5 * wr[..., None, :] ** 0.5)
        invsqrt_w = 1.0 / (wl[..., :, None] ** 0.25 * wr[..., None, :] ** 0.25)
        return GeometryDiagnostics(
            trace_sqrt=total(wl**0.25, axis=-1) * total(wr**0.25, axis=-1),
            trace_log=0.5 * m * total(np.log(wl), axis=-1) + 0.5 * n * total(np.log(wr), axis=-1),
            weighted_inv=total(core2 * inv_w, axis=(-2, -1)),
            weighted_invsqrt=total(core2 * invsqrt_w, axis=(-2, -1)),
        )
    # Diag- and FullAdaGrad: eigenvalues w and squared eigenbasis coordinates c
    # of v; the four summands are rows of one array, summed row by row at once
    if g is Geometry.DIAG_ADAGRAD:
        w, c = state.diag, V[..., 0] ** 2
    else:
        w, Q = state.eig
        c = (Q.mT @ V)[..., 0] ** 2
    rows = np.empty((4,) + w.shape)
    np.sqrt(w, out=rows[0])
    np.log(w, out=rows[1])
    np.divide(c, w, out=rows[2])
    np.divide(c, rows[0], out=rows[3])
    return GeometryDiagnostics(*total(rows, axis=-1))


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
