"""The adaptively preconditioned iteration over a block product space.

One step, per block:

    accumulate   Gamma_k = Gamma_{k-1} + lmap(acc_k)
    precondition Z_k     = Gamma_k**-1/2 dir_k
    move         X_{k+1} = X_k - eta * |Z_k|_dual * S(Z_k)

where (acc_k, dir_k) depend on the momentum mode:

    none  acc = dir = Gtilde_k
    m1    M_k = mu_k M_{k-1} + (1-mu_k) Gtilde_k;  acc = dir = M_k
    m2    acc = Gtilde_k;  M_k as above;  dir = M_k

with M initialized so that M_0 = Gtilde_0 in both momentum modes, and
mu_k = mu_max / (k+1)**beta.

The objective value is recorded for diagnostics only and never enters the
update; setting eval_objective=False skips it entirely.  A trajectory is
strictly sequential; replicates are independent (seed + replicate index)
and run one after another.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .block_space import (
    BlockShape,
    ProductPoint,
    check_point_matches,
    product_dual_norm_sq,
    total_dim,
)
from .errors import InvalidConfig, NonFiniteIterate
from .geometries import (
    GeometryState,
    geom_accumulate,
    geom_diagnostics,
    geom_dual_norm,
    geom_init,
    geom_lmap_trace,
    geom_precondition,
    geom_selector,
    geom_step_direction,
)
from .problems import NoiseModel, Problem, sample_gradient


class MomentumMode(str, enum.Enum):
    NONE = "None"
    M1 = "M1"
    M2 = "M2"


@dataclass(frozen=True)
class OptimizerConfig:
    eta: float
    varsigma: float
    max_iters: int
    seed: int = 0
    momentum_mode: MomentumMode = MomentumMode.NONE
    mu_max: float = 0.0
    beta: float = 0.0
    eval_objective: bool = True

    def __post_init__(self):
        if not self.eta > 0.0:
            raise InvalidConfig(f"eta must be positive, got {self.eta}")
        if not self.varsigma > 0.0:
            raise InvalidConfig(f"varsigma must be positive, got {self.varsigma}")
        if not 0.0 <= self.mu_max < 1.0:
            raise InvalidConfig(f"mu_max must lie in [0, 1), got {self.mu_max}")
        if self.beta < 0.0:
            raise InvalidConfig(f"beta must be nonnegative, got {self.beta}")
        if self.max_iters < 0:
            raise InvalidConfig(f"max_iters must be nonnegative, got {self.max_iters}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be nonnegative, got {self.seed}")


def _momentum(M: ProductPoint | None, mu: float, gtilde: ProductPoint) -> ProductPoint:
    """M_k = mu M_{k-1} + (1-mu) Gtilde_k, with M_0 = Gtilde_0 (M is None at k = 0)."""
    if M is None:
        return gtilde
    return ProductPoint([mu * m + (1.0 - mu) * g for m, g in zip(M.blocks, gtilde.blocks)])


def mu_schedule(k: int, config: OptimizerConfig) -> float:
    """mu_k = mu_max / (k+1)**beta; zero when momentum is off."""
    if config.momentum_mode is MomentumMode.NONE:
        return 0.0
    return config.mu_max / (k + 1) ** config.beta


@dataclass
class IterationRecord:
    """Per-iteration diagnostics.

    weighted_inv / weighted_invsqrt are the trace functionals of the
    *accumulated* vector (the one whose lmap grew the preconditioner), so
    the pathwise potential inequalities can be checked directly from a
    record stream.  resid_ineq1/2 are relative residuals of the structural
    identities, evaluated with the accumulated vector; for mode m2 these
    mix Gamma (grown from the raw gradient) with Z (preconditioned
    momentum) and are genuinely nonzero perturbations.
    """

    k: int
    f_value: float
    grad_dual_norm: float
    gtilde_dual_norm: float
    z_dual_norm_sq: float
    trace_sqrt_total: float
    delta_k: float
    weighted_inv: float
    weighted_invsqrt: float
    resid_ineq1: float
    resid_ineq2: float
    step_dual_norm: float
    mom_err_sq: float = 0.0


# every per-step quantity of IterationRecord except the iteration index
_RECORD_FIELDS = tuple(f.name for f in fields(IterationRecord) if f.name != "k")


def _rel_resid(lhs: float, rhs: float) -> float:
    scale = max(abs(lhs), abs(rhs))
    if scale == 0.0:
        return 0.0
    return abs(lhs - rhs) / scale


def adprec_step(
    shapes: Sequence[BlockShape],
    X: ProductPoint,
    gtilde: ProductPoint,
    states: list[GeometryState],
    M: ProductPoint | None,
    config: OptimizerConfig,
    k: int,
):
    """One iteration; returns (X_next, new_states, M_k, record, z_norms).

    M is the previous momentum M_{k-1}: None before the first step, and
    returned unchanged when momentum is off.  z_norms are the block dual
    norms of the preconditioned direction Z (the oracle for multiplicative
    noise needs them at the next iteration).  Each block is factorized
    once: its lmap trace feeds both accumulate and diagnostics, and Z's dual
    norm and selector feed both the identity residual and the step.  The
    record's f_value / grad_dual_norm fields are NaN here; the trajectory
    driver fills them in (they need the problem, which the step itself must
    not consult) and checks X_next and the record for non-finite values.
    """
    check_point_matches(X, shapes)
    check_point_matches(gtilde, shapes)
    mode = config.momentum_mode
    mu_k = mu_schedule(k, config)

    acc = direction = gtilde
    mom_err_sq = 0.0
    if mode is not MomentumMode.NONE:
        M = direction = _momentum(M, mu_k, gtilde)
        if mode is MomentumMode.M1:
            acc = M
        E = ProductPoint([m - g for m, g in zip(M.blocks, gtilde.blocks)])
        mom_err_sq = product_dual_norm_sq(E, shapes)

    new_states = []
    new_blocks = []
    z_norms = []
    z_sq = 0.0
    trace_sqrt = 0.0
    trace_log = 0.0
    w_inv = 0.0
    w_invsqrt = 0.0
    resid1 = 0.0
    resid2 = 0.0
    for ell, shape in enumerate(shapes):
        A = acc.blocks[ell]
        tl = geom_lmap_trace(shape, A)
        st = geom_accumulate(shape, states[ell], A, tl)
        Z = geom_precondition(shape, st, direction.blocks[ell])
        zn = geom_dual_norm(shape, Z)
        S = geom_selector(shape, Z)
        diag = geom_diagnostics(shape, st, A, tl)

        lhs1 = zn * float(np.sum(A * S))
        resid1 = max(resid1, _rel_resid(lhs1, diag.weighted_invsqrt))
        resid2 = max(resid2, _rel_resid(zn * zn, diag.weighted_inv))

        new_blocks.append(X.blocks[ell] - config.eta * geom_step_direction(shape, Z, zn, S))
        new_states.append(st)
        z_norms.append(zn)
        z_sq += zn * zn
        trace_sqrt += diag.trace_sqrt
        trace_log += diag.trace_log
        w_inv += diag.weighted_inv
        w_invsqrt += diag.weighted_invsqrt

    N = total_dim(shapes)
    record = IterationRecord(
        k=k,
        f_value=math.nan,
        grad_dual_norm=math.nan,
        gtilde_dual_norm=math.sqrt(product_dual_norm_sq(gtilde, shapes)),
        z_dual_norm_sq=z_sq,
        trace_sqrt_total=trace_sqrt,
        delta_k=trace_log - N * math.log(config.varsigma),
        weighted_inv=w_inv,
        weighted_invsqrt=w_invsqrt,
        resid_ineq1=resid1,
        resid_ineq2=resid2,
        step_dual_norm=config.eta * math.sqrt(z_sq),
        mom_err_sq=mom_err_sq,
    )
    return ProductPoint(new_blocks), new_states, M, record, z_norms


@dataclass
class TrajectoryResult:
    records: list[IterationRecord]
    final: ProductPoint
    states: list[GeometryState]
    failed: str | None = None

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])


def run_trajectory(
    problem: Problem,
    noise: NoiseModel,
    config: OptimizerConfig,
) -> TrajectoryResult:
    """Drive the iteration for max_iters steps from problem.x0.

    Deterministic given (problem, noise, config.seed).  A non-finite
    iterate or record value (f_value only when eval_objective is set)
    aborts the run: the records before the failing iteration are returned
    with the failing step's iterate and the failure message in ``failed``.
    """
    shapes = problem.shapes
    X = problem.x0.copy()
    states = [geom_init(s, config.varsigma) for s in shapes]
    M = None
    rng = np.random.default_rng(config.seed)
    z_prev_norms: list[float] | None = None
    records: list[IterationRecord] = []
    checked = [n for n in _RECORD_FIELDS if config.eval_objective or n != "f_value"]

    for k in range(config.max_iters):
        G = problem.eval_grad(X)
        gtilde = sample_gradient(
            problem, noise, X, k, rng, z_prev_norms=z_prev_norms, exact_grad=G
        )
        fval = problem.eval_f(X) if config.eval_objective else math.nan
        gnorm = math.sqrt(product_dual_norm_sq(G, shapes))
        X, states, M, rec, z_prev_norms = adprec_step(shapes, X, gtilde, states, M, config, k)
        rec.f_value, rec.grad_dual_norm = fval, gnorm
        bad = [n for n in checked if not math.isfinite(getattr(rec, n))]
        if not X.is_finite():
            bad.insert(0, "iterate")
        if bad:
            failed = f"non-finite at iteration {k}: {', '.join(bad)}"
            return TrajectoryResult(records, X, states, failed=failed)
        records.append(rec)
    return TrajectoryResult(records, X, states)


@dataclass
class ReplicateResult:
    """Replicate-averaged record stream.

    arrays[name] has shape (R, K); mean[name] is the across-replicate mean
    at each iteration, and min_grad_curve is the running minimum of the
    averaged true-gradient norm (the quantity the rate bounds control).
    final[r] is replicate r's last iterate.
    """

    arrays: dict[str, np.ndarray]
    mean: dict[str, np.ndarray]
    min_grad_curve: np.ndarray
    se: dict[str, np.ndarray]
    final: list[ProductPoint]


def run_replicates(
    problem: Problem,
    noise: NoiseModel,
    config: OptimizerConfig,
    R: int,
) -> ReplicateResult:
    """Run R independent trajectories (seed + r) and average the records."""
    if R < 1:
        raise InvalidConfig(f"need at least one replicate, got {R}")
    trajectories = []
    for r in range(R):
        traj = run_trajectory(problem, noise, replace(config, seed=config.seed + r))
        if traj.failed is not None:
            raise NonFiniteIterate(f"replicate {r} (seed {config.seed + r}): {traj.failed}")
        trajectories.append(traj)

    arrays = {
        name: np.stack([t.column(name) for t in trajectories]) for name in _RECORD_FIELDS
    }
    mean = {name: a.mean(axis=0) for name, a in arrays.items()}
    se = {
        name: (a.std(axis=0, ddof=1) / np.sqrt(R) if R > 1 else np.zeros(a.shape[1]))
        for name, a in arrays.items()
    }
    min_grad = np.minimum.accumulate(mean["grad_dual_norm"])
    return ReplicateResult(arrays, mean, min_grad, se, [t.final for t in trajectories])
