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


@dataclass
class MomentumState:
    """Blockwise momentum accumulator; defined lazily as Gtilde_0 on first use."""

    M: ProductPoint | None = None

    def update(self, mu: float, gtilde: ProductPoint) -> ProductPoint:
        if self.M is None:
            self.M = gtilde
        else:
            self.M = ProductPoint(
                [mu * m + (1.0 - mu) * g for m, g in zip(self.M.blocks, gtilde.blocks)]
            )
        return self.M


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
    mom: MomentumState,
    config: OptimizerConfig,
    k: int,
):
    """One iteration; returns (X_next, new_states, mom, record, Z).

    Z is the preconditioned direction as a ProductPoint (the oracle for
    multiplicative noise needs it at the next iteration).  The record's
    f_value / grad_dual_norm fields are NaN here; the trajectory driver
    fills them in (they need the problem, which the step itself must not
    consult).
    """
    check_point_matches(X, shapes)
    check_point_matches(gtilde, shapes)
    mode = config.momentum_mode
    mu_k = mu_schedule(k, config)

    if mode is MomentumMode.M1:
        M = mom.update(mu_k, gtilde)
        acc = direction = M
    elif mode is MomentumMode.M2:
        M = mom.update(mu_k, gtilde)
        acc, direction = gtilde, M
    else:
        acc = direction = gtilde

    new_states = []
    new_blocks = []
    z_blocks = []
    z_sq = 0.0
    trace_sqrt = 0.0
    trace_log = 0.0
    w_inv = 0.0
    w_invsqrt = 0.0
    resid1 = 0.0
    resid2 = 0.0
    for ell, shape in enumerate(shapes):
        st = geom_accumulate(shape, states[ell], acc.blocks[ell])
        Z = geom_precondition(shape, st, direction.blocks[ell])
        zn = geom_dual_norm(shape, Z)
        diag = geom_diagnostics(shape, st, acc.blocks[ell])

        lhs1 = zn * float(np.sum(acc.blocks[ell] * geom_selector(shape, Z)))
        resid1 = max(resid1, _rel_resid(lhs1, diag.weighted_invsqrt))
        resid2 = max(resid2, _rel_resid(zn * zn, diag.weighted_inv))

        new_blocks.append(X.blocks[ell] - config.eta * geom_step_direction(shape, Z))
        new_states.append(st)
        z_blocks.append(Z)
        z_sq += zn * zn
        trace_sqrt += diag.trace_sqrt
        trace_log += diag.trace_log
        w_inv += diag.weighted_inv
        w_invsqrt += diag.weighted_invsqrt

    X_next = ProductPoint(new_blocks)
    Z_point = ProductPoint(z_blocks)
    if not X_next.is_finite():
        raise NonFiniteIterate(f"iterate became non-finite at iteration {k}")

    N = total_dim(shapes)
    mom_err_sq = 0.0
    if mode in (MomentumMode.M1, MomentumMode.M2):
        E = ProductPoint([m - g for m, g in zip(mom.M.blocks, gtilde.blocks)])
        mom_err_sq = product_dual_norm_sq(E, shapes)

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
    return X_next, new_states, mom, record, Z_point


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
    iterate aborts the run; the partial record stream is returned with the
    failure message in ``failed``.
    """
    shapes = problem.shapes
    X = problem.x0.copy()
    states = [geom_init(s, config.varsigma) for s in shapes]
    mom = MomentumState()
    rng = np.random.default_rng(config.seed)
    z_prev: ProductPoint | None = None
    records: list[IterationRecord] = []

    for k in range(config.max_iters):
        G = problem.eval_grad(X)
        gtilde = sample_gradient(problem, noise, X, k, rng, z_prev=z_prev, exact_grad=G)
        fval = problem.eval_f(X) if config.eval_objective else math.nan
        gnorm = math.sqrt(product_dual_norm_sq(G, shapes))
        try:
            X, states, mom, rec, z_prev = adprec_step(shapes, X, gtilde, states, mom, config, k)
        except NonFiniteIterate as err:
            return TrajectoryResult(records, X, states, failed=str(err))
        rec.f_value, rec.grad_dual_norm = fval, gnorm
        records.append(rec)
    return TrajectoryResult(records, X, states)


# every per-step quantity of IterationRecord except the iteration index
_RECORD_FIELDS = tuple(f.name for f in fields(IterationRecord) if f.name != "k")


@dataclass
class ReplicateResult:
    """Replicate-averaged record stream.

    arrays[name] has shape (R, K); mean[name] is the across-replicate mean
    at each iteration, and min_grad_curve is the running minimum of the
    averaged true-gradient norm (the quantity the rate bounds control).
    """

    arrays: dict[str, np.ndarray]
    mean: dict[str, np.ndarray]
    min_grad_curve: np.ndarray
    se: dict[str, np.ndarray]


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
            raise NonFiniteIterate(f"replicate {r}: {traj.failed}")
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
    return ReplicateResult(arrays, mean, min_grad, se)
