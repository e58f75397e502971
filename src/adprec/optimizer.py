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
and run together as one array program.  Every block of the iterate, the
gradient and the geometry state carries a leading replicate axis, so one
call of ``adprec_step`` advances all R replicates, each block is factorized
by one stacked eigh or SVD, and the records fill (R, K) columns in place.
Each replicate keeps its own Generator, and every stacked operation rounds
as the single-point one does, so replicate r of a stack is bit for bit the
trajectory that seed + r gives alone; ``run_trajectory`` is the R = 1 case.

Each row of a stack has its own noise model.  ``run_replicates`` gives all
R rows one model; ``run_rows`` runs different models side by side, such as
the exact and the noisy trajectory of one space.  Rows that share a model
draw their Gtilde as one sub-stack, exact rows keep the exact gradient, and
row r still draws from seed + r, so each row is still its solo trajectory.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .block_space import (
    BlockShape,
    Geometry,
    ProductPoint,
    block_dual_norm,
    check_point_matches,
    product_dual_norm_sq,
    squared,
    total_dim,
)
from .errors import InvalidConfig, NonFiniteIterate
from .geometries import (
    GeometryState,
    geom_accumulate,
    geom_diagnostics,
    geom_dual_norm,
    geom_factor,
    geom_init,
    geom_lmap_trace,
    geom_precondition,
    geom_selector,
    geom_step_direction,
    geom_take,
)
from .problems import NoiseKind, NoiseModel, Problem, sample_gradient


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
    momentum) and are genuinely nonzero perturbations.  Fields are floats
    for one trajectory and (R,) arrays for the step of a stack.
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

    X, gtilde, M and the states are one point or a stack of R (see
    ``ProductPoint``); the record then holds one value per point.  M is the
    previous momentum M_{k-1}: None before the first step, and returned
    unchanged when momentum is off.  z_norms are the block dual norms of the
    preconditioned direction Z (the oracle for multiplicative noise needs
    them at the next iteration).  A Muon direction block D is factorized
    once (``geom_factor``): its one SVD gives Z's dual norm and selector,
    so Z itself is never formed; they feed both the identity residual and
    the step, and, when D is the accumulated block, the lmap trace.  The
    lmap trace feeds accumulate and diagnostics (and Gtilde's dual norm when
    Gtilde is the accumulated block).  The record's f_value / grad_dual_norm
    fields are NaN here; the trajectory driver fills them in (they need the
    problem, which the step itself must not consult) and checks X_next and
    the record for non-finite values.
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
    # per block: |Z| <A, S(Z)> and |Z|^2, the traces each should equal,
    # tr(Gamma^-1/2 lmap A) and tr(Gamma^-1 lmap A), then the other terms the
    # record sums over blocks; columns 1-6 are all summed
    terms = []
    for ell, shape in enumerate(shapes):
        A, D = acc.blocks[ell], direction.blocks[ell]
        f = geom_factor(shape, D)
        tl = geom_lmap_trace(shape, A, f if A is D else None)
        st = geom_accumulate(shape, states[ell], A, tl)
        # Muon reads |Z| and S(Z) from D's factor and never needs Z itself
        Z = geom_precondition(shape, st, D) if f is None else None
        zn = geom_dual_norm(shape, Z, st, f)
        S = geom_selector(shape, Z, zn, f)
        diag = geom_diagnostics(shape, st, A, tl)
        # Muon's lmap trace of Gtilde is its squared nuclear norm, the same
        # float; a Euclidean block's sum of squares is not its squared norm
        if acc is gtilde and shape.geometry is Geometry.MUON:
            gtilde_sq = tl
        else:
            gtilde_sq = squared(block_dual_norm(shape.geometry, gtilde.blocks[ell]))
        terms.append((
            zn * np.add.reduce(A * S, axis=(-2, -1)), zn * zn,
            diag.weighted_invsqrt, diag.weighted_inv,
            diag.trace_sqrt, diag.trace_log, gtilde_sq,
        ))
        new_blocks.append(X.blocks[ell] - config.eta * geom_step_direction(shape, Z, zn, S))
        new_states.append(st)
        z_norms.append(zn)

    terms = np.array(terms)  # (blocks, 7) + the stack's shape
    # block sums in block order, rounded as 0.0 + b_0 + b_1 + ...
    total = 0.0 + terms[0, 1:]
    for t in terms[1:]:
        total = total + t[1:]
    z_sq, w_invsqrt, w_inv, trace_sqrt, trace_log, gtilde_sq = total
    # identity residuals |lhs - rhs| / max(|lhs|, |rhs|), worst over blocks;
    # a NaN residual (0/0 included) counts as 0, as a running max(0.0, ...)
    # over blocks leaves it
    pairs = terms[:, :4]
    size = np.abs(pairs)
    scale = np.maximum(size[:, 0:2], size[:, 2:4])
    resid = np.abs(pairs[:, 0:2] - pairs[:, 2:4])
    np.divide(resid, scale, out=resid, where=scale > 0.0)
    resid1, resid2 = np.fmax.reduce(resid, axis=0, initial=0.0)

    N = total_dim(shapes)
    record = IterationRecord(
        k=k,
        f_value=math.nan,
        grad_dual_norm=math.nan,
        gtilde_dual_norm=np.sqrt(gtilde_sq),
        z_dual_norm_sq=z_sq,
        trace_sqrt_total=trace_sqrt,
        delta_k=trace_log - N * math.log(config.varsigma),
        weighted_inv=w_inv,
        weighted_invsqrt=w_invsqrt,
        resid_ineq1=resid1,
        resid_ineq2=resid2,
        step_dual_norm=config.eta * np.sqrt(z_sq),
        mom_err_sq=mom_err_sq,
    )
    return ProductPoint(new_blocks), new_states, M, record, z_norms


@dataclass
class _Run:
    """What the driver returns.  columns[i, r, k] is field _RECORD_FIELDS[i]
    of replicate r at iteration k.  failure is None or (r, k, message) for
    the lowest replicate that turned non-finite; the driver stops advancing
    it and every replicate above it.  X and states are what the last step
    left (the stack of all R replicates, or the one point when R = 1), or,
    after a failure of replicate 0, what the failing step left (what it
    started from, when it failed before the step)."""

    columns: np.ndarray
    X: ProductPoint
    states: list[GeometryState]
    failure: tuple[int, int, str] | None


def _first_overflow(P: ProductPoint) -> int | None:
    """The lowest point of a stack (0 for one point) whose sum of squared
    entries is non-finite, or None."""
    if math.isfinite(sum(np.vdot(b, b) for b in P.blocks)):
        return None
    # per point: the sum over a whole stack may overflow where no point's does
    ok = np.isfinite(sum(np.add.reduce(b * b, axis=(-2, -1)) for b in P.blocks)).reshape(-1)
    return None if ok.all() else int(np.argmin(ok))


def _take(P: ProductPoint | None, rows) -> ProductPoint | None:
    """The points of a stack that rows (a slice or an index array) selects."""
    return None if P is None else ProductPoint([b[rows] for b in P.blocks])


def _cut(z_norms, rows):
    """Per-block dual norms of a stack cut to rows."""
    return None if z_norms is None else [z[rows] for z in z_norms]


def _keep(n: int, X, states, M, z_norms, rngs):
    """The driver's per-replicate carry cut to replicates 0..n-1."""
    rows = slice(n)
    states = [geom_take(st, rows) for st in states]
    return _take(X, rows), states, _take(M, rows), _cut(z_norms, rows), rngs[:n]


def _sampling_plan(noises: Sequence[NoiseModel], rngs):
    """How the oracle draws a stack whose row r has model noises[r] and
    Generator rngs[r] (for one row, rngs is its Generator): a list of
    (model, rows, Generators) whose rows is None when every row shares the
    one model.  Otherwise there is one entry per noisy model, in order of
    its first row, with rows its row indices (a slice when contiguous); the
    exact rows of such a stack keep the exact gradient and have no entry."""
    models = []
    for nz in noises:
        if nz not in models:
            models.append(nz)
    if len(models) == 1:
        return [(models[0], None, rngs)]
    plan = []
    for model in models:
        if model.kind is NoiseKind.EXACT:
            continue
        idx = [r for r, nz in enumerate(noises) if nz == model]
        contiguous = idx[-1] - idx[0] == len(idx) - 1
        rows = slice(idx[0], idx[-1] + 1) if contiguous else np.array(idx)
        plan.append((model, rows, [rngs[r] for r in idx]))
    return plan


def _oracle(problem: Problem, plan, X: ProductPoint, k: int, z_prev_norms, G: ProductPoint):
    """Gtilde for every row of X: one ``sample_gradient`` call per entry of
    the sampling plan, on the sub-stack of its rows, with z_prev_norms cut
    to them; the exact rows of a mixed stack keep G."""
    noise, rows, rngs = plan[0]
    if rows is None:
        return sample_gradient(problem, noise, X, k, rngs, z_prev_norms=z_prev_norms, exact_grad=G)
    blocks = [np.copy(b) for b in G.blocks]
    for noise, rows, rngs in plan:
        sub = sample_gradient(
            problem, noise, _take(X, rows), k, rngs,
            z_prev_norms=_cut(z_prev_norms, rows), exact_grad=_take(G, rows),
        )
        for b, s in zip(blocks, sub.blocks):
            b[rows] = s
    return ProductPoint(blocks)


def _drive(problem: Problem, noises: Sequence[NoiseModel], config: OptimizerConfig) -> _Run:
    """Advance rows r = 0..R-1, R = len(noises), from problem.x0 for
    max_iters steps as one stack.  Row r samples its Gtilde from noises[r]
    with its own Generator, seeded seed + r: rows sharing a model are drawn
    together (see ``_sampling_plan``), and an exact row's Generator is never
    drawn from.  Whether a row is exact decides its grad_dual_norm (that of
    Gtilde itself when exact) and the fields its failure names.

    A row fails at iteration k when its iterate or record (f_value only
    when eval_objective is set) is non-finite after the step, or already
    before it, when Gtilde's sum of squares overflows: that sum is
    gtilde_dual_norm**2 on Euclidean blocks and at most it on Muon blocks,
    and in the step it would reach a Gram matrix, on which eigh raises, or
    an SVD, which may not return.  The row then leaves the stack, with every
    row above it: none of them can be the lowest failure any more, and
    their non-finite values never reach a stacked factorization.
    """
    shapes = problem.shapes
    K, R = config.max_iters, len(noises)
    # One replicate runs on the point itself, without the replicate axis: its
    # per-replicate values are then numpy scalars, whose arithmetic is several
    # times cheaper than that of one-element arrays.
    lead = (R,) if R > 1 else ()
    X = ProductPoint([np.broadcast_to(b, lead + b.shape).copy() for b in problem.x0.blocks])
    states = [geom_init(s, config.varsigma, lead=lead) for s in shapes]
    M = None
    rngs = [np.random.default_rng(config.seed + r) for r in range(R)]
    if not lead:
        rngs = rngs[0]
    plan = _sampling_plan(noises, rngs)
    exact = np.array([nz.kind is NoiseKind.EXACT for nz in noises])
    z_prev_norms = None
    columns = np.full((len(_RECORD_FIELDS), R, K), math.nan)
    # f_value is the first record field, NaN by design when not evaluated
    first = 0 if config.eval_objective else 1
    failure = None
    n = R  # replicates 0..n-1 are still running

    for k in range(K):
        G = problem.eval_grad(X)
        gtilde = _oracle(problem, plan, X, k, z_prev_norms, G)
        fval = problem.eval_f(X) if config.eval_objective else math.nan
        r = _first_overflow(gtilde)
        if r is not None:
            bad = ["grad_dual_norm", "gtilde_dual_norm"] if exact[r] else ["gtilde_dual_norm"]
            if config.eval_objective and not np.isfinite(np.reshape(fval, -1)[r]):
                bad.insert(0, "f_value")
            failure = (r, k, f"non-finite at iteration {k}: {', '.join(bad)}")
            if r == 0:
                return _Run(columns, X, states, failure)
            n = r
            X, states, M, z_prev_norms, rngs = _keep(n, X, states, M, z_prev_norms, rngs)
            G, gtilde = _take(G, slice(n)), _take(gtilde, slice(n))
            plan, exact = _sampling_plan(noises[:n], rngs), exact[:n]
            if config.eval_objective:
                fval = fval[:n]
        X_next, states, M, rec, z_prev_norms = adprec_step(shapes, X, gtilde, states, M, config, k)
        rec.f_value = fval
        # an exact row's Gtilde is G, whose norm the step already took
        if exact.all():
            rec.grad_dual_norm = rec.gtilde_dual_norm
        else:
            grad = np.sqrt(product_dual_norm_sq(G, shapes))
            rec.grad_dual_norm = np.where(exact, rec.gtilde_dual_norm, grad) if exact.any() else grad
        step = columns[:, :n, k]
        for i, name in enumerate(_RECORD_FIELDS):
            step[i] = getattr(rec, name)
        # the flat iterate is checked here and cached for the next gradient
        if np.isfinite(step[first:]).all() and np.isfinite(X_next.ravel()).all():
            X = X_next
            continue
        finite = np.isfinite(step[first:])
        iterate = np.logical_and.reduce(
            [np.isfinite(b).all(axis=(-2, -1)) for b in X_next.blocks]
        ).reshape(-1)
        r = int(np.argmin(finite.all(axis=0) & iterate))
        bad = [name for name, f in zip(_RECORD_FIELDS[first:], finite[:, r]) if not f]
        if not iterate[r]:
            bad.insert(0, "iterate")
        failure = (r, k, f"non-finite at iteration {k}: {', '.join(bad)}")
        if r == 0:
            return _Run(columns, X_next, states, failure)
        n = r
        X, states, M, z_prev_norms, rngs = _keep(n, X_next, states, M, z_prev_norms, rngs)
        plan, exact = _sampling_plan(noises[:n], rngs), exact[:n]
    return _Run(columns, X, states, failure)


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
    """Drive the iteration for max_iters steps from problem.x0: the
    one-replicate stack of ``run_replicates``.

    Deterministic given (problem, noise, config.seed).  A non-finite
    iterate or record value (f_value only when eval_objective is set)
    aborts the run: the records before the failing iteration are returned
    with the failing step's iterate (the one it started from, when Gtilde's
    sum of squares overflowed before it) and the failure message in
    ``failed``.
    """
    run = _drive(problem, [noise], config)
    K, failed = config.max_iters, None
    if run.failure is not None:
        _, K, failed = run.failure
    records = [IterationRecord(k, *run.columns[:, 0, k].tolist()) for k in range(K)]
    return TrajectoryResult(records, run.X, run.states, failed)


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


def _points(X: ProductPoint, stacked: bool) -> list[ProductPoint]:
    """The points of a stack, or [X] for one point."""
    return [ProductPoint(list(p)) for p in zip(*X.blocks)] if stacked else [X]


def _result(columns: np.ndarray, final: list[ProductPoint]) -> ReplicateResult:
    """The ReplicateResult of the (fields, R, K) columns of R replicates."""
    R = len(final)
    arrays = dict(zip(_RECORD_FIELDS, columns))
    mean = {name: a.mean(axis=0) for name, a in arrays.items()}
    se = {
        name: (a.std(axis=0, ddof=1) / np.sqrt(R) if R > 1 else np.zeros(a.shape[1]))
        for name, a in arrays.items()
    }
    min_grad = np.minimum.accumulate(mean["grad_dual_norm"])
    return ReplicateResult(arrays, mean, min_grad, se, final)


def run_replicates(
    problem: Problem,
    noise: NoiseModel,
    config: OptimizerConfig,
    R: int,
) -> ReplicateResult:
    """Run R independent trajectories (seed + r) as one stack and average
    the records.  A non-finite replicate raises NonFiniteIterate naming the
    lowest one that failed and its seed."""
    if R < 1:
        raise InvalidConfig(f"need at least one replicate, got {R}")
    run = _drive(problem, [noise] * R, config)
    if run.failure is not None:
        r, _, message = run.failure
        raise NonFiniteIterate(f"replicate {r} (seed {config.seed + r}): {message}")
    return _result(run.columns, _points(run.X, R > 1))


def run_rows(
    problem: Problem,
    noises: Sequence[NoiseModel],
    config: OptimizerConfig,
) -> list[ReplicateResult | NonFiniteIterate]:
    """Run row r with noises[r] from seed config.seed + r and return per row
    what ``run_replicates`` gives for that model and seed at R = 1: its
    ReplicateResult, or the NonFiniteIterate it raises.

    All rows run as one stack, and every row rounds as it does alone.  A
    failure drops the rows above it from the stack, and they run on as a
    stack of their own.
    """
    if not noises:
        return []
    R = len(noises)
    run = _drive(problem, noises, config)
    n = R if run.failure is None else run.failure[0]  # rows 0..n-1 finished
    final = _points(run.X, R > 1)
    rows = [_result(run.columns[:, r : r + 1], [final[r]]) for r in range(n)]
    if run.failure is not None:
        rows.append(NonFiniteIterate(f"replicate 0 (seed {config.seed + n}): {run.failure[2]}"))
        n += 1
    return rows + run_rows(problem, noises[n:], replace(config, seed=config.seed + n))
