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
by one stacked eigh or SVD, and the step returns its record values as one
(fields, R) array, which the driver stores in its (fields, R, K) columns
with one assignment; only ``run_trajectory`` builds ``IterationRecord``s.
Each replicate keeps its own Generator, whose normals it reads in chunks
(``problems.NormalStreams``), and every stacked operation rounds as the
single-point one does, so replicate r of a stack is bit for bit the
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
from .problems import NoiseKind, NoiseModel, NormalStreams, Problem, sample_gradient


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
    momentum) and are genuinely nonzero perturbations.  ``run_trajectory``
    returns one per iteration; the step and the drivers keep the same
    fields as the rows of an array (see ``_RECORD_FIELDS``).
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


# every per-step quantity of IterationRecord except the iteration index: the
# rows of adprec_step's record array and of the driver's columns
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
    ``ProductPoint``).  The record is an array whose row i is field
    _RECORD_FIELDS[i], one value per point: (fields,) for one point,
    (fields, R) for a stack.  M is the
    previous momentum M_{k-1}: None before the first step, and returned
    unchanged when momentum is off.  z_norms are the block dual norms of the
    preconditioned direction Z (the oracle for multiplicative noise needs
    them at the next iteration).  A Muon direction block D is factorized
    once (``geom_factor``): its one SVD gives Z's dual norm and selector,
    so Z itself is never formed; they feed both the identity residual and
    the step, and, when D is the accumulated block, the lmap trace.  The
    lmap trace feeds accumulate and diagnostics (and Gtilde's dual norm when
    Gtilde is the accumulated block).  The record's f_value / grad_dual_norm
    rows are NaN here; the trajectory driver fills them in (they need the
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
    # per block: |Z| <A, S(Z)>, then what the record sums over blocks, in
    # the order of its fields gtilde_dual_norm ... weighted_invsqrt: |Gtilde|^2,
    # |Z|^2, the trace and log-det terms, and the traces that |Z|^2 and
    # |Z| <A, S(Z)> should equal, tr(Gamma^-1 lmap A) and tr(Gamma^-1/2 lmap A)
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
            zn * np.add.reduce(A * S, axis=(-2, -1)), gtilde_sq, zn * zn,
            diag.trace_sqrt, diag.trace_log, diag.weighted_inv, diag.weighted_invsqrt,
        ))
        new_blocks.append(X.blocks[ell] - config.eta * geom_step_direction(shape, Z, zn, S))
        new_states.append(st)
        z_norms.append(zn)

    terms = np.array(terms)  # (blocks, 7) + the stack's shape
    record = np.empty((len(_RECORD_FIELDS),) + terms.shape[2:])
    record[:2] = math.nan  # f_value and grad_dual_norm, the driver's
    # block sums in block order, rounded as 0.0 + b_0 + b_1 + ..., into
    # rows 2-7; then the norm is the root of its square, and delta_k is the
    # log-det term less its value at Gamma_0 = varsigma I
    total = record[2:8]
    np.add(0.0, terms[0, 1:], out=total)
    for t in terms[1:]:
        np.add(total, t[1:], out=total)
    record[2] = np.sqrt(record[2])
    record[5] -= total_dim(shapes) * math.log(config.varsigma)
    # identity residuals |lhs - rhs| / max(|lhs|, |rhs|), worst over blocks,
    # for |Z| <A, S(Z)> against column 6 and |Z|^2 against column 5; a NaN
    # residual (0/0 included) counts as 0, as a running max(0.0, ...) over
    # blocks leaves it
    lhs, rhs = terms[:, 0:3:2], terms[:, 6:4:-1]
    size = np.abs(terms)
    scale = np.maximum(size[:, 0:3:2], size[:, 6:4:-1])
    resid = np.abs(lhs - rhs)
    np.divide(resid, scale, out=resid, where=scale > 0.0)
    np.fmax.reduce(resid, axis=0, initial=0.0, out=record[8:10])
    record[10] = config.eta * np.sqrt(record[3])
    record[11] = mom_err_sq
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


def _keep(n: int, X, states, M, z_norms):
    """The driver's per-replicate carry cut to replicates 0..n-1."""
    rows = slice(n)
    states = [geom_take(st, rows) for st in states]
    return _take(X, rows), states, _take(M, rows), _cut(z_norms, rows)


def _rows(idx, R: int):
    """Rows idx (increasing) of a stack of R: None for all of them, else a
    slice when they are contiguous, else an index array."""
    if len(idx) == R:
        return None
    contiguous = idx[-1] - idx[0] == len(idx) - 1
    return slice(int(idx[0]), int(idx[-1]) + 1) if contiguous else np.array(idx)


def _sampling_plan(noises: Sequence[NoiseModel], rngs):
    """How the oracle draws a stack whose row r has model noises[r] and
    Generator rngs[r]: a list of (model, rows, draws).  For one row, rngs
    is its Generator and so are the draws of the one entry.  A stack whose
    rows share one model has one entry with rows None and draws the
    ``NormalStreams`` of all rows.  Otherwise there is one entry per noisy
    model, in order of its first row, with rows its rows (see ``_rows``)
    and draws their streams; the exact rows of such a stack keep the exact
    gradient and have no entry."""
    models = []
    for nz in noises:
        if nz not in models:
            models.append(nz)
    if isinstance(rngs, np.random.Generator):
        return [(models[0], None, rngs)]
    plan = []
    for model in models:
        if model.kind is NoiseKind.EXACT and len(models) > 1:
            continue
        idx = [r for r, nz in enumerate(noises) if nz == model]
        plan.append((model, _rows(idx, len(noises)), NormalStreams([rngs[r] for r in idx])))
    return plan


def _cut_plan(plan, R: int, n: int):
    """The sampling plan of a stack of R rows cut to rows 0..n-1: each
    model keeps its rows below n, whose streams go on where they are."""
    cut = []
    for model, rows, streams in plan:
        idx = np.arange(R)[slice(None) if rows is None else rows]
        idx = idx[idx < n]
        if len(idx):
            cut.append((model, _rows(idx, n), streams.head(len(idx))))
    return cut


def _oracle(problem: Problem, plan, X: ProductPoint, k: int, z_prev_norms, G: ProductPoint):
    """Gtilde for every row of X: one ``sample_gradient`` call per entry of
    the sampling plan, on the sub-stack of its rows (of G, and of X only for
    MiniBatch, the one oracle that reads X), with z_prev_norms cut to them;
    rows no entry draws for keep G."""
    if not plan:
        return G
    noise, rows, draws = plan[0]
    if rows is None:
        return sample_gradient(problem, noise, X, k, draws, z_prev_norms=z_prev_norms, exact_grad=G)
    blocks = [np.copy(b) for b in G.blocks]
    for noise, rows, draws in plan:
        sub = sample_gradient(
            problem, noise, _take(X, rows) if noise.kind is NoiseKind.MINI_BATCH else None,
            k, draws, z_prev_norms=_cut(z_prev_norms, rows), exact_grad=_take(G, rows),
        )
        for b, s in zip(blocks, sub.blocks):
            b[rows] = s
    return ProductPoint(blocks)


def _drive(problem: Problem, noises: Sequence[NoiseModel], config: OptimizerConfig) -> _Run:
    """Advance rows r = 0..R-1, R = len(noises), from problem.x0 for
    max_iters steps as one stack.  Row r samples its Gtilde from noises[r]
    with its own Generator, seeded seed + r and read in chunks (see
    ``NormalStreams``): rows sharing a model are drawn together (see
    ``_sampling_plan``), and an exact row's Generator is never drawn from.
    Whether a row is exact decides its grad_dual_norm (that of Gtilde
    itself when exact) and the fields its failure names.  Each step's
    record array fills the rows' column of ``_Run.columns`` at once.

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
    rows = slice(n) if lead else 0  # their column of a step's records

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
            plan, exact = _cut_plan(plan, n, r), exact[:r]
            n, rows = r, slice(r)
            X, states, M, z_prev_norms = _keep(n, X, states, M, z_prev_norms)
            G, gtilde = _take(G, rows), _take(gtilde, rows)
            if config.eval_objective:
                fval = fval[:n]
        X_next, states, M, rec, z_prev_norms = adprec_step(shapes, X, gtilde, states, M, config, k)
        rec[0] = fval
        # an exact row's Gtilde is G, whose norm the step already took
        if exact.all():
            rec[1] = rec[2]
        else:
            grad = np.sqrt(product_dual_norm_sq(G, shapes))
            rec[1] = np.where(exact, rec[2], grad) if exact.any() else grad
        columns[:, rows, k] = rec
        # the flat iterate is checked here and cached for the next gradient
        if np.isfinite(rec[first:]).all() and np.isfinite(X_next.ravel()).all():
            X = X_next
            continue
        finite = np.isfinite(columns[first:, :n, k])
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
        plan, exact = _cut_plan(plan, n, r), exact[:r]
        n, rows = r, slice(r)
        X, states, M, z_prev_norms = _keep(n, X_next, states, M, z_prev_norms)
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
    # each field's replicate axis is reduced in replicate order, as a
    # reduction of that field's (R, K) array alone would
    mean = dict(zip(_RECORD_FIELDS, columns.mean(axis=1)))
    se = columns.std(axis=1, ddof=1) / np.sqrt(R) if R > 1 else np.zeros(columns.shape[::2])
    se = dict(zip(_RECORD_FIELDS, se))
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
