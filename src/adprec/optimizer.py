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
call of ``adprec_step`` advances all R replicates and each block is
factorized by one stacked eigh or SVD.  A step's factorizations do not
depend on each other, so the step lists them all, in a pass that grows the
states they factorize and finishes the blocks that factorize nothing, and
runs them together before a pass that finishes the other blocks
(``psd_linalg.factorize``): when two of them are large enough and a spare
thread is free (``_second_cpu``), the largest runs on it at the same time as
the rest.  The step computes only what the
next step reads; its record (``step_record``) is computed from the values
it kept, once per chunk of steps.  The driver keeps each step's record
inputs by reference and, once C steps are kept, has the next step compute
their records with one call per operation on arrays whose stack axis holds
all of them, after that step's first factorization on this thread (at
once when it has none), while any worker thread factorizes (the step's
meanwhile), then stores them in
its (fields, R, K) columns with one assignment; the last chunk is
recorded after the loop.  C is as many steps as fit in RECORD_CHUNK_BYTES,
from the bytes the first step keeps, and at least one: a step of large
blocks is a chunk of its own, which takes the same path, on its own arrays.
Only ``run_trajectory`` builds ``IterationRecord``s.  Each replicate keeps
its own Generator, whose normals it reads in chunks
(``problems.NormalStreams``), and every stacked operation rounds as the
single-point one does, so replicate r of a stack is bit for bit the
trajectory that seed + r gives alone, and every record value has the bits
it has when recorded right after its step; ``run_trajectory`` is the R = 1
case.

Each row of a stack is a spec, ``_Row(noise, seed)``, and draws from its
own seed.  ``run_trajectory`` runs one row at seed, ``run_replicates`` R
rows of one model at seed + r, and ``run_rows`` the (noise, seed) pairs it
is given, such as the exact and the noisy run of one space.  Rows that
share a model draw their Gtilde as one sub-stack; exact rows keep the
exact gradient.  A row that turns non-finite stops the stack at once, and
the caller reruns the rows it still needs from their specs, which gives
each row the run it has alone, so no state of a stack is ever cut.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, fields
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
    FACTORIZATIONS,
    GeometryState,
    geom_accumulate,
    geom_diagnostics,
    geom_dual_norm,
    geom_factor,
    geom_factor_calls,
    geom_init,
    geom_lmap_trace,
    geom_precondition,
    geom_selector,
    geom_stack,
    geom_step_direction,
)
from .problems import NoiseKind, NoiseModel, NormalStreams, Problem, sample_gradient
from .psd_linalg import factorize


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
        if not 0.0 < self.eta < math.inf:
            raise InvalidConfig(f"eta must be positive and finite, got {self.eta}")
        if not 0.0 < self.varsigma < math.inf:
            raise InvalidConfig(f"varsigma must be positive and finite, got {self.varsigma}")
        if not 0.0 <= self.mu_max < 1.0:
            raise InvalidConfig(f"mu_max must lie in [0, 1), got {self.mu_max}")
        if not 0.0 <= self.beta < math.inf:
            raise InvalidConfig(f"beta must be nonnegative and finite, got {self.beta}")
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
# rows of step_record's array and of the driver's columns
_RECORD_FIELDS = tuple(f.name for f in fields(IterationRecord) if f.name != "k")


def adprec_step(
    shapes: Sequence[BlockShape],
    X: ProductPoint,
    gtilde: ProductPoint,
    states: list[GeometryState],
    M: ProductPoint | None,
    config: OptimizerConfig,
    k: int,
    *,
    meanwhile=None,
):
    """One iteration, cut down to what the next one reads; returns
    (X_next, new_states, M_k, z_norms, kept).

    X, gtilde, M and the states are one point or a stack of R (see
    ``ProductPoint``).  M is the previous momentum M_{k-1}: None before the
    first step, and returned unchanged when momentum is off.  z_norms are
    the block dual norms of the preconditioned direction Z (the oracle for
    multiplicative noise needs them at the next iteration).  A Muon
    direction block D is factorized once: its one SVD gives Z's dual norm
    and selector (``geom_factor``), so Z itself is never formed, and, when
    D is the accumulated block, the lmap trace, which feeds accumulate.
    kept is what the step's record (``step_record``) reads of the blocks
    besides the new states and z_norms: per block, Z (S(Z) for Muon) and the
    lmap trace.  The record itself is no part of the step; the caller may
    pass meanwhile, which the step hands to ``factorize`` on every step:
    it runs once, after this thread's first factorization, while the
    worker thread (if any) is inside LAPACK, or at once after the first
    pass when nothing factorizes.

    The step makes two passes over the blocks.  The first grows every state
    that no factorization feeds (all but Muon's), finishes each block that
    factorizes nothing and lists the other blocks' factorizations
    (``geom_factor_calls``), which are independent of each other;
    ``psd_linalg.factorize`` runs them together, the largest on a worker
    thread when the blocks are large enough.  The second pass, over the
    listed blocks only, puts each result where the state would have cached
    it (``geom_factor``) and finishes those blocks.  Every factorization is
    the call the state or block would make for itself, so no bit depends on
    which thread ran it.
    """
    check_point_matches(X, shapes)
    check_point_matches(gtilde, shapes)
    mode = config.momentum_mode
    acc = direction = gtilde
    if mode is not MomentumMode.NONE:
        M = direction = _momentum(M, mu_schedule(k, config), gtilde)
        if mode is MomentumMode.M1:
            acc = M

    # pass 1: grow every state that no factorization feeds (Muon's may grow
    # from the lmap trace of D's SVD), finish the blocks that factorize
    # nothing and list the others' factorizations
    new_states, traces, new_blocks, z_norms, moves = [], [], [], [], []
    calls, listed = [], []
    for ell, shape in enumerate(shapes):
        D = direction.blocks[ell]
        factored = shape.geometry in FACTORIZATIONS
        st = tl = None
        # the membership test spares a Euclidean block the slower read of Geometry.MUON
        if not factored or shape.geometry is not Geometry.MUON:
            A = acc.blocks[ell]
            tl = geom_lmap_trace(shape, A)
            st = geom_accumulate(shape, states[ell], A, tl)
        new_states.append(st)
        traces.append(tl)
        if factored:
            block_calls = geom_factor_calls(shape, st, D)
            listed.append((ell, len(calls), len(calls) + len(block_calls)))
            calls += block_calls
            x = zn = move = None
        else:
            x, zn, move = _move(shape, st, D, None, X.blocks[ell], config.eta)
        new_blocks.append(x)
        z_norms.append(zn)
        moves.append(move)

    # pass 2: finish the listed blocks on their factorizations
    results = factorize(calls, tuple(shapes), meanwhile)
    for ell, i, j in listed:
        shape, D = shapes[ell], direction.blocks[ell]
        f = geom_factor(shape, new_states[ell], results[i:j])
        if f is not None:
            A = acc.blocks[ell]
            traces[ell] = geom_lmap_trace(shape, A, f if A is D else None)
            new_states[ell] = geom_accumulate(shape, states[ell], A, traces[ell])
        moved = _move(shape, new_states[ell], D, f, X.blocks[ell], config.eta)
        new_blocks[ell], z_norms[ell], moves[ell] = moved
    return ProductPoint(new_blocks), new_states, M, z_norms, (moves, traces)


def _move(shape: BlockShape, st: GeometryState, D, f, x, eta: float):
    """The rest of a block's step from its new state st and, for Muon, the
    factor f of its direction D: (the block's next iterate, Z's dual norm,
    what the record keeps of the move: Z, or S(Z) for Muon)."""
    # Muon reads |Z| and S(Z) from D's factor and never needs Z itself;
    # a Euclidean step is Z, whose selector only the record reads
    Z = geom_precondition(shape, st, D) if f is None else None
    zn = geom_dual_norm(shape, Z, st, f)
    S = None if f is None else geom_selector(shape, Z, zn, f)
    return x - eta * geom_step_direction(shape, Z, zn, S), zn, Z if f is None else S


def step_record(
    shapes: Sequence[BlockShape],
    config: OptimizerConfig,
    gtilde: ProductPoint,
    M: ProductPoint | None,
    states: list[GeometryState],
    z_norms,
    kept,
) -> np.ndarray:
    """The record of a step from what ``adprec_step`` returned: its Gtilde,
    M_k, new states, z_norms and kept values.  The result is an array whose
    row i is field _RECORD_FIELDS[i], one value per point: (fields,) for
    one point, (fields, R) for a stack.  A stack of several steps' values
    (points joined along their stack axis, states by ``geom_stack``) gives
    the records of all of them at once, each value with the bits of its
    own step's.  The f_value / grad_dual_norm rows are NaN here; the
    trajectory driver fills them in (they need the problem, which the step
    itself must not consult).
    """
    moves, traces = kept
    mode = config.momentum_mode
    acc = M if mode is MomentumMode.M1 else gtilde
    # per block: |Z| <A, S(Z)>, then what the record sums over blocks, in
    # the order of its fields gtilde_dual_norm ... weighted_invsqrt: |Gtilde|^2,
    # |Z|^2, the trace and log-det terms, and the traces that |Z|^2 and
    # |Z| <A, S(Z)> should equal, tr(Gamma^-1 lmap A) and tr(Gamma^-1/2 lmap A)
    terms = []
    for ell, shape in enumerate(shapes):
        A, zn, tl = acc.blocks[ell], z_norms[ell], traces[ell]
        muon = shape.geometry is Geometry.MUON
        S = moves[ell] if muon else geom_selector(shape, moves[ell], zn)
        diag = geom_diagnostics(shape, states[ell], A, tl)
        # Muon's lmap trace of Gtilde is its squared nuclear norm, the same
        # float; a Euclidean block's sum of squares is not its squared norm.
        # acc is Gtilde in modes None and M2, and in M1 only at step 0 alone
        # (M_0 is Gtilde_0): its trace comes from the direction's SVD, where
        # the norm of joined steps takes a values-only SVD, which may differ
        # in the last bit, so the driver records M1's step 0 by itself
        if acc is gtilde and muon:
            gtilde_sq = tl
        else:
            gtilde_sq = squared(block_dual_norm(shape.geometry, gtilde.blocks[ell]))
        terms.append((
            zn * np.add.reduce(A * S, axis=(-2, -1)), gtilde_sq, zn * zn,
            diag.trace_sqrt, diag.trace_log, diag.weighted_inv, diag.weighted_invsqrt,
        ))

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
    if mode is MomentumMode.NONE:
        record[11] = 0.0
    else:
        E = ProductPoint([m - g for m, g in zip(M.blocks, gtilde.blocks)])
        record[11] = product_dual_norm_sq(E, shapes)
    return record


# Bytes of record inputs the driver keeps before it computes their records:
# a run records its steps in chunks of as many steps as fit (at least one)
RECORD_CHUNK_BYTES = 128 * 1024


def _nbytes(obj) -> int:
    """Bytes that obj keeps alive: its own size, an array's data (a view's
    too), and the sizes of the points, states (with their cached
    factorizations), lists and tuples in it.  A step of small blocks keeps
    several times as much in array headers and Python objects as in array
    data, so both count: a step of the potentials suite's stacks keeps 2.3-6.9
    KB, of which 0.4-2.2 KB are array data, where a vec_replicates step keeps
    14 KB, 10.6 KB of it data.  No budget of array data alone bounds both:
    128 KiB of it lets the potentials suite's chunks reach 300 steps and its
    peak traced memory 1.2 MiB (0.45 MiB counting objects), and 32 KiB keeps
    that peak but cuts vec_replicates to 3-step chunks, a quarter slower."""
    size = sys.getsizeof(obj)
    if isinstance(obj, np.ndarray):
        return size if obj.base is None else size + obj.nbytes
    if isinstance(obj, ProductPoint):
        return size + _nbytes(obj.blocks)
    if isinstance(obj, (list, tuple)):
        return size + sum(_nbytes(o) for o in obj)
    if hasattr(obj, "__dict__"):
        return size + _nbytes(list(vars(obj).values()))
    return size


def _joined(points, join) -> ProductPoint | None:
    """The points of several steps as one stack, block by block."""
    if points[0] is None:
        return None
    return ProductPoint([join(bs) for bs in zip(*(P.blocks for P in points))])


def _chunk_record(problem: Problem, config: OptimizerConfig, exact, steps, stacked: bool):
    """The records of consecutive steps of the driver, each kept as (X, G,
    Gtilde, M_k, new states, z_norms, kept): one ``step_record`` array with
    the driver's f_value and grad_dual_norm rows filled in, whose stack axis
    holds the C steps' points, step-major (no axis for one step of one
    point).  Several steps are joined along the stack axis (stacked says
    whether their points are stacks, which decides how); one step is
    recorded on its own arrays.  Row r of a stack has an exact oracle when
    exact[r] (a tuple of bools, which Python tests faster than numpy does)."""
    if len(steps) == 1:
        X, G, gtilde, M, states, z_norms, kept = steps[0]
    else:
        join = np.concatenate if stacked else np.stack
        Xs, Gs, gtildes, Ms, statess, z_normss, kepts = zip(*steps)
        X, G, gtilde, M = (_joined(P, join) for P in (Xs, Gs, gtildes, Ms))
        states = [geom_stack(st, join) for st in zip(*statess)]
        z_norms = [join(z) for z in zip(*z_normss)]
        kept = tuple([join(v) for v in zip(*part)] for part in zip(*kepts))
    shapes = problem.shapes
    record = step_record(shapes, config, gtilde, M, states, z_norms, kept)
    if config.eval_objective:
        record[0] = problem.eval_f(X)
    # an exact row's Gtilde is G, whose norm the record already took
    if all(exact):
        record[1] = record[2]
    else:
        grad = np.sqrt(product_dual_norm_sq(G, shapes))
        record[1] = np.where(np.tile(exact, len(steps)), record[2], grad) if any(exact) else grad
    return record


@dataclass(frozen=True)
class _Row:
    """A row of the driver's stack: its oracle's noise model and its seed."""

    noise: NoiseModel
    seed: int


@dataclass
class _Run:
    """What the driver returns.  columns[i, r, k] is field _RECORD_FIELDS[i]
    of row r at iteration k.  failure is None or (r, k, message) for the
    row that stopped the run, the lowest that failed at the check that
    stopped it, and its first failing step k; the columns of all rows are
    filled up to the steps that check covered.  X and states are what the
    last step left of the stack (the one point when R = 1), or, after a
    failure, what the failing step left (what it started from, when it
    failed before the step)."""

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


def _finite_rows(X: ProductPoint) -> np.ndarray:
    """Per point of a stack (one entry for one point): is it finite?"""
    return np.logical_and.reduce([np.isfinite(b).all(axis=(-2, -1)) for b in X.blocks]).reshape(-1)


def _take(P: ProductPoint | None, rows) -> ProductPoint | None:
    """The points of a stack that rows (a slice or an index array) selects."""
    return None if P is None else ProductPoint([b[rows] for b in P.blocks])


def _row_index(idx, R: int):
    """Rows idx (increasing) of a stack of R: None for all of them, else a
    slice when they are contiguous, else an index array."""
    if len(idx) == R:
        return None
    contiguous = idx[-1] - idx[0] == len(idx) - 1
    return slice(int(idx[0]), int(idx[-1]) + 1) if contiguous else np.array(idx)


def _sampling_plan(specs: Sequence[_Row], K: int, dim: int):
    """How the oracle draws the rows specs over K steps in a space of
    dimension dim: a list of (model, rows, streams), whose streams
    (``NormalStreams``) read one Generator per row, seeded by its spec.
    Rows that all share one model, one row included, have one entry with
    rows None.  Otherwise there is one entry per noisy model, in order of
    its first row, with its rows (``_row_index``); exact rows keep the exact
    gradient and have no entry.  Each stream is told the most normals its
    model reads in the run, so that no row draws more."""
    models = list(dict.fromkeys(spec.noise for spec in specs))
    plan = []
    for model in models:
        if model.kind is NoiseKind.EXACT and len(models) > 1:
            continue
        idx = [r for r, spec in enumerate(specs) if spec.noise == model]
        rngs = [np.random.default_rng(specs[r].seed) for r in idx]
        streams = NormalStreams(rngs, K * model.normals_per_step(dim))
        plan.append((model, _row_index(idx, len(specs)), streams))
    return plan


def _oracle(problem: Problem, plan, X: ProductPoint, k: int, z_prev_norms, G: ProductPoint):
    """Gtilde for every row of X: one ``sample_gradient`` call per entry of
    the sampling plan, on the sub-stack of its rows (of G, and of X only for
    MiniBatch, the one oracle that reads X), with z_prev_norms cut to them;
    rows no entry draws for keep G."""
    if not plan:
        return G
    noise, rows, streams = plan[0]
    if rows is None:
        return sample_gradient(problem, noise, X, k, streams, z_prev_norms=z_prev_norms, exact_grad=G)
    blocks = [np.copy(b) for b in G.blocks]
    for noise, rows, streams in plan:
        z_prev = None if z_prev_norms is None else [z[rows] for z in z_prev_norms]
        sub = sample_gradient(
            problem, noise, _take(X, rows) if noise.kind is NoiseKind.MINI_BATCH else None,
            k, streams, z_prev_norms=z_prev, exact_grad=_take(G, rows),
        )
        for b, s in zip(blocks, sub.blocks):
            b[rows] = s
    return ProductPoint(blocks)


def _drive(problem: Problem, specs: Sequence[_Row], config: OptimizerConfig) -> _Run:
    """Advance the rows specs from problem.x0 for max_iters steps as one
    stack.  Row r samples its Gtilde from specs[r].noise with a Generator
    seeded specs[r].seed, read in chunks (``NormalStreams``); rows sharing a
    model draw together (``_sampling_plan``), and an exact row never draws.
    Whether a row is exact decides its grad_dual_norm (that of Gtilde
    itself when exact) and the fields its failure names.

    The loop carries only what the next step reads (``adprec_step``) and
    keeps each step's record inputs by reference.  Once C steps are kept,
    with C as many steps as RECORD_CHUNK_BYTES holds of the first step's
    inputs (at least one), the chunk is pending: the next step's meanwhile
    (``adprec_step``) has ``_chunk_record`` compute the records of those
    steps at once and fill their columns of ``_Run.columns``, and the last
    chunk is recorded after the loop; each value rounds as it would step by
    step.  Every chunk takes this one path, a chunk of one step too (C is 1
    for large blocks); in M1, step 0 is a chunk of its own.

    A row fails at iteration k when its iterate or record (f_value only
    when eval_objective is set) is non-finite after the step, or already
    before it, when Gtilde's sum of squares overflows: that sum is
    gtilde_dual_norm**2 on Euclidean blocks and at most it on Muon blocks,
    and in the step it would reach a Gram matrix, on which eigh raises, or
    an SVD, which may not return.  The loop checks Gtilde and the iterate
    every step, and the records when their chunk is computed, first of all
    before a step whose Gtilde overflows.  The run stops at the first check
    that any row fails: it names the lowest row that failed in the steps
    that check covers, at that row's first failing step.  A failed iterate
    or Gtilde never reaches a factorization, and a row whose record failed
    runs on at most one step past its chunk, on a finite iterate and a
    Gtilde that passed the overflow check; that step is dropped.  A failure
    of the pending record wins over what that step returns or raises, and
    an error the record raises propagates in place of the step's.  The rows
    that did not fail are rerun by the caller, each from its own spec.
    """
    shapes = problem.shapes
    K, R = config.max_iters, len(specs)
    # One replicate runs on the point itself, without the replicate axis: the
    # solo run that the stack tests compare each row with.  It is no faster
    # per step than a stack of one (README's adprec.optimizer entry).
    lead = (R,) if R > 1 else ()
    X = ProductPoint([np.broadcast_to(b, lead + b.shape).copy() for b in problem.x0.blocks])
    states = [geom_init(s, config.varsigma, lead=lead) for s in shapes]
    M = z_prev_norms = None
    plan = _sampling_plan(specs, K, total_dim(shapes))
    exact = tuple(spec.noise.kind is NoiseKind.EXACT for spec in specs)
    columns = np.full((len(_RECORD_FIELDS), R, K), math.nan)
    # f_value is the first record field, NaN by design when not evaluated
    first = 0 if config.eval_objective else 1
    steps = []  # the record inputs of the steps not yet recorded
    chunk = None  # steps per record chunk, from the first step's inputs
    full = False  # whether steps is a complete chunk, which the next step records
    failed = None

    def record(end, X_after, iterate=None):
        """Record the kept steps, k0 = end - len(steps) .. end - 1, with one
        ``_chunk_record``, and return the ``_Run`` that stops at them when a
        row failed in them, or None.  X_after is what the last of them left;
        iterate, when that is non-finite, says per row whether it is finite."""
        C, k0 = len(steps), end - len(steps)
        rec = _chunk_record(problem, config, exact, steps, bool(lead))
        columns[:, :, k0:end] = rec.reshape(len(rec), C, -1).transpose(0, 2, 1)
        if iterate is None and np.isfinite(rec[first:]).all():
            steps.clear()
            return None
        finite = np.isfinite(rec[first:]).reshape(len(rec) - first, C, -1)
        ok = finite.all(axis=0)  # (steps, rows)
        if iterate is not None:
            ok[-1] &= iterate
        r = int(np.argmin(ok.all(axis=0)))
        j = int(np.argmin(ok[:, r]))
        bad = [name for name, f in zip(_RECORD_FIELDS[first:], finite[:, j, r]) if not f]
        if iterate is not None and j == C - 1 and not iterate[r]:
            bad.insert(0, "iterate")
        return stop(r, k0 + j, bad, steps[j + 1][0] if j + 1 < C else X_after, steps[j][4])

    def stop(r, k, bad, X, states):
        """The ``_Run`` of a stack whose row r failed at iteration k, where
        the fields bad are non-finite and the step left X and states."""
        return _Run(columns, X, states, (r, k, f"non-finite at iteration {k}: {', '.join(bad)}"))

    def record_full():
        """Record the complete chunk, once, while step k runs (its meanwhile)."""
        nonlocal full, failed
        if full:
            full = False
            failed = record(k, X)

    for k in range(K):
        G = problem.eval_grad(X)
        gtilde = _oracle(problem, plan, X, k, z_prev_norms, G)
        r = _first_overflow(gtilde)
        if r is not None:
            # a row may have failed in the steps not yet recorded
            failed = record(k, X) if steps else None
            if failed is not None:
                return failed
            bad = ["grad_dual_norm", "gtilde_dual_norm"] if exact[r] else ["gtilde_dual_norm"]
            if config.eval_objective and not np.isfinite(np.reshape(problem.eval_f(X), -1)[r]):
                bad.insert(0, "f_value")
            return stop(r, k, bad, X, states)
        try:
            X_next, states, M, z_prev_norms, kept = adprec_step(
                shapes, X, gtilde, states, M, config, k, meanwhile=record_full)
        except Exception:
            record_full()  # when the step raised before its meanwhile ran
            if failed is None:
                raise
        if failed is not None:
            return failed
        steps.append((X, G, gtilde, M, states, z_prev_norms, kept))
        if chunk is None:
            chunk = max(1, RECORD_CHUNK_BYTES // max(1, _nbytes(steps[0])))
        # the flat iterate is checked here and cached for the next gradient
        if not np.isfinite(X_next.ravel()).all():
            return record(k + 1, X_next, _finite_rows(X_next))
        X = X_next
        # M1's step 0 is a chunk of its own (see step_record)
        full = len(steps) == chunk or k == 0 and config.momentum_mode is MomentumMode.M1
    failed = record(K, X) if steps else None
    return _Run(columns, X, states, None) if failed is None else failed


@dataclass
class TrajectoryResult:
    records: list[IterationRecord]
    final: ProductPoint
    states: list[GeometryState]
    failed: str | None = None


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
    run = _drive(problem, [_Row(noise, config.seed)], config)
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
    lowest one that failed and its seed: when replicate r stops the stack,
    replicates 0..r-1, which may fail later, rerun as a stack of their own,
    until none of them fails."""
    if R < 1:
        raise InvalidConfig(f"need at least one replicate, got {R}")
    specs = [_Row(noise, config.seed + r) for r in range(R)]
    failure = None
    while specs:
        run = _drive(problem, specs, config)
        if run.failure is None:
            break
        failure = run.failure
        specs = specs[: failure[0]]
    if failure is not None:
        r, _, message = failure
        raise NonFiniteIterate(f"replicate {r} (seed {config.seed + r}): {message}")
    return _result(run.columns, _points(run.X, R > 1))


def run_rows(
    problem: Problem,
    rows: Sequence[tuple[NoiseModel, int]],
    config: OptimizerConfig,
) -> list[ReplicateResult | NonFiniteIterate]:
    """Run each (noise, seed) of rows, not config.seed, and return per row
    what ``run_replicates`` gives for that model at that seed at R = 1: its
    ReplicateResult, or the NonFiniteIterate it raises.

    Each row is a spec of its model and its seed, and all rows run as one
    stack, in which every row rounds as it does alone, wherever it is.  A
    row that fails stops the stack; it gets its error, and all the other
    rows rerun from their specs as one stack, until a stack runs to the end.
    """
    specs = [_Row(noise, seed) for noise, seed in rows]
    results = [None] * len(specs)
    todo = list(range(len(specs)))  # the rows without a result, in order
    while todo:
        run = _drive(problem, [specs[i] for i in todo], config)
        if run.failure is None:
            final = _points(run.X, len(todo) > 1)
            for j, i in enumerate(todo):
                results[i] = _result(run.columns[:, j : j + 1], [final[j]])
            break
        j, _, message = run.failure
        i = todo.pop(j)
        results[i] = NonFiniteIterate(f"replicate 0 (seed {specs[i].seed}): {message}")
    return results
