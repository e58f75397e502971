"""Numerical verification of the framework's trace inequalities, structural
identities, pathwise potentials, and convergence bounds.

Every audit is deterministic given its seed and returns an AuditReport
whose worst_violation is the most negative normalized slack observed
(0.0 when every trial had nonnegative slack).  Deterministic-oracle bound
audits carry zero statistical slack; Monte Carlo variants widen the
tolerance by three standard errors of the replicate mean.

The algebraic audits on random matrices draw every trial's inputs in trial
order from one generator, as a per-trial loop would, then evaluate the
trials in groups of one shape with stacked calls (``_trial_groups``).  The
draws are held in chunks of about DRAW_CHUNK_BYTES of array data, so a
chunk holds many trials of small draws and few of large ones.  No
evaluation draws, and item r of a stacked call equals the call on item r
alone, so every slack is the per-trial loop's, bit for bit, at any chunk
size.  An identity trial grows its state by 1 to IDENTITY_BLOCKS blocks;
zero blocks in front pad it to IDENTITY_BLOCKS, so that its group is its
block dims alone, and a state grown by zeros keeps its bits
(``_draw_identity_trial``).  Scalar draws go through ``_uniform`` and
``_integer``, which give the numbers and generator states of
``Generator.uniform`` and ``Generator.integers`` for about a third of
their call cost.
``techn`` stays a scalar loop: its bisection and its bounds use
``math.log``, and ``np.log`` rounds differently on some inputs, which could
flip a comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import bounds
from .block_space import VECTOR_ONLY, BlockShape, Geometry, squared, total_dim
from .errors import InvalidConfig, NonFiniteIterate
from .geometries import (
    geom_accumulate,
    geom_diagnostics,
    geom_dual_norm,
    geom_init,
    geom_lmap_matrix,
    geom_lmap_trace,
    geom_precondition,
    geom_selector,
)
from .optimizer import MomentumMode, OptimizerConfig, run_replicates, run_rows
from .problems import NoiseKind, NoiseModel, Problem
from .psd_linalg import (
    psd_from_draws,
    psd_power,
    random_psd_draws,
    trace_log_and_inverse,
    trace_log_psd,
)

TOL_ALGEBRAIC = 1e-8  # identities and single-matrix trace inequalities
TOL_PATHWISE = 1e-6  # inequalities accumulated over a whole trajectory
DIM_RANGE = (1, 8)  # matrix dims drawn by the single-matrix trace audits
# Bytes of array data the one-shot audits draw ahead of their evaluation:
# a chunk of trials ends once its draws hold this much (at least one trial)
DRAW_CHUNK_BYTES = 512 * 1024
IDENTITY_BLOCKS = 4  # the most blocks an identity trial grows its state by


@dataclass
class AuditReport:
    check_name: str
    trials: int
    worst_violation: float
    passed: bool
    context: str = ""

    def to_dict(self):
        return {
            "check_name": self.check_name,
            "pass": bool(self.passed),
            "trials": int(self.trials),
            "worst_violation": float(self.worst_violation),
            "context": self.context,
        }


def _report(name, trials, tol, context="", **slacks):
    """The one verdict rule: the worst normalized slack over the named arrays
    (0.0 when all are empty or nonnegative, NaN when any slack is NaN) must
    be >= -tol, so a NaN slack fails.  With more than one array, each
    array's own worst is appended to the context."""
    # + 0.0 turns a worst of -0.0 into 0.0
    worsts = {key: float(np.min(s, initial=0.0)) + 0.0 for key, s in slacks.items()}
    worst = float(np.min(list(worsts.values())))
    if len(worsts) > 1:
        context = " ".join([context, *(f"{key}={w:.3e}" for key, w in worsts.items())]).strip()
    return AuditReport(name, trials, worst, worst >= -tol, context)


# ---------------------------------------------------------------------------
# trace lemmas on random PSD inputs
# ---------------------------------------------------------------------------


def _trial_groups(trials, rng, draw):
    """Draw every trial's inputs in trial order, then hand them out by group.

    ``draw(t, rng)`` draws trial t's inputs from the one generator and
    returns ``(key, inputs)``: a hashable group key (the shape) and a tuple
    of arrays or floats, alike in shape for all trials of one key.  Yields
    ``(trial numbers, key, stacked inputs)`` once per group, where input i
    is stacked over the group's trials in trial order.

    Trials are drawn in chunks, and a chunk ends once its draws hold
    DRAW_CHUNK_BYTES of array data (a float counts 8 bytes), so it holds at
    least one trial and less than the budget plus one trial's draws.  The
    inputs of one key are alike in shape, so a key's bytes per trial are
    counted once, from its first trial.  The budget counts bytes, not
    trials, because a trial's draws range from a few floats and a few small
    blocks (an identity trial) to a 32 x 32 probe (Muon or Shampoo
    sub-additivity): a trial count that bounds the memory of the large
    draws leaves the small ones at a few trials per stacked call.  A
    group's draws are let go as soon as they are stacked.
    """
    t, nbytes = 0, {}  # nbytes: the bytes of one trial's draws, per key
    while t < trials:
        groups, held = {}, 0
        while held < DRAW_CHUNK_BYTES and t < trials:
            key, inputs = draw(t, rng)
            groups.setdefault(key, []).append((t, inputs))
            if key not in nbytes:
                nbytes[key] = sum(getattr(x, "nbytes", 8) for x in inputs)
            held += nbytes[key]
            t += 1
        for key in list(groups):
            numbers, inputs = zip(*groups.pop(key))
            inputs = [np.array(x) for x in zip(*inputs)]
            yield np.array(numbers), key, inputs


def _uniform(rng, low, high):
    """One draw of ``rng.uniform(low, high)``: numpy's own formula for it,
    on ``rng.random()``, so the same bits and the same generator state,
    without the argument checks that make a scalar ``uniform`` call cost
    about three ``random`` calls."""
    return low + (high - low) * rng.random()


def _integer(rng, low, high):
    """One draw of ``int(rng.integers(low, high))`` for high - low >= 2:
    numpy's own algorithm for it (Lemire's multiply-and-reject on the bit
    generator's 32-bit draws, through its ctypes interface), so the same
    number and the same generator state, without the argument checks that
    make a scalar ``integers`` call cost about three ``random`` calls."""
    bits = rng.bit_generator.ctypes
    n = high - low
    m = bits.next_uint32(bits.state) * n
    if (m & 0xFFFFFFFF) < n:
        threshold = (0x100000000 - n) % n
        while (m & 0xFFFFFFFF) < threshold:
            m = bits.next_uint32(bits.state) * n
    return low + (m >> 32)


def _draw_psd_pair(t, rng):
    """A dim d and the draws of two scaled random PSD d x d matrices A and B."""
    d = _integer(rng, DIM_RANGE[0], DIM_RANGE[1] + 1)
    return d, (
        *random_psd_draws(d, 10.0 ** _uniform(rng, 0, 3), rng), 10.0 ** _uniform(rng, -1, 1),
        *random_psd_draws(d, 10.0 ** _uniform(rng, 0, 3), rng), 10.0 ** _uniform(rng, -1, 1),
    )


def _scaled_psd(normals, log_eigs, scale):
    return psd_from_draws(normals, log_eigs) * scale[:, None, None]


def _psd_pairs(trials, seed):
    """(trial numbers, A, B) per group of equal dims, as ``_draw_psd_pair`` drew them."""
    for t, _, draws in _trial_groups(trials, np.random.default_rng(seed), _draw_psd_pair):
        yield t, _scaled_psd(*draws[:3]), _scaled_psd(*draws[3:])


def _trace(M):
    return np.trace(M, axis1=-2, axis2=-1)


def _tr_sqrt(M):
    """tr(M^1/2) from the eigenvalues of M clipped at 0, per matrix of a stack."""
    return np.add.reduce(np.clip(np.linalg.eigvalsh(M), 0.0, None) ** 0.5, axis=-1)


def audit_sqrt_trace(trials=1000, seed=0) -> AuditReport:
    """tr((A+B)^-1/2 B) >= tr((A+B)^1/2) - tr(A^1/2) on random PSD pairs.

    Includes the degenerate equality witnesses A = 0 and B = 0.
    """
    slacks = np.empty(trials)
    for t, A, B in _psd_pairs(trials, seed):
        B[t % 50 == 0] = 0.0
        A[t % 50 == 1] = 0.0
        S = A + B
        lhs = _trace(psd_power(S, -0.5) @ B)
        tr_s = _tr_sqrt(S)
        slacks[t] = (lhs - (tr_s - _tr_sqrt(A))) / (1.0 + tr_s)
    ctx = f"seed={seed} dims={DIM_RANGE}"
    return _report("sqrt-trace", trials, TOL_ALGEBRAIC, ctx, slack=slacks)


def audit_log_increment(trials=1000, seed=0) -> AuditReport:
    """tr((A+B)^-1 B) <= tr(log(A+B) - log A) <= tr(A^-1 B) for PD A, PSD B."""
    slacks = np.empty((trials, 2))
    for t, A, B in _psd_pairs(trials, seed):
        B[t % 50 == 0] = 0.0
        log_s, inv_s = trace_log_and_inverse(A + B)
        log_a, inv_a = trace_log_and_inverse(A)
        mid = log_s - log_a
        low = _trace(inv_s @ B)
        high = _trace(inv_a @ B)
        scale = 1.0 + np.abs(low) + np.abs(mid) + np.abs(high)
        slacks[t, 0] = (mid - low) / scale
        slacks[t, 1] = (high - mid) / scale
    return _report(
        "log-increment", trials, TOL_ALGEBRAIC, f"seed={seed} dims={DIM_RANGE}",
        slack=slacks.ravel(),
    )


def _draw_spectral(t, rng):
    """A dim d, the draws of a scaled random PSD d x d matrix, and on every
    25th trial the scale c of the witness c I that replaces it (else 0)."""
    d = _integer(rng, DIM_RANGE[0], DIM_RANGE[1] + 1)
    normals, log_eigs = random_psd_draws(d, 10.0 ** _uniform(rng, 0, 4), rng)
    scale = 10.0 ** _uniform(rng, -2, 2)
    return d, (normals, log_eigs, scale, 10.0 ** _uniform(rng, -2, 2) if t % 25 == 0 else 0.0)


def audit_spectral_log(trials=1000, seed=0) -> AuditReport:
    """tr(log G) <= 2 d log(tr(G^1/2)) - d log d for random PD G."""
    slacks = np.empty(trials)
    for t, d, (*draws, c) in _trial_groups(trials, np.random.default_rng(seed), _draw_spectral):
        G = _scaled_psd(*draws)
        witness = t % 25 == 0  # equality structure at d = 1
        G[witness] = c[witness][:, None, None] * np.eye(d)
        lhs = trace_log_psd(G)
        # math.log, not np.log, which rounds differently on some inputs
        rhs = np.array([2.0 * d * math.log(x) - d * math.log(d) for x in _tr_sqrt(G)])
        slacks[t] = (rhs - lhs) / (1.0 + np.abs(lhs) + np.abs(rhs))
    return _report("spectral-log", trials, 1e-9, f"seed={seed} dims={DIM_RANGE}", slack=slacks)


def _bisect(lo, hi, c, sign):
    """At most 200 halvings of [lo, hi] that keep sign * (t - c log t) > 0
    on the lo side.  A step is a deterministic map of (lo, hi), so the first
    one that leaves both endpoints as they were ends the loop: every later
    one would repeat it.  A midpoint equal to lo still moves hi when it goes
    to the hi side, and the other way round."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sign * (mid - c * math.log(mid)) > 0:
            if mid == lo:
                break
            lo = mid
        else:
            if mid == hi:
                break
            hi = mid
    return lo, hi


def _techn_feasible_interval(c):
    # roots of t = c log t bracket the premise region {1 <= t <= c log t}
    _, r1 = _bisect(1.0, math.e, c, 1.0)
    r2, _ = _bisect(math.e, max(10.0 * c * math.log(10.0 * c), 10.0), c, -1.0)
    return r1, r2


def audit_techn(trials=1000, seed=0) -> AuditReport:
    """If 1 <= t <= c log t then t <= 2c log(2c); sampled over the premise set."""
    rng = np.random.default_rng(seed)
    slacks = []
    for t in range(trials):
        c = math.e if t == 0 else float(np.exp(_uniform(rng, 1.0, math.log(1e3))))
        r1, r2 = _techn_feasible_interval(c)
        tt = r2 if t % 10 == 0 else _uniform(rng, r1, r2)
        bound = 2.0 * c * math.log(2.0 * c)
        slacks.append((bound - tt) / (1.0 + bound))
    return _report("techn", trials, TOL_ALGEBRAIC, f"seed={seed}", slack=slacks)


# ---------------------------------------------------------------------------
# per-geometry structural identities, compatibility, sub-additivity
# ---------------------------------------------------------------------------


def _random_dims(geometry: Geometry, rng) -> tuple[int, int]:
    """The (rows, cols) of a random block of geometry."""
    n = _integer(rng, 1, 9)
    m = 1 if geometry in VECTOR_ONLY else _integer(rng, 1, 5)
    return n, m


def _draw_identity_trial(geometry, t, rng):
    """Block dims, varsigma, and the IDENTITY_BLOCKS blocks that grow the
    state from varsigma * I, the last of them the probe V; grouped by dims.

    A trial draws 1 to IDENTITY_BLOCKS blocks and is padded at the front
    with zero blocks up to IDENTITY_BLOCKS, so that trials of one dims but
    of different counts share a group and the probe stays last.  lmap(0)
    is zero in all five geometries, and adding +0.0 to a state's entries
    leaves their bits, so the state after the padding is varsigma * I
    exactly, and every later state keeps the bits it has without padding.
    """
    dims = _random_dims(geometry, rng)
    varsigma = 10.0 ** _uniform(rng, -1, 1)
    count = _integer(rng, 0, IDENTITY_BLOCKS) + 1
    Vs = [10.0 ** _uniform(rng, -1, 1) * rng.standard_normal(dims) for _ in range(count)]
    return dims, (varsigma, *[np.zeros(dims)] * (IDENTITY_BLOCKS - count), *Vs)


def _rel_gap(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)


def audit_structural_identities(geometry: Geometry, trials=500, seed=0) -> list[AuditReport]:
    """The two trace identities and the compatibility equality on random states.

    ineq1:  |Z| <V, S(Z)>  ==  tr(Gamma^-1/2 lmap(V))
    ineq2:  |Z|^2          ==  tr(Gamma^-1   lmap(V))
    compat: |V|_dual^2     <=  tr(lmap(V))            (equality, all variants)

    with Z = Gamma^-1/2 V and V the same vector that grew Gamma last.
    """
    r1, r2, rc = np.empty(trials), np.empty(trials), np.empty(trials)
    draw = partial(_draw_identity_trial, geometry)
    for t, dims, (varsigma, *Vs) in _trial_groups(trials, np.random.default_rng(seed), draw):
        shape = BlockShape(*dims, geometry)
        state = geom_init(shape, varsigma, lead=varsigma.shape)
        for V in Vs:
            tr_l = geom_lmap_trace(shape, V)
            state = geom_accumulate(shape, state, V, tr_l)
        Z = geom_precondition(shape, state, V)
        zn = geom_dual_norm(shape, Z)
        diag = geom_diagnostics(shape, state, V, tr_l)
        lhs1 = zn * np.add.reduce(V * geom_selector(shape, Z, zn), axis=(-2, -1))
        r1[t] = TOL_ALGEBRAIC - _rel_gap(lhs1, diag.weighted_invsqrt)
        r2[t] = TOL_ALGEBRAIC - _rel_gap(zn * zn, diag.weighted_inv)
        dual_sq = squared(geom_dual_norm(shape, V))
        rc[t] = (bounds.KAPPA_CIRC**2 * tr_l - dual_sq) / np.maximum(1.0, dual_sq)
    ctx = f"geometry={geometry.value} seed={seed}"
    return [
        _report(f"identity-ineq1-{geometry.value}", trials, 0.0, ctx, slack=r1),
        _report(f"identity-ineq2-{geometry.value}", trials, 0.0, ctx, slack=r2),
        _report(f"compatibility-{geometry.value}", trials, 1e-10, ctx, slack=rc),
    ]


def _draw_subadditivity_trial(geometry, t, rng):
    """Block dims, U, V (U itself on every 10th trial) and the draws of the
    random PSD probe W; grouped by dims.  U and V come from one draw of two
    blocks, which gives the normals two draws of one block give."""
    dims = _random_dims(geometry, rng)
    U, V = (rng.standard_normal(dims),) * 2 if t % 10 == 0 else rng.standard_normal((2, *dims))
    return dims, (U, V, *random_psd_draws(dims[0] * dims[1], 10.0 ** _uniform(rng, 0, 2), rng))


def audit_subadditivity_constants(geometry: Geometry, trials=1000, seed=0) -> AuditReport:
    """tr(W lmap(U+V)) <= 2 tr(W lmap(U)) + 2 tr(W lmap(V)) on random PSD probes W,
    plus the empirical trace-domination constant tr(lmap(U)) / |U|_dual^2."""
    a, b, c, tr_u, du = (np.empty(trials) for _ in range(5))
    draw = partial(_draw_subadditivity_trial, geometry)
    for t, dims, (U, V, *w) in _trial_groups(trials, np.random.default_rng(seed), draw):
        shape = BlockShape(*dims, geometry)
        W = psd_from_draws(*w)
        blocks = (U, V, U + V)
        traces = [geom_lmap_trace(shape, X) for X in blocks]
        for out, X, tl in zip((a, b, c), blocks, traces):
            out[t] = np.add.reduce(W * geom_lmap_matrix(shape, X, tl), axis=(-2, -1))
        tr_u[t] = traces[0]
        du[t] = squared(geom_dual_norm(shape, U))
    slacks = (bounds.KAPPA_BOX * (a + b) - c) / (1.0 + np.abs(a) + np.abs(b) + np.abs(c))
    box_est = np.max(np.divide(c, a + b, out=np.zeros(trials), where=a + b > 0), initial=0.0)
    dia_est = np.max(np.divide(tr_u, du, out=np.zeros(trials), where=du > 0), initial=0.0)
    ctx = (
        f"geometry={geometry.value} seed={seed} "
        f"empirical kappa_box={box_est:.6f} kappa_diamond={dia_est:.6f}"
    )
    return _report(f"subadditivity-{geometry.value}", trials, TOL_ALGEBRAIC, ctx, slack=slacks)


# ---------------------------------------------------------------------------
# pathwise potentials along trajectories
# ---------------------------------------------------------------------------


def path_potential_slacks(columns, shapes, varsigma):
    """Normalized slacks of the three pathwise potential inequalities at every
    k, from record columns (a mapping like ReplicateResult.mean).

    sqrt_pot:   sum_l tr(G_k^1/2) - sum_l tr(G_-1^1/2) <= sum_{j<=k} tr(G_j^-1/2 lmap_j)
    log_pot:    sum_{j<=k} tr(G_j^-1 lmap_j)          <= Delta_k
    delta_bound: Delta_k <= kappa_0 + 2 N log(sum_l tr(G_k^1/2))

    The first two are exact matrix facts whenever the preconditioner is the
    additive accumulation of the lmap increments; the Kronecker-factored
    geometry breaks that premise and the audit reports what actually holds.
    """
    N = total_dim(shapes)
    k0 = bounds.kappa_0(shapes, varsigma)
    tr_sqrt = columns["trace_sqrt_total"]
    delta = columns["delta_k"]
    cum_invsqrt = np.cumsum(columns["weighted_invsqrt"])
    cum_inv = np.cumsum(columns["weighted_inv"])

    lhs_sqrt = tr_sqrt - N * math.sqrt(varsigma)
    sqrt_slack = (cum_invsqrt - lhs_sqrt) / (1.0 + np.maximum(np.abs(lhs_sqrt), cum_invsqrt))
    log_slack = (delta - cum_inv) / (1.0 + np.maximum(np.abs(delta), cum_inv))
    delta_rhs = k0 + 2.0 * N * np.log(tr_sqrt)
    delta_slack = (delta_rhs - delta) / (1.0 + np.maximum(np.abs(delta_rhs), np.abs(delta)))
    return {"sqrt_pot": sqrt_slack, "log_pot": log_slack, "delta_bound": delta_slack}


def _failed(name, K, context, err) -> AuditReport:
    """The one FAIL report of every trajectory audit whose run cannot be
    checked: worst_violation -inf over all K trials, and the context is the
    label plus the error."""
    return AuditReport(name, K, -math.inf, False, f"{context} {err}".strip())


def _replicates(name, context, problem, noise, config, R=1):
    """run_replicates, or ``_failed`` when a replicate turns non-finite; the
    error names the replicate and its seed."""
    try:
        return run_replicates(problem, noise, config, R)
    except NonFiniteIterate as err:
        return _failed(name, config.max_iters, context, err)


def audit_path_potentials(
    problem: Problem, rows: dict[str, tuple[NoiseModel, int]], config: OptimizerConfig
) -> list[AuditReport]:
    """One report `path-potentials[label]` over all three potential
    inequalities per labelled (noise, seed) of rows, in rows' order.  The
    rows run as one stack (``run_rows``), and each report, with its label
    as context, is the one its row gives alone.  A non-finite row is
    ``_failed``."""
    reports = []
    for label, run in zip(rows, run_rows(problem, list(rows.values()), config)):
        name = f"path-potentials[{label}]"
        if isinstance(run, NonFiniteIterate):
            reports.append(_failed(name, config.max_iters, label, run))
            continue
        slacks = path_potential_slacks(run.mean, problem.shapes, config.varsigma)
        reports.append(_report(name, config.max_iters, TOL_PATHWISE, label, **slacks))
    return reports


# ---------------------------------------------------------------------------
# trajectory-level bound audits
# ---------------------------------------------------------------------------


def audit_bounds(
    name: str,
    problem: Problem,
    config: OptimizerConfig,
    noise: NoiseModel | None = None,
    replicates: int = 1,
    context: str = "",
) -> AuditReport:
    """The bounds `bounds.published_bounds` gives this run, its momentum
    mode's slack set (`PublishedBounds.slacks`), checked against its records.
    Replicate means stand in for the expectations, each with a
    three-standard-error allowance; an exact oracle runs one replicate
    (nu = se = 0), so its bounds hold pathwise with float tolerance only.
    A run that meets no hypothesis of a published bound (InvalidConfig)
    FAILs over all K trials with worst -inf before any replicate runs, and
    the context is the label plus the error."""
    noise = noise or NoiseModel()
    try:
        published = bounds.published_bounds(problem, noise, config)
    except InvalidConfig as err:
        return _failed(name, config.max_iters, context, err)
    res = _replicates(name, context, problem, noise, config, 1 if published.exact else replicates)
    if isinstance(res, AuditReport):
        return res
    slacks = published.slacks(res.mean, {column: 3.0 * se for column, se in res.se.items()})
    oracle = "deterministic" if published.exact else f"statistical R={replicates}"
    ctx = f"{context} [{oracle}] {problem.name}"
    return _report(name, config.max_iters, TOL_PATHWISE, ctx, **slacks)


def audit_m1_degenerate(problem: Problem, K=300, seed=0) -> AuditReport:
    """mu_max = 0 must reproduce the momentum-free trajectory bit for bit:
    every record column and the final iterate, at tolerance 0."""
    name, ctx = "momentum-m1[mu=0-bitexact]", f"seed={seed} K={K}"
    base = OptimizerConfig(eta=1.0, varsigma=1.0, max_iters=K, seed=seed)
    runs = []
    for config in (base, replace(base, momentum_mode=MomentumMode.M1, mu_max=0.0)):
        res = _replicates(name, ctx, problem, NoiseModel(), config)
        if isinstance(res, AuditReport):
            return res
        runs.append(res)
    a, b = runs
    diffs = [a.arrays[n] - b.arrays[n] for n in a.arrays]
    diffs += [x - y for x, y in zip(a.final[0].blocks, b.final[0].blocks)]
    return _report(name, K, 0.0, ctx, slack=-np.abs(np.concatenate([d.ravel() for d in diffs])))


# ---------------------------------------------------------------------------
# rate regimes
# ---------------------------------------------------------------------------


def fit_loglog_slope(curve: np.ndarray, k_lo: int, k_hi: int) -> float:
    """Least-squares slope of log(curve) against log(k+1) on [k_lo, k_hi)."""
    ks = np.arange(k_lo, k_hi)
    y = np.log(np.maximum(curve[k_lo:k_hi], 1e-300))
    x = np.log(ks + 1.0)
    A = np.vstack([x, np.ones_like(x)]).T
    slope, _ = np.linalg.lstsq(A, y, rcond=None)[0]
    return float(slope)


def theory_exponent(mode: MomentumMode, alpha: float, beta: float) -> float:
    """Log-log decay exponent guaranteed for the averaged gradient norm."""
    # 0.0 - x rather than -x, so that a zero exponent is +0.0, never -0.0
    if mode is MomentumMode.M2:
        return 0.0 - min(alpha + 2.0 * beta - 0.5, 0.5)
    return 0.0 - alpha / 2.0 if alpha < 1.0 else -0.5


@dataclass
class RateRegimeResult:
    alpha: float
    fitted_slope: float
    theory_slope: float
    bound_dominates: bool
    report: AuditReport


def _running_argmin(x: np.ndarray) -> np.ndarray:
    """Index of the first minimum of x[:k+1] at every k (len(x) >= 1)."""
    new_min = np.r_[True, x[1:] < np.minimum.accumulate(x)[:-1]]
    return np.maximum.accumulate(np.where(new_min, np.arange(len(x)), 0))


SLOPE_TOL = 0.15  # absorbs the bounds' log factors at desk scale


def audit_rate_regimes(
    problem: Problem,
    config: OptimizerConfig,
    alphas,
    sigma: float,
    replicates: int = 16,
) -> list[RateRegimeResult]:
    """For each noise-decay exponent alpha: run replicates, compare the
    running-min averaged gradient curve against the evaluated envelope
    Theta_k / sqrt(k+1) (three-standard-error allowance), and check the
    fitted log-log slope against the guaranteed exponent + SLOPE_TOL.
    A non-finite replicate fails its alpha with a NaN slope.  The slope
    needs a fit window of at least two points, so max_iters < 3 raises
    InvalidConfig."""
    K = config.max_iters
    if K < 3:
        raise InvalidConfig(f"rate regimes need at least 3 iterations, got max_iters={K}")
    label = f"mode={config.momentum_mode.value} beta={config.beta}"
    results = []
    for alpha in alphas:
        noise = NoiseModel(
            kind=NoiseKind.ADDITIVE_DECAYING, sigma=(float(sigma),) * len(problem.shapes), alpha=float(alpha)
        )
        name = f"rate-regime-alpha={alpha}"
        th_slope = theory_exponent(config.momentum_mode, float(alpha), config.beta)
        # before the run: a problem without the constants the envelope needs
        # is a config error, which no replicate should wait for
        bound = bounds.published_bounds(problem, noise, config).rate
        res = _replicates(name, label, problem, noise, config, replicates)
        if isinstance(res, AuditReport):
            results.append(RateRegimeResult(float(alpha), math.nan, th_slope, False, res))
            continue
        min_curve = res.min_grad_curve
        # SE of the running-min statistic: the SE at its argmin iteration
        se_min = res.se["grad_dual_norm"][_running_argmin(res.mean["grad_dual_norm"])]
        dom_slack = (bound + 3.0 * se_min - min_curve) / (1.0 + bound)
        dominates = bool(np.all(dom_slack >= -TOL_PATHWISE))
        slope = fit_loglog_slope(min_curve, max(K // 10, 1), K)
        slope_ok = slope <= th_slope + SLOPE_TOL
        # np.min, not min: a NaN slack (an overflowing bound) makes the worst NaN
        worst = float(np.min([0.0, dom_slack.min(), (th_slope + SLOPE_TOL) - slope])) + 0.0
        rep = AuditReport(
            name,
            replicates * K,
            worst,
            dominates and slope_ok,
            f"{label} slope={slope:.3f} theory={th_slope:.3f} dominates={dominates}",
        )
        results.append(RateRegimeResult(float(alpha), slope, th_slope, dominates, rep))
    return results
