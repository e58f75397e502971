"""Numerical verification of the framework's trace inequalities, structural
identities, pathwise potentials, and convergence bounds.

Every audit is deterministic given its seed and returns an AuditReport
whose worst_violation is the most negative normalized slack observed
(0.0 when every trial had nonnegative slack).  Deterministic-oracle bound
audits carry zero statistical slack; Monte Carlo variants widen the
tolerance by three standard errors of the replicate mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .block_space import VECTOR_ONLY, BlockShape, Geometry, total_dim
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
from .optimizer import MomentumMode, OptimizerConfig, mu_schedule, run_replicates
from .problems import NoiseKind, NoiseModel, Problem, nu_curve_analytic
from .psd_linalg import psd_power, random_psd, trace_log_psd

KAPPA_CIRC = 1.0  # gradient/preconditioner compatibility constant, all geometries
KAPPA_BOX = 2.0  # sub-additivity constant of the quadratic maps
KAPPA_DIAMOND = 1.0  # trace-domination constant

TOL_ALGEBRAIC = 1e-8  # identities and single-matrix trace inequalities
TOL_PATHWISE = 1e-6  # inequalities accumulated over a whole trajectory
DIM_RANGE = (1, 8)  # matrix dims drawn by the single-matrix trace audits


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


def _tr_power(M, p):
    w = np.linalg.eigvalsh(M)
    return float(np.sum(np.clip(w, 0.0, None) ** p)) if p >= 0 else float(np.sum(w**p))


def audit_sqrt_trace(trials=1000, seed=0) -> AuditReport:
    """tr((A+B)^-1/2 B) >= tr((A+B)^1/2) - tr(A^1/2) on random PSD pairs.

    Includes the degenerate equality witnesses A = 0 and B = 0.
    """
    rng = np.random.default_rng(seed)
    slacks = []
    for t in range(trials):
        d = int(rng.integers(DIM_RANGE[0], DIM_RANGE[1] + 1))
        A = random_psd(d, 10.0 ** rng.uniform(0, 3), rng) * 10.0 ** rng.uniform(-1, 1)
        B = random_psd(d, 10.0 ** rng.uniform(0, 3), rng) * 10.0 ** rng.uniform(-1, 1)
        if t % 50 == 0:
            B = np.zeros((d, d))
        elif t % 50 == 1:
            A = np.zeros((d, d))
        S = A + B
        lhs = float(np.trace(psd_power(S, -0.5) @ B))
        rhs = _tr_power(S, 0.5) - _tr_power(A, 0.5)
        scale = 1.0 + _tr_power(S, 0.5)
        slacks.append((lhs - rhs) / scale)
    ctx = f"seed={seed} dims={DIM_RANGE}"
    return _report("sqrt-trace", trials, TOL_ALGEBRAIC, ctx, slack=slacks)


def audit_log_increment(trials=1000, seed=0) -> AuditReport:
    """tr((A+B)^-1 B) <= tr(log(A+B) - log A) <= tr(A^-1 B) for PD A, PSD B."""
    rng = np.random.default_rng(seed)
    slacks = []
    for t in range(trials):
        d = int(rng.integers(DIM_RANGE[0], DIM_RANGE[1] + 1))
        A = random_psd(d, 10.0 ** rng.uniform(0, 3), rng) * 10.0 ** rng.uniform(-1, 1)
        B = random_psd(d, 10.0 ** rng.uniform(0, 3), rng) * 10.0 ** rng.uniform(-1, 1)
        if t % 50 == 0:
            B = np.zeros((d, d))
        mid = trace_log_psd(A + B) - trace_log_psd(A)
        low = float(np.trace(psd_power(A + B, -1.0) @ B))
        high = float(np.trace(psd_power(A, -1.0) @ B))
        scale = 1.0 + abs(low) + abs(mid) + abs(high)
        slacks.append((mid - low) / scale)
        slacks.append((high - mid) / scale)
    return _report(
        "log-increment", trials, TOL_ALGEBRAIC, f"seed={seed} dims={DIM_RANGE}", slack=slacks
    )


def audit_spectral_log(trials=1000, seed=0) -> AuditReport:
    """tr(log G) <= 2 d log(tr(G^1/2)) - d log d for random PD G."""
    rng = np.random.default_rng(seed)
    slacks = []
    for t in range(trials):
        d = int(rng.integers(DIM_RANGE[0], DIM_RANGE[1] + 1))
        G = random_psd(d, 10.0 ** rng.uniform(0, 4), rng) * 10.0 ** rng.uniform(-2, 2)
        if t % 25 == 0:
            G = 10.0 ** rng.uniform(-2, 2) * np.eye(d)  # equality structure at d = 1
        lhs = trace_log_psd(G)
        rhs = 2.0 * d * math.log(_tr_power(G, 0.5)) - d * math.log(d)
        scale = 1.0 + abs(lhs) + abs(rhs)
        slacks.append((rhs - lhs) / scale)
    return _report("spectral-log", trials, 1e-9, f"seed={seed} dims={DIM_RANGE}", slack=slacks)


def _techn_feasible_interval(c):
    # roots of t = c log t bracket the premise region {1 <= t <= c log t}
    lo, hi = 1.0, math.e
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - c * math.log(mid) > 0:
            lo = mid
        else:
            hi = mid
    r1 = hi
    lo, hi = math.e, max(10.0 * c * math.log(10.0 * c), 10.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - c * math.log(mid) < 0:
            lo = mid
        else:
            hi = mid
    r2 = lo
    return r1, r2


def audit_techn(trials=1000, seed=0) -> AuditReport:
    """If 1 <= t <= c log t then t <= 2c log(2c); sampled over the premise set."""
    rng = np.random.default_rng(seed)
    slacks = []
    for t in range(trials):
        c = math.e if t == 0 else float(np.exp(rng.uniform(1.0, math.log(1e3))))
        r1, r2 = _techn_feasible_interval(c)
        tt = r2 if t % 10 == 0 else float(rng.uniform(r1, r2))
        bound = 2.0 * c * math.log(2.0 * c)
        slacks.append((bound - tt) / (1.0 + bound))
    return _report("techn", trials, TOL_ALGEBRAIC, f"seed={seed}", slack=slacks)


# ---------------------------------------------------------------------------
# per-geometry structural identities, compatibility, sub-additivity
# ---------------------------------------------------------------------------


def _random_shape(geometry: Geometry, rng) -> BlockShape:
    n = int(rng.integers(1, 9))
    m = 1 if geometry in VECTOR_ONLY else int(rng.integers(1, 5))
    return BlockShape(n, m, geometry)


def _random_state(shape, rng, varsigma):
    state = geom_init(shape, varsigma)
    for _ in range(int(rng.integers(0, 4))):
        V = 10.0 ** rng.uniform(-1, 1) * rng.standard_normal((shape.rows, shape.cols))
        state = geom_accumulate(shape, state, V, geom_lmap_trace(shape, V))
    return state


def audit_structural_identities(geometry: Geometry, trials=500, seed=0) -> list[AuditReport]:
    """The two trace identities and the compatibility equality on random states.

    ineq1:  |Z| <V, S(Z)>  ==  tr(Gamma^-1/2 lmap(V))
    ineq2:  |Z|^2          ==  tr(Gamma^-1   lmap(V))
    compat: |V|_dual^2     <=  tr(lmap(V))            (equality, all variants)

    with Z = Gamma^-1/2 V and V the same vector that grew Gamma last.
    """
    rng = np.random.default_rng(seed)
    r1, r2, rc = [], [], []
    for _ in range(trials):
        shape = _random_shape(geometry, rng)
        varsigma = 10.0 ** rng.uniform(-1, 1)
        state = _random_state(shape, rng, varsigma)
        V = 10.0 ** rng.uniform(-1, 1) * rng.standard_normal((shape.rows, shape.cols))
        tr_l = geom_lmap_trace(shape, V)
        state = geom_accumulate(shape, state, V, tr_l)
        Z = geom_precondition(shape, state, V)
        zn = geom_dual_norm(shape, Z)
        diag = geom_diagnostics(shape, state, V, tr_l)

        lhs1 = zn * float(np.sum(V * geom_selector(shape, Z, zn)))
        s1 = max(abs(lhs1), abs(diag.weighted_invsqrt), 1e-300)
        r1.append(TOL_ALGEBRAIC - abs(lhs1 - diag.weighted_invsqrt) / s1)

        lhs2 = zn * zn
        s2 = max(abs(lhs2), abs(diag.weighted_inv), 1e-300)
        r2.append(TOL_ALGEBRAIC - abs(lhs2 - diag.weighted_inv) / s2)

        dual_sq = geom_dual_norm(shape, V) ** 2
        rc.append((KAPPA_CIRC**2 * tr_l - dual_sq) / max(1.0, dual_sq))
    ctx = f"geometry={geometry.value} seed={seed}"
    return [
        _report(f"identity-ineq1-{geometry.value}", trials, 0.0, ctx, slack=r1),
        _report(f"identity-ineq2-{geometry.value}", trials, 0.0, ctx, slack=r2),
        _report(f"compatibility-{geometry.value}", trials, 1e-10, ctx, slack=rc),
    ]


def audit_subadditivity_constants(geometry: Geometry, trials=1000, seed=0) -> AuditReport:
    """tr(W lmap(U+V)) <= 2 tr(W lmap(U)) + 2 tr(W lmap(V)) on random PSD probes W,
    plus the empirical trace-domination constant tr(lmap(U)) / |U|_dual^2."""
    rng = np.random.default_rng(seed)
    slacks = []
    box_est = 0.0
    dia_est = 0.0
    for t in range(trials):
        shape = _random_shape(geometry, rng)
        U = rng.standard_normal((shape.rows, shape.cols))
        V = U.copy() if t % 10 == 0 else rng.standard_normal((shape.rows, shape.cols))
        W = random_psd(shape.dim, 10.0 ** rng.uniform(0, 2), rng)
        a = float(np.sum(W * geom_lmap_matrix(shape, U)))
        b = float(np.sum(W * geom_lmap_matrix(shape, V)))
        c = float(np.sum(W * geom_lmap_matrix(shape, U + V)))
        scale = 1.0 + abs(a) + abs(b) + abs(c)
        slacks.append((KAPPA_BOX * (a + b) - c) / scale)
        if a + b > 0:
            box_est = max(box_est, c / (a + b))
        du = geom_dual_norm(shape, U) ** 2
        if du > 0:
            dia_est = max(dia_est, geom_lmap_trace(shape, U) / du)
    ctx = (
        f"geometry={geometry.value} seed={seed} "
        f"empirical kappa_box={box_est:.6f} kappa_diamond={dia_est:.6f}"
    )
    return _report(f"subadditivity-{geometry.value}", trials, TOL_ALGEBRAIC, ctx, slack=slacks)


# ---------------------------------------------------------------------------
# pathwise potentials along trajectories
# ---------------------------------------------------------------------------


def kappa_0(shapes, varsigma) -> float:
    """-sum_l d_l log d_l - N log(varsigma); may be negative."""
    return float(
        -sum(s.dim * math.log(s.dim) for s in shapes) - total_dim(shapes) * math.log(varsigma)
    )


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
    k0 = kappa_0(shapes, varsigma)
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


def _replicates(name, context, problem, noise, config, R=1):
    """run_replicates, or the one FAIL report of every trajectory audit when a
    replicate turns non-finite: worst_violation -inf over all K trials, and
    the context is the label plus the error, which names the replicate and its seed."""
    try:
        return run_replicates(problem, noise, config, R)
    except NonFiniteIterate as err:
        return AuditReport(name, config.max_iters, -math.inf, False, f"{context} {err}".strip())


def audit_path_potentials(
    problem: Problem, noise: NoiseModel, config: OptimizerConfig, context: str = ""
) -> AuditReport:
    """Single report over all three potential inequalities of one trajectory."""
    res = _replicates("path-potentials", context, problem, noise, config)
    if isinstance(res, AuditReport):
        return res
    slacks = path_potential_slacks(res.mean, problem.shapes, config.varsigma)
    return _report("path-potentials", config.max_iters, TOL_PATHWISE, context, **slacks)


# ---------------------------------------------------------------------------
# bound constants and the Theta envelope
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundConstants:
    """Constants entering the telescoping and Theta bounds."""

    shapes: tuple[BlockShape, ...]
    eta: float
    varsigma: float
    L_G: float
    f0: float
    f_low: float
    omega: float = 0.0

    @property
    def N(self) -> int:
        return total_dim(self.shapes)

    @property
    def kappa_gap(self) -> float:
        return self.f0 - self.f_low + self.eta * self.varsigma * self.N

    @property
    def kappa_0(self) -> float:
        return kappa_0(self.shapes, self.varsigma)


def bound_constants(problem: Problem, config: OptimizerConfig, omega=0.0) -> BoundConstants:
    if problem.lipschitz is None:
        raise InvalidConfig(f"problem {problem.name!r} has no Lipschitz bound")
    return BoundConstants(
        shapes=tuple(problem.shapes),
        eta=config.eta,
        varsigma=config.varsigma,
        L_G=problem.lipschitz,
        f0=problem.eval_f(problem.x0),
        f_low=problem.f_low,
        omega=omega,
    )


def _theta(constants: BoundConstants, gap: float, a: float, y: float) -> float:
    """max[ e^max(1, 1/2N, kappa_0/2N), 3 gap / eta, a sqrt(max(1, log a)), y log y ],
    the shape shared by both Theta envelopes; a <= 0 and y <= 0 contribute 0."""
    N = constants.N
    term1 = math.exp(max(1.0, 1.0 / (2 * N), constants.kappa_0 / (2 * N)))
    t_k = a * math.sqrt(max(1.0, math.log(a))) if a > 0.0 else 0.0
    y_k = y * math.log(y) if y > 0.0 else 0.0
    return max(term1, 3.0 * gap / constants.eta, t_k, y_k)


def compute_theta(constants: BoundConstants, nu_k: float) -> float:
    """The explicit envelope on the expected summed sqrt-trace of the
    preconditioners:

        Theta_k = max[ e^max(1, 1/2N, kappa_0/2N),
                       3 kappa_gap / eta,
                       12 sqrt(N) nu_k sqrt(max(1, log(12 sqrt(N) nu_k))),
                       24 N (omega + L/eta) log(24 N (omega + L/eta)) ]
    """
    N = constants.N
    return _theta(
        constants,
        constants.kappa_gap,
        12.0 * math.sqrt(N) * nu_k,
        24.0 * N * (constants.omega + constants.L_G / constants.eta),
    )


def theta_curve(constants: BoundConstants, nu: np.ndarray) -> np.ndarray:
    return np.array([compute_theta(constants, float(v)) for v in nu])


def m1_noise_constants(constants: BoundConstants, mu_max: float):
    """Map a raw oracle budget to the constants of the first momentum variant:
    nu multiplier sqrt(6 mu^2/(1-mu)^2 + 2) and omega = sqrt(3) mu L eta / (1-mu)."""
    mult = math.sqrt(6.0 * mu_max**2 / (1.0 - mu_max) ** 2 + 2.0)
    omega = math.sqrt(3.0) * mu_max * constants.L_G * constants.eta / (1.0 - mu_max)
    return mult, omega


def m1_rate_bound(constants: BoundConstants, theta: float, k: int) -> float:
    """(2 kappa_circ Theta + sqrt(2N log Theta) + omega sqrt(max(kappa_0, 1))) / sqrt(k+1)."""
    N = constants.N
    return (
        2.0 * KAPPA_CIRC * theta
        + math.sqrt(2.0 * N * math.log(theta))
        + constants.omega * math.sqrt(max(constants.kappa_0, 1.0))
    ) / math.sqrt(k + 1.0)


def m2_eta_limit(mu_max: float, L: float, varsigma: float) -> float:
    """Largest stepsize of the alternate momentum bound's hypothesis, inf when
    mu or L is 0: (1-mu)/(mu L) sqrt(varsigma / (6 kappa_box kappa_diamond))."""
    if mu_max == 0.0 or L == 0.0:
        return math.inf
    return (1.0 - mu_max) / (mu_max * L) * math.sqrt(varsigma / (6.0 * KAPPA_BOX * KAPPA_DIAMOND))


@dataclass(frozen=True)
class M2Constants:
    """Constants of the alternate (pure-gradient accumulation) momentum bound.

    The stepsize hypothesis (eta <= m2_eta_limit) zeroes kappa_2z; otherwise
    a caller-supplied cap on sum mu_j^2 |Z_j|^2 is required, and without one
    the hypothesis is flagged unverified.
    """

    kappa_1nu: float
    kappa_1z: float
    kappa_2nu: float
    kappa_2z: float
    kappa_gap: float
    kappa_nunu: float
    kappa_nudelta: float
    kappa_delta: float
    small_eta_ok: bool


def m2_constants(
    constants: BoundConstants, mu_max: float, kappa_mu_z: float | None = None
) -> M2Constants:
    eta, s, L = constants.eta, constants.varsigma, constants.L_G
    om = 1.0 - mu_max
    eta_limit = m2_eta_limit(mu_max, L, s)
    small_eta_ok = eta <= eta_limit
    if small_eta_ok:
        k2z = 0.0
    elif kappa_mu_z is not None:
        k2z = 3.0 * KAPPA_BOX * KAPPA_DIAMOND * L**2 * eta**2 / (om**2 * s) * kappa_mu_z
    else:
        raise InvalidConfig(
            f"eta={eta} exceeds the stepsize hypothesis limit {eta_limit:.4g} "
            "and no cap on the momentum-weighted step energy was supplied"
        )
    k1nu = 6.0 * KAPPA_DIAMOND / (om**2 * math.sqrt(s)) + 12.0 / om**2
    k1z = (
        3.0 * KAPPA_DIAMOND * mu_max**2 * L**2 * eta**2 / (om**2 * math.sqrt(s))
        + 6.0 * mu_max**2 * L**2 * eta**2 / om**2
        + 2.0
    )
    k2nu = 6.0 * KAPPA_BOX * KAPPA_DIAMOND / (om**2 * s)
    kgap = (
        constants.f0
        - constants.f_low
        + eta * s * constants.N
        + eta * math.sqrt(k2z)
        + (eta * k1z + L * eta**2 / 2.0) * k2z
    )
    knunu = eta * (k1nu + math.sqrt(k2nu) + k1z * k2nu + L * eta / 2.0)
    return M2Constants(
        kappa_1nu=k1nu,
        kappa_1z=k1z,
        kappa_2nu=k2nu,
        kappa_2z=k2z,
        kappa_gap=kgap,
        kappa_nunu=knunu,
        kappa_nudelta=math.sqrt(2.0),
        kappa_delta=2.0 * k1z + L * eta,
        small_eta_ok=small_eta_ok,
    )


def compute_theta_m2(constants: BoundConstants, m2: M2Constants, theta_noise_k: float) -> float:
    """Alternate envelope for the pure-gradient momentum variant.

    theta_noise_k is the momentum-weighted cumulative oracle deviation
    sqrt(sum_j mu_j^2 E|Gt_j - G_j|^2); omega is constants.omega, the
    multiplicative noise level of the oracle.  The last term uses (omega^2 + L/eta)
    as printed in its source even though the first variant uses
    (omega + L/eta); the discrepancy is deliberate and flagged here.
    """
    N = constants.N
    return _theta(
        constants,
        m2.kappa_gap + m2.kappa_nunu * theta_noise_k**2,
        12.0 * math.sqrt(N) * m2.kappa_nudelta * theta_noise_k,
        24.0 * N * m2.kappa_delta * (constants.omega**2 + constants.L_G / constants.eta),
    )


def m2_theta_noise_curve(noise: NoiseModel, config: OptimizerConfig, num_blocks: int) -> np.ndarray:
    """sqrt(sum_{j<=k} mu_j^2 sigma_tot^2 (j+1)^-alpha) for k = 0..max_iters-1,
    with sigma_tot^2 summed over num_blocks blocks.

    Exact oracles give zeros; mini-batch oracles have no closed form and
    raise InvalidConfig, as for nu_curve_analytic."""
    K = config.max_iters
    if noise.kind is NoiseKind.EXACT:
        return np.zeros(K)
    if noise.kind is NoiseKind.MINI_BATCH:
        raise InvalidConfig("theta_noise has no analytic form for mini-batch oracles")
    j = np.arange(K, dtype=float)
    mu = np.array([mu_schedule(int(t), config) for t in range(K)])
    return np.sqrt(np.cumsum(mu**2 * noise.sigma_tot_sq(num_blocks) * (j + 1.0) ** (-noise.alpha)))


def envelope_and_rate(
    problem: Problem, noise: NoiseModel, config: OptimizerConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Theta_k and the averaged-gradient rate bound for k = 0..K-1, both
    chosen by the momentum mode of the run.

    None uses the analytic noise budget nu_k and the rate bound
    kappa_circ Theta_k / sqrt(k+1).  M1 scales nu_k, replaces omega by the
    first variant's constants and uses that variant's rate bound,
    `m1_rate_bound`.  M2 uses the alternate envelope on the momentum-weighted
    noise curve and kappa_circ Theta_k / sqrt(k+1).  Raises InvalidConfig
    when a bound hypothesis is not available (no Lipschitz bound, no
    analytic noise budget, or an unverified M2 stepsize).
    """
    K, B = config.max_iters, len(problem.shapes)
    constants = bound_constants(problem, config, omega=noise.omega)
    mode = config.momentum_mode
    if mode is MomentumMode.M1:
        mult, omega_m1 = m1_noise_constants(constants, config.mu_max)
        m1 = replace(constants, omega=omega_m1)
        theta = theta_curve(m1, mult * nu_curve_analytic(noise, B, K))
        return theta, np.array([m1_rate_bound(m1, float(t), k) for k, t in enumerate(theta)])
    if mode is MomentumMode.M2:
        m2 = m2_constants(constants, config.mu_max)
        th_noise = m2_theta_noise_curve(noise, config, B)
        theta = np.array([compute_theta_m2(constants, m2, float(t)) for t in th_noise])
    else:
        theta = theta_curve(constants, nu_curve_analytic(noise, B, K))
    return theta, KAPPA_CIRC * theta / np.sqrt(np.arange(K, dtype=float) + 1.0)


# ---------------------------------------------------------------------------
# trajectory-level bound audits
# ---------------------------------------------------------------------------


def _rate_slack(grad, rate_rhs, se=0.0):
    """Normalized slack of avg_{j<=k} grad_j - avg_{j<=k} se_j <= rate_rhs_k at every k."""
    count = np.arange(len(grad), dtype=float) + 1.0
    avg = np.cumsum(grad) / count - np.cumsum(np.broadcast_to(se, count.shape)) / count
    return (rate_rhs - avg) / (1.0 + np.abs(rate_rhs))


def audit_master_and_theta(
    problem: Problem,
    config: OptimizerConfig,
    noise: NoiseModel | None = None,
    replicates: int = 1,
    context: str = "",
) -> AuditReport:
    """Telescoping bound, Theta envelope, and the averaged-gradient rate bound.

        eta sum_l tr(Gamma_k^1/2) <= kappa_gap + eta nu_k sqrt(Delta_k)
                                     + (omega eta + L eta^2 / 2) Delta_k

    Replicate means stand in for the expectations, nu_k comes from the
    analytic budget, and each comparison gains a three-standard-error
    allowance.  An exact oracle is the single-replicate case (nu = se = 0),
    so all three are asserted pathwise with float tolerance only.
    """
    noise = noise or NoiseModel()
    constants = bound_constants(problem, config, omega=noise.omega)
    K = config.max_iters
    deterministic = noise.kind is NoiseKind.EXACT
    R = 1 if deterministic else replicates
    res = _replicates("master-theta", context, problem, noise, config, R)
    if isinstance(res, AuditReport):
        return res
    tr_sqrt = res.mean["trace_sqrt_total"]
    delta = res.mean["delta_k"]
    se_tr = 3.0 * res.se["trace_sqrt_total"]
    se_delta = 3.0 * res.se["delta_k"]
    nu = nu_curve_analytic(noise, len(problem.shapes), K)
    lhs = constants.eta * tr_sqrt - se_tr * constants.eta
    coef = constants.omega * constants.eta + 0.5 * constants.L_G * constants.eta**2
    rhs = (
        constants.kappa_gap
        + constants.eta * nu * np.sqrt(np.maximum(delta + se_delta, 0.0))
        + coef * (delta + se_delta)
    )
    master = (rhs - lhs) / (1.0 + np.maximum(np.abs(lhs), np.abs(rhs)))

    theta, rate_rhs = envelope_and_rate(problem, noise, config)
    t_slack = (theta - (tr_sqrt - se_tr)) / (1.0 + np.abs(theta))
    grad, se_grad = res.mean["grad_dual_norm"], 3.0 * res.se["grad_dual_norm"]
    rate = _rate_slack(grad, rate_rhs, se_grad)
    mode = "deterministic" if deterministic else f"statistical R={replicates}"
    ctx = f"{context} [{mode}] {problem.name}"
    return _report("master-theta", K, TOL_PATHWISE, ctx, master=master, theta=t_slack, rate=rate)


def audit_momentum_error(
    problem: Problem, config: OptimizerConfig, context: str = ""
) -> AuditReport:
    """First momentum variant with an exact oracle: the accumulated momentum
    error bound and the momentum rate bound, both pathwise.

        sum_j |M_j - Gt_j|^2 <= 3 L^2 eta^2 / (1-mu)^2 * sum_j mu_j^2 |Z_j|^2
        avg_j |G_j| <= (2 Theta + sqrt(2N log Theta) + omega sqrt(max(k0,1))) / sqrt(k+1)
    """
    if config.momentum_mode is not MomentumMode.M1:
        raise InvalidConfig("momentum-error audit needs the M1 mode")
    _, rate_rhs = envelope_and_rate(problem, NoiseModel(), config)
    K = config.max_iters
    res = _replicates("momentum-m1", context, problem, NoiseModel(), config)
    if isinstance(res, AuditReport):
        return res
    mu = np.array([mu_schedule(k, config) for k in range(K)])
    err = np.cumsum(res.mean["mom_err_sq"])
    zsq = np.cumsum(mu**2 * res.mean["z_dual_norm_sq"])
    coef = 3.0 * problem.lipschitz**2 * config.eta**2 / (1.0 - config.mu_max) ** 2
    e_slack = (coef * zsq - err) / (1.0 + np.maximum(err, coef * zsq))
    rate = _rate_slack(res.mean["grad_dual_norm"], rate_rhs)
    ctx = f"{context} mu_max={config.mu_max}"
    return _report("momentum-m1", K, TOL_PATHWISE, ctx, errE=e_slack, rate=rate)


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


def audit_m2_deterministic(
    problem: Problem, config: OptimizerConfig, context: str = ""
) -> AuditReport:
    """Alternate Theta envelope and rate bound for the pure-gradient momentum
    variant, deterministic specialization (exact oracle, theta_noise = 0).

    A stepsize above `m2_eta_limit` leaves the bound without its hypothesis:
    the report then FAILs over all K trials (worst -inf), with
    small_eta_ok=False and the limit in its context."""
    if config.momentum_mode is not MomentumMode.M2:
        raise InvalidConfig("needs the M2 mode")
    constants = bound_constants(problem, config)
    K = config.max_iters
    limit = m2_eta_limit(config.mu_max, constants.L_G, config.varsigma)
    small_eta_ok = config.eta <= limit
    head = f"{context} small_eta_ok={small_eta_ok}"
    if not small_eta_ok:
        ctx = f"{head} eta={config.eta} exceeds the limit {limit:.4g}"
        return AuditReport("m2-deterministic", K, -math.inf, False, ctx.strip())
    m2 = m2_constants(constants, config.mu_max)
    theta, rate_rhs = envelope_and_rate(problem, NoiseModel(), config)
    res = _replicates("m2-deterministic", context, problem, NoiseModel(), config)
    if isinstance(res, AuditReport):
        return res
    t_slack = (theta - res.mean["trace_sqrt_total"]) / (1.0 + theta)
    rate = _rate_slack(res.mean["grad_dual_norm"], rate_rhs)
    return _report(
        "m2-deterministic",
        K,
        TOL_PATHWISE,
        f"{head} theta={compute_theta_m2(constants, m2, 0.0):.4g} "
        "(last envelope term uses omega^2 + L/eta as printed; the first "
        "variant's uses omega + L/eta)",
        bounds=np.minimum(t_slack, rate),
    )


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
        res = _replicates(name, label, problem, noise, config, replicates)
        if isinstance(res, AuditReport):
            results.append(RateRegimeResult(float(alpha), math.nan, th_slope, False, res))
            continue
        min_curve = res.min_grad_curve
        # SE of the running-min statistic: the SE at its argmin iteration
        se_min = res.se["grad_dual_norm"][_running_argmin(res.mean["grad_dual_norm"])]

        _, bound = envelope_and_rate(problem, noise, config)

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
