"""Named audit suites: the standard configurations behind `adprec audit`.

Each suite returns a list of AuditReports.  Suites are deterministic given
(trials, seed); the trajectory-based suites ignore `trials` and use their
fixed iteration budgets.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .audit import (
    AuditReport,
    audit_log_increment,
    audit_m2_deterministic,
    audit_master_and_theta,
    audit_momentum_error,
    audit_path_potentials,
    audit_rate_regimes,
    audit_spectral_log,
    audit_sqrt_trace,
    audit_structural_identities,
    audit_subadditivity_constants,
    audit_techn,
)
from .block_space import BlockShape, Geometry
from .errors import InvalidConfig
from .optimizer import MomentumMode, OptimizerConfig, run_trajectory
from .problems import NoiseKind, NoiseModel, make_problem


def suite_trace(trials=1000, seed=0):
    return [
        audit_sqrt_trace(trials, seed=seed),
        audit_log_increment(trials, seed=seed + 1),
        audit_spectral_log(trials, seed=seed + 2),
        audit_techn(trials, seed=seed + 3),
    ]


def suite_identities(trials=500, seed=0):
    reports = []
    for i, g in enumerate(Geometry):
        reports.extend(audit_structural_identities(g, trials, seed=seed + i))
        reports.append(audit_subadditivity_constants(g, max(trials, 1000), seed=seed + 10 + i))
    return reports


# the six spaces exercised by the potential audits: each of the five
# geometries alone, plus a mixed Muon + AdaNorm product space
def _potential_spaces():
    return [
        ("adanorm", "quadratic", [BlockShape(6, 1, Geometry.ADANORM)]),
        ("diag", "quadratic", [BlockShape(8, 1, Geometry.DIAG_ADAGRAD)]),
        ("full", "quadratic", [BlockShape(5, 1, Geometry.FULL_ADAGRAD)]),
        (
            "shampoo",
            "matfact",
            [BlockShape(4, 2, Geometry.SHAMPOO), BlockShape(2, 3, Geometry.SHAMPOO)],
        ),
        (
            "muon",
            "matfact",
            [BlockShape(4, 2, Geometry.MUON), BlockShape(2, 3, Geometry.MUON)],
        ),
        (
            "mixed",
            "quadratic",
            [BlockShape(3, 2, Geometry.MUON), BlockShape(4, 1, Geometry.ADANORM)],
        ),
    ]


def potential_configurations(K=500, seed=0):
    """(label, problem, noise, config) for the 12 potential-audit runs."""
    out = []
    for i, (name, kind, shapes) in enumerate(_potential_spaces()):
        problem = make_problem(kind, shapes, seed=seed + 7 * i)
        cfg = OptimizerConfig(eta=0.5, varsigma=1.0, max_iters=K, seed=seed)
        for label, noise in [
            ("exact", NoiseModel()),
            (
                "noisy",
                NoiseModel(
                    kind=NoiseKind.ADDITIVE_DECAYING, sigma=(0.5,) * len(shapes), alpha=1.0
                ),
            ),
        ]:
            out.append((f"{name}/{label}", problem, noise, cfg))
    return out


def suite_potentials(trials=0, seed=0, K=500):
    reports = []
    for label, problem, noise, cfg in potential_configurations(K=K, seed=seed):
        traj = run_trajectory(problem, noise, cfg)
        if traj.failed:
            reports.append(AuditReport(f"path-potentials[{label}]", 0, -math.inf, False, traj.failed))
            continue
        rep = audit_path_potentials(traj.records, problem.shapes, cfg.varsigma, context=label)
        reports.append(replace(rep, check_name=f"path-potentials[{label}]"))
    return reports


def bound_configurations(K=2000, seed=0):
    out = []
    for kind, shapes, eta in [
        ("quadratic", [BlockShape(8, 1, Geometry.DIAG_ADAGRAD)], 1.0),
        ("quadratic", [BlockShape(6, 1, Geometry.ADANORM)], 1.0),
        ("trigquad", [BlockShape(8, 1, Geometry.DIAG_ADAGRAD)], 1.0),
        ("trigquad", [BlockShape(5, 1, Geometry.FULL_ADAGRAD)], 0.5),
    ]:
        problem = make_problem(kind, shapes, seed=seed)
        cfg = OptimizerConfig(eta=eta, varsigma=1.0, max_iters=K, seed=seed)
        out.append((f"{kind}/{shapes[0].geometry.value}", problem, cfg))
    return out


def suite_bounds(trials=0, seed=0, K=2000):
    reports = []
    for label, problem, cfg in bound_configurations(K=K, seed=seed):
        rep = audit_master_and_theta(problem, cfg, context=label)
        reports.append(replace(rep, check_name=f"master-theta[{label}]"))
    # statistical variant: replicate means with the analytic noise budget
    problem = make_problem("quadratic", [BlockShape(8, 1, Geometry.DIAG_ADAGRAD)], seed=seed)
    cfg = OptimizerConfig(eta=1.0, varsigma=1.0, max_iters=400, seed=seed)
    noise = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(0.5,), alpha=2.0)
    rep = audit_master_and_theta(problem, cfg, noise=noise, replicates=32, context="statistical")
    reports.append(replace(rep, check_name="master-theta[quadratic/statistical]"))
    return reports


def suite_momentum(trials=0, seed=0, K=2000):
    problem = make_problem("quadratic", [BlockShape(8, 1, Geometry.DIAG_ADAGRAD)], seed=seed)
    reports = []
    for mu in (0.5, 0.9):
        cfg = OptimizerConfig(
            eta=1.0,
            varsigma=1.0,
            max_iters=K,
            seed=seed,
            momentum_mode=MomentumMode.M1,
            mu_max=mu,
        )
        rep = audit_momentum_error(problem, cfg, context=f"quadratic mu_max={mu}")
        reports.append(replace(rep, check_name=f"momentum-m1[mu={mu}]"))
    reports.append(audit_m1_degenerate(problem, K=min(K, 300), seed=seed))
    cfg2 = OptimizerConfig(
        eta=0.25,
        varsigma=1.0,
        max_iters=K // 2,
        seed=seed,
        momentum_mode=MomentumMode.M2,
        mu_max=0.5,
    )
    reports.append(audit_m2_deterministic(problem, cfg2, context="quadratic mu_max=0.5"))
    return reports


def audit_m1_degenerate(problem, K=300, seed=0) -> AuditReport:
    """mu_max = 0 must reproduce the momentum-free trajectory bit for bit."""
    base = OptimizerConfig(eta=1.0, varsigma=1.0, max_iters=K, seed=seed)
    m1 = replace(base, momentum_mode=MomentumMode.M1, mu_max=0.0)
    ta = run_trajectory(problem, NoiseModel(), base)
    tb = run_trajectory(problem, NoiseModel(), m1)
    worst = 0.0
    exact = True
    for a, b in zip(ta.final.blocks, tb.final.blocks):
        if not np.array_equal(a, b):
            exact = False
            worst = min(worst, -float(np.max(np.abs(a - b))))
    for fa, fb in zip(ta.column("z_dual_norm_sq"), tb.column("z_dual_norm_sq")):
        if fa != fb:
            exact = False
            worst = min(worst, -abs(fa - fb))
    return AuditReport(
        "momentum-m1[mu=0-bitexact]", K, worst, exact, f"seed={seed} K={K}"
    )


def suite_rates(trials=0, seed=0, K=5000, R=16):
    problem = make_problem("quadratic", [BlockShape(8, 1, Geometry.DIAG_ADAGRAD)], seed=seed)
    cfg = OptimizerConfig(eta=1.0, varsigma=1.0, max_iters=K, seed=seed, eval_objective=False)
    results = audit_rate_regimes(problem, cfg, alphas=(0.5, 1.0, 2.0), sigma=1.0, replicates=R)
    reports = [r.report for r in results]
    reports.append(m2_schedule_gap_report(problem, K=K, R=R, seed=seed))
    return reports


def m2_schedule_gap_report(problem, K=5000, R=16, seed=0) -> AuditReport:
    """Compare the pure-gradient momentum variant (mu_max = 0.9) at beta = 0.25
    (schedule exponent making alpha + 2 beta = 1) against beta = 0 at alpha = 0.5.

    Passes when both schedules' own rate-regime reports pass (each curve
    stays under its envelope and decays at least as fast as its guaranteed
    exponent, up to SLOPE_TOL) and the guaranteed exponent for beta = 0.25 is
    strictly below the one for beta = 0.  The measured min-gradient slopes
    and their gap are recorded in the context but not gated: the guarantees
    are upper bounds, and the realized trajectories may converge at matching
    rates.  worst_violation is the worse of the two sub-reports'.
    """
    mu_max = 0.9
    # stepsize satisfying the M2 stepsize hypothesis for mu_max and this L
    L = problem.lipschitz
    eta = 0.9 * (1.0 - mu_max) / (mu_max * L) * math.sqrt(1.0 / 12.0)
    out = {}
    for beta in (0.0, 0.25):
        cfg = OptimizerConfig(
            eta=eta,
            varsigma=1.0,
            max_iters=K,
            seed=seed,
            momentum_mode=MomentumMode.M2,
            mu_max=mu_max,
            beta=beta,
            eval_objective=False,
        )
        out[beta] = audit_rate_regimes(problem, cfg, alphas=(0.5,), sigma=4.0, replicates=R)[0]
    gap = out[0.0].fitted_slope - out[0.25].fitted_slope
    bound_gap = out[0.0].theory_slope - out[0.25].theory_slope
    ok = bound_gap > 0.0 and out[0.0].report.passed and out[0.25].report.passed
    return AuditReport(
        "m2-schedule-gap",
        2 * R * K,
        min(out[0.0].report.worst_violation, out[0.25].report.worst_violation),
        ok,
        f"measured slopes beta0={out[0.0].fitted_slope:.3f} "
        f"beta025={out[0.25].fitted_slope:.3f} gap={gap:.3f} "
        f"(guaranteed exponents beta0={out[0.0].theory_slope:.2f} "
        f"beta025={out[0.25].theory_slope:.2f}, gap={bound_gap:.2f})",
    )


SUITES = {
    "trace": suite_trace,
    "identities": suite_identities,
    "potentials": suite_potentials,
    "bounds": suite_bounds,
    "momentum": suite_momentum,
    "rates": suite_rates,
}


def run_suite(name: str, trials: int, seed: int) -> list[AuditReport]:
    if name == "all":
        reports = []
        for n, fn in SUITES.items():
            reports.extend(fn(trials=trials, seed=seed))
        return reports
    if name not in SUITES:
        raise InvalidConfig(f"unknown audit suite {name!r}; have {sorted(SUITES)} or 'all'")
    return SUITES[name](trials=trials, seed=seed)
