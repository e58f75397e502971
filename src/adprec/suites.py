"""Named audit suites: the standard configurations behind `adprec audit`.

A suite is named once, in ``SUITES``, by its task builder, and run one way,
by ``run_suite``, which returns its list of AuditReports.  Suites are
deterministic given (trials, seed); the trajectory-based suites ignore
`trials` and use their fixed iteration budgets.

A builder lists a suite's independent audits, each seeded on its own, as
zero-argument tasks, each paired with its estimated cost (``_cost``), from
sizes alone.  ``run_suite`` runs them through ``_second_cpu.run_tasks``,
which claims the costliest first when it fans out; ``run_suite("all")``
runs the tasks of all six suites in one call.
"""

from __future__ import annotations

from functools import partial
from inspect import signature

import numpy as np

from ._second_cpu import run_tasks
from .audit import (
    AuditReport,
    audit_bounds,
    audit_log_increment,
    audit_m1_degenerate,
    audit_path_potentials,
    audit_rate_regimes,
    audit_spectral_log,
    audit_sqrt_trace,
    audit_structural_identities,
    audit_subadditivity_constants,
    audit_techn,
)
from .block_space import VECTOR_ONLY, BlockShape, Geometry
from .bounds import m2_eta_limit
from .errors import InvalidConfig
from .geometries import FACTORIZATIONS
from .optimizer import MomentumMode, OptimizerConfig
from .problems import NoiseKind, NoiseModel, make_problem


def _cost(units, geometries=()) -> int:
    """A task's estimated cost: its units (trials, or K x runs) times 1 + the
    factorizations a block-step makes, summed over its blocks' geometries;
    from sizes, not timings, so that every call claims its tasks alike."""
    return units * (1 + sum(FACTORIZATIONS.get(g, 0) for g in geometries))


def _trace_tasks(trials=1000, seed=0):
    return [
        (_cost(trials), partial(audit_sqrt_trace, trials, seed=seed)),
        (_cost(trials), partial(audit_log_increment, trials, seed=seed + 1)),
        (_cost(trials), partial(audit_spectral_log, trials, seed=seed + 2)),
        (_cost(trials), partial(audit_techn, trials, seed=seed + 3)),
    ]


def _identities_tasks(trials=500, seed=0):
    tasks = []
    for i, g in enumerate(Geometry):
        # trials are stacked by shape, and a matrix geometry's random block
        # takes 4 times the shapes of a vector one (1 to 4 columns, not 1)
        shapes, n = (1 if g in VECTOR_ONLY else 4), max(trials, 1000)
        tasks.append((_cost(shapes * trials, [g]),
                      partial(audit_structural_identities, g, trials, seed=seed + i)))
        tasks.append((_cost(shapes * n, [g]),
                      partial(audit_subadditivity_constants, g, n, seed=seed + 10 + i)))
    return tasks


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


def _potential_pair(problem, exact, exact_noise, noisy, noisy_noise, cfg):
    """[exact report, noisy report] of one space's two runs, which share its
    problem and config: one two-row stack, with the noisy run in row 0 so
    that it keeps the seed."""
    rows = {noisy: noisy_noise, exact: exact_noise}
    noisy_report, exact_report = audit_path_potentials(problem, rows, cfg)
    return [exact_report, noisy_report]


def _potentials_tasks(trials=0, seed=0, K=500):
    runs = potential_configurations(K=K, seed=seed)
    return [
        (_cost(2 * K, [s.geometry for s in problem.shapes]),
         partial(_potential_pair, problem, exact, exact_noise, noisy, noisy_noise, cfg))
        for (exact, problem, exact_noise, cfg), (noisy, _, noisy_noise, _) in zip(runs[::2], runs[1::2])
    ]


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


def _bounds_tasks(trials=0, seed=0, K=2000):
    tasks = [
        (_cost(K, [s.geometry for s in problem.shapes]),
         partial(audit_bounds, f"master-theta[{label}]", problem, cfg, context=label))
        for label, problem, cfg in bound_configurations(K=K, seed=seed)
    ]
    # statistical variant: replicate means with the analytic noise budget
    problem = make_problem("quadratic", [BlockShape(8, 1, Geometry.DIAG_ADAGRAD)], seed=seed)
    cfg = OptimizerConfig(eta=1.0, varsigma=1.0, max_iters=400, seed=seed)
    noise = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(0.5,), alpha=2.0)
    name = "master-theta[quadratic/statistical]"
    tasks.append((_cost(32 * 400, [s.geometry for s in problem.shapes]),
                  partial(audit_bounds, name, problem, cfg, noise, replicates=32, context="statistical")))
    return tasks


def _momentum_tasks(trials=0, seed=0, K=2000):
    problem = make_problem("quadratic", [BlockShape(8, 1, Geometry.DIAG_ADAGRAD)], seed=seed)
    geometries = [s.geometry for s in problem.shapes]
    tasks = []
    for mu in (0.5, 0.9):
        cfg = OptimizerConfig(
            eta=1.0,
            varsigma=1.0,
            max_iters=K,
            seed=seed,
            momentum_mode=MomentumMode.M1,
            mu_max=mu,
        )
        tasks.append((_cost(K, geometries),
                      partial(audit_bounds, f"momentum-m1[mu={mu}]", problem, cfg, context=f"mu_max={mu}")))
    tasks.append((_cost(2 * min(K, 300), geometries),
                  partial(audit_m1_degenerate, problem, K=min(K, 300), seed=seed)))
    cfg2 = OptimizerConfig(
        eta=0.25,
        varsigma=1.0,
        max_iters=K // 2,
        seed=seed,
        momentum_mode=MomentumMode.M2,
        mu_max=0.5,
    )
    tasks.append((_cost(K // 2, geometries),
                  partial(audit_bounds, "m2-deterministic", problem, cfg2, context="mu_max=0.5")))
    return tasks


def _rate_reports(problem, cfg, R):
    """The rate-regime reports of the three noise exponents alpha."""
    results = audit_rate_regimes(problem, cfg, alphas=(0.5, 1.0, 2.0), sigma=1.0, replicates=R)
    return [r.report for r in results]


def _rates_tasks(trials=0, seed=0, K=5000, R=16):
    problem = make_problem("quadratic", [BlockShape(8, 1, Geometry.DIAG_ADAGRAD)], seed=seed)
    cfg = OptimizerConfig(eta=1.0, varsigma=1.0, max_iters=K, seed=seed, eval_objective=False)
    geometries = [s.geometry for s in problem.shapes]
    return [
        (_cost(3 * R * K, geometries), partial(_rate_reports, problem, cfg, R)),
        (_cost(2 * R * K, geometries), partial(m2_schedule_gap_report, problem, K=K, R=R, seed=seed)),
    ]


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
    eta = 0.9 * m2_eta_limit(mu_max, problem.lipschitz, 1.0)
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
        # np.min, not min: a NaN worst of either sub-report stays NaN
        float(np.min([out[0.0].report.worst_violation, out[0.25].report.worst_violation])),
        ok,
        f"measured slopes beta0={out[0.0].fitted_slope:.3f} "
        f"beta025={out[0.25].fitted_slope:.3f} gap={gap:.3f} "
        f"(guaranteed exponents beta0={out[0.0].theory_slope:.2f} "
        f"beta025={out[0.25].theory_slope:.2f}, gap={bound_gap:.2f})",
    )


# every suite's task builder, in report order: each returns its audits as
# (cost, task) pairs, and a task returns one report or a list of them
SUITES = {
    "trace": _trace_tasks,
    "identities": _identities_tasks,
    "potentials": _potentials_tasks,
    "bounds": _bounds_tasks,
    "momentum": _momentum_tasks,
    "rates": _rates_tasks,
}


def run_suite(name: str, trials: int, seed: int, **sizes) -> list[AuditReport]:
    """The reports of suite name, or of every suite in order for "all": the
    tasks of its builders run in one ``run_tasks`` call, claimed costliest
    first.  sizes are other keyword sizes of the builders (K, R); each
    builder gets those it takes, and a size that none of them takes is a
    config error."""
    if trials < 0:
        raise InvalidConfig(f"trials must be nonnegative, got {trials}")
    if seed < 0:
        raise InvalidConfig(f"seed must be nonnegative, got {seed}")
    if name != "all" and name not in SUITES:
        raise InvalidConfig(f"unknown audit suite {name!r}; have {sorted(SUITES)} or 'all'")
    builders = SUITES.values() if name == "all" else [SUITES[name]]
    takes = [signature(build).parameters for build in builders]
    unknown = sorted(set(sizes).difference(*takes))
    if unknown:
        raise InvalidConfig(f"audit suite {name!r} takes no size {', '.join(unknown)}")
    pairs = []
    for build, params in zip(builders, takes):
        pairs += build(trials=trials, seed=seed, **{k: v for k, v in sizes.items() if k in params})
    costs, tasks = zip(*pairs)
    reports = []
    for result in run_tasks(tasks, costs):
        reports.extend(result if isinstance(result, list) else [result])
    return reports
