import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from adprec import audit, optimizer, suites
from adprec.audit import (
    AuditReport,
    RateRegimeResult,
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
    fit_loglog_slope,
    path_potential_slacks,
    theory_exponent,
)
from adprec.block_space import BlockShape, Geometry
from adprec.cli import load_experiment
from adprec.bounds import m2_eta_limit
from adprec.errors import InvalidConfig, NonFiniteIterate
from adprec.optimizer import MomentumMode, OptimizerConfig, run_replicates, run_trajectory
from adprec.problems import NoiseKind, NoiseModel, make_problem

DIAG8 = [BlockShape(8, 1, Geometry.DIAG_ADAGRAD)]


def cfg(**kw):
    base = dict(eta=1.0, varsigma=1.0, max_iters=100, seed=0)
    base.update(kw)
    return OptimizerConfig(**base)


# -- trace lemmas ------------------------------------------------------------


def test_sqrt_trace_lemma_audit():
    rep = audit_sqrt_trace(trials=300, seed=1)
    assert rep.passed and rep.worst_violation >= -1e-8


def test_sqrt_trace_equality_witnesses():
    # B = 0 gives equality; A = 0 gives tr(B^-1/2 B) = tr(B^1/2)
    from adprec.psd_linalg import psd_power

    B = np.eye(2)
    assert float(np.trace(psd_power(B, -0.5) @ B)) == pytest.approx(2.0)


def test_log_increment_audit_and_scalar_case():
    rep = audit_log_increment(trials=300, seed=2)
    assert rep.passed
    # d = 1, A = B = 1: 1/2 <= log 2 <= 1
    assert 0.5 <= math.log(2.0) <= 1.0


def test_spectral_log_audit_and_equality():
    rep = audit_spectral_log(trials=300, seed=3)
    assert rep.passed
    # Gamma = c I_1: tr log = log c equals 2 log(sqrt(c))
    for c in (0.2, 1.0, 7.0):
        assert math.log(c) == pytest.approx(2 * math.log(math.sqrt(c)), rel=1e-12)


def test_techn_audit_and_boundary():
    rep = audit_techn(trials=300, seed=4)
    assert rep.passed
    # boundary witness t = c log t at c = e has t = e
    assert math.e <= 2 * math.e * math.log(2 * math.e)


def techn_interval_200_steps(c):
    """The feasible interval of techn with both bisections run all 200 steps."""
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
    return r1, lo


def test_techn_bisection_stops_once_converged():
    # stopping at the first step that moves neither endpoint gives the
    # 200-step interval, bit for bit, at c = e and on the audit's c range
    rng = np.random.default_rng(0)
    cs = [math.e, *np.exp(rng.uniform(1.0, math.log(1e3), size=500)).tolist()]
    for c in cs:
        assert audit._techn_feasible_interval(c) == techn_interval_200_steps(c), c


def test_audits_are_reproducible():
    a = audit_sqrt_trace(trials=100, seed=9)
    b = audit_sqrt_trace(trials=100, seed=9)
    assert a.to_dict() == b.to_dict()


# -- identities and sub-additivity -------------------------------------------


@pytest.mark.parametrize("geometry", list(Geometry))
def test_structural_identity_audits(geometry):
    for rep in audit_structural_identities(geometry, trials=120, seed=5):
        assert rep.passed, rep


@pytest.mark.parametrize("geometry", list(Geometry))
def test_subadditivity_audits(geometry):
    rep = audit_subadditivity_constants(geometry, trials=300, seed=6)
    assert rep.passed
    assert "kappa_box" in rep.context


# -- pathwise potentials ------------------------------------------------------


def test_path_potentials_empty_is_vacuous():
    problem = make_problem("quadratic", DIAG8, seed=0)
    [rep] = audit_path_potentials(problem, {"": NoiseModel()}, cfg(max_iters=0))
    assert rep.passed and rep.trials == 0


def test_path_potentials_hold_for_additive_geometries():
    problem = make_problem("quadratic", DIAG8, seed=0)
    noise = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(0.5,), alpha=1.0)
    res = run_replicates(problem, noise, cfg(max_iters=50), 1)
    sl = path_potential_slacks(res.mean, problem.shapes, 1.0)
    for name, arr in sl.items():
        assert arr.min() >= -1e-6, name


def test_path_potentials_shampoo_sqrt_gap_is_detected():
    # the Kronecker-factored preconditioner is not an additive accumulation of
    # its lmap increments; the sqrt potential genuinely fails on matrix blocks
    # while the log potential and the delta bound still hold
    problem = make_problem("matfact", [BlockShape(3, 2, Geometry.SHAMPOO), BlockShape(2, 2, Geometry.SHAMPOO)], seed=1)
    res = run_replicates(problem, NoiseModel(), cfg(max_iters=50, eta=0.5), 1)
    sl = path_potential_slacks(res.mean, problem.shapes, 1.0)
    assert sl["log_pot"].min() >= -1e-6
    assert sl["delta_bound"].min() >= -1e-6
    assert sl["sqrt_pot"].min() < -1e-3  # structural, far beyond float noise


def test_potentials_suite_runs_each_space_as_one_stack(monkeypatch):
    # the exact and the noisy run of each of the six spaces share one
    # two-row stack
    stacks = []

    def counted(problem, rows, config):
        stacks.append(len(rows))
        return drive(problem, rows, config)

    drive = optimizer._drive
    monkeypatch.setattr(optimizer, "_drive", counted)
    # the count is kept in this process, so the suite must not fan out
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert len(suites.suite_potentials(K=5)) == 12
    assert stacks == [2] * 6


# -- trajectory bound audits ---------------------------------------------------


def test_master_theta_deterministic_quadratic():
    problem = make_problem("quadratic", DIAG8, seed=0)
    rep = audit_bounds("master-theta", problem, cfg(max_iters=300))
    assert rep.passed, rep


def test_master_theta_deterministic_trigquad():
    problem = make_problem("trigquad", DIAG8, seed=1)
    rep = audit_bounds("master-theta", problem, cfg(max_iters=300))
    assert rep.passed, rep


def test_master_theta_statistical():
    problem = make_problem("quadratic", DIAG8, seed=0)
    noise = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(0.5,), alpha=2.0)
    rep = audit_bounds("master-theta", problem, cfg(max_iters=150), noise, replicates=32)
    assert rep.passed, rep


def test_master_theta_statistical_with_multiplicative_noise():
    # omega enters both the oracle and the bound constants
    problem = make_problem("quadratic", DIAG8, seed=0)
    noise = NoiseModel(
        kind=NoiseKind.ADDITIVE_PLUS_MULTIPLICATIVE, sigma=(0.3,), alpha=2.0, omega=0.2
    )
    rep = audit_bounds("master-theta", problem, cfg(max_iters=150), noise, replicates=32)
    assert rep.passed, rep


NOISY = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(0.5,))
# every trajectory audit on a 10-iteration run, as (label its report starts
# its context with, audit); master-theta under both oracles (ids "exact" and
# "noisy")
TRAJECTORY_AUDITS = {
    "exact": ("lbl", lambda p: audit_bounds("master-theta", p, cfg(max_iters=10), context="lbl")),
    "noisy": ("lbl", lambda p: audit_bounds(
        "master-theta", p, cfg(max_iters=10), NOISY, replicates=4, context="lbl"
    )),
    "momentum-m1": ("lbl", lambda p: audit_bounds(
        "momentum-m1",
        p,
        cfg(max_iters=10, momentum_mode=MomentumMode.M1, mu_max=0.5),
        context="lbl",
    )),
    "m2-deterministic": ("lbl", lambda p: audit_bounds(
        "m2-deterministic",
        p,
        cfg(max_iters=10, eta=0.25, momentum_mode=MomentumMode.M2, mu_max=0.5),
        context="lbl",
    )),
    "path-potentials": ("lbl", lambda p: audit_path_potentials(
        p, {"lbl": NoiseModel()}, cfg(max_iters=10)
    )[0]),
    "rate-regime": ("mode=None beta=0.0", lambda p: audit_rate_regimes(
        p, cfg(max_iters=10), alphas=(1.0,), sigma=0.5, replicates=2
    )[0].report),
    "m1-degenerate": ("seed=0 K=10", lambda p: audit_m1_degenerate(p, K=10)),
}


@pytest.mark.parametrize("which", TRAJECTORY_AUDITS)
def test_master_theta_nonfinite_is_fail_report(monkeypatch, which):
    # every trajectory audit reports a non-finite iterate as the same FAIL over
    # all K trials, never as an exception; the context keeps the failing seed
    message = "replicate 0 (seed 0): non-finite at iteration 3: iterate"

    def blow_up(*args, **kwargs):
        return optimizer._Run(None, None, None, (0, 3, "non-finite at iteration 3: iterate"))

    # the one trajectory driver, behind run_replicates and run_rows alike
    monkeypatch.setattr(optimizer, "_drive", blow_up)
    label, run_audit = TRAJECTORY_AUDITS[which]
    rep = run_audit(make_problem("quadratic", DIAG8, seed=0))
    assert (rep.trials, rep.worst_violation, rep.passed) == (10, -math.inf, False)
    assert rep.context == f"{label} {message}"


def test_rate_suite_reports_a_nonfinite_run(monkeypatch):
    # a blow-up in the rates suite fails its reports instead of aborting the
    # whole audit run
    def blow_up(*args, **kwargs):
        raise NonFiniteIterate("replicate 0 (seed 0): non-finite at iteration 3: iterate")

    monkeypatch.setattr(audit, "run_replicates", blow_up)
    reports = suites.suite_rates(K=10, R=2)
    assert [r.check_name for r in reports] == [
        "rate-regime-alpha=0.5", "rate-regime-alpha=1.0", "rate-regime-alpha=2.0", "m2-schedule-gap"
    ]
    assert all(not r.passed and r.worst_violation == -math.inf for r in reports)


def test_master_theta_nan_bounds_fail():
    # at eta = 1e-306 the gap term 3 kappa_gap / eta overflows: Theta is inf and
    # the theta and rate slacks are NaN, which must fail, not read as 0
    label, problem, config = suites.bound_configurations(K=50)[0]
    with np.errstate(invalid="ignore"):
        rep = audit_bounds("master-theta", problem, replace(config, eta=1e-306), context=label)
    assert not rep.passed and math.isnan(rep.worst_violation), rep
    assert "theta=nan rate=nan" in rep.context


def test_trajectory_audits_at_zero_iterations():
    # K = 0 is a vacuous pass with zero trials for every trajectory audit
    problem = make_problem("quadratic", DIAG8, seed=0)
    m1 = cfg(max_iters=0, momentum_mode=MomentumMode.M1, mu_max=0.5)
    m2 = cfg(max_iters=0, eta=0.25, momentum_mode=MomentumMode.M2, mu_max=0.5)
    reports = [
        *audit_path_potentials(problem, {"": NoiseModel()}, cfg(max_iters=0)),
        audit_bounds("master-theta", problem, cfg(max_iters=0)),
        audit_bounds("momentum-m1", problem, m1),
        audit_bounds("m2-deterministic", problem, m2),
        audit_m1_degenerate(problem, K=0),
    ]
    for rep in reports:
        assert rep.passed and rep.trials == 0 and rep.worst_violation == 0.0, rep


def test_report_names_each_array_worst_only_when_several():
    one = audit._report("x", 3, 1e-6, "ctx", slack=np.array([0.5, -1e-7]))
    assert (one.worst_violation, one.passed, one.context) == (-1e-7, True, "ctx")
    two = audit._report("x", 3, 1e-6, "ctx", a=np.array([0.1]), b=np.array([-0.25, 1.0]))
    assert (two.worst_violation, two.passed) == (-0.25, False)
    assert two.context == "ctx a=0.000e+00 b=-2.500e-01"
    assert audit._report("x", 0, 0.0, slack=np.empty(0)).passed
    # equal values compared at tolerance 0 give slacks of -0.0; the worst is +0.0
    zero = audit._report("x", 2, 0.0, slack=-np.abs(np.zeros(2)))
    assert zero.passed and math.copysign(1.0, zero.worst_violation) == 1.0


def test_report_nan_slack_fails():
    rep = audit._report("x", 3, 1e-6, slack=[1.0, math.nan, 2.0])
    assert not rep.passed and math.isnan(rep.worst_violation)
    two = audit._report("x", 3, 1e-6, a=[1.0], b=[math.nan])
    assert not two.passed and two.context == "a=0.000e+00 b=nan"


def test_identity_audits_are_deterministic():
    a = audit_structural_identities(Geometry.SHAMPOO, trials=50, seed=31)
    b = audit_structural_identities(Geometry.SHAMPOO, trials=50, seed=31)
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]
    sa = audit_subadditivity_constants(Geometry.MUON, trials=50, seed=32)
    sb = audit_subadditivity_constants(Geometry.MUON, trials=50, seed=32)
    assert sa.to_dict() == sb.to_dict()


def test_momentum_error_audit():
    problem = make_problem("quadratic", DIAG8, seed=0)
    c = cfg(max_iters=150, momentum_mode=MomentumMode.M1, mu_max=0.5)
    rep = audit_bounds("momentum-m1", problem, c)
    assert rep.passed, rep


def test_momentum_error_single_step_is_zero():
    problem = make_problem("quadratic", DIAG8, seed=0)
    c = cfg(max_iters=1, momentum_mode=MomentumMode.M1, mu_max=0.9)
    traj = run_trajectory(problem, NoiseModel(), c)
    assert traj.records[0].mom_err_sq == 0.0  # M_0 = Gt_0


def test_m2_deterministic_audit():
    problem = make_problem("quadratic", DIAG8, seed=0)
    c = cfg(max_iters=200, eta=0.25, momentum_mode=MomentumMode.M2, mu_max=0.5)
    rep = audit_bounds("m2-deterministic", problem, c)
    assert rep.passed, rep


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("case", ["quadratic_m1", "quadratic_m2"])
def test_momentum_bounds_hold_under_a_noisy_oracle(case):
    # the Theta envelope and the rate bound of both momentum modes, on the
    # noisy runs of the momentum goldens; M1's error bound is pathwise, so an
    # exact oracle only
    exp = load_experiment(GOLDEN / case / "config.json")
    rep = audit_bounds(case, exp.problem, exp.config, exp.noise, replicates=4)
    assert rep.passed, rep
    assert "[statistical R=4]" in rep.context
    assert "theta=" in rep.context and "rate=" in rep.context and "errE=" not in rep.context


def test_m2_deterministic_above_the_stepsize_limit_fails():
    # eta = 5 is far above the hypothesis limit: a FAIL report over all K
    # trials that names the unmet hypothesis, not an InvalidConfig
    problem = make_problem("quadratic", DIAG8, seed=0)
    c = cfg(max_iters=40, eta=5.0, momentum_mode=MomentumMode.M2, mu_max=0.5)
    limit = m2_eta_limit(0.5, problem.lipschitz, 1.0)
    rep = audit_bounds("m2-deterministic", problem, c, context="lbl")
    assert (rep.passed, rep.trials, rep.worst_violation) == (False, 40, -math.inf)
    assert rep.context == f"lbl eta=5.0 exceeds the stepsize hypothesis limit {limit:.4g}"


def test_m1_under_multiplicative_noise_fails():
    # the first momentum variant's bound has no multiplicative-noise form
    problem = make_problem("quadratic", DIAG8, seed=0)
    c = cfg(max_iters=20, momentum_mode=MomentumMode.M1, mu_max=0.5)
    noise = NoiseModel(
        kind=NoiseKind.ADDITIVE_PLUS_MULTIPLICATIVE, sigma=(0.3,), alpha=2.0, omega=0.2
    )
    rep = audit_bounds("momentum-m1", problem, c, noise, replicates=4, context="lbl")
    assert (rep.passed, rep.trials, rep.worst_violation) == (False, 20, -math.inf)
    assert rep.context.startswith("lbl the first momentum variant's bound has no form")


# -- rate regimes ---------------------------------------------------------------


def test_fit_loglog_slope_recovers_power_law():
    k = np.arange(1000, dtype=float)
    curve = 3.0 * (k + 1.0) ** -0.7
    assert fit_loglog_slope(curve, 100, 1000) == pytest.approx(-0.7, abs=1e-6)


def test_theory_exponents():
    assert theory_exponent(MomentumMode.NONE, 0.5, 0.0) == pytest.approx(-0.25)
    assert theory_exponent(MomentumMode.NONE, 1.0, 0.0) == pytest.approx(-0.5)
    assert theory_exponent(MomentumMode.NONE, 2.0, 0.0) == pytest.approx(-0.5)
    assert theory_exponent(MomentumMode.M2, 0.5, 0.25) == pytest.approx(-0.5)
    assert theory_exponent(MomentumMode.M2, 0.5, 0.0) == pytest.approx(0.0)
    assert theory_exponent(MomentumMode.M1, 0.5, 0.0) == pytest.approx(-0.25)


def test_theory_exponent_zero_is_positive_zero():
    # a -0.0 exponent prints as "-0.00" in reports and "-0" in sweep.csv
    assert math.copysign(1.0, theory_exponent(MomentumMode.M2, 0.5, 0.0)) == 1.0


def test_rate_regime_smoke():
    problem = make_problem("quadratic", DIAG8, seed=0)
    c = cfg(max_iters=600, eval_objective=False)
    results = audit_rate_regimes(problem, c, alphas=(2.0,), sigma=0.5, replicates=4)
    r = results[0]
    assert r.bound_dominates
    assert r.fitted_slope <= r.theory_slope + 0.15
    assert r.report.passed and r.report.trials == 4 * 600


def test_running_argmin_matches_loop():
    # the loop is the reference: first index of the running minimum, ties kept
    rng = np.random.default_rng(0)
    for x in (rng.integers(0, 4, 50).astype(float), rng.standard_normal(40), np.ones(3)):
        best, best_j, expect = math.inf, 0, []
        for k, v in enumerate(x):
            if v < best:
                best, best_j = v, k
            expect.append(best_j)
        np.testing.assert_array_equal(audit._running_argmin(x), expect)


def test_rate_regime_nan_bound_makes_the_worst_nan():
    # at eta = 1e-306 Theta overflows and the dominance slacks are NaN; the
    # worst must say so instead of reporting the slope's finite -0.35
    problem = make_problem("quadratic", DIAG8, seed=0)
    with np.errstate(invalid="ignore", over="ignore"):
        (r,) = audit_rate_regimes(
            problem, cfg(max_iters=30, eta=1e-306), alphas=(1.0,), sigma=0.5, replicates=2
        )
    assert r.theory_slope + audit.SLOPE_TOL - r.fitted_slope == pytest.approx(-0.35)
    assert not r.report.passed and math.isnan(r.report.worst_violation), r.report


def test_rate_regimes_without_an_envelope_run_nothing(monkeypatch):
    # the shipped matfact config has no Lipschitz bound, so no envelope: the
    # sweep is a config error before its first replicate runs
    exp = load_experiment(Path(__file__).resolve().parents[1] / "configs" / "matfact_shampoo.json")

    def no_run(*args):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(audit, "run_replicates", no_run)
    with pytest.raises(InvalidConfig, match="has no Lipschitz bound"):
        audit_rate_regimes(exp.problem, exp.config, alphas=(1.0,), sigma=0.5, replicates=2)


@pytest.mark.parametrize("K", [0, 1, 2])
def test_rate_regimes_need_three_iterations(K):
    # the slope fit needs at least two points in its window [max(K // 10, 1), K)
    problem = make_problem("quadratic", DIAG8, seed=0)
    with pytest.raises(InvalidConfig):
        audit_rate_regimes(problem, cfg(max_iters=K), alphas=(1.0,), sigma=0.5, replicates=2)


@pytest.mark.parametrize(
    "failing_beta, bad_worst",
    [(None, -0.3), (0.0, -0.3), (0.25, -0.3), (0.25, math.nan)],
    ids=["None", "0.0", "0.25", "0.25-nan"],
)
def test_m2_schedule_gap_verdict_follows_subreports(monkeypatch, failing_beta, bad_worst):
    # the verdict gates the guarantees, not the measured slope gap: matching
    # measured slopes pass, and a failing sub-report fails the whole report,
    # with its worst, a NaN one included
    def fake_rate_regimes(problem, config, alphas, sigma, replicates):
        alpha, beta = alphas[0], config.beta
        passed = beta != failing_beta
        worst = 0.0 if passed else bad_worst
        rep = AuditReport(f"rate-regime-alpha={alpha}", replicates, worst, passed)
        th = theory_exponent(config.momentum_mode, alpha, beta)
        return [RateRegimeResult(alpha, -1.06, th, True, rep)]

    monkeypatch.setattr(suites, "audit_rate_regimes", fake_rate_regimes)
    rep = suites.m2_schedule_gap_report(make_problem("quadratic", DIAG8, seed=800), K=10, R=2)
    assert rep.passed is (failing_beta is None)
    want = 0.0 if failing_beta is None else bad_worst
    assert rep.worst_violation == want or math.isnan(want) and math.isnan(rep.worst_violation)
    assert "beta0=-1.060 beta025=-1.060 gap=0.000" in rep.context


def test_report_serialization():
    rep = AuditReport("x", 5, -0.25, False, "ctx")
    d = rep.to_dict()
    assert d == {
        "check_name": "x",
        "pass": False,
        "trials": 5,
        "worst_violation": -0.25,
        "context": "ctx",
    }
