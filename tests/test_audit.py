import math

import numpy as np
import pytest

from adprec import audit, suites
from adprec.audit import (
    AuditReport,
    BoundConstants,
    RateRegimeResult,
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
    bound_constants,
    compute_theta,
    compute_theta_m2,
    envelope_curve,
    fit_loglog_slope,
    kappa_0,
    m1_noise_constants,
    m2_constants,
    m2_theta_noise_curve,
    path_potential_slacks,
    theory_exponent,
)
from adprec.block_space import BlockShape, Geometry
from adprec.errors import InvalidConfig, NonFiniteIterate
from adprec.optimizer import MomentumMode, OptimizerConfig, run_trajectory
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
    rep = audit_path_potentials([], DIAG8, 1.0)
    assert rep.passed and rep.trials == 0


def test_path_potentials_hold_for_additive_geometries():
    problem = make_problem("quadratic", DIAG8, seed=0)
    noise = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(0.5,), alpha=1.0)
    traj = run_trajectory(problem, noise, cfg(max_iters=50))
    sl = path_potential_slacks(traj.records, problem.shapes, 1.0)
    for name, arr in sl.items():
        assert arr.min() >= -1e-6, name


def test_path_potentials_shampoo_sqrt_gap_is_detected():
    # the Kronecker-factored preconditioner is not an additive accumulation of
    # its lmap increments; the sqrt potential genuinely fails on matrix blocks
    # while the log potential and the delta bound still hold
    problem = make_problem("matfact", [BlockShape(3, 2, Geometry.SHAMPOO), BlockShape(2, 2, Geometry.SHAMPOO)], seed=1)
    traj = run_trajectory(problem, NoiseModel(), cfg(max_iters=50, eta=0.5))
    sl = path_potential_slacks(traj.records, problem.shapes, 1.0)
    assert sl["log_pot"].min() >= -1e-6
    assert sl["delta_bound"].min() >= -1e-6
    assert sl["sqrt_pot"].min() < -1e-3  # structural, far beyond float noise


# -- bound constants and Theta ------------------------------------------------


def test_kappa_0_formula():
    shapes = [BlockShape(2, 1, Geometry.ADANORM), BlockShape(3, 1, Geometry.DIAG_ADAGRAD)]
    expect = -(2 * math.log(2) + 3 * math.log(3)) - 5 * math.log(0.5)
    assert kappa_0(shapes, 0.5) == pytest.approx(expect, rel=1e-12)


def test_compute_theta_hand_example():
    # one 2-d block, unit constants, gap 1: the envelope is the last term
    constants = BoundConstants(
        shapes=(BlockShape(2, 1, Geometry.ADANORM),),
        eta=1.0,
        varsigma=1.0,
        L_G=1.0,
        f0=1.0,
        f_low=0.0,
    )
    assert constants.kappa_gap == pytest.approx(3.0)
    assert constants.kappa_0 == pytest.approx(-2 * math.log(2))
    theta = compute_theta(constants, 0.0)
    assert theta == pytest.approx(48 * math.log(48), rel=1e-12)
    # term breakdown: e^1 and 3*kappa_gap both lose to the last term
    assert math.exp(1.0) < 9.0 < theta


def test_compute_theta_monotone_in_nu():
    constants = BoundConstants(
        shapes=(BlockShape(4, 1, Geometry.ADANORM),),
        eta=1.0,
        varsigma=1.0,
        L_G=1.0,
        f0=2.0,
        f_low=0.0,
    )
    vals = [compute_theta(constants, nu) for nu in (0.0, 0.5, 1.0, 5.0, 50.0)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_bound_constants_requires_lipschitz():
    problem = make_problem(
        "matfact", [BlockShape(3, 2, Geometry.SHAMPOO), BlockShape(2, 2, Geometry.SHAMPOO)]
    )
    with pytest.raises(InvalidConfig):
        bound_constants(problem, cfg())


def test_m1_noise_constants():
    constants = BoundConstants(
        shapes=tuple(DIAG8), eta=0.5, varsigma=1.0, L_G=2.0, f0=1.0, f_low=0.0
    )
    mult, omega = m1_noise_constants(constants, 0.5)
    assert mult == pytest.approx(math.sqrt(6 * 0.25 / 0.25 + 2))
    assert omega == pytest.approx(math.sqrt(3) * 0.5 * 2.0 * 0.5 / 0.5)


def test_m2_constants_hand_values():
    constants = BoundConstants(
        shapes=tuple(DIAG8), eta=0.25, varsigma=1.0, L_G=1.0, f0=1.0, f_low=0.0
    )
    m2 = m2_constants(constants, 0.5)
    assert m2.small_eta_ok  # 0.25 <= (0.5/0.5) * sqrt(1/12) = 0.2887
    assert m2.kappa_2z == 0.0
    assert m2.kappa_1nu == pytest.approx(6 / 0.25 + 12 / 0.25)
    assert m2.kappa_1z == pytest.approx(0.1875 + 0.375 + 2.0)
    assert m2.kappa_2nu == pytest.approx(6 * 2.0 / 0.25)
    assert m2.kappa_nudelta == pytest.approx(math.sqrt(2))
    assert m2.kappa_delta == pytest.approx(2 * m2.kappa_1z + 0.25)
    th = compute_theta_m2(constants, m2, 0.0)
    assert th > 0

    # violating the stepsize hypothesis without a cap is a config error
    big_eta = BoundConstants(
        shapes=tuple(DIAG8), eta=5.0, varsigma=1.0, L_G=1.0, f0=1.0, f_low=0.0
    )
    with pytest.raises(InvalidConfig):
        m2_constants(big_eta, 0.5)
    capped = m2_constants(big_eta, 0.5, kappa_mu_z=10.0)
    assert not capped.small_eta_ok and capped.kappa_2z > 0


# -- trajectory bound audits ---------------------------------------------------


def test_master_theta_deterministic_quadratic():
    problem = make_problem("quadratic", DIAG8, seed=0)
    rep = audit_master_and_theta(problem, cfg(max_iters=300))
    assert rep.passed, rep


def test_master_theta_deterministic_trigquad():
    problem = make_problem("trigquad", DIAG8, seed=1)
    rep = audit_master_and_theta(problem, cfg(max_iters=300))
    assert rep.passed, rep


def test_master_theta_statistical():
    problem = make_problem("quadratic", DIAG8, seed=0)
    noise = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(0.5,), alpha=2.0)
    rep = audit_master_and_theta(problem, cfg(max_iters=150), noise=noise, replicates=32)
    assert rep.passed, rep


def test_master_theta_statistical_with_multiplicative_noise():
    # omega enters both the oracle and the bound constants
    problem = make_problem("quadratic", DIAG8, seed=0)
    noise = NoiseModel(
        kind=NoiseKind.ADDITIVE_PLUS_MULTIPLICATIVE, sigma=(0.3,), alpha=2.0, omega=0.2
    )
    rep = audit_master_and_theta(problem, cfg(max_iters=150), noise=noise, replicates=32)
    assert rep.passed, rep


@pytest.mark.parametrize(
    "noise",
    [NoiseModel(), NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(0.5,))],
    ids=["exact", "noisy"],
)
def test_master_theta_nonfinite_is_fail_report(monkeypatch, noise):
    # both oracles report a non-finite iterate as a FAIL, never as an exception
    def blow_up(*args, **kwargs):
        raise NonFiniteIterate("replicate 0: iterate became non-finite at iteration 3")

    monkeypatch.setattr(audit, "run_replicates", blow_up)
    problem = make_problem("quadratic", DIAG8, seed=0)
    rep = audit_master_and_theta(problem, cfg(max_iters=10), noise=noise, replicates=4)
    assert not rep.passed
    assert rep.worst_violation == -math.inf
    assert "non-finite at iteration 3" in rep.context


def test_trajectory_audits_at_zero_iterations():
    # K = 0 is a vacuous pass with zero trials for every trajectory audit
    problem = make_problem("quadratic", DIAG8, seed=0)
    m1 = cfg(max_iters=0, momentum_mode=MomentumMode.M1, mu_max=0.5)
    m2 = cfg(max_iters=0, eta=0.25, momentum_mode=MomentumMode.M2, mu_max=0.5)
    traj = run_trajectory(problem, NoiseModel(), cfg(max_iters=0))
    reports = [
        audit_path_potentials(traj.records, problem.shapes, 1.0),
        audit_master_and_theta(problem, cfg(max_iters=0)),
        audit_momentum_error(problem, m1),
        audit_m2_deterministic(problem, m2),
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
    rep = audit_momentum_error(problem, c)
    assert rep.passed, rep
    with pytest.raises(InvalidConfig):
        audit_momentum_error(problem, cfg())


def test_momentum_error_single_step_is_zero():
    problem = make_problem("quadratic", DIAG8, seed=0)
    c = cfg(max_iters=1, momentum_mode=MomentumMode.M1, mu_max=0.9)
    traj = run_trajectory(problem, NoiseModel(), c)
    assert traj.records[0].mom_err_sq == 0.0  # M_0 = Gt_0


def test_m2_deterministic_audit():
    problem = make_problem("quadratic", DIAG8, seed=0)
    c = cfg(max_iters=200, eta=0.25, momentum_mode=MomentumMode.M2, mu_max=0.5)
    rep = audit_m2_deterministic(problem, c)
    assert rep.passed, rep


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
    assert r.report.passed
    assert len(r.min_curve) == 600 and len(r.bound_curve) == 600


@pytest.mark.parametrize("K", [0, 1, 2])
def test_rate_regimes_need_three_iterations(K):
    # the slope fit needs at least two points in its window [max(K // 10, 1), K)
    problem = make_problem("quadratic", DIAG8, seed=0)
    with pytest.raises(InvalidConfig):
        audit_rate_regimes(problem, cfg(max_iters=K), alphas=(1.0,), sigma=0.5, replicates=2)


def test_m2_envelope_rejects_mini_batch_oracle():
    # the momentum-weighted noise curve has no closed form for a mini-batch
    # oracle, exactly as nu_k has none
    problem = make_problem("logistic", DIAG8, seed=0)
    noise = NoiseModel(kind=NoiseKind.MINI_BATCH, batch=4)
    c = cfg(max_iters=20, eta=0.25, momentum_mode=MomentumMode.M2, mu_max=0.5)
    with pytest.raises(InvalidConfig):
        m2_theta_noise_curve(noise, c, len(DIAG8))
    with pytest.raises(InvalidConfig):
        envelope_curve(problem, noise, c)


def test_m2_envelope_counts_multiplicative_noise():
    # the last term of the M2 envelope carries omega^2, so a multiplicative
    # oracle must lift the published envelope above the additive-only one
    problem = make_problem("quadratic", DIAG8, seed=7)
    c = cfg(max_iters=5, eta=0.25, momentum_mode=MomentumMode.M2, mu_max=0.5)

    def last(omega):
        noise = NoiseModel(kind=NoiseKind.ADDITIVE_PLUS_MULTIPLICATIVE, sigma=(1.0,), omega=omega)
        return envelope_curve(problem, noise, c)[-1]

    assert last(5.0) > last(0.0)


@pytest.mark.parametrize("failing_beta", [None, 0.0, 0.25])
def test_m2_schedule_gap_verdict_follows_subreports(monkeypatch, failing_beta):
    # the verdict gates the guarantees, not the measured slope gap: matching
    # measured slopes pass, and a failing sub-report fails the whole report
    def fake_rate_regimes(problem, config, alphas, sigma, replicates):
        alpha, beta = alphas[0], config.beta
        passed = beta != failing_beta
        rep = AuditReport(f"rate-regime-alpha={alpha}", replicates, 0.0 if passed else -0.3, passed)
        th = theory_exponent(config.momentum_mode, alpha, beta)
        return [RateRegimeResult(alpha, beta, config.momentum_mode, -1.06, th,
                                 passed, True, np.ones(1), np.ones(1), rep)]

    monkeypatch.setattr(suites, "audit_rate_regimes", fake_rate_regimes)
    rep = suites.m2_schedule_gap_report(make_problem("quadratic", DIAG8, seed=800), K=10, R=2)
    assert rep.passed is (failing_beta is None)
    assert rep.worst_violation == (0.0 if failing_beta is None else -0.3)
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
