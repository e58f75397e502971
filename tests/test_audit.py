import ast
import math
import os
from dataclasses import replace
from functools import partial
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
from adprec.block_space import VECTOR_ONLY, BlockShape, Geometry, squared
from adprec.bounds import KAPPA_CIRC, m2_eta_limit
from adprec.cli import load_experiment
from adprec.errors import InvalidConfig, NonFiniteIterate
from adprec.geometries import (
    geom_accumulate,
    geom_diagnostics,
    geom_dual_norm,
    geom_init,
    geom_lmap_trace,
    geom_precondition,
    geom_selector,
)
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


# the one-shot audits that stack their trials, by the names they report
STACKED = {
    "sqrt-trace": audit_sqrt_trace,
    "log-increment": audit_log_increment,
    "spectral-log": audit_spectral_log,
    **{f"identity-{g.value}": partial(audit_structural_identities, g) for g in Geometry},
    **{f"subadditivity-{g.value}": partial(audit_subadditivity_constants, g) for g in Geometry},
}


@pytest.mark.parametrize("name", list(STACKED))
def test_stacked_audits_give_the_bits_of_one_trial_per_chunk(monkeypatch, name):
    # item r of a stacked call equals the call on item r alone, so chunks of
    # one trial (groups of one) and the default chunks give every slack
    # array the same bits
    arrays = []
    report = audit._report

    def captured(*args, **slacks):
        arrays.append([np.asarray(s, dtype=float).tobytes() for s in slacks.values()])
        return report(*args, **slacks)

    monkeypatch.setattr(audit, "_report", captured)
    STACKED[name](trials=200, seed=11)
    default = arrays[:]
    arrays.clear()
    monkeypatch.setattr(audit, "DRAW_CHUNK_BYTES", 1)
    STACKED[name](trials=200, seed=11)
    assert default and arrays == default


def identity_slacks_one_trial_at_a_time(geometry, trials, seed):
    """The three slack arrays of audit_structural_identities from a loop
    over single blocks: each trial grows its state by the blocks it draws
    alone, with no zero padding and no stacking."""
    rng = np.random.default_rng(seed)
    r1, r2, rc = [], [], []
    for _ in range(trials):
        n = int(rng.integers(1, 9))
        m = 1 if geometry in VECTOR_ONLY else int(rng.integers(1, 5))
        shape = BlockShape(n, m, geometry)
        state = geom_init(shape, 10.0 ** rng.uniform(-1, 1))
        for _ in range(int(rng.integers(0, 4)) + 1):
            V = 10.0 ** rng.uniform(-1, 1) * rng.standard_normal((n, m))
            tr_l = geom_lmap_trace(shape, V)
            state = geom_accumulate(shape, state, V, tr_l)
        Z = geom_precondition(shape, state, V)
        zn = geom_dual_norm(shape, Z)
        diag = geom_diagnostics(shape, state, V, tr_l)
        lhs1 = zn * np.add.reduce(V * geom_selector(shape, Z, zn), axis=(-2, -1))
        r1.append(audit.TOL_ALGEBRAIC - audit._rel_gap(lhs1, diag.weighted_invsqrt))
        r2.append(audit.TOL_ALGEBRAIC - audit._rel_gap(zn * zn, diag.weighted_inv))
        dual_sq = squared(geom_dual_norm(shape, V))
        rc.append((KAPPA_CIRC**2 * tr_l - dual_sq) / np.maximum(1.0, dual_sq))
    return [np.array(r).tobytes() for r in (r1, r2, rc)]


@pytest.mark.parametrize("seed", [0, 8])
@pytest.mark.parametrize("geometry", list(Geometry))
def test_identity_audits_give_the_bits_of_a_per_trial_loop(monkeypatch, geometry, seed):
    # the audit pads each trial's blocks at the front with zeros and stacks
    # trials of one dims; a state grown by zero blocks first keeps its bits
    arrays = []
    report = audit._report

    def captured(*args, **slacks):
        arrays.append(np.asarray(slacks["slack"], dtype=float).tobytes())
        return report(*args, **slacks)

    monkeypatch.setattr(audit, "_report", captured)
    audit_structural_identities(geometry, trials=60, seed=seed)
    assert arrays == identity_slacks_one_trial_at_a_time(geometry, 60, seed)


# the (low, high) of every scalar uniform draw in audit.py, by the source
# text of its arguments; techn's (r1, r2) at its first c = e, which is also
# the low end of the range it draws c from, at c = 30 and at the high end
TECHN_INTERVALS = [audit._techn_feasible_interval(c) for c in (math.e, 30.0, 1e3)]
UNIFORM_ARGS = {
    "rng, 0, 3": [(0, 3)],
    "rng, -1, 1": [(-1, 1)],
    "rng, 0, 4": [(0, 4)],
    "rng, -2, 2": [(-2, 2)],
    "rng, 0, 2": [(0, 2)],
    "rng, 1.0, math.log(1e3)": [(1.0, math.log(1e3))],
    "rng, r1, r2": TECHN_INTERVALS,
}


# the same for every scalar integer draw
INTEGER_ARGS = {
    "rng, DIM_RANGE[0], DIM_RANGE[1] + 1": [(audit.DIM_RANGE[0], audit.DIM_RANGE[1] + 1)],
    "rng, 1, 9": [(1, 9)],
    "rng, 1, 5": [(1, 5)],
    "rng, 0, IDENTITY_BLOCKS": [(0, audit.IDENTITY_BLOCKS)],
}


@pytest.mark.parametrize("helper, method, pinned", [
    ("_uniform", "uniform", UNIFORM_ARGS), ("_integer", "integers", INTEGER_ARGS)
])
def test_every_scalar_draw_of_the_audits_is_pinned(helper, method, pinned):
    source = Path(audit.__file__).read_text()
    tree = ast.parse(source)
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    args = {
        ", ".join(ast.get_source_segment(source, a) for a in node.args)
        for node in calls if isinstance(node.func, ast.Name) and node.func.id == helper
    }
    assert args == set(pinned)
    # no scalar draw goes round the helper
    assert not [n for n in calls if isinstance(n.func, ast.Attribute) and n.func.attr == method]


@pytest.mark.parametrize("args", list(UNIFORM_ARGS))
def test_the_uniform_helper_draws_what_generator_uniform_draws(args):
    # numpy's own formula: the same bits and the same generator state.  If a
    # numpy upgrade breaks this, the audits go back to rng.uniform
    for low, high in UNIFORM_ARGS[args]:
        a, b = np.random.default_rng(21), np.random.default_rng(21)
        want = [a.uniform(low, high) for _ in range(10_000)]
        got = [audit._uniform(b, low, high) for _ in range(10_000)]
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("args", list(INTEGER_ARGS))
def test_the_integer_helper_draws_what_generator_integers_draws(args):
    # numpy's own algorithm on the bit generator's 32-bit draws, which keep
    # half of a 64-bit draw for the next one: interleaved with the other
    # kinds of draw, the same numbers and the same generator state
    for low, high in INTEGER_ARGS[args]:
        a, b = np.random.default_rng(22), np.random.default_rng(22)
        want, got = [], []
        for i in range(10_000):
            want.append(int(a.integers(low, high)))
            got.append(audit._integer(b, low, high))
            if i % 3 == 0:
                want.append(a.random())
                got.append(b.random())
            if i % 7 == 0:
                want.extend(a.standard_normal(3))
                got.extend(b.standard_normal(3))
        assert got == want
        assert a.bit_generator.state == b.bit_generator.state


DRAWS = {
    "psd-pair": audit._draw_psd_pair,
    "identity-AdaNorm": partial(audit._draw_identity_trial, Geometry.ADANORM),
    "identity-Shampoo": partial(audit._draw_identity_trial, Geometry.SHAMPOO),
    "subadditivity-AdaNorm": partial(audit._draw_subadditivity_trial, Geometry.ADANORM),
    "subadditivity-Muon": partial(audit._draw_subadditivity_trial, Geometry.MUON),
}


@pytest.mark.parametrize("budget", [1, 5000, audit.DRAW_CHUNK_BYTES])
@pytest.mark.parametrize("name", list(DRAWS))
def test_a_chunk_holds_less_than_the_budget_and_one_trial(monkeypatch, name, budget):
    # a chunk's trials are all drawn before its first group is handed out;
    # it ends at the first trial whose draws reach the budget
    drawn = []

    def logged(t, rng):
        key, inputs = DRAWS[name](t, rng)
        drawn.append((t, sum(np.asarray(x).nbytes for x in inputs)))
        return key, inputs

    monkeypatch.setattr(audit, "DRAW_CHUNK_BYTES", budget)
    chunks, handed = [], []
    for numbers, _, inputs in audit._trial_groups(1500, np.random.default_rng(0), logged):
        if drawn:
            chunks.append(drawn[:])
            drawn.clear()
        assert all(len(x) == len(numbers) for x in inputs)
        assert list(numbers) == sorted(numbers)
        handed.extend(numbers)
    assert sorted(handed) == [t for chunk in chunks for t, _ in chunk] == list(range(1500))
    for i, chunk in enumerate(chunks):
        held = [nbytes for _, nbytes in chunk]
        assert sum(held) - held[-1] < budget
        assert sum(held) >= budget or i == len(chunks) - 1
    assert (len(chunks) == 1500) == (budget == 1)


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
    assert len(suites.run_suite("potentials", 0, 0, K=5)) == 12
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
    reports = suites.run_suite("rates", 0, 0, K=10, R=2)
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
