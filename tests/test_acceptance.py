"""Acceptance gate: each numbered criterion runs at its stated tolerance and
prints one pass/fail line (run with `pytest -s` or `-rA` to see them all).

Criterion 4 checks the three pathwise potentials by geometry.  On spaces
without a Kronecker-factored (Shampoo) block all three hold.  On spaces with
one, the log potential and the log-vs-sqrt closure bound hold, and the sqrt
potential falls short by a structural margin: that potential is a theorem
only for preconditioners that are additive accumulations of their increment
maps, and the Kronecker pair is not one.  Criterion 8 checks what the
momentum schedule guarantees: both schedules' rate-regime reports pass, and
the guaranteed exponent for beta = 0.25 is strictly below that for beta = 0.
The measured slope gap between the schedules is reported, not gated.
"""

import time

import numpy as np
import pytest

from adprec.audit import (
    audit_bounds,
    audit_log_increment,
    audit_m1_degenerate,
    audit_rate_regimes,
    audit_spectral_log,
    audit_sqrt_trace,
    audit_structural_identities,
    audit_subadditivity_constants,
    path_potential_slacks,
    theory_exponent,
)
from adprec.block_space import BlockShape, Geometry, ProductPoint
from adprec.geometries import geom_accumulate, geom_init, geom_lmap_trace, geom_precondition
from adprec.optimizer import MomentumMode, OptimizerConfig, adprec_step, run_replicates
from adprec.problems import make_problem
from adprec.psd_linalg import psd_power
from adprec.suites import (
    bound_configurations,
    m2_schedule_gap_report,
    potential_configurations,
)


def announce(criterion: str, ok: bool, detail: str = ""):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return ok


def test_criterion_1_trace_lemma_suite():
    t0 = time.monotonic()
    reports = [
        audit_sqrt_trace(trials=1000, seed=101),
        audit_log_increment(trials=1000, seed=102),
        audit_spectral_log(trials=1000, seed=103),
    ]
    elapsed = time.monotonic() - t0
    ok = all(r.passed for r in reports) and elapsed < 30.0
    detail = ", ".join(f"{r.check_name}:{r.worst_violation:.1e}" for r in reports)
    assert announce("criterion 1", ok, f"{detail} ({elapsed:.1f}s)")


def test_criterion_2_structural_identities():
    t0 = time.monotonic()
    failures = []
    for i, g in enumerate(Geometry):
        for rep in audit_structural_identities(g, trials=500, seed=200 + i):
            if not rep.passed:
                failures.append(rep.check_name)
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 30.0
    assert announce("criterion 2", ok, f"failures={failures} ({elapsed:.1f}s)")


def test_criterion_3_shampoo_explicit_kronecker():
    rng = np.random.default_rng(300)
    shape = BlockShape(3, 2, Geometry.SHAMPOO)
    worst = 0.0
    for _ in range(100):
        state = geom_init(shape, float(rng.uniform(0.5, 2.0)))
        for _ in range(rng.integers(1, 4)):
            V = rng.standard_normal((3, 2))
            state = geom_accumulate(shape, state, V, geom_lmap_trace(shape, V))
        G = rng.standard_normal((3, 2))
        fast = geom_precondition(shape, state, G)
        big = np.kron(psd_power(state.rfac, -0.25), psd_power(state.lfac, -0.25))
        slow = (big @ G.ravel(order="F")).reshape(3, 2, order="F")
        worst = max(worst, float(np.max(np.abs(fast - slow))))
    ok = worst <= 1e-10
    assert announce("criterion 3a", ok, f"worst factored-vs-explicit gap {worst:.2e}")


def test_criterion_3_diag_equals_scalar_product():
    n, K = 6, 100
    H = np.diag(np.geomspace(0.2, 1.0, n))
    x0 = np.linspace(1.0, 2.0, n)
    diag_shapes = [BlockShape(n, 1, Geometry.DIAG_ADAGRAD)]
    scal_shapes = [BlockShape(1, 1, Geometry.ADANORM) for _ in range(n)]
    pd = make_problem("quadratic", diag_shapes, H=H, b=np.zeros(n))
    ps = make_problem("quadratic", scal_shapes, H=H, b=np.zeros(n))
    cfg = OptimizerConfig(eta=1.0, varsigma=1.0, max_iters=1, seed=0)
    Xd, Xs = ProductPoint.from_flat(x0, diag_shapes), ProductPoint.from_flat(x0, scal_shapes)
    sd = [geom_init(s, 1.0) for s in diag_shapes]
    ss = [geom_init(s, 1.0) for s in scal_shapes]
    md = ms = None
    worst = 0.0
    for k in range(K):
        Gd = pd.eval_grad(Xd)
        Gs = ps.eval_grad(Xs)
        Xd, sd, md, _, _ = adprec_step(diag_shapes, Xd, Gd, sd, md, cfg, k)
        Xs, ss, ms, _, _ = adprec_step(scal_shapes, Xs, Gs, ss, ms, cfg, k)
        worst = max(worst, float(np.max(np.abs(Xd.ravel() - Xs.ravel()))))
    ok = worst <= 1e-12
    assert announce("criterion 3b", ok, f"worst iterate gap over K={K}: {worst:.2e}")


@pytest.mark.parametrize(
    "label,problem,noise,cfg",
    [pytest.param(*c, id=c[0]) for c in potential_configurations(K=500, seed=400)],
)
def test_criterion_4_pathwise_potentials(label, problem, noise, cfg):
    res = run_replicates(problem, noise, cfg, 1)
    slacks = path_potential_slacks(res.mean, problem.shapes, cfg.varsigma)
    kronecker = any(s.geometry is Geometry.SHAMPOO for s in problem.shapes)
    # the sqrt potential needs an additive state; the Kronecker pair has none
    held = ("log_pot", "delta_bound") if kronecker else tuple(slacks)
    bad = {name: float(slacks[name].min()) for name in held if slacks[name].min() < -1e-6}
    sqrt_worst = float(slacks["sqrt_pot"].min())
    detail = f"violations={bad}" if bad else ""
    if kronecker:
        detail += f" Kronecker sqrt-potential shortfall {sqrt_worst:.3f}"
    ok = announce(f"criterion 4 [{label}]", not bad and (sqrt_worst < -1e-3 or not kronecker), detail.strip())
    assert not bad, f"{label}: pathwise potential violations {bad}"
    assert ok, (
        f"{label}: sqrt-potential slack {sqrt_worst:.3e} is not below -1e-3; the "
        "Kronecker-factored state is not an additive accumulation of its increment "
        "map, so the documented shortfall should show (re-examine the finding)"
    )


def test_criterion_5_deterministic_bounds():
    t0 = time.monotonic()
    failures = []
    for label, problem, cfg in bound_configurations(K=2000, seed=500):
        rep = audit_bounds("master-theta", problem, cfg, context=label)
        if not rep.passed:
            failures.append((label, rep.worst_violation))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 120.0
    assert announce("criterion 5", ok, f"failures={failures} ({elapsed:.1f}s)")


def test_criterion_6_momentum_m1():
    problem = make_problem("quadratic", [BlockShape(8, 1, Geometry.DIAG_ADAGRAD)], seed=600)
    failures = []
    for mu in (0.5, 0.9):
        cfg = OptimizerConfig(
            eta=1.0, varsigma=1.0, max_iters=2000, seed=600,
            momentum_mode=MomentumMode.M1, mu_max=mu,
        )
        rep = audit_bounds("momentum-m1", problem, cfg)
        if not rep.passed:
            failures.append((mu, rep.worst_violation))
    bitexact = audit_m1_degenerate(problem, K=300, seed=600)
    ok = not failures and bitexact.passed
    assert announce("criterion 6", ok, f"failures={failures} bitexact={bitexact.passed}")


def test_criterion_7_rate_regimes():
    t0 = time.monotonic()
    problem = make_problem("quadratic", [BlockShape(8, 1, Geometry.DIAG_ADAGRAD)], seed=700)
    cfg = OptimizerConfig(eta=1.0, varsigma=1.0, max_iters=5000, seed=700, eval_objective=False)
    results = audit_rate_regimes(problem, cfg, alphas=(0.5, 1.0, 2.0), sigma=1.0, replicates=16)
    elapsed = time.monotonic() - t0
    detail = " ".join(
        f"a={r.alpha}:slope={r.fitted_slope:.2f}(th {r.theory_slope:.2f},dom={r.bound_dominates})"
        for r in results
    )
    ok = all(r.report.passed for r in results) and elapsed < 600.0
    assert announce("criterion 7", ok, f"{detail} ({elapsed:.1f}s)")


def test_criterion_8_m2_schedule_slope_gap():
    problem = make_problem("quadratic", [BlockShape(8, 1, Geometry.DIAG_ADAGRAD)], seed=800)
    rep = m2_schedule_gap_report(problem, K=5000, R=16, seed=800)
    # guaranteed exponents -min(alpha + 2 beta - 1/2, 1/2) at alpha = 1/2
    assert theory_exponent(MomentumMode.M2, 0.5, 0.0) == 0.0
    assert theory_exponent(MomentumMode.M2, 0.5, 0.25) == -0.5
    ok = announce("criterion 8", rep.passed, rep.context)
    assert ok, (
        f"m2 schedule report failed: {rep.context} (each schedule's min-gradient "
        "curve must stay under its own envelope and decay at least as fast as its "
        "guaranteed exponent)"
    )


def test_criterion_9_subadditivity_constants():
    failures = []
    diamond_note = ""
    for i, g in enumerate(Geometry):
        rep = audit_subadditivity_constants(g, trials=1000, seed=900 + i)
        if not rep.passed:
            failures.append(g.value)
        if g is Geometry.ADANORM:
            diamond_note = rep.context.split("empirical ")[-1]
    ok = not failures
    assert announce("criterion 9", ok, f"failures={failures}; AdaNorm {diamond_note}")
