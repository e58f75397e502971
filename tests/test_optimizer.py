import concurrent.futures
import math
import threading
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adprec import _second_cpu, optimizer, psd_linalg
from adprec.audit import audit_path_potentials
from adprec.block_space import (
    VECTOR_ONLY,
    BlockShape,
    Geometry,
    ProductPoint,
    product_dual_norm_sq,
    total_dim,
)
from adprec.errors import InvalidConfig, NonFiniteIterate
from adprec.geometries import (
    geom_accumulate,
    geom_dual_norm,
    geom_init,
    geom_lmap_trace,
    geom_precondition,
    geom_selector,
)
from adprec.optimizer import (
    _RECORD_FIELDS,
    IterationRecord,
    MomentumMode,
    OptimizerConfig,
    _drive,
    _Row,
    _momentum,
    adprec_step,
    mu_schedule,
    run_replicates,
    run_rows,
    run_trajectory,
    step_record,
)
from adprec.problems import (
    NORMAL_CHUNK,
    NoiseKind,
    NoiseModel,
    Problem,
    make_problem,
    sample_gradient,
)
from adprec.psd_linalg import SV_RTOL, eigh_clamped
from adprec.suites import _potential_spaces, potential_configurations
from conftest import set_cpus

VEC2 = [BlockShape(2, 1, Geometry.ADANORM)]


def vec(*xs):
    return np.array(xs, dtype=float).reshape(-1, 1)


def field(record, name):
    """Field `name` of a step_record array."""
    return record[_RECORD_FIELDS.index(name)]


def column(traj, name):
    """Field `name` of every record of a run_trajectory result."""
    return np.array([getattr(r, name) for r in traj.records])


def seeded(noises, config):
    """The rows (noises[r], config.seed + r) of run_rows."""
    return [(noise, config.seed + r) for r, noise in enumerate(noises)]


def drive(problem, noises, config):
    """_drive on the rows noises[r] at seed config.seed + r, as run_rows
    stacks seeded(noises, config)."""
    return _drive(problem, [_Row(*row) for row in seeded(noises, config)], config)


def step(shapes, X, gtilde, states, M, config, k):
    """adprec_step followed by its record pass: (X_next, states, M_k,
    record, z_norms)."""
    X1, states1, M1, z_norms, kept = adprec_step(shapes, X, gtilde, states, M, config, k)
    return X1, states1, M1, step_record(shapes, config, gtilde, M1, states1, z_norms, kept), z_norms


def cfg(**kw):
    base = dict(eta=1.0, varsigma=1.0, max_iters=10, seed=0)
    base.update(kw)
    return OptimizerConfig(**base)


def test_config_validation():
    with pytest.raises(InvalidConfig):
        cfg(eta=0.0)
    with pytest.raises(InvalidConfig):
        cfg(varsigma=-1.0)
    with pytest.raises(InvalidConfig):
        cfg(mu_max=1.0, momentum_mode=MomentumMode.M1)
    with pytest.raises(InvalidConfig):
        cfg(beta=-0.5)


def test_mu_schedule_examples():
    c = cfg(momentum_mode=MomentumMode.M1, mu_max=0.9, beta=0.0)
    assert mu_schedule(5, c) == pytest.approx(0.9)
    c = cfg(momentum_mode=MomentumMode.M1, mu_max=0.9, beta=1.0)
    assert mu_schedule(8, c) == pytest.approx(0.1)
    c = cfg(momentum_mode=MomentumMode.NONE, mu_max=0.9)
    assert all(mu_schedule(k, c) == 0.0 for k in range(5))


def test_step_hand_example():
    # isotropic block, varsigma 1, gradient (1,0): gamma 1.5, step -Z
    X = ProductPoint([vec(0, 0)])
    G = ProductPoint([vec(1, 0)])
    states = [geom_init(VEC2[0], 1.0)]
    X1, states1, _, rec, _ = step(VEC2, X, G, states, None, cfg(), 0)
    assert states1[0].gamma == pytest.approx(1.5)
    np.testing.assert_allclose(X1.blocks[0], vec(-1 / math.sqrt(1.5), 0))
    assert field(rec, "z_dual_norm_sq") == pytest.approx(1 / 1.5)
    assert field(rec, "step_dual_norm") == pytest.approx(1 / math.sqrt(1.5))
    assert field(rec, "resid_ineq1") < 1e-12 and field(rec, "resid_ineq2") < 1e-12


def test_step_zero_gradient():
    X = ProductPoint([vec(0.3, -0.7)])
    Z0 = ProductPoint([vec(0, 0)])
    states = [geom_init(VEC2[0], 1.0)]
    X1, states1, _, rec, _ = step(VEC2, X, Z0, states, None, cfg(), 0)
    np.testing.assert_array_equal(X1.blocks[0], X.blocks[0])
    assert states1[0].gamma == 1.0
    assert field(rec, "z_dual_norm_sq") == 0.0 and field(rec, "step_dual_norm") == 0.0


def test_momentum_recursion():
    c = cfg(momentum_mode=MomentumMode.M1, mu_max=0.5, beta=0.0)
    g0 = ProductPoint([vec(1, 0)])
    g1 = ProductPoint([vec(0, 1)])
    m0 = _momentum(None, mu_schedule(0, c), g0)
    np.testing.assert_array_equal(m0.blocks[0], g0.blocks[0])  # M_0 = Gt_0 regardless of mu
    m1 = _momentum(m0, mu_schedule(1, c), g1)
    np.testing.assert_allclose(m1.blocks[0], vec(0.5, 0.5))


def quadratic_1d(x0=1.0):
    shapes = [BlockShape(1, 1, Geometry.ADANORM)]
    problem = make_problem("quadratic", shapes, H=np.eye(1), b=np.zeros(1))
    return replace(problem, x0=ProductPoint([vec(x0)]))


def test_hand_trajectory_1d():
    problem = quadratic_1d()
    traj = run_trajectory(problem, NoiseModel(), cfg(max_iters=1))
    assert traj.failed is None
    assert traj.final.blocks[0][0, 0] == pytest.approx(1 - 1 / math.sqrt(2))
    r = traj.records[0]
    assert r.grad_dual_norm == pytest.approx(1.0)
    assert r.f_value == pytest.approx(0.5)


def test_zero_iterations():
    traj = run_trajectory(quadratic_1d(), NoiseModel(), cfg(max_iters=0))
    assert traj.records == [] and traj.failed is None


@pytest.mark.parametrize("geometry", list(Geometry), ids=lambda g: g.value)
def test_geometry_name_runs_as_its_member(geometry):
    # a block tagged by name is the block tagged by member, down to every record
    cols = 1 if geometry in VECTOR_ONLY else 2
    by_name, by_member = BlockShape(3, cols, geometry.value), BlockShape(3, cols, geometry)
    assert by_name == by_member and by_name.geometry is geometry
    noise = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(0.5,), alpha=1.0)
    a, b = (
        run_trajectory(make_problem("quadratic", [shape], seed=4), noise, cfg(max_iters=5, seed=2))
        for shape in (by_name, by_member)
    )
    for name in (f.name for f in fields(IterationRecord)):
        np.testing.assert_array_equal(column(a, name), column(b, name))
    np.testing.assert_array_equal(a.final.blocks[0], b.final.blocks[0])


def test_trajectory_determinism_under_noise():
    problem = make_problem("quadratic", [BlockShape(4, 1, Geometry.DIAG_ADAGRAD)], seed=0)
    noise = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(1.0,), alpha=1.0)
    a = run_trajectory(problem, noise, cfg(max_iters=30, seed=5))
    b = run_trajectory(problem, noise, cfg(max_iters=30, seed=5))
    np.testing.assert_array_equal(a.final.blocks[0], b.final.blocks[0])
    assert column(a, "gtilde_dual_norm").tolist() == column(b, "gtilde_dual_norm").tolist()


def test_m1_zero_momentum_matches_none_bitwise():
    problem = make_problem("quadratic", [BlockShape(5, 1, Geometry.DIAG_ADAGRAD)], seed=1)
    a = run_trajectory(problem, NoiseModel(), cfg(max_iters=50))
    b = run_trajectory(
        problem, NoiseModel(), cfg(max_iters=50, momentum_mode=MomentumMode.M1, mu_max=0.0)
    )
    np.testing.assert_array_equal(a.final.blocks[0], b.final.blocks[0])
    for name in ("z_dual_norm_sq", "trace_sqrt_total", "step_dual_norm"):
        assert column(a, name).tolist() == column(b, name).tolist()


def test_m2_accumulates_raw_gradient():
    # with momentum on, M2's preconditioner growth must match the raw-gradient
    # run, not the momentum run
    problem = make_problem("quadratic", [BlockShape(5, 1, Geometry.DIAG_ADAGRAD)], seed=1)
    none = run_trajectory(problem, NoiseModel(), cfg(max_iters=1))
    m2 = run_trajectory(
        problem,
        NoiseModel(),
        cfg(max_iters=1, momentum_mode=MomentumMode.M2, mu_max=0.9),
    )
    # first step: M_0 = Gt_0, so even the step coincides
    np.testing.assert_array_equal(none.final.blocks[0], m2.final.blocks[0])
    np.testing.assert_array_equal(none.states[0].diag, m2.states[0].diag)


def test_m2_mixed_residuals_are_reported_not_zero():
    problem = make_problem("quadratic", [BlockShape(5, 1, Geometry.FULL_ADAGRAD)], seed=3)
    noise = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(0.5,), alpha=1.0)
    m2 = run_trajectory(
        problem, noise, cfg(max_iters=40, momentum_mode=MomentumMode.M2, mu_max=0.8)
    )
    resid = column(m2, "resid_ineq2")
    assert np.max(resid) > 1e-6  # genuine perturbation once M != Gt
    m1 = run_trajectory(
        problem, noise, cfg(max_iters=40, momentum_mode=MomentumMode.M1, mu_max=0.8)
    )
    assert np.max(column(m1, "resid_ineq1")) < 1e-8
    assert np.max(column(m1, "resid_ineq2")) < 1e-8


def test_trace_sqrt_total_nondecreasing():
    problem = make_problem("trigquad", [BlockShape(6, 1, Geometry.DIAG_ADAGRAD)], seed=2)
    noise = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(0.3,), alpha=1.0)
    traj = run_trajectory(problem, noise, cfg(max_iters=60))
    ts = column(traj, "trace_sqrt_total")
    assert np.all(np.diff(ts) >= -1e-12)


def exploding_problem():
    shapes = (BlockShape(1, 1, Geometry.ADANORM),)

    def f(X):
        return float(np.exp(X.blocks[0][0, 0]))

    def grad(X):
        return ProductPoint([np.exp(X.blocks[0])])

    return Problem(
        name="exploding",
        shapes=shapes,
        eval_f=f,
        eval_grad=grad,
        f_low=0.0,
        lipschitz=None,
        x0=ProductPoint([vec(800.0)]),
    )


def test_nonfinite_iterate_aborts_with_partial_records():
    with np.errstate(all="ignore"):
        traj = run_trajectory(
            exploding_problem(), NoiseModel(), cfg(max_iters=5, eval_objective=False)
        )
    assert traj.failed is not None
    assert len(traj.records) < 5


def test_replicates_basic():
    problem = make_problem("quadratic", [BlockShape(4, 1, Geometry.DIAG_ADAGRAD)], seed=0)
    res1 = run_replicates(problem, NoiseModel(), cfg(max_iters=20), R=1)
    single = run_trajectory(problem, NoiseModel(), cfg(max_iters=20))
    np.testing.assert_array_equal(res1.mean["grad_dual_norm"], column(single, "grad_dual_norm"))
    # deterministic oracle: every replicate identical
    res3 = run_replicates(problem, NoiseModel(), cfg(max_iters=20), R=3)
    for name, arr in res3.arrays.items():
        assert np.array_equal(arr[0], arr[1]) and np.array_equal(arr[1], arr[2])
    with pytest.raises(InvalidConfig):
        run_replicates(problem, NoiseModel(), cfg(max_iters=5), R=0)


def test_replicate_averaging_reduces_noise():
    problem = make_problem("quadratic", [BlockShape(6, 1, Geometry.DIAG_ADAGRAD)], seed=0)
    noise = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(2.0,), alpha=0.5)
    K = 80
    res = run_replicates(problem, noise, cfg(max_iters=K, seed=11), R=8)
    ref = column(run_trajectory(problem, NoiseModel(), cfg(max_iters=K)), "gtilde_dual_norm")
    dev_mean = np.var(res.mean["gtilde_dual_norm"] - ref)
    dev_single = [np.var(res.arrays["gtilde_dual_norm"][r] - ref) for r in range(8)]
    assert dev_mean < min(dev_single)


def test_state_floor_holds_along_trajectories():
    # the preconditioner never drops below its initialization level
    from reference import geom_state_eigenvalues

    varsigma = 0.6
    for shapes, kind in [
        ([BlockShape(5, 1, Geometry.FULL_ADAGRAD)], "quadratic"),
        ([BlockShape(3, 2, Geometry.SHAMPOO), BlockShape(2, 2, Geometry.SHAMPOO)], "matfact"),
        ([BlockShape(3, 2, Geometry.MUON), BlockShape(2, 2, Geometry.MUON)], "matfact"),
    ]:
        problem = make_problem(kind, shapes, seed=4)
        noise = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(0.4,) * len(shapes), alpha=1.0)
        traj = run_trajectory(problem, noise, cfg(max_iters=40, varsigma=varsigma, eta=0.3))
        assert traj.failed is None
        for st in traj.states:
            assert geom_state_eigenvalues(st).min() >= varsigma * (1 - 1e-8)


def test_min_grad_curve_is_running_minimum():
    problem = make_problem("quadratic", [BlockShape(4, 1, Geometry.DIAG_ADAGRAD)], seed=0)
    res = run_replicates(problem, NoiseModel(), cfg(max_iters=25), R=2)
    g = res.mean["grad_dual_norm"]
    np.testing.assert_array_equal(res.min_grad_curve, np.minimum.accumulate(g))
    assert np.all(np.diff(res.min_grad_curve) <= 0.0 + 1e-15)


def counted_factorizations(monkeypatch) -> Counter:
    """Wrap np.linalg.eigh and np.linalg.svd with call counters; SVDs that
    compute singular vectors are counted apart from values-only ones."""
    counts = Counter()
    eigh, svd = np.linalg.eigh, np.linalg.svd

    def counted_eigh(*args, **kwargs):
        counts["eigh"] += 1
        return eigh(*args, **kwargs)

    def counted_svd(*args, **kwargs):
        counts["svd_vectors" if kwargs.get("compute_uv", True) else "svd_values"] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    return counts


MATRIX_SHAPES = [(4, 3), (3, 5)]
MULTIPLICATIVE = NoiseModel(
    kind=NoiseKind.ADDITIVE_PLUS_MULTIPLICATIVE, sigma=(0.5,), alpha=1.0, omega=0.5
)


# Muon SVDs per block-step under a noisy oracle.  The direction D gets the one
# full SVD, which gives |Z|_* and S(Z) (Z is a positive multiple of D) and, in
# modes None and M1, where D is the accumulated block, its lmap trace.  The
# rest are values-only: the true gradient, the accumulated block when it is
# not D (M2: Gtilde, which gives Gtilde's norm too), Gtilde when it is neither
# (M1) and the momentum error (M1, M2).  An exact oracle drops the true
# gradient, whose norm is the sampled one.
MUON_SVDS = {MomentumMode.NONE: 2, MomentumMode.M1: 4, MomentumMode.M2: 4}


def check_factorizations(monkeypatch, geometry, noise, mode):
    # per block-step: Shampoo one eigh per Kronecker factor, FullAdaGrad one
    # eigh of its Gram matrix, Muon at most MUON_SVDS[mode] SVDs, of which
    # exactly one, of the direction, computes singular vectors
    if geometry is Geometry.FULL_ADAGRAD:
        problem = make_problem("quadratic", [BlockShape(6, 1, geometry)], seed=2)
    else:
        shapes = [BlockShape(n, m, geometry) for n, m in MATRIX_SHAPES]
        problem = make_problem("matfact", shapes, seed=2)
    K = 5
    counts = counted_factorizations(monkeypatch)
    config = cfg(max_iters=K, eta=0.3, momentum_mode=mode,
                 mu_max=0.0 if mode is MomentumMode.NONE else 0.5)
    traj = run_trajectory(problem, noise, config)
    assert traj.failed is None
    block_steps = K * len(problem.shapes)
    if geometry is Geometry.MUON:
        svds = MUON_SVDS[mode] - (noise.kind is NoiseKind.EXACT)
        assert counts["eigh"] == 0
        assert counts["svd_vectors"] == block_steps
        assert counts["svd_values"] + counts["svd_vectors"] <= svds * block_steps
    else:
        eighs = 2 if geometry is Geometry.SHAMPOO else 1
        assert counts == Counter(eigh=eighs * block_steps)


ORACLES = pytest.mark.parametrize(
    "noise",
    [NoiseModel(), NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(0.5,)), MULTIPLICATIVE],
    ids=["exact", "additive", "multiplicative"],
)
FACTORIZED = pytest.mark.parametrize(
    "geometry", [Geometry.SHAMPOO, Geometry.FULL_ADAGRAD, Geometry.MUON]
)


@ORACLES
@FACTORIZED
def test_one_factorization_per_block_step(monkeypatch, geometry, noise):
    check_factorizations(monkeypatch, geometry, noise, MomentumMode.NONE)


@ORACLES
@FACTORIZED
def test_one_factorization_per_block_step_m1(monkeypatch, geometry, noise):
    check_factorizations(monkeypatch, geometry, noise, MomentumMode.M1)


@ORACLES
@FACTORIZED
def test_one_factorization_per_block_step_m2(monkeypatch, geometry, noise):
    check_factorizations(monkeypatch, geometry, noise, MomentumMode.M2)


def _singular(*values, rows, seed):
    """A rows x len(values) matrix with the given singular values."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((rows, len(values))))[0]
    V = np.linalg.qr(rng.standard_normal((len(values), len(values))))[0]
    return (U * np.array(values)) @ V.T


# Muon direction blocks: random, zero, rank 2 in 4 x 3, and a square block
# whose third singular value sits just above the SV_RTOL cutoff (square, so
# that its singular vectors are well-conditioned: in a tall block the left
# one would move by rounding over the tiny singular value)
MUON_DIRECTIONS = {
    "random": np.random.default_rng(3).standard_normal((4, 3)),
    "zero": np.zeros((4, 3)),
    "rank 2": np.random.default_rng(4).standard_normal((4, 2))
    @ np.random.default_rng(5).standard_normal((2, 3)),
    "near cutoff": _singular(2.0, 0.7, 1.5 * SV_RTOL * 2.0, rows=3, seed=6),
}


def _close(a, b, rtol=1e-13):
    return np.all(np.abs(a - b) <= rtol * np.maximum(np.abs(a), np.abs(b)))


@pytest.mark.parametrize("mode", list(MomentumMode), ids=lambda m: m.value)
@pytest.mark.parametrize("case", MUON_DIRECTIONS)
def test_muon_step_reads_z_from_the_directions_svd(case, mode):
    # the step takes |Z|_*, S(Z) and (for D accumulated) the lmap trace from
    # D's SVD; geom_* on an independently preconditioned Z must agree.  The
    # random case has a Gtilde of its own, the others Gtilde = M_0 = B, so
    # that D = mu B + (1 - mu) B is B up to rounding.
    B = MUON_DIRECTIONS[case]
    shape = BlockShape(*B.shape, Geometry.MUON)
    gtilde = np.random.default_rng(8).standard_normal(B.shape) if case == "random" else B
    config = cfg(momentum_mode=mode, mu_max=0.5, varsigma=0.7)
    state = geom_init(shape, config.varsigma)
    X = ProductPoint([np.zeros(B.shape)])
    X1, states, M, rec, z_norms = step(
        [shape], X, ProductPoint([gtilde]), [state], ProductPoint([B]), config, 1
    )
    D = gtilde if mode is MomentumMode.NONE else M.blocks[0]
    A = D if mode is MomentumMode.M1 else gtilde
    tl = geom_lmap_trace(shape, A)
    st = geom_accumulate(shape, state, A, tl)
    Z = geom_precondition(shape, st, D)
    zn = geom_dual_norm(shape, Z)
    S = geom_selector(shape, Z, zn)

    assert _close(states[0].gamma, st.gamma)
    assert _close(field(rec, "weighted_inv") * states[0].gamma, tl)
    assert _close(z_norms[0], zn)
    if case == "zero":
        assert zn == 0.0 and not S.any() and not X1.blocks[0].any()
        return
    # X = 0 and eta = 1: the step is -|Z|_* S(Z)
    step_selector = -X1.blocks[0] / z_norms[0]
    assert np.linalg.norm(step_selector - S) <= 1e-13 * np.linalg.norm(S)
    # S keeps the rank of D: the near-cutoff singular value is kept
    rank = 2 if case == "rank 2" else 3
    sv = np.linalg.svd(S, compute_uv=False)
    np.testing.assert_allclose(sv[:rank], 1.0, rtol=1e-13)
    assert np.all(sv[rank:] < 1e-13)


MIXED = [BlockShape(4, 3, Geometry.SHAMPOO), BlockShape(3, 5, Geometry.MUON)]


def check_degenerate_steps(gradients, mode):
    """Run gradients through adprec_step and its record on MIXED; check records and caches."""
    config = cfg(momentum_mode=mode, mu_max=0.5 if mode is not MomentumMode.NONE else 0.0)
    X = ProductPoint([np.ones((s.rows, s.cols)) for s in MIXED])
    states = [geom_init(s, config.varsigma) for s in MIXED]
    M = None
    for k, G in enumerate(gradients):
        X, states, M, rec, z_norms = step(MIXED, X, G, states, M, config, k)
        # f_value and grad_dual_norm are NaN until the trajectory driver fills them
        filled = [name for name in _RECORD_FIELDS if name not in ("f_value", "grad_dual_norm")]
        assert all(math.isfinite(field(rec, name)) for name in filled)
        assert all(math.isfinite(z) for z in z_norms)
        if mode is not MomentumMode.M2:  # m2 mixes Gamma(Gtilde) with Z(M) by design
            assert field(rec, "resid_ineq1") <= 1e-12 and field(rec, "resid_ineq2") <= 1e-12
        shampoo = states[0]
        for (w, Q), factor in [(shampoo.left_eig, shampoo.lfac),
                               (shampoo.right_eig, shampoo.rfac)]:
            w_fresh, Q_fresh = eigh_clamped(factor, floor=shampoo.varsigma)
            np.testing.assert_array_equal(w, w_fresh)
            np.testing.assert_array_equal(Q, Q_fresh)
    return X


@pytest.mark.parametrize("mode", list(MomentumMode))
def test_zero_matrix_gradient_takes_no_step(mode):
    zero = ProductPoint.zeros(MIXED)
    X = check_degenerate_steps([zero] * 3, mode)
    for block in X.blocks:
        np.testing.assert_array_equal(block, np.ones_like(block))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    ranks=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    log_scale=st.floats(-3.0, 3.0),
    mode=st.sampled_from(list(MomentumMode)),
)
def test_rank_deficient_matrix_gradients(seed, ranks, log_scale, mode):
    # rank below min(rows, cols) on both blocks, zero blocks included
    rng = np.random.default_rng(seed)
    gradients = [
        ProductPoint([
            10.0**log_scale * rng.standard_normal((s.rows, r)) @ rng.standard_normal((r, s.cols))
            for s, r in zip(MIXED, ranks)
        ])
        for _ in range(3)
    ]
    check_degenerate_steps(gradients, mode)


# -- replicate stacks -----------------------------------------------------------

# each geometry alone and a Shampoo + Muon space whose Muon block has rank at
# most 2 < min(3, 4) under an exact matfact gradient (W2^T E with W2 2 x 3), so
# msign truncates; logistic problems have component gradients for MiniBatch
STACK_SPACES = {
    "adanorm": ("logistic", [(5, 1, Geometry.ADANORM)]),
    "diag": ("logistic", [(6, 1, Geometry.DIAG_ADAGRAD)]),
    "full": ("logistic", [(4, 1, Geometry.FULL_ADAGRAD)]),
    "shampoo": ("logistic", [(3, 2, Geometry.SHAMPOO), (2, 3, Geometry.SHAMPOO)]),
    "muon": ("logistic", [(3, 2, Geometry.MUON), (4, 1, Geometry.ADANORM)]),
    "shampoo+muon rank 2": ("matfact", [(2, 3, Geometry.SHAMPOO), (3, 4, Geometry.MUON)]),
}
STACK_NOISES = {
    "exact": NoiseModel(),
    "additive": NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(0.5,), alpha=1.0),
    "multiplicative": MULTIPLICATIVE,
    "minibatch": NoiseModel(kind=NoiseKind.MINI_BATCH, batch=3),
}


@pytest.mark.parametrize("mode", list(MomentumMode), ids=lambda m: m.value)
@pytest.mark.parametrize("noise", STACK_NOISES.values(), ids=STACK_NOISES.keys())
@pytest.mark.parametrize("space", STACK_SPACES)
def test_replicate_r_of_a_stack_is_the_solo_run_at_seed_plus_r(space, noise, mode):
    kind, blocks = STACK_SPACES[space]
    if noise.kind is NoiseKind.MINI_BATCH and kind != "logistic":
        pytest.skip("matfact has no component gradients")
    problem = make_problem(kind, [BlockShape(*b) for b in blocks], seed=3)
    config = cfg(max_iters=6, eta=0.4, seed=5, momentum_mode=mode,
                 mu_max=0.0 if mode is MomentumMode.NONE else 0.6, beta=0.5)
    R = 3
    res = run_replicates(problem, noise, config, R)
    for r in range(R):
        solo = run_trajectory(problem, noise, replace(config, seed=config.seed + r))
        assert solo.failed is None
        for name in res.arrays:
            np.testing.assert_array_equal(res.arrays[name][r], column(solo, name), err_msg=name)
        for stacked, alone in zip(res.final[r].blocks, solo.final.blocks):
            np.testing.assert_array_equal(stacked, alone)


def assert_rows_are_solo_runs(monkeypatch, problem, noises, config):
    """Row r of run_rows equals run_trajectory of noises[r] at seed + r: every
    record column and the final iterate, bit for bit.  Returns the number
    of stacks the rows ran in."""
    stacks = []

    def counted(problem, rows, config):
        stacks.append(len(rows))
        return _drive(problem, rows, config)

    monkeypatch.setattr(optimizer, "_drive", counted)
    rows = run_rows(problem, seeded(noises, config), config)
    monkeypatch.undo()
    assert sum(stacks) == len(noises)
    for r, (noise, row) in enumerate(zip(noises, rows)):
        solo = run_trajectory(problem, noise, replace(config, seed=config.seed + r))
        assert solo.failed is None
        for name in _RECORD_FIELDS:
            np.testing.assert_array_equal(row.arrays[name][0], column(solo, name), err_msg=name)
        for stacked, alone in zip(row.final[0].blocks, solo.final.blocks):
            np.testing.assert_array_equal(stacked, alone)
    return len(stacks)


# every noisy STACK_NOISES entry on every space it applies to (matfact has no
# component gradients for MiniBatch)
MIXED_STACKS = [
    pytest.param(space, noise, id=f"{space}-{name}")
    for space, (kind, _) in STACK_SPACES.items()
    for name, noise in STACK_NOISES.items()
    if noise.kind is not NoiseKind.EXACT
    and (noise.kind is not NoiseKind.MINI_BATCH or kind == "logistic")
]


@pytest.mark.parametrize("mode", list(MomentumMode), ids=lambda m: m.value)
@pytest.mark.parametrize("space, noise", MIXED_STACKS)
def test_rows_of_a_mixed_stack_are_their_solo_runs(monkeypatch, space, noise, mode):
    # a noisy row 0 and an exact row 1: the noisy row draws as a sub-stack
    # (multiplicative noise reads its own z_prev_norms), the exact row keeps
    # G, and each row's grad_dual_norm is decided for that row
    kind, blocks = STACK_SPACES[space]
    problem = make_problem(kind, [BlockShape(*b) for b in blocks], seed=3)
    config = cfg(max_iters=6, eta=0.4, seed=5, momentum_mode=mode,
                 mu_max=0.0 if mode is MomentumMode.NONE else 0.6, beta=0.5)
    stacks = assert_rows_are_solo_runs(monkeypatch, problem, [noise, NoiseModel()], config)
    assert stacks == 1


def test_rows_sharing_a_model_need_not_be_contiguous(monkeypatch):
    # two noisy models, one of them on rows 0 and 2 around an exact row
    problem = make_problem("logistic", [BlockShape(*b) for b in STACK_SPACES["muon"][1]], seed=3)
    additive = STACK_NOISES["additive"]
    noises = [additive, NoiseModel(), additive, MULTIPLICATIVE]
    assert assert_rows_are_solo_runs(monkeypatch, problem, noises, cfg(max_iters=6, eta=0.4, seed=5)) == 1


def assert_rows_equal(a, b):
    """Two run_rows results have the same columns and final iterate, bit for bit."""
    for name in _RECORD_FIELDS:
        np.testing.assert_array_equal(a.arrays[name], b.arrays[name], err_msg=name)
    for x, y in zip(a.final[0].blocks, b.final[0].blocks):
        np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("noise", ["additive", "multiplicative", "minibatch"])
def test_rows_given_one_seed_are_one_run(noise):
    # a row's draws come from the seed it is given, not from its place: two
    # rows of one noisy model at one seed, around a row at another, are the
    # same run, bit for bit, and the row at the other seed is not
    problem = make_problem("logistic", [BlockShape(*b) for b in STACK_SPACES["muon"][1]], seed=3)
    noise = STACK_NOISES[noise]
    config = cfg(max_iters=6, eta=0.4, seed=0)
    first, other, again = run_rows(problem, [(noise, 9), (noise, 2), (noise, 9)], config)
    assert_rows_equal(first, again)
    assert not np.array_equal(first.arrays["gtilde_dual_norm"], other.arrays["gtilde_dual_norm"])


def test_an_exact_rows_columns_do_not_depend_on_its_seed():
    # an exact row draws nothing, so its seed changes none of its bits, in a
    # stack of its own or beside a noisy row
    problem = make_problem("logistic", [BlockShape(*b) for b in STACK_SPACES["muon"][1]], seed=3)
    config = cfg(max_iters=6, eta=0.4, seed=0)
    additive = STACK_NOISES["additive"]
    [alone] = run_rows(problem, [(NoiseModel(), 0)], config)
    for rows in ([(NoiseModel(), 5)], [(additive, 1), (NoiseModel(), 8)]):
        assert_rows_equal(run_rows(problem, rows, config)[-1], alone)


@pytest.mark.parametrize(
    "noises, calls_per_step",
    [
        ([NoiseModel()] * 3, 1),
        ([STACK_NOISES["additive"]] * 3, 1),
        ([STACK_NOISES["additive"], NoiseModel()], 1),
        ([STACK_NOISES["additive"], NoiseModel(), MULTIPLICATIVE], 2),
    ],
    ids=["exact", "additive", "additive+exact", "additive+exact+multiplicative"],
)
def test_sample_gradient_calls_per_step(monkeypatch, noises, calls_per_step):
    # one call per step for a single-model stack (run_replicates' path), and
    # one per noisy model for a mixed one, whose exact rows draw nothing
    calls = Counter()

    def counted(*args, **kwargs):
        calls[args[3]] += 1
        return sample_gradient(*args, **kwargs)

    monkeypatch.setattr(optimizer, "sample_gradient", counted)
    problem = make_problem("quadratic", [BlockShape(4, 1, Geometry.DIAG_ADAGRAD)], seed=1)
    K = 5
    if len(set(noises)) == 1:
        run_replicates(problem, noises[0], cfg(max_iters=K), len(noises))
    else:
        drive(problem, noises, cfg(max_iters=K))
    assert calls == {k: calls_per_step for k in range(K)}


def test_a_stack_draws_its_noise_in_chunks(monkeypatch):
    # each row reads its Generator in chunks: an additive R = 16, K = 50 run
    # on two blocks makes one standard_normal call per row and chunk, where
    # one call per row, block and step would make 1600, each row draws the
    # K * N = 700 normals the run reads and no more, and its records are
    # those of the uncounted run
    calls = Counter()

    class Counting(np.random.Generator):
        def standard_normal(self, *args, **kwargs):
            calls["standard_normal"] += 1
            calls["normals"] += kwargs["out"].size
            return super().standard_normal(*args, **kwargs)

    shapes = [BlockShape(8, 1, Geometry.DIAG_ADAGRAD), BlockShape(6, 1, Geometry.ADANORM)]
    problem = make_problem("quadratic", shapes, seed=0)
    noise = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(1.0,), alpha=0.5)
    R, K, N = 16, 50, 14
    config = cfg(max_iters=K, eta=0.25, seed=3)
    want = run_replicates(problem, noise, config, R)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: Counting(np.random.PCG64(seed)))
    got = run_replicates(problem, noise, config, R)
    assert 0 < calls["standard_normal"] <= R * (math.ceil(K * N / NORMAL_CHUNK) + 1)
    assert calls["normals"] == R * K * N
    for name in _RECORD_FIELDS:
        np.testing.assert_array_equal(got.arrays[name], want.arrays[name], err_msg=name)


def walk_problem(geometry, overflow=np.inf):
    """A flat objective whose iterate is moved by the oracle noise alone, from
    just below the largest double: a replicate whose walk goes up overflows.
    Where |x| >= overflow the gradient is 2x, which overflows for any finite
    x above half the largest double; a non-finite iterate is its own
    gradient, so a replicate that stayed in the stack would feed inf to the
    next factorization."""
    shapes = (BlockShape(3, 1, geometry),)

    def f(X):
        return np.add.reduce(0.0 * X.blocks[0], axis=(-2, -1))

    def grad(X):
        B = X.blocks[0]
        return ProductPoint([np.where(np.abs(B) < overflow, 0.0, 2.0 * B)])

    return Problem("walk", shapes, f, grad, 0.0, None, ProductPoint([np.full((3, 1), 1.7e308)]))


def test_nonfinite_replicate_leaves_the_stack_before_its_next_factorization():
    # replicates 0-2 survive all 8 steps; replicate 3 overflows at iteration 2,
    # and its inf gradient must never reach the stacked eigh of the others
    problem = walk_problem(Geometry.FULL_ADAGRAD)
    noise = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(1.0,), alpha=1e-9)
    config = cfg(max_iters=8, eta=1e307, seed=0, eval_objective=False)
    with np.errstate(over="ignore", invalid="ignore"):
        solo = [run_trajectory(problem, noise, replace(config, seed=s)) for s in range(4)]
        with pytest.raises(NonFiniteIterate) as err:
            run_replicates(problem, noise, config, 4)
    assert [t.failed is None for t in solo] == [True, True, True, False]
    assert solo[3].failed == "non-finite at iteration 2: iterate"
    assert str(err.value) == f"replicate 3 (seed 3): {solo[3].failed}"


def test_lowest_failing_replicate_is_named():
    # replicate 3 fails first (iteration 2) and replicate 1 last (iteration
    # 7); the stack runs on and names replicate 1, as running the replicates
    # one after another would
    problem = walk_problem(Geometry.DIAG_ADAGRAD)
    noise = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(1.0,), alpha=1e-9)
    config = cfg(max_iters=8, eta=1e307, seed=0, eval_objective=False)
    with np.errstate(over="ignore", invalid="ignore"):
        failed = [run_trajectory(problem, noise, replace(config, seed=s)).failed for s in range(4)]
        with pytest.raises(NonFiniteIterate) as err:
            run_replicates(problem, noise, config, 4)
    assert failed == [None] + [f"non-finite at iteration {k}: iterate" for k in (7, 3, 2)]
    assert str(err.value) == f"replicate 1 (seed 1): {failed[1]}"


def test_a_nonfinite_row_fails_alone():
    # the noisy row 0 (seed 3) overflows at iteration 2 and drops the exact
    # row 1 from the stack, which is rerun alone: each row's result, and its
    # path-potentials report, is the one it gets alone
    problem = walk_problem(Geometry.DIAG_ADAGRAD)
    noisy = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(1.0,), alpha=1e-9)
    config = cfg(max_iters=8, eta=1e307, seed=3, eval_objective=False)
    rows = {"noisy": (noisy, 3), "exact": (NoiseModel(), 4)}
    with np.errstate(over="ignore", invalid="ignore"):
        failed, exact = run_rows(problem, list(rows.values()), config)
        reports = audit_path_potentials(problem, rows, config)
        with pytest.raises(NonFiniteIterate) as err:
            run_replicates(problem, noisy, config, 1)
        alone = [audit_path_potentials(problem, {label: row}, config)[0]
                 for label, row in rows.items()]
        solo = run_replicates(problem, NoiseModel(), config, 1)
    assert str(failed) == str(err.value) == "replicate 0 (seed 3): non-finite at iteration 2: iterate"
    for name in _RECORD_FIELDS:
        np.testing.assert_array_equal(exact.arrays[name], solo.arrays[name], err_msg=name)
    assert (reports[0].trials, reports[0].worst_violation, reports[0].passed) == (8, -math.inf, False)
    assert reports[0].context == f"noisy {err.value}"
    assert reports == alone and reports[1].passed


def test_rows_below_a_failure_read_on_from_their_streams():
    # a noisy row overflows and leaves the stack: in [noisy, exact, noisy]
    # at seed 0, row 2 (seed 2) at iteration 3, and row 0, which shares its
    # model, reads on from its buffered stream; in [exact, noisy] at seed 2,
    # row 1 (seed 3) at iteration 2, and the exact row draws nothing after.
    # Each row below the failure is still its solo run.
    problem = walk_problem(Geometry.DIAG_ADAGRAD)
    noisy = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(1.0,), alpha=1e-9)
    for seed, noises, k in [(0, [noisy, NoiseModel(), noisy], 3), (2, [NoiseModel(), noisy], 2)]:
        config = cfg(max_iters=8, eta=1e307, seed=seed, eval_objective=False)
        n = len(noises) - 1
        with np.errstate(over="ignore", invalid="ignore"):
            rows = run_rows(problem, seeded(noises, config), config)
            solo = [run_replicates(problem, noises[r], replace(config, seed=seed + r), 1)
                    for r in range(n)]
            with pytest.raises(NonFiniteIterate) as err:
                run_replicates(problem, noisy, replace(config, seed=seed + n), 1)
        want = f"replicate 0 (seed {seed + n}): non-finite at iteration {k}: iterate"
        assert str(rows[n]) == str(err.value) == want
        for row, alone in zip(rows, solo):
            for name in _RECORD_FIELDS:
                np.testing.assert_array_equal(row.arrays[name], alone.arrays[name], err_msg=name)
            np.testing.assert_array_equal(row.final[0].blocks[0], alone.final[0].blocks[0])


def test_rows_above_each_of_two_failures_rerun_as_their_own_stack(monkeypatch):
    # in [noisy, noisy, exact, noisy, exact] at seed 0, row 3 (seed 3)
    # overflows at iteration 2 and row 1 (seed 1) at iteration 7: row 3
    # stops the stack, rows 0, 1, 2 and 4 rerun as one, in which row 1
    # stops it, and rows 0, 2 and 4 rerun to the end.  Rows 0, 2 and 4 are
    # their solo runs, and each failing row gets the error its solo run
    # raises.
    problem = walk_problem(Geometry.DIAG_ADAGRAD)
    noisy = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(1.0,), alpha=1e-9)
    noises = [noisy, noisy, NoiseModel(), noisy, NoiseModel()]
    config = cfg(max_iters=8, eta=1e307, seed=0, eval_objective=False)
    stacks = []
    drive = optimizer._drive

    def counted(*args):
        stacks.append(len(args[1]))
        return drive(*args)

    monkeypatch.setattr(optimizer, "_drive", counted)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = run_rows(problem, seeded(noises, config), config)
        monkeypatch.undo()
        solo = {r: run_replicates(problem, noises[r], replace(config, seed=r), 1) for r in (0, 2, 4)}
    assert stacks == [5, 4, 3]
    for r, k in ((1, 7), (3, 2)):
        assert isinstance(rows[r], NonFiniteIterate)
        assert str(rows[r]) == f"replicate 0 (seed {r}): non-finite at iteration {k}: iterate"
    for r, alone in solo.items():
        for name in _RECORD_FIELDS:
            np.testing.assert_array_equal(rows[r].arrays[name], alone.arrays[name], err_msg=name)
        np.testing.assert_array_equal(rows[r].final[0].blocks[0], alone.final[0].blocks[0])


def test_gradient_overflow_fails_its_replicate_before_the_step():
    # at a finite iterate above 1.75e308 the gradient overflows to inf:
    # replicate 3's does at iteration 1 and replicate 0's, the lowest
    # failure, only at iteration 5; that inf must fail its replicate before
    # it reaches the stacked eigh, which raises LinAlgError on it
    problem = walk_problem(Geometry.FULL_ADAGRAD, overflow=1.75e308)
    noise = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(1.0,), alpha=1e-9)
    config = cfg(max_iters=8, eta=1e307, seed=10, eval_objective=False)
    with np.errstate(over="ignore", invalid="ignore"):
        solo = [run_trajectory(problem, noise, replace(config, seed=10 + r)) for r in range(4)]
        with pytest.raises(NonFiniteIterate) as err:
            run_replicates(problem, noise, config, 4)
    assert [t.failed for t in solo] == [
        None if k is None else f"non-finite at iteration {k}: gtilde_dual_norm"
        for k in (5, 4, None, 1)
    ]
    assert len(solo[0].records) == 5
    assert str(err.value) == f"replicate 0 (seed 10): {solo[0].failed}"


def test_a_failing_replicate_stops_the_stack_and_the_rows_below_it_rerun(monkeypatch):
    # the case above: replicate 3 stops the stack of 4 at iteration 1,
    # replicates 0-2 rerun and replicate 1 stops them at iteration 4, and
    # replicate 0 reruns alone and fails at iteration 5.  No stack is cut:
    # every step of a driver call advances the rows that call started with.
    problem = walk_problem(Geometry.FULL_ADAGRAD, overflow=1.75e308)
    noise = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(1.0,), alpha=1e-9)
    config = cfg(max_iters=8, eta=1e307, seed=10, eval_objective=False)
    stacks, seen = [], []
    drive, step = optimizer._drive, optimizer.adprec_step

    def counted(problem, rows, config):
        stacks.append(len(rows))
        seen.append(set())
        return drive(problem, rows, config)

    def watched(shapes, X, gtilde, *args, **kwargs):
        seen[-1].add((X.blocks[0].shape[:-2], gtilde.blocks[0].shape[:-2]))
        return step(shapes, X, gtilde, *args, **kwargs)

    monkeypatch.setattr(optimizer, "_drive", counted)
    monkeypatch.setattr(optimizer, "adprec_step", watched)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteIterate) as err:
        run_replicates(problem, noise, config, 4)
    assert stacks == [4, 3, 1]
    assert seen == [{((n,), (n,))} if n > 1 else {((), ())} for n in stacks]
    assert str(err.value) == "replicate 0 (seed 10): non-finite at iteration 5: gtilde_dual_norm"


def test_finite_gradient_whose_square_overflows_fails_before_the_step():
    # exp(709.5) is finite, but its square overflows in FullAdaGrad's Gram
    # matrix, on which eigh raises LinAlgError
    shapes = (BlockShape(3, 1, Geometry.FULL_ADAGRAD),)

    def f(X):
        return np.add.reduce(np.exp(X.blocks[0]), axis=(-2, -1))

    def grad(X):
        return ProductPoint([np.exp(X.blocks[0])])

    problem = Problem("exp", shapes, f, grad, 0.0, None, ProductPoint([np.full((3, 1), 709.5)]))
    with np.errstate(over="ignore"):
        traj = run_trajectory(problem, NoiseModel(), cfg(max_iters=3))
    assert traj.records == []
    assert traj.failed == "non-finite at iteration 0: f_value, grad_dual_norm, gtilde_dual_norm"
    np.testing.assert_array_equal(traj.final.blocks[0], problem.x0.blocks[0])


# -- the record pass -------------------------------------------------------------

# the six spaces of the potentials suite and that of the vec_replicates benchmark
RECORD_SPACES = {name: (kind, shapes) for name, kind, shapes in _potential_spaces()} | {
    "vec_replicates": (
        "quadratic", [BlockShape(8, 1, Geometry.DIAG_ADAGRAD), BlockShape(6, 1, Geometry.ADANORM)]
    ),
}


def stepwise(problem, noises, config):
    """What _drive gives for a run that does not fail, with every step's
    record taken right after the step: (columns, X, states)."""
    shapes, K, R = problem.shapes, config.max_iters, len(noises)
    lead = (R,) if R > 1 else ()
    X = ProductPoint([np.broadcast_to(b, lead + b.shape).copy() for b in problem.x0.blocks])
    states = [geom_init(s, config.varsigma, lead=lead) for s in shapes]
    specs = [_Row(nz, config.seed + r) for r, nz in enumerate(noises)]
    plan = optimizer._sampling_plan(specs, K, total_dim(shapes))
    exact = np.array([nz.kind is NoiseKind.EXACT for nz in noises])
    columns = np.full((len(_RECORD_FIELDS), R, K), math.nan)
    M = z_norms = None
    for k in range(K):
        G = problem.eval_grad(X)
        gtilde = optimizer._oracle(problem, plan, X, k, z_norms, G)
        X_next, states, M, z_norms, kept = adprec_step(shapes, X, gtilde, states, M, config, k)
        rec = step_record(shapes, config, gtilde, M, states, z_norms, kept)
        rec[0] = problem.eval_f(X)
        grad = np.where(exact, rec[2], np.sqrt(product_dual_norm_sq(G, shapes)))
        rec[1] = grad if lead else grad[0]
        columns[:, slice(None) if lead else 0, k] = rec
        X = X_next
    return columns, X, states


def assert_same_run(a, b):
    """Two (columns, X, states) are equal bit for bit, state arrays included."""
    np.testing.assert_array_equal(a[0], b[0])
    for x, y in zip(a[1].blocks, b[1].blocks):
        np.testing.assert_array_equal(x, y)
    for s, t in zip(a[2], b[2]):
        assert type(s) is type(t)
        for f in fields(s):
            np.testing.assert_array_equal(getattr(s, f.name), getattr(t, f.name), err_msg=f.name)


RECORD_ORACLES = {
    "exact": NoiseModel(),
    "additive": STACK_NOISES["additive"],
    "multiplicative": MULTIPLICATIVE,
}


@pytest.mark.parametrize("mode", list(MomentumMode), ids=lambda m: m.value)
@pytest.mark.parametrize(
    "kind, shapes, oracles",
    [pytest.param(kind, shapes, RECORD_ORACLES, id=name)
     for name, (kind, shapes) in RECORD_SPACES.items()]
    + [pytest.param("logistic", [BlockShape(*b) for b in STACK_SPACES["muon"][1]],
                    {"minibatch": STACK_NOISES["minibatch"]}, id="logistic-minibatch")],
)
def test_record_chunks_do_not_change_a_bit(monkeypatch, kind, shapes, oracles, mode):
    # chunks of 1, 2 and 5 steps and one chunk of the whole run give the
    # columns, X and states of the step-by-step record, on one row and on a
    # mixed stack, over 12 steps and over 2 (one chunk of two steps)
    problem = make_problem(kind, shapes, seed=3)
    config = cfg(max_iters=12, eta=0.4, seed=5, momentum_mode=mode,
                 mu_max=0.0 if mode is MomentumMode.NONE else 0.6, beta=0.5)
    monkeypatch.setattr(optimizer, "_nbytes", lambda step: 1)
    for noise in oracles.values():
        for noises in ([noise], [noise, NoiseModel(), noise]):
            for K, chunks in ((12, (1, 2, 5, 12)), (2, (2,))):
                want = stepwise(problem, noises, replace(config, max_iters=K))
                for chunk in chunks:
                    monkeypatch.setattr(optimizer, "RECORD_CHUNK_BYTES", chunk)
                    run = drive(problem, noises, replace(config, max_iters=K))
                    assert run.failure is None
                    assert_same_run((run.columns, run.X, run.states), want)


def counted_records(monkeypatch) -> list:
    """Patch in a step_record that logs each call; return the log, one
    entry per call."""
    calls, real = [], optimizer.step_record

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(optimizer, "step_record", counted)
    return calls


@pytest.mark.parametrize("mode", list(MomentumMode), ids=lambda m: m.value)
def test_record_chunks_partition_the_run(monkeypatch, mode):
    # K steps in chunks of C take ceil(K / C) records; in M1, step 0 is a
    # chunk of its own and the other K - 1 steps fall into chunks of C
    problem = make_problem("quadratic", RECORD_SPACES["vec_replicates"][1], seed=3)
    K, noise = 7, STACK_NOISES["additive"]
    config = cfg(max_iters=K, eta=0.4, seed=5, momentum_mode=mode,
                 mu_max=0.0 if mode is MomentumMode.NONE else 0.6, beta=0.5)
    monkeypatch.setattr(optimizer, "_nbytes", lambda step: 1)
    calls = counted_records(monkeypatch)
    for C in (1, 3):
        monkeypatch.setattr(optimizer, "RECORD_CHUNK_BYTES", C)
        want = 1 + math.ceil((K - 1) / C) if mode is MomentumMode.M1 else math.ceil(K / C)
        for noises in ([noise], [noise, NoiseModel(), noise]):
            calls.clear()
            assert drive(problem, noises, config).failure is None
            assert len(calls) == want, (C, len(noises))


def test_a_step_of_large_blocks_is_a_chunk_of_its_own(monkeypatch):
    # on the space of the matrix_blocks benchmark, a step keeps more than
    # RECORD_CHUNK_BYTES, so each step is recorded alone, with the bits of
    # the step-by-step record
    shapes = [BlockShape(64, 32, Geometry.SHAMPOO), BlockShape(32, 48, Geometry.MUON)]
    problem = make_problem("matfact", shapes, seed=3)
    noises = [STACK_NOISES["additive"]]
    config = cfg(max_iters=3, eta=0.5, seed=5)
    want = stepwise(problem, noises, config)
    calls = counted_records(monkeypatch)
    run = drive(problem, noises, config)
    assert run.failure is None and len(calls) == config.max_iters
    assert_same_run((run.columns, run.X, run.states), want)


def flat_problem():
    """A flat objective on one DiagAdaGrad block of 4 at the origin: only
    the oracle moves the iterate."""
    shapes = (BlockShape(4, 1, Geometry.DIAG_ADAGRAD),)

    def f(X):
        return np.add.reduce(0.0 * X.blocks[0], axis=(-2, -1))

    def grad(X):
        return ProductPoint([np.zeros_like(X.blocks[0])])

    return Problem("flat", shapes, f, grad, 0.0, None, ProductPoint([np.zeros((4, 1))]))


# the model whose rows the kicking oracle kicks; every other row keeps G = 0
KICKED = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(7.0,))
QUIET = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(0.5,))


def kicking_oracle(k_kick, kick=1e3):
    """An oracle that returns G, except for the KICKED model at iteration
    k_kick: `kick` per entry.  With the default kick, Z is near 1 per entry
    there, so with eta = 1e308 the step's norm overflows while the iterate,
    about -1e308 per entry, stays finite, and with Z = 0 after it the row
    stays there (without momentum)."""

    def oracle(problem, noise, X, k, rng, z_prev_norms=None, exact_grad=None):
        if noise == KICKED and k == k_kick:
            return ProductPoint([np.full_like(b, kick) for b in exact_grad.blocks])
        return exact_grad

    return oracle


@pytest.mark.parametrize("k_kick", [5, 3, 4], ids=["inside", "chunk end", "chunk start"])
def test_a_record_failure_inside_a_chunk_is_the_stepwise_failure(monkeypatch, k_kick):
    # row 2 of 4 fails only in its record, at iteration k_kick of chunks of
    # 4 steps: the run names it as the step-by-step check does, with the
    # same columns of rows 0-1 up to it, the rows of run_rows are their solo
    # runs, and a solo run of row 2 returns the records, X and states of the
    # one-step chunks
    problem = flat_problem()
    config = cfg(max_iters=10, eta=1e308, seed=3)
    noises = [QUIET, QUIET, KICKED, QUIET]
    monkeypatch.setattr(optimizer, "sample_gradient", kicking_oracle(k_kick))
    monkeypatch.setattr(optimizer, "_nbytes", lambda step: 1)
    want = f"non-finite at iteration {k_kick}: step_dual_norm"

    def runs(chunk):
        monkeypatch.setattr(optimizer, "RECORD_CHUNK_BYTES", chunk)
        with np.errstate(over="ignore", invalid="ignore"):
            return (
                drive(problem, noises, config),
                run_rows(problem, seeded(noises, config), config),
                run_trajectory(problem, KICKED, replace(config, seed=5)),
                [run_trajectory(problem, QUIET, replace(config, seed=3 + r)) for r in range(2)],
            )

    stepwise_run, stepwise_rows, stepwise_solo, _ = runs(1)
    run, rows, solo, quiet = runs(4)
    assert run.failure == stepwise_run.failure == (2, k_kick, want)
    np.testing.assert_array_equal(run.columns[:, :2, : k_kick + 1],
                                  stepwise_run.columns[:, :2, : k_kick + 1])
    assert str(rows[2]) == str(stepwise_rows[2]) == f"replicate 0 (seed 5): {want}"
    for r in (0, 1, 3):
        alone = quiet[r] if r < 2 else run_trajectory(problem, QUIET, replace(config, seed=6))
        for name in _RECORD_FIELDS:
            np.testing.assert_array_equal(rows[r].arrays[name][0], column(alone, name), err_msg=name)
        np.testing.assert_array_equal(rows[r].final[0].blocks[0], alone.final.blocks[0])
    assert solo.failed == stepwise_solo.failed == want
    assert len(solo.records) == k_kick
    assert solo.records == stepwise_solo.records
    np.testing.assert_array_equal(solo.final.blocks[0], stepwise_solo.final.blocks[0])
    assert np.isfinite(solo.final.blocks[0]).all() and solo.final.blocks[0].min() < -1e307
    np.testing.assert_array_equal(solo.states[0].diag, stepwise_solo.states[0].diag)


@pytest.mark.parametrize(
    "kick, eta, k_kick, chunk, want",
    [(1e3, 1e308, 1, 2, "non-finite at iteration 1: step_dual_norm"),
     (1e200, 0.5, 2, 4, "non-finite at iteration 2: gtilde_dual_norm")],
    ids=["record", "gtilde overflow"],
)
def test_an_m1_point_fails_in_a_short_chunk_as_step_by_step(monkeypatch, kick, eta, k_kick,
                                                             chunk, want):
    # one point in M1, whose first step is recorded apart from the rest of
    # its chunk: a record failure at k = 1 ends a chunk of two steps, and a
    # Gtilde that overflows at k = 2 records the two steps kept before it;
    # either run returns the records, X and states of one-step chunks
    problem = flat_problem()
    config = cfg(max_iters=6, eta=eta, seed=3, momentum_mode=MomentumMode.M1,
                 mu_max=0.6, beta=0.5)
    monkeypatch.setattr(optimizer, "sample_gradient", kicking_oracle(k_kick, kick))
    monkeypatch.setattr(optimizer, "_nbytes", lambda step: 1)

    def run(c):
        monkeypatch.setattr(optimizer, "RECORD_CHUNK_BYTES", c)
        with np.errstate(over="ignore", invalid="ignore"):
            return run_trajectory(problem, KICKED, config)

    stepwise_run, got = run(1), run(chunk)
    assert got.failed == stepwise_run.failed == want
    assert len(got.records) == k_kick
    assert got.records == stepwise_run.records
    np.testing.assert_array_equal(got.final.blocks[0], stepwise_run.final.blocks[0])
    np.testing.assert_array_equal(got.states[0].diag, stepwise_run.states[0].diag)


# -- a step's factorizations fanned out to the worker thread --------------------

MATRIX_BLOCKS = ("matfact", [BlockShape(64, 32, Geometry.SHAMPOO), BlockShape(32, 48, Geometry.MUON)])
FAN_OUT_SPACES = {
    "matrix_blocks": MATRIX_BLOCKS,
    "full64+shampoo24x16": (
        "quadratic", [BlockShape(64, 1, Geometry.FULL_ADAGRAD), BlockShape(24, 16, Geometry.SHAMPOO)]
    ),
    "potentials shampoo": RECORD_SPACES["shampoo"],
}


@pytest.mark.parametrize("space", FAN_OUT_SPACES)
def test_fanned_out_factorizations_do_not_change_a_bit(monkeypatch, worker, space):
    # every step fanned out (threshold 0) gives the columns, X and states of
    # every step in order (threshold above any block), in every mode, exact
    # and noisy, for one row and for a stack of three
    kind, shapes = FAN_OUT_SPACES[space]
    problem = make_problem(kind, shapes, seed=3)
    for mode in MomentumMode:
        config = cfg(max_iters=5, eta=0.4, seed=5, momentum_mode=mode,
                     mu_max=0.0 if mode is MomentumMode.NONE else 0.6, beta=0.5)
        for noise in (NoiseModel(), STACK_NOISES["additive"]):
            for R in (1, 3):
                runs = []
                for threshold in (0, 10**9):
                    monkeypatch.setattr(psd_linalg, "_WORKER_CALLS", {})
                    monkeypatch.setattr(psd_linalg, "_CONCURRENT_DIM", threshold)
                    worker.futures.clear()
                    run = drive(problem, [noise] * R, config)
                    assert run.failure is None
                    assert len(worker.futures) == (config.max_iters if threshold == 0 else 0)
                    runs.append((run.columns, run.X, run.states))
                assert_same_run(*runs)


def test_a_step_fails_as_in_order_when_its_worker_call_fails(monkeypatch, worker):
    # on the matrix_blocks space the worker takes the 64 x 64 left Kronecker
    # factor; with it and the right factor failing, the step raises the left
    # one's error, as in order, once the worker is done
    kind, shapes = MATRIX_BLOCKS
    problem = make_problem(kind, shapes, seed=3)
    X, G = problem.x0, problem.eval_grad(problem.x0)
    states = [geom_init(s, 1.0) for s in shapes]
    real = psd_linalg.eigh_clamped

    def failing(M, floor=None):
        if M.shape[-1] in (64, 32):
            raise np.linalg.LinAlgError(f"eigh of {M.shape[-1]} x {M.shape[-1]} failed")
        return real(M, floor=floor)

    monkeypatch.setattr(psd_linalg, "eigh_clamped", failing)
    with pytest.raises(np.linalg.LinAlgError, match="eigh of 64 x 64 failed"):
        adprec_step(shapes, X, G, states, None, cfg(), 0)
    assert len(worker.futures) == 1 and worker.futures[0].done()


def refused_worker(*args, **kwargs):
    raise AssertionError("the worker thread was started")


VEC_REPLICATES = RECORD_SPACES["vec_replicates"]


@pytest.mark.parametrize(
    "cpus, blas_threads, runs",
    [(2, "1", "potentials"), (2, "1", "vec_replicates"), (1, "1", "matrix_blocks"),
     (2, None, "matrix_blocks"), (2, "0", "matrix_blocks"), (2, "²", "matrix_blocks"),
     (2, "١", "matrix_blocks")],
    ids=["potentials", "vec_replicates", "matrix_blocks-one-cpu", "matrix_blocks-blas-on-every-cpu",
         "matrix_blocks-blas-threads-0", "matrix_blocks-blas-threads-²",
         "matrix_blocks-blas-threads-١"],
)
def test_the_serial_side_never_starts_the_worker(monkeypatch, cpus, blas_threads, runs):
    # below the size threshold (the potentials suite's six stacks, as the
    # suite runs them, and vec_replicates' stack of 16), on one CPU, and with
    # BLAS on every CPU (OPENBLAS_NUM_THREADS unset, or 0, which OpenBLAS
    # reads as unset, or digits other than ASCII ones, which its atoi does
    # not read), every factorization runs on the calling thread
    set_cpus(monkeypatch, cpus, blas_threads)
    monkeypatch.setattr(_second_cpu, "_worker", None)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refused_worker)
    noisy = STACK_NOISES["additive"]
    if runs == "potentials":
        for _, problem, exact, config in potential_configurations(K=20, seed=3)[::2]:
            noises = [replace(noisy, sigma=(0.5,) * len(problem.shapes)), exact]
            results = run_rows(problem, seeded(noises, config), config)
            assert not any(isinstance(r, NonFiniteIterate) for r in results)
    elif runs == "vec_replicates":
        problem = make_problem(VEC_REPLICATES[0], VEC_REPLICATES[1], seed=3)
        run_replicates(problem, noisy, cfg(max_iters=10, eta=0.25), R=16)
    else:
        problem = make_problem(*MATRIX_BLOCKS, seed=3)
        assert run_trajectory(problem, noisy, cfg(max_iters=3, eta=0.5)).failed is None
    assert _second_cpu._worker is None


# -- each chunk recorded while the next step runs --------------------------------

# the matrix_blocks space, with the worker forced on, in chunks of one step,
# and a space of small factorized blocks, always in order, in chunks of three
PENDING_SPACES = {
    "worker": (MATRIX_BLOCKS, 1),
    "serial": (("matfact", [BlockShape(4, 3, Geometry.SHAMPOO), BlockShape(3, 5, Geometry.MUON)]), 3),
}
PENDING_NOISE = STACK_NOISES["additive"]


def pending_space(monkeypatch, space):
    """(problem, config, C) for a 6-step run of a PENDING_SPACES space in
    chunks of C steps."""
    (kind, shapes), C = PENDING_SPACES[space]
    monkeypatch.setattr(psd_linalg, "_WORKER_CALLS", {})
    if space == "worker":
        monkeypatch.setattr(_second_cpu, "_blas_threads", lambda: 1)
        monkeypatch.setattr(_second_cpu, "_cpus", lambda: 2)
    monkeypatch.setattr(optimizer, "_nbytes", lambda step: 1)
    monkeypatch.setattr(optimizer, "RECORD_CHUNK_BYTES", C)
    return make_problem(kind, shapes, seed=3), cfg(max_iters=6, eta=0.5, seed=5), C


def recording_step(j, C):
    """The step that records the chunk of C steps holding step j."""
    return C * (j // C + 1)


def iterate_at(problem, config, k, r=0):
    """Replicate r's iterate X_k, from its solo run."""
    return run_trajectory(problem, PENDING_NOISE, replace(config, seed=config.seed + r,
                                                          max_iters=k)).final


def objective_failing_at(problem, point, error=None):
    """problem with an eval_f that is NaN at `point`, per point of a stack,
    or that raises error on a stack that holds it."""

    def f(X):
        value = problem.eval_f(X)
        hit = np.logical_and.reduce(
            [np.all(b == p, axis=(-2, -1)) for b, p in zip(X.blocks, point.blocks)])
        if error is not None and hit.any():
            raise error
        return np.where(hit, math.nan, value)

    return replace(problem, eval_f=f)


def failing_step(monkeypatch, k_fail, where):
    """Make step k_fail of a stack of fail["rows"] rows raise, in its
    factorization (every ``psd_linalg._run`` call of the step) or in its
    first pass (``geom_accumulate``); return fail, whose "threads" are the
    threads that ran a factorization and "steps" the steps begun."""
    fail = {"rows": 1, "threads": set(), "steps": 0}
    at, real_step, real_run = [None], optimizer.adprec_step, psd_linalg._run
    real_accumulate = optimizer.geom_accumulate

    def step(shapes, X, *args, **kwargs):
        rows = X.blocks[0].shape[0] if X.blocks[0].ndim == 3 else 1
        at[0] = args[-1] if rows == fail["rows"] else None
        fail["steps"] += 1
        return real_step(shapes, X, *args, **kwargs)

    def check(here):
        if where == here and at[0] == k_fail:
            raise np.linalg.LinAlgError(f"step {k_fail} failed in its {where}")

    def run(call):
        fail["threads"].add(threading.current_thread())
        check("factorization")
        return real_run(call)

    def accumulate(*args):
        check("first pass")
        return real_accumulate(*args)

    monkeypatch.setattr(optimizer, "adprec_step", step)
    monkeypatch.setattr(psd_linalg, "_run", run)
    monkeypatch.setattr(optimizer, "geom_accumulate", accumulate)
    return fail


@pytest.mark.parametrize("where", [None, "factorization", "first pass"])
@pytest.mark.parametrize("space", PENDING_SPACES)
def test_a_failing_pending_chunk_wins_over_the_next_steps_error(monkeypatch, space, where):
    # step 1's f_value is non-finite, and the step that records its chunk
    # raises or not: the run returns the failure of step 1 with the records,
    # X and states of the solo run that stops after it, as recording the
    # chunk before that step does, and drops that step, the one it runs
    # past the failing chunk; a stack
    # of two whose row 1 fails so reruns row 0, which runs clean, and names
    # row 1
    problem, config, C = pending_space(monkeypatch, space)
    j = 1
    k_next = recording_step(j, C)
    alone = run_trajectory(problem, PENDING_NOISE, replace(config, max_iters=j + 1))
    points = [iterate_at(problem, config, j, r) for r in (0, 1)]
    fail = failing_step(monkeypatch, k_next, where)
    traj = run_trajectory(objective_failing_at(problem, points[0]), PENDING_NOISE, config)
    assert fail["steps"] == k_next + 1
    fail["rows"] = 2
    with pytest.raises(NonFiniteIterate) as err:
        run_replicates(objective_failing_at(problem, points[1]), PENDING_NOISE, config, 2)
    assert traj.failed == f"non-finite at iteration {j}: f_value"
    assert traj.records == alone.records[:j]
    assert_same_run((0, traj.final, traj.states), (0, alone.final, alone.states))
    assert str(err.value) == f"replicate 1 (seed 6): non-finite at iteration {j}: f_value"
    assert len(fail["threads"]) == (2 if space == "worker" else 1)


@pytest.mark.parametrize("where", [None, "factorization", "first pass"])
@pytest.mark.parametrize("j", [1, 5], ids=["next step", "after the loop"])
@pytest.mark.parametrize("space", PENDING_SPACES)
def test_an_error_of_a_pending_record_propagates_in_place_of_the_steps(monkeypatch, space, j,
                                                                      where):
    # a record that raises, whether the next step then raises or not (or
    # there is none), raises its own error, as recording its chunk before
    # that step does
    problem, config, C = pending_space(monkeypatch, space)
    points = [iterate_at(problem, config, j, r) for r in (0, 1)]
    fail = failing_step(monkeypatch, recording_step(j, C), where)
    with pytest.raises(RuntimeError, match="record failed"):
        run_trajectory(objective_failing_at(problem, points[0], RuntimeError("record failed")),
                       PENDING_NOISE, config)
    fail["rows"] = 2
    with pytest.raises(RuntimeError, match="record failed"):
        run_replicates(objective_failing_at(problem, points[1], RuntimeError("record failed")),
                       PENDING_NOISE, config, 2)


@pytest.mark.parametrize("where", ["factorization", "first pass"])
@pytest.mark.parametrize("space", PENDING_SPACES)
def test_a_step_that_raises_after_a_clean_record_raises_its_own_error(monkeypatch, space, where):
    # the step after a clean chunk raises: its error propagates once the
    # chunk is recorded, as it does when the chunk is recorded before it
    problem, config, C = pending_space(monkeypatch, space)
    k_next = recording_step(1, C)
    calls = counted_records(monkeypatch)
    fail = failing_step(monkeypatch, k_next, where)
    for R in (1, 2):
        calls.clear()
        fail["rows"] = R
        with pytest.raises(np.linalg.LinAlgError, match=f"step {k_next} failed in its {where}"):
            run_replicates(problem, PENDING_NOISE, config, R)
        assert len(calls) == k_next // C
    with pytest.raises(np.linalg.LinAlgError, match=f"step {k_next} failed in its {where}"):
        fail["rows"] = 1
        run_trajectory(problem, PENDING_NOISE, config)


@pytest.mark.parametrize("space", ["vec_replicates", "serial"])
def test_a_step_runs_meanwhile_once(monkeypatch, space):
    # with no factorization (after its one pass) and with one (inside it),
    # a step runs meanwhile once and returns what it returns without it
    kind, shapes = VEC_REPLICATES if space == "vec_replicates" else PENDING_SPACES[space][0]
    problem, config = make_problem(kind, shapes, seed=3), cfg(eta=0.5)
    shapes, X = problem.shapes, problem.x0
    G = problem.eval_grad(X)
    states = [geom_init(s, config.varsigma) for s in shapes]
    ran = []
    got = adprec_step(shapes, X, G, states, None, config, 0, meanwhile=lambda: ran.append(0))
    want = adprec_step(shapes, X, G, states, None, config, 0)
    assert ran == [0]
    assert_same_run((0, got[0], got[1]), (0, want[0], want[1]))


@pytest.mark.parametrize("mode", [MomentumMode.NONE, MomentumMode.M1], ids=lambda m: m.value)
@pytest.mark.parametrize("space", ["vec_replicates", "serial"])
def test_every_run_length_fills_every_column_as_step_by_step(monkeypatch, space, mode):
    # K = 0, 1, 2, C and C + 1 steps in chunks of C = 3: every chunk but
    # the last is recorded by the step after it and the last after the
    # loop, one record per chunk, and every column is that of the
    # step-by-step record
    kind, shapes = VEC_REPLICATES if space == "vec_replicates" else PENDING_SPACES[space][0]
    problem = make_problem(kind, shapes, seed=3)
    config = cfg(eta=0.4, seed=5, momentum_mode=mode,
                 mu_max=0.0 if mode is MomentumMode.NONE else 0.6, beta=0.5)
    C = 3
    monkeypatch.setattr(optimizer, "_nbytes", lambda step: 1)
    monkeypatch.setattr(optimizer, "RECORD_CHUNK_BYTES", C)
    calls = counted_records(monkeypatch)
    for noises in ([PENDING_NOISE], [PENDING_NOISE, NoiseModel()]):
        for K in (0, 1, 2, C, C + 1):
            calls.clear()
            run = drive(problem, noises, replace(config, max_iters=K))
            want = stepwise(problem, noises, replace(config, max_iters=K))
            assert run.failure is None and not np.isnan(run.columns).any()
            assert_same_run((run.columns, run.X, run.states), want)
            chunks = 1 + math.ceil((K - 1) / C) if mode is MomentumMode.M1 and K else math.ceil(K / C)
            assert len(calls) == chunks, K
