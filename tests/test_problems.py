import numpy as np
import pytest

from adprec.block_space import BlockShape, Geometry, ProductPoint, product_dual_norm_sq, total_dim
from adprec.errors import InvalidConfig
from adprec.problems import (
    NoiseKind,
    NoiseModel,
    make_problem,
    nu_curve_analytic,
    sample_gradient,
)

VEC8 = [BlockShape(8, 1, Geometry.DIAG_ADAGRAD)]


def finite_difference_grad(problem, X, h=1e-6):
    x = X.ravel()
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        fp = problem.eval_f(ProductPoint.from_flat(x + e, problem.shapes))
        fm = problem.eval_f(ProductPoint.from_flat(x - e, problem.shapes))
        g[i] = (fp - fm) / (2 * h)
    return g


@pytest.mark.parametrize(
    "kind,shapes,params",
    [
        ("quadratic", VEC8, {"condition": 30.0, "seed": 3, "b_scale": 1.0}),
        ("trigquad", VEC8, {"seed": 4, "cos_weight": 1.0}),
        ("logistic", VEC8, {"seed": 5, "samples": 32, "reg": 0.1}),
        (
            "matfact",
            [BlockShape(3, 2, Geometry.SHAMPOO), BlockShape(2, 4, Geometry.SHAMPOO)],
            {"seed": 6},
        ),
    ],
)
def test_gradients_match_finite_differences(kind, shapes, params):
    problem = make_problem(kind, shapes, **params)
    rng = np.random.default_rng(0)
    for _ in range(20):
        X = ProductPoint.from_flat(rng.standard_normal(total_dim(shapes)), shapes)
        g = problem.eval_grad(X).ravel()
        fd = finite_difference_grad(problem, X)
        denom = max(1.0, np.linalg.norm(g))
        assert np.linalg.norm(g - fd) / denom < 1e-5
        assert problem.eval_f(X) >= problem.f_low - 1e-12


def test_quadratic_contracts():
    problem = make_problem("quadratic", VEC8, H=np.eye(8), b=np.zeros(8))
    assert problem.f_low == 0.0
    assert problem.lipschitz == pytest.approx(1.0)
    rng = np.random.default_rng(1)
    X = ProductPoint.from_flat(rng.standard_normal(8), VEC8)
    np.testing.assert_allclose(problem.eval_grad(X).ravel(), X.ravel())


def test_trigquad_hand_example():
    shapes = [BlockShape(2, 1, Geometry.ADANORM)]
    problem = make_problem("trigquad", shapes, A=np.eye(2), b=np.zeros(2), cos_weight=1.0)
    X0 = ProductPoint.from_flat(np.zeros(2), shapes)
    assert problem.eval_f(X0) == pytest.approx(2.0)
    np.testing.assert_allclose(problem.eval_grad(X0).ravel(), np.zeros(2), atol=1e-14)
    assert problem.f_low == pytest.approx(-2.0)
    assert problem.lipschitz == pytest.approx(2.0)  # |A^T A| + c


def test_matfact_zero_target():
    shapes = [BlockShape(3, 2, Geometry.SHAMPOO), BlockShape(2, 4, Geometry.SHAMPOO)]
    problem = make_problem("matfact", shapes, seed=0, target_scale=0.0)
    X0 = ProductPoint.zeros(shapes)
    assert problem.eval_f(X0) == 0.0 == problem.f_low
    for b in problem.eval_grad(X0).blocks:
        np.testing.assert_array_equal(b, np.zeros_like(b))
    assert problem.lipschitz is None


def test_matfact_shape_validation():
    bad = [BlockShape(3, 2, Geometry.SHAMPOO), BlockShape(3, 4, Geometry.SHAMPOO)]
    with pytest.raises(InvalidConfig):
        make_problem("matfact", bad)


def test_unknown_problem_kind():
    with pytest.raises(InvalidConfig):
        make_problem("nope", VEC8)


def test_exact_oracle_returns_gradient():
    problem = make_problem("quadratic", VEC8, seed=0)
    rng = np.random.default_rng(0)
    X = problem.x0
    G = problem.eval_grad(X)
    Gt = sample_gradient(problem, NoiseModel(), X, 0, rng)
    for a, b in zip(G.blocks, Gt.blocks):
        np.testing.assert_array_equal(a, b)
    noise0 = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(0.0,), alpha=1.0)
    Gt0 = sample_gradient(problem, noise0, X, 0, rng)
    for a, b in zip(G.blocks, Gt0.blocks):
        np.testing.assert_array_equal(a, b)


def test_additive_noise_variance_matches_model():
    problem = make_problem("quadratic", VEC8, seed=0)
    noise = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(1.0,), alpha=2.0)
    rng = np.random.default_rng(123)
    X = problem.x0
    G = problem.eval_grad(X)
    draws = 10_000
    sq = np.empty(draws)
    for i in range(draws):
        Gt = sample_gradient(problem, noise, X, 0, rng, exact_grad=G)
        sq[i] = product_dual_norm_sq(
            ProductPoint([a - b for a, b in zip(Gt.blocks, G.blocks)]), problem.shapes
        )
    # model: E |Gt - G|^2 = sigma^2 / (k+1)^alpha = 1 at k = 0
    assert np.mean(sq) == pytest.approx(1.0, rel=0.05)


def test_unbiasedness():
    problem = make_problem("quadratic", VEC8, seed=0)
    noise = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(1.0,), alpha=1.0)
    rng = np.random.default_rng(7)
    X = problem.x0
    G = problem.eval_grad(X)
    draws = 10_000
    acc = np.zeros(8)
    for _ in range(draws):
        Gt = sample_gradient(problem, noise, X, 0, rng, exact_grad=G)
        acc += (Gt.blocks[0] - G.blocks[0]).ravel()
    mean_dev = np.linalg.norm(acc / draws)
    assert mean_dev <= 4.0 * 1.0 / np.sqrt(draws)


def test_multiplicative_noise_uses_previous_z():
    problem = make_problem("quadratic", VEC8, seed=0)
    noise = NoiseModel(
        kind=NoiseKind.ADDITIVE_PLUS_MULTIPLICATIVE, sigma=(0.0,), alpha=1.0, omega=1.0
    )
    X = problem.x0
    G = problem.eval_grad(X)
    # zero previous step: the multiplicative term vanishes
    rng = np.random.default_rng(0)
    Gt = sample_gradient(problem, noise, X, 0, rng, z_prev=ProductPoint.zeros(VEC8), exact_grad=G)
    for a, b in zip(G.blocks, Gt.blocks):
        np.testing.assert_array_equal(a, b)
    # nonzero previous step: block variance tracks omega^2 |Z_prev|^2
    z_prev = ProductPoint.from_flat(np.full(8, 0.5), VEC8)
    zn_sq = product_dual_norm_sq(z_prev, VEC8)
    rng = np.random.default_rng(1)
    draws, acc = 10_000, 0.0
    for _ in range(draws):
        Gt = sample_gradient(problem, noise, X, 3, rng, z_prev=z_prev, exact_grad=G)
        acc += product_dual_norm_sq(
            ProductPoint([a - b for a, b in zip(Gt.blocks, G.blocks)]), VEC8
        )
    assert acc / draws == pytest.approx(noise.omega**2 * zn_sq, rel=0.05)


def test_minibatch_average_over_singletons_is_exact():
    problem = make_problem("logistic", VEC8, seed=2, samples=16, reg=0.05)
    X = problem.x0
    G = problem.eval_grad(X).ravel()
    acc = np.zeros_like(G)
    for i in range(problem.num_components):
        acc += problem.component_grad(X, np.array([i])).ravel()
    np.testing.assert_allclose(acc / problem.num_components, G, atol=1e-12)


def test_minibatch_oracle_draws_subsets():
    problem = make_problem("logistic", VEC8, seed=2, samples=16, reg=0.05)
    noise = NoiseModel(kind=NoiseKind.MINI_BATCH, batch=4)
    rng = np.random.default_rng(3)
    Gt = sample_gradient(problem, noise, problem.x0, 0, rng)
    assert Gt.blocks[0].shape == (8, 1)
    with pytest.raises(InvalidConfig):
        # no component gradients on a non-finite-sum problem
        sample_gradient(make_problem("quadratic", VEC8), noise, problem.x0, 0, rng)


def test_nu_k_analytic_values():
    nu = nu_curve_analytic(NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(1.0,), alpha=2.0), 1, 1)
    assert nu[0] == pytest.approx(1.0)
    curve = nu_curve_analytic(
        NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(1.0,), alpha=1.0), 1, 3
    )
    assert curve[2] ** 2 == pytest.approx(11.0 / 6.0, rel=1e-12)
    np.testing.assert_array_equal(nu_curve_analytic(NoiseModel(), 1, 6), np.zeros(6))
    with pytest.raises(InvalidConfig):
        nu_curve_analytic(NoiseModel(kind=NoiseKind.MINI_BATCH), 1, 2)


def test_sigma_per_block_validation():
    noise = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(1.0, 2.0), alpha=1.0)
    with pytest.raises(InvalidConfig):
        noise.sigma_for(3)
    np.testing.assert_array_equal(noise.sigma_for(2), [1.0, 2.0])
    assert noise.sigma_tot_sq(2) == 5.0
    with pytest.raises(InvalidConfig):
        noise.sigma_tot_sq(3)
    # a one-entry list is drawn on every block, so it counts once per block
    assert NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(2.0,)).sigma_tot_sq(3) == 12.0
