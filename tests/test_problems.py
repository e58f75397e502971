import math

import numpy as np
import pytest

from adprec.block_space import BlockShape, Geometry, ProductPoint, product_dual_norm_sq, total_dim
from adprec.errors import InvalidConfig
from adprec.problems import (
    NORMAL_CHUNK,
    NoiseKind,
    NoiseModel,
    NormalStreams,
    make_problem,
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
    Gt = sample_gradient(problem, noise, X, 0, rng, z_prev_norms=[0.0], exact_grad=G)
    for a, b in zip(G.blocks, Gt.blocks):
        np.testing.assert_array_equal(a, b)
    # nonzero previous step: block variance tracks omega^2 |Z_prev|^2
    z_prev = ProductPoint.from_flat(np.full(8, 0.5), VEC8)
    zn_sq = product_dual_norm_sq(z_prev, VEC8)
    rng = np.random.default_rng(1)
    draws, acc = 10_000, 0.0
    for _ in range(draws):
        Gt = sample_gradient(
            problem, noise, X, 3, rng, z_prev_norms=[np.sqrt(zn_sq)], exact_grad=G
        )
        acc += product_dual_norm_sq(
            ProductPoint([a - b for a, b in zip(Gt.blocks, G.blocks)]), VEC8
        )
    assert acc / draws == pytest.approx(noise.omega**2 * zn_sq, rel=0.05)


@pytest.mark.parametrize(
    "kind", [NoiseKind.EXACT, NoiseKind.ADDITIVE_DECAYING, NoiseKind.MINI_BATCH]
)
def test_omega_needs_the_multiplicative_oracle(kind):
    # only AdditivePlusMultiplicative draws omega's noise, so no other kind
    # may carry an omega the published bounds would count
    NoiseModel(kind=kind, sigma=(0.5,), omega=0.0)
    with pytest.raises(InvalidConfig, match="AdditivePlusMultiplicative"):
        NoiseModel(kind=kind, sigma=(0.5,), omega=5.0)
    NoiseModel(kind=NoiseKind.ADDITIVE_PLUS_MULTIPLICATIVE, sigma=(0.5,), omega=5.0)


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


@pytest.mark.parametrize("kind", ["quadratic", "trigquad", "logistic", "matfact"])
def test_stacked_points_equal_points_alone(kind):
    # objective, gradient and oracle on a stack of 3 points: item r is the
    # call on point r alone, bit for bit, the oracle drawing from rng r
    shapes = [BlockShape(3, 2, Geometry.SHAMPOO), BlockShape(2, 4, Geometry.MUON)]
    problem = make_problem(kind, shapes, seed=5)
    rng = np.random.default_rng(6)
    points = [ProductPoint([rng.standard_normal((s.rows, s.cols)) for s in shapes])
              for _ in range(3)]
    stack = ProductPoint([np.stack(blocks) for blocks in zip(*(p.blocks for p in points))])
    f, G = problem.eval_f(stack), problem.eval_grad(stack)
    noises = [NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(0.5,), alpha=1.0),
              NoiseModel(kind=NoiseKind.ADDITIVE_PLUS_MULTIPLICATIVE, sigma=(0.5,), omega=0.7)]
    if problem.component_grad is not None:
        noises.append(NoiseModel(kind=NoiseKind.MINI_BATCH, batch=3))
    z_prev = [np.array([0.0, 1.5, 2.0]), np.array([0.3, 0.0, 1.0])]
    draws = [sample_gradient(problem, n, stack, 2,
                             NormalStreams([np.random.default_rng(s) for s in range(3)]),
                             z_prev_norms=z_prev) for n in noises]
    for r, point in enumerate(points):
        assert f[r] == problem.eval_f(point)
        for got, want in zip(G.blocks, problem.eval_grad(point).blocks):
            np.testing.assert_array_equal(got[r], want)
        for n, draw in zip(noises, draws):
            alone = sample_gradient(problem, n, point, 2, np.random.default_rng(r),
                                    z_prev_norms=[z[r] for z in z_prev])
            for got, want in zip(draw.blocks, alone.blocks):
                np.testing.assert_array_equal(got[r], want)


def row_major_items(P):
    """Whether every (rows, cols) item of every block of P is row-major."""
    return all(item.flags.c_contiguous for b in P.blocks for item in (b if b.ndim == 3 else [b]))


@pytest.mark.parametrize("kind", ["quadratic", "trigquad", "logistic", "matfact"])
def test_every_block_the_program_returns_has_row_major_items(kind):
    # a Euclidean block sums its entries in memory order, so an exact
    # gradient and a noisy draw round alike only in one layout
    shapes = [BlockShape(3, 2, Geometry.SHAMPOO), BlockShape(2, 4, Geometry.MUON)]
    problem = make_problem(kind, shapes, seed=5)
    point = problem.x0
    rng = np.random.default_rng(6)
    stack = ProductPoint.from_flat(rng.standard_normal((3, total_dim(shapes))), shapes)
    noises = [
        NoiseModel(),
        NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(0.5,)),
        NoiseModel(kind=NoiseKind.ADDITIVE_PLUS_MULTIPLICATIVE, sigma=(0.5,), omega=0.7),
        NoiseModel(kind=NoiseKind.MINI_BATCH, batch=3),
    ]
    assert {n.kind for n in noises} == set(NoiseKind)
    for X, rngs, z_prev in [
        (point, np.random.default_rng(7), [1.5, 2.0]),
        (stack, NormalStreams([np.random.default_rng(s) for s in range(3)]),
         [np.array([0.0, 1.5, 2.0])] * 2),
    ]:
        assert row_major_items(X)
        assert row_major_items(problem.eval_grad(X))
        if problem.component_grad is not None:
            idx = np.arange(4) if X is point else np.arange(12).reshape(3, 4)
            assert row_major_items(problem.component_grad(X, idx))
        for noise in noises:
            if noise.kind is NoiseKind.MINI_BATCH and problem.component_grad is None:
                continue
            draw = sample_gradient(problem, noise, X, 2, rngs, z_prev_norms=z_prev)
            assert row_major_items(draw), noise.kind


def test_row_streams_read_each_generators_own_numbers():
    # three rows over vector and matrix blocks, read through a chunk
    # boundary (and, in the second space, with a block longer than a chunk):
    # row r of every draw is what default_rng(seed + r) gives block by
    # block.  sigma_l = sqrt(d_l) and alpha ~ 0 make the additive
    # scale exactly 1, and z_prev = sqrt(d_l) with omega = 1 the
    # multiplicative one, so a draw with G = 0 is the normals themselves.
    spaces = [
        [BlockShape(5, 1, Geometry.DIAG_ADAGRAD), BlockShape(3, 4, Geometry.SHAMPOO),
         BlockShape(2, 3, Geometry.MUON)],
        [BlockShape(5, 1, Geometry.ADANORM), BlockShape(40, 30, Geometry.MUON)],
    ]
    seed = 11
    for shapes in spaces:
        problem = make_problem("quadratic", shapes, seed=0)
        dims = [s.dim for s in shapes]
        K = 3 * NORMAL_CHUNK // sum(dims) + 2
        for kind in (NoiseKind.ADDITIVE_DECAYING, NoiseKind.ADDITIVE_PLUS_MULTIPLICATIVE):
            multiplicative = kind is NoiseKind.ADDITIVE_PLUS_MULTIPLICATIVE
            noise = NoiseModel(kind=kind, sigma=tuple(math.sqrt(d) for d in dims), alpha=1e-300,
                               omega=1.0 if multiplicative else 0.0)
            R, read = 3, 0
            streams = NormalStreams([np.random.default_rng(seed + r) for r in range(R)])
            alone = [np.random.default_rng(seed + r) for r in range(R)]
            for k in range(K):
                # rows whose masks differ from step to step and block to block
                z_prev = None
                if multiplicative and k > 0:
                    z_prev = [np.array([math.sqrt(d) if (k + r + ell) % 3 else 0.0
                                        for r in range(R)]) for ell, d in enumerate(dims)]
                zeros = ProductPoint([np.zeros((R, s.rows, s.cols)) for s in shapes])
                draw = sample_gradient(problem, noise, zeros, k, streams,
                                       z_prev_norms=z_prev, exact_grad=zeros)
                for r in range(R):
                    for ell, s in enumerate(shapes):
                        want = alone[r].standard_normal((s.rows, s.cols))
                        if z_prev is not None and z_prev[ell][r] > 0.0:
                            want = want + alone[r].standard_normal((s.rows, s.cols))
                        np.testing.assert_array_equal(draw.blocks[ell][r], want)
                read += sum(dims)
            assert read > 2 * NORMAL_CHUNK
