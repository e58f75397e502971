import math

import numpy as np
import pytest

from adprec.block_space import BlockShape, Geometry
from adprec.bounds import (
    BoundConstants,
    bound_constants,
    compute_theta,
    compute_theta_m2,
    kappa_0,
    m1_noise_constants,
    m2_constants,
    m2_theta_noise_curve,
    nu_curve_analytic,
    published_bounds,
    rate_slack,
    theta_slack,
)
from adprec.errors import InvalidConfig
from adprec.optimizer import MomentumMode, OptimizerConfig
from adprec.problems import NoiseKind, NoiseModel, make_problem

DIAG8 = [BlockShape(8, 1, Geometry.DIAG_ADAGRAD)]


def cfg(**kw):
    base = dict(eta=1.0, varsigma=1.0, max_iters=100, seed=0)
    base.update(kw)
    return OptimizerConfig(**base)


# -- constants and Theta --------------------------------------------------------


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
    # 0.25 <= (0.5/0.5) * sqrt(1/12) = 0.2887, so the stepsize hypothesis holds
    kappa_nunu, kappa_delta = m2_constants(constants, 0.5)
    assert kappa_nunu == 50.51330080756888
    assert kappa_nunu == pytest.approx(0.25 * (72 + math.sqrt(48) + 2.5625 * 48 + 0.125))
    assert kappa_delta == 5.375
    # the M2 gap is the momentum-free kappa_gap = 3; at zero noise its term
    # 3 * 3 / eta = 36 loses to the last one, 24 N kappa_delta (L/eta) log(...)
    assert constants.kappa_gap == 3.0
    y = 24.0 * 8 * kappa_delta * (0.0 + 1.0 / 0.25)
    assert compute_theta_m2(constants, kappa_nunu, kappa_delta, 0.0) == y * math.log(y)

    # violating the stepsize hypothesis is a config error
    big_eta = BoundConstants(
        shapes=tuple(DIAG8), eta=5.0, varsigma=1.0, L_G=1.0, f0=1.0, f_low=0.0
    )
    with pytest.raises(InvalidConfig):
        m2_constants(big_eta, 0.5)


# -- noise curves -----------------------------------------------------------------


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


def test_m2_envelope_rejects_mini_batch_oracle():
    # the momentum-weighted noise curve has no closed form for a mini-batch
    # oracle, exactly as nu_k has none
    problem = make_problem("logistic", DIAG8, seed=0)
    noise = NoiseModel(kind=NoiseKind.MINI_BATCH, batch=4)
    c = cfg(max_iters=20, eta=0.25, momentum_mode=MomentumMode.M2, mu_max=0.5)
    with pytest.raises(InvalidConfig):
        m2_theta_noise_curve(noise, c, len(DIAG8))
    with pytest.raises(InvalidConfig):
        published_bounds(problem, noise, c)
    np.testing.assert_array_equal(m2_theta_noise_curve(NoiseModel(), c, 1), np.zeros(20))


# -- envelopes under multiplicative noise ------------------------------------------


def multiplicative(omega):
    return NoiseModel(kind=NoiseKind.ADDITIVE_PLUS_MULTIPLICATIVE, sigma=(1.0,), omega=omega)


def test_m2_envelope_counts_multiplicative_noise():
    # the last term of the M2 envelope carries omega^2, so a multiplicative
    # oracle must lift the published envelope above the additive-only one
    problem = make_problem("quadratic", DIAG8, seed=7)
    c = cfg(max_iters=5, eta=0.25, momentum_mode=MomentumMode.M2, mu_max=0.5)
    last = {om: published_bounds(problem, multiplicative(om), c).theta[-1] for om in (0.0, 5.0)}
    assert last[5.0] > last[0.0]


def test_m1_envelope_has_no_multiplicative_form():
    # the first variant's constants replace omega, so its bound would
    # silently drop the oracle's multiplicative noise: omega > 0 is refused,
    # and omega = 0 is the additive-only envelope
    problem = make_problem("quadratic", DIAG8, seed=7)
    c = cfg(max_iters=5, momentum_mode=MomentumMode.M1, mu_max=0.5)
    additive = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(1.0,))
    got, want = published_bounds(problem, multiplicative(0.0), c), published_bounds(problem, additive, c)
    np.testing.assert_array_equal(got.theta, want.theta)
    np.testing.assert_array_equal(got.rate, want.rate)
    with pytest.raises(InvalidConfig, match="multiplicative"):
        published_bounds(problem, multiplicative(5.0), c)
    # without momentum the multiplicative level still enters the envelope
    free = cfg(max_iters=5)
    assert (
        published_bounds(problem, multiplicative(5.0), free).theta[-1]
        > published_bounds(problem, multiplicative(0.0), free).theta[-1]
    )


# -- slacks ------------------------------------------------------------------------


def test_slacks_with_zero_allowance_round_as_without():
    # theta: (theta - (tr - 0)) / (1 + |theta|) is (theta - tr) / (1 + theta)
    # for the positive envelope; rate: an all-zero se array is se = 0.0
    rng = np.random.default_rng(0)
    theta = np.exp(rng.uniform(1.0, 10.0, 50))
    tr = theta * rng.uniform(0.0, 2.0, 50)
    np.testing.assert_array_equal(theta_slack(theta, tr), (theta - tr) / (1.0 + theta))
    np.testing.assert_array_equal(theta_slack(theta, tr, np.zeros(50)), theta_slack(theta, tr))
    grad, rhs = rng.uniform(0.0, 3.0, 50), rng.uniform(0.0, 3.0, 50)
    np.testing.assert_array_equal(rate_slack(grad, rhs, np.zeros(50)), rate_slack(grad, rhs))


def test_rate_slack_hand_values():
    # running averages 1, 2, 3 against a bound of 2 everywhere
    np.testing.assert_array_equal(
        rate_slack(np.array([1.0, 3.0, 5.0]), np.full(3, 2.0)), [1 / 3, 0.0, -1 / 3]
    )


@pytest.mark.parametrize(
    "mode, noise, keys",
    [
        (MomentumMode.NONE, NoiseModel(), ["master", "theta", "rate"]),
        (MomentumMode.M1, NoiseModel(), ["errE", "theta", "rate"]),
        (MomentumMode.M1, NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(0.5,)), ["theta", "rate"]),
        (MomentumMode.M2, NoiseModel(), ["theta", "rate"]),
    ],
    ids=["none", "m1-exact", "m1-additive", "m2"],
)
def test_published_slack_sets(mode, noise, keys):
    # the momentum mode picks its slack set in bounds alone, in this key order
    problem = make_problem("quadratic", DIAG8, seed=7)
    published = published_bounds(problem, noise, cfg(max_iters=5, eta=0.25, momentum_mode=mode, mu_max=0.5))
    columns = ("trace_sqrt_total", "delta_k", "grad_dual_norm", "mom_err_sq", "z_dual_norm_sq")
    mean = {column: np.ones(5) for column in columns}
    allowance = {column: np.zeros(5) for column in columns}
    assert list(published.slacks(mean, allowance)) == keys
