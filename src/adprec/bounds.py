"""The published convergence bounds: constants, noise budgets, both Theta
envelopes, the rate bound of each momentum mode (`envelope_and_rate`, what
`adprec run` publishes), and the normalized slacks (>= 0 where a bound
holds) that the bound audits take of record columns."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .block_space import BlockShape, total_dim
from .errors import InvalidConfig
from .optimizer import MomentumMode, OptimizerConfig, mu_schedule
from .problems import NoiseKind, NoiseModel, Problem

KAPPA_CIRC = 1.0  # gradient/preconditioner compatibility constant, all geometries
KAPPA_BOX = 2.0  # sub-additivity constant of the quadratic maps
KAPPA_DIAMOND = 1.0  # trace-domination constant


def kappa_0(shapes, varsigma) -> float:
    """-sum_l d_l log d_l - N log(varsigma); may be negative."""
    return float(
        -sum(s.dim * math.log(s.dim) for s in shapes) - total_dim(shapes) * math.log(varsigma)
    )


@dataclass(frozen=True)
class BoundConstants:
    """Constants entering the telescoping and Theta bounds.  The derived
    ones are computed once per instance: an envelope reads them at every
    iteration."""

    shapes: tuple[BlockShape, ...]
    eta: float
    varsigma: float
    L_G: float
    f0: float
    f_low: float
    omega: float = 0.0

    @cached_property
    def N(self) -> int:
        return total_dim(self.shapes)

    @cached_property
    def kappa_gap(self) -> float:
        return self.f0 - self.f_low + self.eta * self.varsigma * self.N

    @cached_property
    def kappa_0(self) -> float:
        return kappa_0(self.shapes, self.varsigma)

    @cached_property
    def theta_floor(self) -> float:
        """e^max(1, 1/2N, kappa_0/2N), the first term of both Theta envelopes."""
        N = self.N
        return math.exp(max(1.0, 1.0 / (2 * N), self.kappa_0 / (2 * N)))


def bound_constants(problem: Problem, config: OptimizerConfig, omega=0.0) -> BoundConstants:
    if problem.lipschitz is None:
        raise InvalidConfig(f"problem {problem.name!r} has no Lipschitz bound")
    return BoundConstants(
        shapes=tuple(problem.shapes),
        eta=config.eta,
        varsigma=config.varsigma,
        L_G=problem.lipschitz,
        f0=problem.eval_f(problem.x0),
        f_low=problem.f_low,
        omega=omega,
    )


def _exact_oracle(noise: NoiseModel, curve: str) -> bool:
    """True for an exact oracle, whose noise curves are zero, False for an
    additive one; a mini-batch oracle has no closed form and raises
    InvalidConfig naming the curve."""
    if noise.kind is NoiseKind.MINI_BATCH:
        raise InvalidConfig(f"{curve} has no analytic form for mini-batch oracles")
    return noise.kind is NoiseKind.EXACT


def nu_curve_analytic(noise: NoiseModel, num_blocks: int, K: int) -> np.ndarray:
    """Cumulative oracle noise budget nu_k for k = 0..K-1.

    nu_k**2 = sigma_tot**2 * sum_{j=0}^{k} (j+1)**-alpha, with sigma_tot**2
    summed over num_blocks blocks as the oracle draws them.
    """
    if _exact_oracle(noise, "nu_k"):
        return np.zeros(K)
    j = np.arange(1, K + 1, dtype=float)
    return np.sqrt(noise.sigma_tot_sq(num_blocks) * np.cumsum(j ** (-noise.alpha)))


def m2_theta_noise_curve(noise: NoiseModel, config: OptimizerConfig, num_blocks: int) -> np.ndarray:
    """sqrt(sum_{j<=k} mu_j^2 sigma_tot^2 (j+1)^-alpha) for k = 0..max_iters-1,
    with sigma_tot^2 summed over num_blocks blocks."""
    K = config.max_iters
    if _exact_oracle(noise, "theta_noise"):
        return np.zeros(K)
    j = np.arange(K, dtype=float)
    mu = np.array([mu_schedule(int(t), config) for t in range(K)])
    return np.sqrt(np.cumsum(mu**2 * noise.sigma_tot_sq(num_blocks) * (j + 1.0) ** (-noise.alpha)))


def _theta(constants: BoundConstants, gap: float, a: float, y: float) -> float:
    """max[ e^max(1, 1/2N, kappa_0/2N), 3 gap / eta, a sqrt(max(1, log a)), y log y ],
    the shape shared by both Theta envelopes; a <= 0 and y <= 0 contribute 0."""
    t_k = a * math.sqrt(max(1.0, math.log(a))) if a > 0.0 else 0.0
    y_k = y * math.log(y) if y > 0.0 else 0.0
    return max(constants.theta_floor, 3.0 * gap / constants.eta, t_k, y_k)


def compute_theta(constants: BoundConstants, nu_k: float) -> float:
    """The explicit envelope on the expected summed sqrt-trace of the
    preconditioners:

        Theta_k = max[ e^max(1, 1/2N, kappa_0/2N),
                       3 kappa_gap / eta,
                       12 sqrt(N) nu_k sqrt(max(1, log(12 sqrt(N) nu_k))),
                       24 N (omega + L/eta) log(24 N (omega + L/eta)) ]
    """
    N = constants.N
    return _theta(
        constants,
        constants.kappa_gap,
        12.0 * math.sqrt(N) * nu_k,
        24.0 * N * (constants.omega + constants.L_G / constants.eta),
    )


def theta_curve(constants: BoundConstants, nu: np.ndarray) -> np.ndarray:
    return np.array([compute_theta(constants, float(v)) for v in nu])


def m1_noise_constants(constants: BoundConstants, mu_max: float):
    """Map a raw oracle budget to the constants of the first momentum variant:
    nu multiplier sqrt(6 mu^2/(1-mu)^2 + 2) and omega = sqrt(3) mu L eta / (1-mu)."""
    mult = math.sqrt(6.0 * mu_max**2 / (1.0 - mu_max) ** 2 + 2.0)
    omega = math.sqrt(3.0) * mu_max * constants.L_G * constants.eta / (1.0 - mu_max)
    return mult, omega


def m1_rate_bound(constants: BoundConstants, theta: float, k: int) -> float:
    """(2 kappa_circ Theta + sqrt(2N log Theta) + omega sqrt(max(kappa_0, 1))) / sqrt(k+1)."""
    N = constants.N
    return (
        2.0 * KAPPA_CIRC * theta
        + math.sqrt(2.0 * N * math.log(theta))
        + constants.omega * math.sqrt(max(constants.kappa_0, 1.0))
    ) / math.sqrt(k + 1.0)


def m2_eta_limit(mu_max: float, L: float, varsigma: float) -> float:
    """Largest stepsize of the alternate momentum bound's hypothesis, inf when
    mu or L is 0: (1-mu)/(mu L) sqrt(varsigma / (6 kappa_box kappa_diamond))."""
    if mu_max == 0.0 or L == 0.0:
        return math.inf
    return (1.0 - mu_max) / (mu_max * L) * math.sqrt(varsigma / (6.0 * KAPPA_BOX * KAPPA_DIAMOND))


def m2_constants(constants: BoundConstants, mu_max: float) -> tuple[float, float]:
    """(kappa_nunu, kappa_delta) of the alternate (pure-gradient accumulation)
    momentum bound.  Its stepsize hypothesis, eta <= m2_eta_limit, removes the
    momentum-weighted step-energy term, so its gap is constants.kappa_gap;
    a larger eta raises InvalidConfig."""
    eta, s, L = constants.eta, constants.varsigma, constants.L_G
    om = 1.0 - mu_max
    eta_limit = m2_eta_limit(mu_max, L, s)
    if not eta <= eta_limit:
        raise InvalidConfig(f"eta={eta} exceeds the stepsize hypothesis limit {eta_limit:.4g}")
    k1nu = 6.0 * KAPPA_DIAMOND / (om**2 * math.sqrt(s)) + 12.0 / om**2
    k1z = (
        3.0 * KAPPA_DIAMOND * mu_max**2 * L**2 * eta**2 / (om**2 * math.sqrt(s))
        + 6.0 * mu_max**2 * L**2 * eta**2 / om**2
        + 2.0
    )
    k2nu = 6.0 * KAPPA_BOX * KAPPA_DIAMOND / (om**2 * s)
    kappa_nunu = eta * (k1nu + math.sqrt(k2nu) + k1z * k2nu + L * eta / 2.0)
    return kappa_nunu, 2.0 * k1z + L * eta


def compute_theta_m2(
    constants: BoundConstants, kappa_nunu: float, kappa_delta: float, theta_noise_k: float
) -> float:
    """Alternate envelope for the pure-gradient momentum variant, from the
    two `m2_constants` and kappa_nudelta = sqrt(2).

    theta_noise_k is the momentum-weighted cumulative oracle deviation
    sqrt(sum_j mu_j^2 E|Gt_j - G_j|^2); omega is constants.omega, the
    multiplicative noise level of the oracle.  The last term uses (omega^2 + L/eta)
    as printed in its source even though the first variant uses
    (omega + L/eta); the discrepancy is deliberate and flagged here.
    """
    N = constants.N
    return _theta(
        constants,
        constants.kappa_gap + kappa_nunu * theta_noise_k**2,
        12.0 * math.sqrt(N) * math.sqrt(2.0) * theta_noise_k,
        24.0 * N * kappa_delta * (constants.omega**2 + constants.L_G / constants.eta),
    )


def envelope_and_rate(
    problem: Problem, noise: NoiseModel, config: OptimizerConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Theta_k and the averaged-gradient rate bound for k = 0..K-1, both
    chosen by the momentum mode of the run.

    None uses the analytic noise budget nu_k and the rate bound
    kappa_circ Theta_k / sqrt(k+1).  M1 scales nu_k, replaces omega by the
    first variant's constants and uses that variant's rate bound,
    `m1_rate_bound`; that bound has no multiplicative-noise form, so M1
    under an oracle with omega > 0 raises InvalidConfig.  M2 uses the
    alternate envelope on the momentum-weighted noise curve and
    kappa_circ Theta_k / sqrt(k+1).  Raises InvalidConfig when a bound
    hypothesis is not available (no Lipschitz bound, no analytic noise
    budget, or an unverified M2 stepsize).
    """
    K, B = config.max_iters, len(problem.shapes)
    constants = bound_constants(problem, config, omega=noise.omega)
    mode = config.momentum_mode
    if mode is MomentumMode.M1:
        if noise.omega > 0.0:
            raise InvalidConfig(
                f"the first momentum variant's bound has no form for multiplicative "
                f"noise (omega={noise.omega})"
            )
        mult, omega_m1 = m1_noise_constants(constants, config.mu_max)
        m1 = replace(constants, omega=omega_m1)
        theta = theta_curve(m1, mult * nu_curve_analytic(noise, B, K))
        return theta, np.array([m1_rate_bound(m1, float(t), k) for k, t in enumerate(theta)])
    if mode is MomentumMode.M2:
        m2 = m2_constants(constants, config.mu_max)
        th_noise = m2_theta_noise_curve(noise, config, B)
        theta = np.array([compute_theta_m2(constants, *m2, float(t)) for t in th_noise])
    else:
        theta = theta_curve(constants, nu_curve_analytic(noise, B, K))
    return theta, KAPPA_CIRC * theta / np.sqrt(np.arange(K, dtype=float) + 1.0)


def master_slack(constants: BoundConstants, nu, tr_sqrt, delta, se_tr, se_delta) -> np.ndarray:
    """Slack of the telescoping bound at every k,

        eta sum_l tr(Gamma_k^1/2) <= kappa_gap + eta nu_k sqrt(Delta_k)
                                     + (omega eta + L eta^2 / 2) Delta_k,

    with sum_l tr(Gamma_k^1/2) lowered by se_tr and Delta_k raised by se_delta."""
    lhs = constants.eta * tr_sqrt - se_tr * constants.eta
    coef = constants.omega * constants.eta + 0.5 * constants.L_G * constants.eta**2
    rhs = (
        constants.kappa_gap
        + constants.eta * nu * np.sqrt(np.maximum(delta + se_delta, 0.0))
        + coef * (delta + se_delta)
    )
    return (rhs - lhs) / (1.0 + np.maximum(np.abs(lhs), np.abs(rhs)))


def theta_slack(theta, tr_sqrt, se=0.0) -> np.ndarray:
    """Slack of sum_l tr(Gamma_k^1/2) - se_k <= Theta_k at every k."""
    return (theta - (tr_sqrt - se)) / (1.0 + np.abs(theta))


def rate_slack(grad, rate_rhs, se=0.0) -> np.ndarray:
    """Slack of avg_{j<=k} grad_j - avg_{j<=k} se_j <= rate_rhs_k at every k."""
    count = np.arange(len(grad), dtype=float) + 1.0
    avg = np.cumsum(grad) / count - np.cumsum(np.broadcast_to(se, count.shape)) / count
    return (rate_rhs - avg) / (1.0 + np.abs(rate_rhs))
