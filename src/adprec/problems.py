"""Synthetic smooth test problems with known lower bounds and Lipschitz
constants, plus stochastic gradient oracles with controlled variance.

Problems are immutable after construction.  Oracles draw from a
caller-supplied numpy Generator, one stream per trajectory; there is no
hidden global RNG anywhere in the package.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .block_space import (
    BlockShape,
    ProductPoint,
    block_dual_norm,
    check_point_matches,
    total_dim,
)
from .errors import InvalidConfig
from .psd_linalg import random_psd


class NoiseKind(str, enum.Enum):
    EXACT = "Exact"
    ADDITIVE_DECAYING = "AdditiveDecaying"
    ADDITIVE_PLUS_MULTIPLICATIVE = "AdditivePlusMultiplicative"
    MINI_BATCH = "MiniBatch"


@dataclass(frozen=True)
class NoiseModel:
    """Gradient-oracle noise specification.

    AdditiveDecaying draws blockwise Gaussian noise whose squared dual norm
    has conditional expectation sigma_l**2 / (k+1)**alpha on Euclidean
    blocks.  AdditivePlusMultiplicative adds an independent Gaussian whose
    scale tracks the previous preconditioned step, with block standard
    deviation omega * |Z_{k-1,l}|_dual (the previous Z, which is measurable
    before the draw; the current one is not).  MiniBatch averages the
    component gradients of a finite-sum problem over a uniform subset.
    """

    kind: NoiseKind = NoiseKind.EXACT
    sigma: tuple[float, ...] = ()
    alpha: float = 1.0
    omega: float = 0.0
    batch: int = 1

    def sigma_for(self, num_blocks: int) -> np.ndarray:
        if not self.sigma:
            return np.zeros(num_blocks)
        if len(self.sigma) == 1:
            return np.full(num_blocks, self.sigma[0])
        if len(self.sigma) != num_blocks:
            raise InvalidConfig(
                f"noise sigma has {len(self.sigma)} entries for {num_blocks} blocks"
            )
        return np.asarray(self.sigma, dtype=float)

    def sigma_tot_sq(self, num_blocks: int) -> float:
        """sum_l sigma_l**2 over num_blocks blocks, broadcast as by sigma_for."""
        return float(np.sum(self.sigma_for(num_blocks) ** 2))


@dataclass(frozen=True)
class Problem:
    """A smooth objective over a product space, with exact gradients.

    lipschitz is an upper bound on the gradient Lipschitz constant in the
    Euclidean product norm, or None when no usable bound is known (such
    problems are excluded from audits that need it).  Finite-sum problems
    additionally expose per-component gradients for mini-batch oracles.
    """

    name: str
    shapes: tuple[BlockShape, ...]
    eval_f: Callable[[ProductPoint], float]
    eval_grad: Callable[[ProductPoint], ProductPoint]
    f_low: float
    lipschitz: float | None
    x0: ProductPoint
    num_components: int = 0
    component_grad: Callable[[ProductPoint, np.ndarray], ProductPoint] | None = None


def _flat(X: ProductPoint) -> np.ndarray:
    return X.ravel()


def _default_x0(shapes: Sequence[BlockShape], seed: int, scale: float = 1.0) -> ProductPoint:
    rng = np.random.default_rng(seed + 104729)
    return ProductPoint.from_flat(scale * rng.standard_normal(total_dim(shapes)), shapes)


def quadratic_problem(shapes, condition=10.0, seed=0, b_scale=0.0, H=None, b=None, x0=None) -> Problem:
    """f(x) = 1/2 x^T H x - b^T x over the flattened product space.

    By default H is a seeded random SPD matrix with the given condition
    target; an explicit (H, b) pair may be passed instead.  The largest
    eigenvalue (the Lipschitz constant) is computed, not assumed.
    """
    shapes = tuple(shapes)
    N = total_dim(shapes)
    H = np.asarray(H, dtype=float) if H is not None else random_psd(N, condition, seed)
    if H.shape != (N, N):
        raise InvalidConfig(f"H must be {N}x{N}, got {H.shape}")
    rng = np.random.default_rng(seed + 1)
    if b is not None:
        b = np.asarray(b, dtype=float)
    else:
        b = b_scale * rng.standard_normal(N) if b_scale else np.zeros(N)
    w = np.linalg.eigvalsh(H)
    xstar = np.linalg.solve(H, b) if b.any() else np.zeros(N)
    f_low = float(0.5 * xstar @ H @ xstar - b @ xstar)

    def f(X):
        x = _flat(X)
        return float(0.5 * x @ H @ x - b @ x)

    def grad(X):
        return ProductPoint.from_flat(H @ _flat(X) - b, shapes)

    return Problem(
        name="quadratic",
        shapes=shapes,
        eval_f=f,
        eval_grad=grad,
        f_low=f_low,
        lipschitz=float(w[-1]),
        x0=x0 if x0 is not None else _default_x0(shapes, seed),
    )


def trigquad_problem(shapes, seed=0, cos_weight=1.0, A=None, b=None, x0=None) -> Problem:
    """f(x) = 1/2 |A x - b|^2 + c * sum_i cos(x_i); nonconvex for c > 0.

    f >= -c*N everywhere, and the Hessian A^T A - c Diag(cos x) has spectral
    norm at most |A^T A| + c.
    """
    shapes = tuple(shapes)
    N = total_dim(shapes)
    rng = np.random.default_rng(seed)
    A = np.asarray(A, dtype=float) if A is not None else rng.standard_normal((N, N)) / np.sqrt(N)
    b = np.asarray(b, dtype=float) if b is not None else rng.standard_normal(N)
    c = float(cos_weight)
    AtA = A.T @ A
    L = float(np.linalg.eigvalsh(AtA)[-1] + c)

    def f(X):
        x = _flat(X)
        r = A @ x - b
        return float(0.5 * r @ r + c * np.sum(np.cos(x)))

    def grad(X):
        x = _flat(X)
        return ProductPoint.from_flat(A.T @ (A @ x - b) - c * np.sin(x), shapes)

    return Problem(
        name="trigquad",
        shapes=shapes,
        eval_f=f,
        eval_grad=grad,
        f_low=-c * N,
        lipschitz=L,
        x0=x0 if x0 is not None else _default_x0(shapes, seed),
    )


def logistic_problem(shapes, seed=0, samples=64, reg=0.1, x0=None) -> Problem:
    """Synthetic binary logistic regression, 1/m sum_i log(1+exp(-y_i a_i.x)) + reg/2 |x|^2.

    A finite sum, so it also exposes per-component gradients for the
    mini-batch oracle.  The loss is nonnegative, hence f_low = 0.
    """
    shapes = tuple(shapes)
    N = total_dim(shapes)
    m = int(samples)
    if m < 1:
        raise InvalidConfig("logistic needs at least one sample")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, N))
    truth = rng.standard_normal(N)
    y = np.sign(A @ truth + 0.3 * rng.standard_normal(m))
    y[y == 0] = 1.0
    reg = float(reg)
    # per-sample Hessian is sigmoid' * a a^T with sigmoid' <= 1/4
    L = float(np.linalg.eigvalsh(A.T @ A)[-1] / (4.0 * m) + reg)

    def margins(x):
        return y * (A @ x)

    def f(X):
        x = _flat(X)
        return float(np.mean(np.logaddexp(0.0, -margins(x))) + 0.5 * reg * x @ x)

    def grad_flat(x, idx=None):
        if idx is None:
            rows, yy = A, y
        else:
            rows, yy = A[idx], y[idx]
        s = 1.0 / (1.0 + np.exp(yy * (rows @ x)))
        return -(rows.T @ (yy * s)) / len(yy) + reg * x

    def grad(X):
        return ProductPoint.from_flat(grad_flat(_flat(X)), shapes)

    def comp_grad(X, idx):
        return ProductPoint.from_flat(grad_flat(_flat(X), np.atleast_1d(idx)), shapes)

    return Problem(
        name="logistic",
        shapes=shapes,
        eval_f=f,
        eval_grad=grad,
        f_low=0.0,
        lipschitz=L,
        x0=x0 if x0 is not None else _default_x0(shapes, seed, scale=0.5),
        num_components=m,
        component_grad=comp_grad,
    )


def matfact_problem(shapes, seed=0, target_scale=1.0, x0=None) -> Problem:
    """f(W2, W1) = 1/2 |W2 W1 - T|_F^2 over two matrix blocks.

    Nonconvex with f_low = 0 when T is drawn inside the reachable set; no
    global Lipschitz bound exists (lipschitz is None), so this problem only
    feeds audits that do not need one.  It exists to exercise the matrix
    geometries.
    """
    shapes = tuple(shapes)
    if len(shapes) != 2 or shapes[0].cols != shapes[1].rows:
        raise InvalidConfig("matfact needs two blocks W2 (n x r) and W1 (r x m)")
    n, r, m = shapes[0].rows, shapes[0].cols, shapes[1].cols
    rng = np.random.default_rng(seed)
    # target inside the rank-r reachable set, so f_low = 0 is attained
    T = target_scale * (rng.standard_normal((n, r)) @ rng.standard_normal((r, m))) / np.sqrt(r)

    def f(X):
        W2, W1 = X.blocks
        E = W2 @ W1 - T
        return float(0.5 * np.sum(E * E))

    def grad(X):
        W2, W1 = X.blocks
        E = W2 @ W1 - T
        return ProductPoint([E @ W1.T, W2.T @ E])

    return Problem(
        name="matfact",
        shapes=shapes,
        eval_f=f,
        eval_grad=grad,
        f_low=0.0,
        lipschitz=None,
        x0=x0 if x0 is not None else _default_x0(shapes, seed, scale=0.5),
    )


_BUILDERS = {
    "quadratic": quadratic_problem,
    "trigquad": trigquad_problem,
    "logistic": logistic_problem,
    "matfact": matfact_problem,
}


def make_problem(kind: str, shapes, **params) -> Problem:
    """Build a named problem over the given block shapes."""
    try:
        builder = _BUILDERS[kind]
    except KeyError:
        raise InvalidConfig(f"unknown problem kind {kind!r}; have {sorted(_BUILDERS)}")
    return builder(shapes, **params)


def sample_gradient(
    problem: Problem,
    noise: NoiseModel,
    X: ProductPoint,
    k: int,
    rng: np.random.Generator,
    z_prev: ProductPoint | None = None,
    exact_grad: ProductPoint | None = None,
) -> ProductPoint:
    """Draw an unbiased gradient estimate at iterate X, iteration k.

    The caller may pass the already-computed exact gradient to avoid a
    second evaluation.  Noise is Gaussian per entry; per-entry standard
    deviations are scaled by 1/sqrt(d_l) so the *block* dual-norm variance
    matches the model on Euclidean/Frobenius blocks (for nuclear-norm
    blocks the bound holds up to the rank factor).
    """
    shapes = problem.shapes
    check_point_matches(X, shapes)

    if noise.kind is NoiseKind.MINI_BATCH:
        if problem.component_grad is None:
            raise InvalidConfig(f"problem {problem.name!r} has no component gradients")
        b = min(max(int(noise.batch), 1), problem.num_components)
        idx = rng.choice(problem.num_components, size=b, replace=False)
        return problem.component_grad(X, idx)

    G = exact_grad if exact_grad is not None else problem.eval_grad(X)
    if noise.kind is NoiseKind.EXACT:
        return G

    sig = noise.sigma_for(len(shapes))
    blocks = []
    for ell, (G_l, s_l, shape) in enumerate(zip(G.blocks, sig, shapes)):
        d = shape.dim
        std = s_l / ((k + 1) ** (noise.alpha / 2.0) * np.sqrt(d))
        B = G_l + std * rng.standard_normal(G_l.shape)
        if noise.kind is NoiseKind.ADDITIVE_PLUS_MULTIPLICATIVE and noise.omega > 0.0:
            zn = 0.0 if z_prev is None else block_dual_norm(shape.geometry, z_prev.blocks[ell])
            if zn > 0.0:
                B = B + (noise.omega * zn / np.sqrt(d)) * rng.standard_normal(G_l.shape)
        blocks.append(B)
    return ProductPoint(blocks)


def nu_curve_analytic(noise: NoiseModel, num_blocks: int, K: int) -> np.ndarray:
    """Cumulative oracle noise budget nu_k for k = 0..K-1, additive noise models.

    nu_k**2 = sigma_tot**2 * sum_{j=0}^{k} (j+1)**-alpha, with sigma_tot**2
    summed over num_blocks blocks as the oracle draws them.  Exact oracles have
    nu_k = 0; mini-batch oracles have no closed form and raise InvalidConfig.
    """
    if noise.kind is NoiseKind.EXACT:
        return np.zeros(K)
    if noise.kind is NoiseKind.MINI_BATCH:
        raise InvalidConfig("nu_k has no analytic form for mini-batch oracles")
    j = np.arange(1, K + 1, dtype=float)
    return np.sqrt(noise.sigma_tot_sq(num_blocks) * np.cumsum(j ** (-noise.alpha)))
