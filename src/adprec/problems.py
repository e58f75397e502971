"""Synthetic smooth test problems with known lower bounds and Lipschitz
constants, plus stochastic gradient oracles with controlled variance.

Problems are immutable after construction.  Objectives, gradients and the
oracle take one point or a stack of R points (see ``ProductPoint``) and
answer per point; each stacked product is a stack of the products one point
makes (``np.matmul`` over a leading axis, ``np.vecdot`` for a dot), so point
r of a stack gets the same bits as point r alone.  Oracles draw from
caller-supplied numpy Generators, one stream per trajectory: the oracle of
one point from its Generator, that of a stack from a ``NormalStreams``,
which reads each row's own Generator in chunks of NORMAL_CHUNK normals, so
a step's draw for the whole stack is one slice of a buffer.  There is no
hidden global RNG anywhere in the package.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .block_space import (
    BlockShape,
    ProductPoint,
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
    omega > 0 is accepted only with AdditivePlusMultiplicative, the one kind
    that draws it, so the published bounds never count noise that is absent.
    """

    kind: NoiseKind = NoiseKind.EXACT
    sigma: tuple[float, ...] = ()
    alpha: float = 1.0
    omega: float = 0.0
    batch: int = 1

    def __post_init__(self):
        if not all(0.0 <= s < math.inf for s in self.sigma):
            raise InvalidConfig(f"sigma entries must be nonnegative and finite, got {self.sigma}")
        if not 0.0 < self.alpha < math.inf:
            raise InvalidConfig(f"alpha must be positive and finite, got {self.alpha}")
        if not 0.0 <= self.omega < math.inf:
            raise InvalidConfig(f"omega must be nonnegative and finite, got {self.omega}")
        if self.omega > 0.0 and self.kind is not NoiseKind.ADDITIVE_PLUS_MULTIPLICATIVE:
            raise InvalidConfig(
                f"omega={self.omega} needs kind {NoiseKind.ADDITIVE_PLUS_MULTIPLICATIVE.value}, "
                f"the only oracle that draws multiplicative noise; got {self.kind.value}"
            )
        if self.batch < 1:
            raise InvalidConfig(f"batch must be at least 1, got {self.batch}")

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

    def normals_per_step(self, dim: int) -> int:
        """The most standard normals the oracle reads per point and step, for
        a space of total dimension dim: dim for an additive draw, as many
        again for the multiplicative one, none for the other kinds."""
        if self.kind is NoiseKind.ADDITIVE_DECAYING:
            return dim
        if self.kind is NoiseKind.ADDITIVE_PLUS_MULTIPLICATIVE:
            return 2 * dim
        return 0

    def sigma_tot_sq(self, num_blocks: int) -> float:
        """sum_l sigma_l**2 over num_blocks blocks, broadcast as by sigma_for."""
        return float(np.sum(self.sigma_for(num_blocks) ** 2))


def _matvec(A, x):
    """``A @ x`` for each vector of a stack x (..., n): one gemv per vector."""
    return (A @ x[..., None])[..., 0]


@dataclass(frozen=True)
class Problem:
    """A smooth objective over a product space, with exact gradients.

    eval_f and eval_grad take one point or a stack and return one value
    (point) per point; component_grad takes a stack with one row of
    component indices per point.

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


def _default_x0(shapes: Sequence[BlockShape], seed: int, scale: float = 1.0) -> ProductPoint:
    rng = np.random.default_rng(seed + 104729)
    return ProductPoint.from_flat(scale * rng.standard_normal(total_dim(shapes)), shapes)


def quadratic_problem(shapes, condition=10.0, seed=0, b_scale=0.0, H=None, b=None) -> Problem:
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
        x = X.ravel()
        xH = ((0.5 * x)[..., None, :] @ H)[..., 0, :]
        return np.vecdot(xH, x) - np.vecdot(b, x)

    def grad(X):
        return ProductPoint.from_flat(_matvec(H, X.ravel()) - b, shapes)

    return Problem(
        name="quadratic",
        shapes=shapes,
        eval_f=f,
        eval_grad=grad,
        f_low=f_low,
        lipschitz=float(w[-1]),
        x0=_default_x0(shapes, seed),
    )


def trigquad_problem(shapes, seed=0, cos_weight=1.0, A=None, b=None) -> Problem:
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
        x = X.ravel()
        r = _matvec(A, x) - b
        return np.vecdot(0.5 * r, r) + c * np.add.reduce(np.cos(x), axis=-1)

    def grad(X):
        x = X.ravel()
        return ProductPoint.from_flat(_matvec(A.T, _matvec(A, x) - b) - c * np.sin(x), shapes)

    return Problem(
        name="trigquad",
        shapes=shapes,
        eval_f=f,
        eval_grad=grad,
        f_low=-c * N,
        lipschitz=L,
        x0=_default_x0(shapes, seed),
    )


def logistic_problem(shapes, seed=0, samples=64, reg=0.1) -> Problem:
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

    def f(X):
        x = X.ravel()
        margins = y * _matvec(A, x)
        return np.mean(np.logaddexp(0.0, -margins), axis=-1) + np.vecdot(0.5 * reg * x, x)

    def grad_flat(x, idx=None):
        if idx is None:
            rows, yy = A, y
        else:
            rows, yy = A[idx], y[idx]
        s = 1.0 / (1.0 + np.exp(yy * _matvec(rows, x)))
        return -_matvec(rows.mT, yy * s) / yy.shape[-1] + reg * x

    def grad(X):
        return ProductPoint.from_flat(grad_flat(X.ravel()), shapes)

    def comp_grad(X, idx):
        return ProductPoint.from_flat(grad_flat(X.ravel(), np.atleast_1d(idx)), shapes)

    return Problem(
        name="logistic",
        shapes=shapes,
        eval_f=f,
        eval_grad=grad,
        f_low=0.0,
        lipschitz=L,
        x0=_default_x0(shapes, seed, scale=0.5),
        num_components=m,
        component_grad=comp_grad,
    )


def matfact_problem(shapes, seed=0, target_scale=1.0) -> Problem:
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
        return 0.5 * np.add.reduce(E * E, axis=(-2, -1))

    def grad(X):
        W2, W1 = X.blocks
        E = W2 @ W1 - T
        return ProductPoint([E @ W1.mT, W2.mT @ E])

    return Problem(
        name="matfact",
        shapes=shapes,
        eval_f=f,
        eval_grad=grad,
        f_low=0.0,
        lipschitz=None,
        x0=_default_x0(shapes, seed, scale=0.5),
    )


_BUILDERS = {
    "quadratic": quadratic_problem,
    "trigquad": trigquad_problem,
    "logistic": logistic_problem,
    "matfact": matfact_problem,
}


def make_problem(kind: str, shapes, **params) -> Problem:
    """Build a named problem over the given block shapes.  A number
    parameter must be finite, and an integer one other than the seed must
    fit in a float."""
    try:
        builder = _BUILDERS[kind]
    except KeyError:
        raise InvalidConfig(f"unknown problem kind {kind!r}; have {sorted(_BUILDERS)}")
    for key, value in params.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidConfig(f"problem parameter {key!r} must be finite, got {value}")
        # an int compares with a float exactly, without converting to one
        if isinstance(value, int) and key != "seed" and abs(value) > sys.float_info.max:
            raise InvalidConfig(f"problem parameter {key!r} is an integer too large for a float")
    return builder(shapes, **params)


# standard normals each row of a NormalStreams draws ahead (bounds the memory held)
NORMAL_CHUNK = 1024


class NormalStreams:
    """The standard normal streams of R Generators, one per row of a stack.

    ``read(n)`` gives each row the next n numbers of its own Generator's
    ``standard_normal`` stream: the stream of n + m numbers is that of n
    followed by that of m, so how the reads split a row's stream does not
    change its numbers.  Each row draws a chunk of numbers at a time into
    its row of one (R, chunk) buffer; a read that needs more than a chunk
    beyond what is buffered draws only that read.  The chunk is NORMAL_CHUNK
    numbers, or ``most`` when fewer: the most numbers a row reads in all, so
    that no row draws numbers it never reads.  While the rows have read
    alike they share one cursor, and a read is one slice of the buffer.
    ``rngs`` are the Generators themselves, for draws that are not normals
    (they are never mixed with normals on one row).
    """

    def __init__(self, rngs, most: int = NORMAL_CHUNK):
        self.rngs = list(rngs)
        self._buf = np.empty((len(self.rngs), min(most, NORMAL_CHUNK)))
        self._at = self._buf.shape[1]  # the rows' common cursor, or None when they differ
        self._pos = None  # per-row cursors when they differ

    def read(self, n: int, rows=None) -> np.ndarray:
        """The next n numbers of each row, as an (R, n) array that the next
        read may overwrite; with rows (a boolean mask) only those rows read,
        and the others get zeros."""
        at, chunk = self._at, self._buf.shape[1]
        if at is not None and at + n <= chunk and (rows is None or rows.all()):
            self._at = at + n
            return self._buf[:, at : at + n]
        pos = [at] * len(self.rngs) if at is not None else self._pos
        out = np.zeros((len(self.rngs), n))
        for r, g in enumerate(self.rngs):
            if rows is not None and not rows[r]:
                continue
            have = min(chunk - pos[r], n)
            out[r, :have] = self._buf[r, pos[r] : pos[r] + have]
            pos[r] += have
            rest = n - have
            if rest > chunk:
                g.standard_normal(out=out[r, have:])
            elif rest:
                g.standard_normal(out=self._buf[r])
                out[r, have:] = self._buf[r, :rest]
                pos[r] = rest
        self._settle(pos)
        return out

    def _settle(self, pos):
        self._at = pos[0] if pos.count(pos[0]) == len(pos) else None
        self._pos = None if self._at is not None else pos


@functools.lru_cache(maxsize=128)
def _block_noise(noise: NoiseModel, shapes: tuple[BlockShape, ...]):
    """The oracle's constants of a run: per block (sigma_l, sqrt(d_l), d_l,
    (rows, cols)), and the total dimension."""
    sig = noise.sigma_for(len(shapes))
    per_block = tuple((s_l, math.sqrt(b.dim), b.dim, (b.rows, b.cols)) for s_l, b in zip(sig, shapes))
    return per_block, total_dim(shapes)


def _normals(rng, n, rows=None) -> np.ndarray:
    """The next n standard normals of a Generator, (n,), or of each row of
    a NormalStreams, (R, n); rows as in ``NormalStreams.read``."""
    if isinstance(rng, np.random.Generator):
        return rng.standard_normal(n)
    return rng.read(n, rows)


def sample_gradient(
    problem: Problem,
    noise: NoiseModel,
    X: ProductPoint | None,
    k: int,
    rng,
    z_prev_norms=None,
    exact_grad: ProductPoint | None = None,
) -> ProductPoint:
    """Draw an unbiased gradient estimate at iterate X, iteration k.

    X is one point, with rng a numpy Generator, or a stack of R points, with
    rng a ``NormalStreams`` of R rows: point r draws from row r's Generator
    exactly what it would draw alone, block by block in block order (an
    additive draw reads all blocks at once, the same numbers).  z_prev_norms
    are the block dual norms of the previous preconditioned step Z_{k-1}
    (one value, or one per point, per block; None before the first step);
    only AdditivePlusMultiplicative noise reads them.  The caller may pass
    the already-computed exact gradient to avoid a second evaluation; X may
    then be None unless the oracle is MiniBatch, which reads X itself.  Noise
    is Gaussian per entry; per-entry standard deviations are scaled by
    1/sqrt(d_l) so the *block* dual-norm variance matches the model on
    Euclidean/Frobenius blocks (for nuclear-norm blocks the bound holds up
    to the rank factor).
    """
    shapes = problem.shapes
    reads_x = exact_grad is None or noise.kind is NoiseKind.MINI_BATCH
    check_point_matches(X if reads_x else exact_grad, shapes)

    if noise.kind is NoiseKind.MINI_BATCH:
        if problem.component_grad is None:
            raise InvalidConfig(f"problem {problem.name!r} has no component gradients")
        b = min(noise.batch, problem.num_components)
        if isinstance(rng, np.random.Generator):
            idx = rng.choice(problem.num_components, size=b, replace=False)
        else:
            idx = np.stack([g.choice(problem.num_components, size=b, replace=False)
                            for g in rng.rngs])
        return problem.component_grad(X, idx)

    G = exact_grad if exact_grad is not None else problem.eval_grad(X)
    if noise.kind is NoiseKind.EXACT:
        return G

    per_block, N = _block_noise(noise, tuple(shapes))
    try:
        decay = (k + 1) ** (noise.alpha / 2.0)
    except OverflowError:  # the variance sigma**2 / (k+1)**alpha underflows to 0
        decay = np.inf
    lead = G.blocks[0].shape[:-2]
    # multiplicative draws follow their block's additive one, so only an
    # additive-only draw reads every block at once
    multiplicative = noise.omega > 0.0 and z_prev_norms is not None
    if not multiplicative:
        flat = _normals(rng, N)
    blocks, off = [], 0
    for ell, (G_l, (s_l, sqrt_d, d, rc)) in enumerate(zip(G.blocks, per_block)):
        std = s_l / (decay * sqrt_d)
        normals = _normals(rng, d) if multiplicative else flat[..., off : off + d]
        off += d
        B = G_l + std * normals.reshape(lead + rc)
        if multiplicative:
            zn = np.reshape(z_prev_norms[ell], lead)
            moved = zn > 0.0
            if moved.any():
                extra = _normals(rng, d, rows=moved.reshape(-1)).reshape(lead + rc)
                coef = (noise.omega * zn / sqrt_d)[..., None, None]
                B = np.where(moved[..., None, None], B + coef * extra, B)
        blocks.append(B)
    return ProductPoint(blocks)
