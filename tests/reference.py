"""A dense reference for the adprec iteration, written from its formulas
alone (the table of the ``geometries`` docstring and the step of the
``optimizer`` docstring), for the tests to check the package's step against.

Each block is a vector vec(V), its columns stacked, with a dense d x d
preconditioner Gamma, grown by the accumulated block A:

    AdaNorm      Gamma += (|A|_F^2 / d) I
    DiagAdaGrad  Gamma += Diag(vec(A)^2)
    FullAdaGrad  Gamma += vec(A) vec(A)^T
    Shampoo      L += A A^T, R += A^T A, and Gamma = R^1/2 (x) L^1/2
    Muon         Gamma += (|A|_*^2 / d) I

from Gamma_0 = varsigma I (L_0 and R_0 for Shampoo).  Z = Gamma^-1/2 vec(D)
for the direction D, and the block moves by eta times Z itself for the
Euclidean norms, or |Z|_* U V^T for Muon, from a plain SVD of Z.  The
momentum is M_k = mu_k M_{k-1} + (1 - mu_k) Gtilde_k with M_0 = Gtilde_0 and
mu_k = mu_max / (k+1)^beta; (A, D) is (Gtilde, Gtilde) without momentum,
(M, M) in M1 and (Gtilde, M) in M2.  Matrix powers come from
np.linalg.eigh: a diagonal Gamma's eigenvectors are the unit vectors, and
Shampoo's powers are its factors', (R^1/2 (x) L^1/2)^p = R^p/2 (x) L^p/2.
"""

import numpy as np

from adprec.block_space import Geometry


def power(S, p):
    """S^p of a symmetric positive definite S."""
    if np.count_nonzero(S - np.diag(np.diagonal(S))) == 0:
        return np.diag(np.diagonal(S) ** p)
    w, Q = np.linalg.eigh(S)
    return (Q * w**p) @ Q.T


def vec(A):
    return A.T.reshape(-1)


class Block:
    """One block's dense preconditioner and its move."""

    def __init__(self, shape, varsigma):
        self.shape = shape
        n, m = shape.rows, shape.cols
        if shape.geometry is Geometry.SHAMPOO:
            self.L, self.R = varsigma * np.eye(n), varsigma * np.eye(m)
        else:
            self.gamma = varsigma * np.eye(n * m)

    def gamma_power(self, p):
        if self.shape.geometry is Geometry.SHAMPOO:
            return np.kron(power(self.R, p / 2), power(self.L, p / 2))
        return power(self.gamma, p)

    def accumulate(self, A):
        g, a = self.shape.geometry, vec(A)
        if g is Geometry.SHAMPOO:
            self.L = self.L + A @ A.T
            self.R = self.R + A.T @ A
        elif g is Geometry.FULL_ADAGRAD:
            self.gamma = self.gamma + np.outer(a, a)
        elif g is Geometry.DIAG_ADAGRAD:
            self.gamma = self.gamma + np.diag(a * a)
        else:
            norm = np.linalg.norm(A, "nuc" if g is Geometry.MUON else "fro")
            self.gamma = self.gamma + norm**2 / a.size * np.eye(a.size)

    def move(self, D):
        """|Z| S(Z) for the direction D, as a block."""
        Z = (self.gamma_power(-0.5) @ vec(D)).reshape(D.shape[::-1]).T
        if self.shape.geometry is not Geometry.MUON:
            return Z
        U, s, Vt = np.linalg.svd(Z, full_matrices=False)
        return s.sum() * (U @ Vt)


def iterates(shapes, x0, gtildes, config):
    """X_1 .. X_K, each a list of blocks, of the iteration from the blocks
    x0 on the oracle outputs gtildes (one list of blocks per step)."""
    blocks = [Block(shape, config.varsigma) for shape in shapes]
    mode = config.momentum_mode.value
    X, M, out = list(x0), None, []
    for k, G in enumerate(gtildes):
        mu = config.mu_max / (k + 1) ** config.beta
        M = G if M is None else [mu * m + (1 - mu) * g for m, g in zip(M, G)]
        A, D = {"None": (G, G), "M1": (M, M), "M2": (G, M)}[mode]
        for b, a in zip(blocks, A):
            b.accumulate(a)
        X = [x - config.eta * b.move(d) for x, b, d in zip(X, blocks, D)]
        out.append(X)
    return out
