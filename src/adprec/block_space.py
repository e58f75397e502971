"""The block-structured parameter space: a Cartesian product of vector and
matrix blocks, each carrying its own geometry tag, plus the product inner
product and the primal/dual product norms."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidConfig, ShapeMismatch
from .psd_linalg import nuclear_norm, spectral_norm


class Geometry(str, enum.Enum):
    ADANORM = "AdaNorm"
    FULL_ADAGRAD = "FullAdaGrad"
    DIAG_ADAGRAD = "DiagAdaGrad"
    SHAMPOO = "Shampoo"
    MUON = "Muon"


# Geometries defined on vector blocks only (stored as n x 1 matrices).
VECTOR_ONLY = frozenset({Geometry.ADANORM, Geometry.FULL_ADAGRAD, Geometry.DIAG_ADAGRAD})


@dataclass(frozen=True)
class BlockShape:
    """Shape and geometry of one block.  Vector blocks have cols == 1.
    geometry is a `Geometry` member or its name, and is stored as the member."""

    rows: int
    cols: int
    geometry: Geometry

    def __post_init__(self):
        try:
            object.__setattr__(self, "geometry", Geometry(self.geometry))
        except ValueError:
            raise InvalidConfig(f"unknown geometry {self.geometry!r}") from None
        if self.rows < 1 or self.cols < 1:
            raise ShapeMismatch(f"block dims must be positive, got {self.rows}x{self.cols}")
        if self.geometry in VECTOR_ONLY and self.cols != 1:
            raise ShapeMismatch(
                f"{self.geometry.value} is a vector-block geometry (cols must be 1, "
                f"got {self.cols})"
            )

    @property
    def dim(self) -> int:
        return self.rows * self.cols


def total_dim(shapes: Sequence[BlockShape]) -> int:
    return sum(s.dim for s in shapes)


class ProductPoint:
    """An element of the product space: one dense array per block.

    Points are value types; all operations return new points.  Every block
    is stored as a 2-d array (vectors as n x 1) so pairing and norms have a
    single code path.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        self.blocks = tuple(np.asarray(b, dtype=float) for b in blocks)
        for b in self.blocks:
            if b.ndim != 2:
                raise ShapeMismatch(f"blocks must be 2-d arrays, got ndim={b.ndim}")

    def __len__(self):
        return len(self.blocks)

    def __getitem__(self, i):
        return self.blocks[i]

    def copy(self) -> "ProductPoint":
        return ProductPoint([b.copy() for b in self.blocks])

    def ravel(self) -> np.ndarray:
        """Flatten all blocks into one vector (column-major within blocks)."""
        return np.concatenate([b.ravel(order="F") for b in self.blocks])

    def is_finite(self) -> bool:
        return all(np.all(np.isfinite(b)) for b in self.blocks)

    @staticmethod
    def from_flat(x, shapes: Sequence[BlockShape]) -> "ProductPoint":
        x = np.asarray(x, dtype=float)
        need = total_dim(shapes)
        if x.size != need:
            raise ShapeMismatch(f"flat vector has {x.size} entries, shapes need {need}")
        blocks, off = [], 0
        for s in shapes:
            blocks.append(x[off : off + s.dim].reshape((s.rows, s.cols), order="F"))
            off += s.dim
        return ProductPoint(blocks)

    @staticmethod
    def zeros(shapes: Sequence[BlockShape]) -> "ProductPoint":
        return ProductPoint([np.zeros((s.rows, s.cols)) for s in shapes])


def check_same_shapes(U: ProductPoint, V: ProductPoint):
    if len(U) != len(V):
        raise ShapeMismatch(f"block counts differ: {len(U)} vs {len(V)}")
    for a, b in zip(U.blocks, V.blocks):
        if a.shape != b.shape:
            raise ShapeMismatch(f"block shapes differ: {a.shape} vs {b.shape}")


def check_point_matches(V: ProductPoint, shapes: Sequence[BlockShape]):
    if len(V) != len(shapes):
        raise ShapeMismatch(f"point has {len(V)} blocks, space has {len(shapes)}")
    for b, s in zip(V.blocks, shapes):
        if b.shape != (s.rows, s.cols):
            raise ShapeMismatch(f"block shape {b.shape} != declared {(s.rows, s.cols)}")


def block_dual_norm(geometry: Geometry, B) -> float:
    """Dual norm of one block: nuclear for Muon, Euclidean/Frobenius otherwise."""
    if geometry is Geometry.MUON:
        return nuclear_norm(B)
    return float(np.linalg.norm(B))


def block_primal_norm(geometry: Geometry, B) -> float:
    """Primal norm of one block: spectral for Muon, Euclidean/Frobenius otherwise."""
    if geometry is Geometry.MUON:
        return spectral_norm(B)
    return float(np.linalg.norm(B))


def product_inner(U: ProductPoint, V: ProductPoint) -> float:
    """Canonical pairing: sum of blockwise Frobenius inner products."""
    check_same_shapes(U, V)
    return float(sum(np.sum(a * b) for a, b in zip(U.blocks, V.blocks)))


def product_dual_norm_sq(V: ProductPoint, shapes: Sequence[BlockShape]) -> float:
    """Squared dual product norm: sum over blocks of the squared block dual norm."""
    check_point_matches(V, shapes)
    return float(sum(block_dual_norm(s.geometry, b) ** 2 for b, s in zip(V.blocks, shapes)))


def primal_product_norm(V: ProductPoint, shapes: Sequence[BlockShape]) -> float:
    """Primal product norm: sqrt of the sum of squared block primal norms."""
    check_point_matches(V, shapes)
    return float(
        np.sqrt(sum(block_primal_norm(s.geometry, b) ** 2 for b, s in zip(V.blocks, shapes)))
    )


def axpy(point: ProductPoint, coeff: float, direction: ProductPoint) -> ProductPoint:
    """Blockwise ``point + coeff * direction``."""
    check_same_shapes(point, direction)
    return ProductPoint([p + coeff * d for p, d in zip(point.blocks, direction.blocks)])
