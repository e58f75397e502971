"""The block-structured parameter space: a Cartesian product of vector and
matrix blocks, each carrying its own geometry tag, plus the block and
product dual norms."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidConfig, ShapeMismatch
from .psd_linalg import nuclear_norm


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
    """An element of the product space, or a stack of R of them: one dense
    array per block.

    Points are value types; all operations return new points.  Every block
    of one point is a 2-d array (vectors as n x 1), so pairing and norms have
    a single code path; a stack of points holds (R, rows, cols) blocks, item
    r being point r.  The trajectory driver advances R replicates as one
    stack.

    Every (rows, cols) item the package builds is row-major.  A Euclidean
    block's norm sums its entries in memory order, so one layout makes a
    block round alike whichever function made it: an exact gradient, a
    noisy draw, a stack or its rows.  ``from_flat`` owns the layout.
    """

    __slots__ = ("blocks", "_flat")

    def __init__(self, blocks):
        self.blocks = tuple(np.asarray(b, dtype=float) for b in blocks)
        self._flat = None
        for b in self.blocks:
            if b.ndim not in (2, 3):
                raise ShapeMismatch(
                    f"blocks must be 2-d arrays or stacks of them, got ndim={b.ndim}"
                )

    def __len__(self):
        return len(self.blocks)

    def ravel(self) -> np.ndarray:
        """Flatten all blocks into one vector (column-major within blocks, the
        problems' flat vector); (R, N) for a stack.  Computed once per point
        and read-only, since an objective and its gradient both read it."""
        if self._flat is None:
            flats = [b.mT.reshape(b.shape[:-2] + (-1,)) for b in self.blocks]
            flat = flats[0].copy() if len(flats) == 1 else np.concatenate(flats, axis=-1)
            flat.flags.writeable = False
            self._flat = flat
        return self._flat

    @staticmethod
    def from_flat(x, shapes: Sequence[BlockShape]) -> "ProductPoint":
        """The point of a flat vector, or the stack of an (R, N) array of them:
        the inverse of ``ravel``.  Matrix items are row-major copies; vector
        items (n x 1, alike in either layout) are views of x."""
        x = np.asarray(x, dtype=float)
        need = total_dim(shapes)
        if x.ndim == 0 or x.shape[-1] != need:
            raise ShapeMismatch(f"flat vector has {x.size} entries, shapes need {need}")
        blocks, off, lead = [], 0, x.shape[:-1]
        for s in shapes:
            b = x[..., off : off + s.dim].reshape(lead + (s.cols, s.rows)).mT
            blocks.append(b if s.cols == 1 else np.ascontiguousarray(b))
            off += s.dim
        return ProductPoint(blocks)

    @staticmethod
    def zeros(shapes: Sequence[BlockShape]) -> "ProductPoint":
        return ProductPoint([np.zeros((s.rows, s.cols)) for s in shapes])


def check_point_matches(V: ProductPoint, shapes: Sequence[BlockShape]):
    if len(V) != len(shapes):
        raise ShapeMismatch(f"point has {len(V)} blocks, space has {len(shapes)}")
    for b, s in zip(V.blocks, shapes):
        if b.shape[-2:] != (s.rows, s.cols):
            raise ShapeMismatch(f"block shape {b.shape} != declared {(s.rows, s.cols)}")


def block_dual_norm(geometry: Geometry, B):
    """Dual norm of one block, per item of a stack: nuclear for Muon,
    Euclidean/Frobenius otherwise (``np.linalg.norm``'s sqrt of a dot)."""
    if geometry is Geometry.MUON:
        return nuclear_norm(B)
    flat = B.reshape(B.shape[:-2] + (-1,))
    return np.sqrt(np.vecdot(flat, flat))


def squared(norm):
    """``norm ** 2`` rounded as a Python float squares, through the C pow;
    ``norm * norm`` and numpy's ``** 2`` on arrays differ in the last bit."""
    return np.float_power(norm, 2.0)


def product_dual_norm_sq(V: ProductPoint, shapes: Sequence[BlockShape]):
    """Squared dual product norm: sum over blocks of the squared block dual
    norm; one value per point of a stack."""
    check_point_matches(V, shapes)
    return sum(squared(block_dual_norm(s.geometry, b)) for b, s in zip(V.blocks, shapes))

