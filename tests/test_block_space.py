import numpy as np
import pytest

from adprec.block_space import (
    BlockShape,
    Geometry,
    ProductPoint,
    product_dual_norm_sq,
    total_dim,
)
from adprec.errors import InvalidConfig, ShapeMismatch


def vec(*xs):
    return np.array(xs, dtype=float).reshape(-1, 1)


def test_vector_geometries_require_single_column():
    BlockShape(3, 1, Geometry.DIAG_ADAGRAD)
    with pytest.raises(ShapeMismatch):
        BlockShape(3, 2, Geometry.DIAG_ADAGRAD)
    with pytest.raises(ShapeMismatch):
        BlockShape(2, 2, Geometry.ADANORM)
    BlockShape(3, 2, Geometry.SHAMPOO)
    BlockShape(3, 2, Geometry.MUON)


@pytest.mark.parametrize("name", ["Nope", "muon", 5, None])
def test_unknown_geometry_is_a_config_error(name):
    with pytest.raises(InvalidConfig, match="unknown geometry"):
        BlockShape(2, 1, name)


def test_total_dim():
    shapes = [BlockShape(3, 2, Geometry.SHAMPOO), BlockShape(4, 1, Geometry.ADANORM)]
    assert total_dim(shapes) == 10


def test_dual_norm_sq_examples():
    shapes = [BlockShape(2, 1, Geometry.ADANORM)]
    assert product_dual_norm_sq(ProductPoint([vec(3, 4)]), shapes) == pytest.approx(25.0)

    shapes2 = [BlockShape(2, 1, Geometry.ADANORM), BlockShape(2, 2, Geometry.MUON)]
    V = ProductPoint([vec(1, 0), np.diag([3.0, -2.0])])
    assert product_dual_norm_sq(V, shapes2) == pytest.approx(26.0)

    assert product_dual_norm_sq(ProductPoint.zeros(shapes2), shapes2) == 0.0


def test_dual_norm_homogeneity():
    shapes = [BlockShape(3, 1, Geometry.DIAG_ADAGRAD), BlockShape(2, 3, Geometry.MUON)]
    rng = np.random.default_rng(0)
    V = ProductPoint([rng.standard_normal((3, 1)), rng.standard_normal((2, 3))])
    base = product_dual_norm_sq(V, shapes)
    for t in (0.5, 2.0, -3.0):
        scaled = ProductPoint([t * b for b in V.blocks])
        assert product_dual_norm_sq(scaled, shapes) == pytest.approx(t * t * base, rel=1e-12)


def test_flat_round_trip():
    shapes = [BlockShape(2, 3, Geometry.SHAMPOO), BlockShape(4, 1, Geometry.ADANORM)]
    rng = np.random.default_rng(4)
    x = rng.standard_normal(total_dim(shapes))
    P = ProductPoint.from_flat(x, shapes)
    np.testing.assert_array_equal(P.ravel(), x)
    with pytest.raises(ShapeMismatch):
        ProductPoint.from_flat(x[:-1], shapes)
