import numpy as np
import pytest

from adprec.block_space import BlockShape, Geometry
from adprec.errors import InvalidConfig
from adprec.geometries import (
    FACTORIZATIONS,
    DiagonalState,
    KroneckerState,
    ScalarState,
    geom_accumulate,
    geom_diagnostics,
    geom_dual_norm,
    geom_factor_calls,
    geom_init,
    geom_lmap_matrix,
    geom_lmap_trace,
    geom_precondition,
    geom_selector,
    geom_step_direction,
)
from adprec.psd_linalg import psd_power
from reference import geom_state_eigenvalues, kron_gamma_explicit

ALL_GEOMETRIES = list(Geometry)


def vec(*xs):
    return np.array(xs, dtype=float).reshape(-1, 1)


def shape_for(geometry, rows=3, cols=2):
    if geometry in (Geometry.ADANORM, Geometry.FULL_ADAGRAD, Geometry.DIAG_ADAGRAD):
        return BlockShape(rows, 1, geometry)
    return BlockShape(rows, cols, geometry)


def random_block(shape, rng, scale=1.0):
    return scale * rng.standard_normal((shape.rows, shape.cols))


def grow(shape, state, V):
    """geom_accumulate with the lmap trace it takes, as the optimizer passes it."""
    return geom_accumulate(shape, state, V, geom_lmap_trace(shape, V))


def diagnostics(shape, state, V):
    """geom_diagnostics with the lmap trace it takes, as the optimizer passes it."""
    return geom_diagnostics(shape, state, V, geom_lmap_trace(shape, V))


def select(shape, Z):
    """geom_selector with the dual norm it takes, as the optimizer passes it."""
    return geom_selector(shape, Z, geom_dual_norm(shape, Z))


def test_init_examples():
    s = geom_init(BlockShape(2, 1, Geometry.ADANORM), 1.0)
    assert isinstance(s, ScalarState) and s.gamma == 1.0 and s.dim == 2

    sh = geom_init(BlockShape(2, 3, Geometry.SHAMPOO), 0.5)
    np.testing.assert_array_equal(sh.lfac, 0.5 * np.eye(2))
    np.testing.assert_array_equal(sh.rfac, 0.5 * np.eye(3))

    fu = geom_init(BlockShape(3, 1, Geometry.FULL_ADAGRAD), 2.0)
    np.testing.assert_array_equal(fu.gram, 2.0 * np.eye(3))

    with pytest.raises(InvalidConfig):
        geom_init(BlockShape(2, 1, Geometry.ADANORM), 0.0)


def test_accumulate_hand_values():
    sh = BlockShape(2, 1, Geometry.ADANORM)
    st = grow(sh, geom_init(sh, 1.0), vec(1, 0))
    assert st.gamma == pytest.approx(1.5)

    sh = BlockShape(2, 1, Geometry.DIAG_ADAGRAD)
    st = grow(sh, geom_init(sh, 1.0), vec(1, 2))
    np.testing.assert_allclose(st.diag, [2.0, 5.0])

    sh = BlockShape(2, 2, Geometry.MUON)
    st = grow(sh, geom_init(sh, 1.0), np.diag([3.0, -2.0]))
    assert st.gamma == pytest.approx(1.0 + 25.0 / 4.0)


def test_precondition_hand_values():
    sh = BlockShape(2, 1, Geometry.ADANORM)
    st = ScalarState(gamma=4.0, dim=2)
    np.testing.assert_allclose(geom_precondition(sh, st, vec(2, 0)), vec(1, 0))

    sh = BlockShape(2, 1, Geometry.DIAG_ADAGRAD)
    st = DiagonalState(diag=np.array([2.0, 5.0]))
    np.testing.assert_allclose(
        geom_precondition(sh, st, vec(1, 2)), vec(1 / np.sqrt(2), 2 / np.sqrt(5))
    )

    sh = BlockShape(2, 2, Geometry.SHAMPOO)
    st = KroneckerState(lfac=np.diag([2.0, 1.0]), rfac=np.diag([2.0, 1.0]), varsigma=1.0)
    E = np.zeros((2, 2))
    E[0, 0] = 1.0
    np.testing.assert_allclose(geom_precondition(sh, st, E), 2.0**-0.5 * E, atol=1e-14)


def test_selector_examples():
    sh = BlockShape(2, 1, Geometry.ADANORM)
    np.testing.assert_allclose(select(sh, vec(3, 4)), vec(0.6, 0.8))
    np.testing.assert_array_equal(select(sh, vec(0, 0)), vec(0, 0))

    mu = BlockShape(2, 2, Geometry.MUON)
    S = select(mu, np.diag([3.0, -2.0]))
    np.testing.assert_allclose(S, np.diag([1.0, -1.0]), atol=1e-14)
    assert np.linalg.norm(S, 2) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(select(mu, np.zeros((2, 2))), np.zeros((2, 2)))


def test_dual_norm_examples():
    assert geom_dual_norm(BlockShape(2, 1, Geometry.ADANORM), vec(3, 4)) == pytest.approx(5.0)
    assert geom_dual_norm(BlockShape(2, 2, Geometry.MUON), np.diag([3.0, -2.0])) == pytest.approx(5.0)
    assert geom_dual_norm(BlockShape(2, 2, Geometry.MUON), np.zeros((2, 2))) == 0.0


def test_step_direction_matches_definition():
    rng = np.random.default_rng(0)
    for g in ALL_GEOMETRIES:
        sh = shape_for(g)
        Z = random_block(sh, rng)
        zn = geom_dual_norm(sh, Z)
        S = geom_selector(sh, Z, zn)
        np.testing.assert_allclose(geom_step_direction(sh, Z, zn, S), zn * S, atol=1e-10)


def test_diagnostics_hand_values():
    sh = BlockShape(2, 1, Geometry.ADANORM)
    st = ScalarState(gamma=1.5, dim=2)
    d = diagnostics(sh, st, vec(1, 0))
    assert d.weighted_inv == pytest.approx(1 / 1.5)
    assert d.trace_sqrt == pytest.approx(2 * np.sqrt(1.5))
    assert d.trace_log == pytest.approx(2 * np.log(1.5))

    # full geometry: weighted_inv equals the squared preconditioned norm
    sh = BlockShape(3, 1, Geometry.FULL_ADAGRAD)
    rng = np.random.default_rng(1)
    v = rng.standard_normal((3, 1))
    st = grow(sh, geom_init(sh, 1.0), v)
    d = diagnostics(sh, st, v)
    z_oracle = psd_power(st.gram, -0.5) @ v
    assert d.weighted_inv == pytest.approx(float(np.sum(z_oracle**2)), rel=1e-10)

    d0 = diagnostics(sh, st, np.zeros((3, 1)))
    assert d0.weighted_inv == 0.0 and d0.weighted_invsqrt == 0.0


@pytest.mark.parametrize("geometry", ALL_GEOMETRIES)
def test_structural_identities(geometry):
    rng = np.random.default_rng(7)
    sh = shape_for(geometry)
    for _ in range(40):
        st = geom_init(sh, float(rng.uniform(0.3, 2.0)))
        for _ in range(rng.integers(0, 4)):
            st = grow(sh, st, random_block(sh, rng, scale=2.0))
        V = random_block(sh, rng)
        st = grow(sh, st, V)
        Z = geom_precondition(sh, st, V)
        zn = geom_dual_norm(sh, Z)
        d = diagnostics(sh, st, V)
        lhs1 = zn * float(np.sum(V * geom_selector(sh, Z, zn)))
        assert lhs1 == pytest.approx(d.weighted_invsqrt, rel=1e-8)
        assert zn**2 == pytest.approx(d.weighted_inv, rel=1e-8)
        # compatibility holds with equality for every variant
        assert geom_lmap_trace(sh, V) == pytest.approx(geom_dual_norm(sh, V) ** 2, rel=1e-10)


@pytest.mark.parametrize("geometry", ALL_GEOMETRIES)
def test_loewner_monotone_accumulation_and_floor(geometry):
    rng = np.random.default_rng(11)
    sh = shape_for(geometry, rows=4, cols=3)
    varsigma = 0.7
    st = geom_init(sh, varsigma)
    prev = geom_state_eigenvalues(st)
    for _ in range(6):
        st = grow(sh, st, random_block(sh, rng))
        cur = geom_state_eigenvalues(st)
        assert np.all(cur >= prev - 1e-12)
        assert cur.min() >= varsigma - 1e-8 * varsigma
        prev = cur


@pytest.mark.parametrize("geometry", ALL_GEOMETRIES)
def test_diagnostic_floors(geometry):
    rng = np.random.default_rng(13)
    sh = shape_for(geometry, rows=3, cols=2)
    for varsigma in (0.5, 1.0, 3.0):
        st = geom_init(sh, varsigma)
        for _ in range(3):
            st = grow(sh, st, random_block(sh, rng))
        d = diagnostics(sh, st, random_block(sh, rng))
        assert d.trace_sqrt >= sh.dim * np.sqrt(varsigma) - 1e-10
        assert d.trace_log >= sh.dim * np.log(varsigma) - 1e-10


def test_kronecker_diagnostics_match_explicit_gamma():
    # the factored formulas against the materialized R**1/2 (x) L**1/2
    rng = np.random.default_rng(17)
    sh = BlockShape(3, 2, Geometry.SHAMPOO)
    st = geom_init(sh, 1.0)
    for _ in range(4):
        st = grow(sh, st, random_block(sh, rng))
    V = random_block(sh, rng)
    d = diagnostics(sh, st, V)
    gamma = kron_gamma_explicit(st)
    w = np.linalg.eigvalsh(gamma)
    v = V.ravel(order="F")
    assert d.trace_sqrt == pytest.approx(np.sum(np.sqrt(w)), rel=1e-10)
    assert d.trace_log == pytest.approx(np.sum(np.log(w)), rel=1e-10)
    assert d.weighted_inv == pytest.approx(float(v @ np.linalg.solve(gamma, v)), rel=1e-9)
    assert d.weighted_invsqrt == pytest.approx(float(v @ psd_power(gamma, -0.5) @ v), rel=1e-9)
    # and the preconditioned direction agrees with the explicit Kronecker action
    Z = geom_precondition(sh, st, V)
    z_explicit = psd_power(gamma, -0.5) @ v
    np.testing.assert_allclose(Z.ravel(order="F"), z_explicit, atol=1e-10)


def test_lmap_matrix_traces_agree():
    rng = np.random.default_rng(19)
    for g in ALL_GEOMETRIES:
        sh = shape_for(g)
        V = random_block(sh, rng)
        tl = geom_lmap_trace(sh, V)
        assert float(np.trace(geom_lmap_matrix(sh, V, tl))) == pytest.approx(tl, rel=1e-12)


def test_diag_equals_scalar_adanorm_blocks():
    # one diagonal block behaves exactly like n scalar isotropic blocks
    rng = np.random.default_rng(23)
    n = 5
    diag_shape = BlockShape(n, 1, Geometry.DIAG_ADAGRAD)
    scalar_shapes = [BlockShape(1, 1, Geometry.ADANORM) for _ in range(n)]
    st_d = geom_init(diag_shape, 1.0)
    st_s = [geom_init(s, 1.0) for s in scalar_shapes]
    for _ in range(10):
        v = rng.standard_normal((n, 1))
        st_d = grow(diag_shape, st_d, v)
        st_s = [
            grow(s, st, v[i : i + 1]) for i, (s, st) in enumerate(zip(scalar_shapes, st_s))
        ]
        zd = geom_precondition(diag_shape, st_d, v)
        zs = [geom_precondition(s, st, v[i : i + 1]) for i, (s, st) in enumerate(zip(scalar_shapes, st_s))]
        np.testing.assert_array_equal(zd, np.vstack(zs))


@pytest.mark.parametrize("geometry", ALL_GEOMETRIES, ids=lambda g: g.value)
def test_stacked_operations_equal_per_block_operations(geometry):
    # R blocks (one of them zero) through two accumulations as one stack:
    # every operation's item r is the operation on block r alone, bit for bit
    rng = np.random.default_rng(11)
    sh, R = shape_for(geometry, rows=4, cols=3), 3
    stacked = geom_init(sh, 0.7, lead=(R,))
    alone = [geom_init(sh, 0.7) for _ in range(R)]
    for _ in range(2):
        V = rng.standard_normal((R, sh.rows, sh.cols))
        V[1] = 0.0
        tl = geom_lmap_trace(sh, V)
        stacked = geom_accumulate(sh, stacked, V, tl)
        Z = geom_precondition(sh, stacked, V)
        zn = geom_dual_norm(sh, Z)
        S = geom_selector(sh, Z, zn)
        out = [tl, Z, zn, S, geom_step_direction(sh, Z, zn, S), geom_lmap_matrix(sh, V, tl),
               *vars(geom_diagnostics(sh, stacked, V, tl)).values()]
        for r in range(R):
            tl_r = geom_lmap_trace(sh, V[r])
            alone[r] = geom_accumulate(sh, alone[r], V[r], tl_r)
            Z_r = geom_precondition(sh, alone[r], V[r])
            zn_r = geom_dual_norm(sh, Z_r)
            S_r = geom_selector(sh, Z_r, zn_r)
            expected = [tl_r, Z_r, zn_r, S_r, geom_step_direction(sh, Z_r, zn_r, S_r),
                        geom_lmap_matrix(sh, V[r], tl_r),
                        *vars(geom_diagnostics(sh, alone[r], V[r], tl_r)).values()]
            for got, want in zip(out, expected):
                np.testing.assert_array_equal(got[r], want)


@pytest.mark.parametrize("geometry", ALL_GEOMETRIES, ids=lambda g: g.value)
def test_stack_with_one_varsigma_per_state(geometry):
    # geom_init with a varsigma per stacked state: item r grows, preconditions
    # and diagnoses as the state initialized alone with varsigma[r], bit for bit
    rng = np.random.default_rng(12)
    sh = shape_for(geometry, rows=4, cols=3)
    varsigma = np.array([0.7, 2.5, 1e-3])
    V = rng.standard_normal((3, sh.rows, sh.cols))
    tl = geom_lmap_trace(sh, V)
    stacked = geom_accumulate(sh, geom_init(sh, varsigma, lead=(3,)), V, tl)
    out = [geom_precondition(sh, stacked, V), *vars(geom_diagnostics(sh, stacked, V, tl)).values()]
    for r in range(3):
        alone = geom_accumulate(sh, geom_init(sh, float(varsigma[r])), V[r], tl[r])
        expected = [geom_precondition(sh, alone, V[r]),
                    *vars(geom_diagnostics(sh, alone, V[r], tl[r])).values()]
        for got, want in zip(out, expected):
            np.testing.assert_array_equal(got[r], want)
    with pytest.raises(InvalidConfig):
        geom_init(sh, np.array([1.0, 0.0]), lead=(2,))


@pytest.mark.parametrize("geometry", ALL_GEOMETRIES)
@pytest.mark.parametrize("rows, cols", [(3, 2), (6, 4)])
def test_factorizations_counts_the_calls_a_block_step_lists(geometry, rows, cols):
    # the count the suites' cost estimate reads is what the step lists
    shape = shape_for(geometry, rows, cols)
    rng = np.random.default_rng(rows)
    D = random_block(shape, rng)
    state = geom_accumulate(shape, geom_init(shape, 1.0), D, geom_lmap_trace(shape, D))
    assert len(geom_factor_calls(shape, state, D)) == FACTORIZATIONS.get(geometry, 0)
