"""The package's iteration against the dense reference of ``reference.py``:
every geometry alone and in one mixed space, in each momentum mode, under
an exact and a noisy oracle, and the ``matrix_blocks`` space with its
factorizations fanned out to the worker thread.  The reference steps on the
Gtilde the package draws (a spy on ``optimizer._oracle``), so a noisy
oracle needs no second random stream.  Three step mutants must fail it."""

import numpy as np
import pytest

import reference
from adprec import geometries, optimizer, psd_linalg
from adprec.block_space import BlockShape, Geometry, ProductPoint
from adprec.optimizer import MomentumMode, OptimizerConfig, run_trajectory
from adprec.problems import NoiseKind, NoiseModel, make_problem
from conftest import set_cpus

SPACES = {
    "adanorm": [BlockShape(6, 1, Geometry.ADANORM)],
    "diag": [BlockShape(8, 1, Geometry.DIAG_ADAGRAD)],
    "full": [BlockShape(5, 1, Geometry.FULL_ADAGRAD)],
    "shampoo": [BlockShape(4, 2, Geometry.SHAMPOO), BlockShape(2, 3, Geometry.SHAMPOO)],
    "muon": [BlockShape(4, 2, Geometry.MUON), BlockShape(2, 3, Geometry.MUON)],
    "mixed": [BlockShape(4, 1, Geometry.ADANORM), BlockShape(4, 3, Geometry.SHAMPOO),
              BlockShape(3, 2, Geometry.MUON)],
}
MATRIX_BLOCKS = [BlockShape(64, 32, Geometry.SHAMPOO), BlockShape(32, 48, Geometry.MUON)]

# Per geometry, the largest difference allowed between the package's and the
# reference's iterates, relative to the block's largest entry, over all
# steps.  Measured on these spaces at seeds 0-59, every mode and both
# oracles: at most 1.2e-14 on the Euclidean geometries and 3.0e-14 on Muon
# (1.9e-14 on the 32 x 48 block of matrix_blocks, seeds 0-11).  Muon's
# selector U V^T is ill-conditioned near repeated singular values, so it
# gets the wider margin.
TOLERANCE = {g: 1e-13 for g in Geometry} | {Geometry.MUON: 2e-13}


def config(mode, K=40):
    mu_max = 0.0 if mode is MomentumMode.NONE else 0.5
    return OptimizerConfig(eta=0.3, varsigma=1.0, max_iters=K, seed=2, momentum_mode=mode,
                           mu_max=mu_max, beta=0.25)


def noise_model(noisy, shapes):
    if not noisy:
        return NoiseModel()
    return NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(0.5,) * len(shapes), alpha=1.0)


def differences(monkeypatch, problem, noise, cfg):
    """Per block, the largest difference between the package's iterates
    X_1 .. X_K and the reference's on the same Gtilde, relative to the
    reference block's largest entry."""
    seen, oracle = [], optimizer._oracle

    def spy(*args):
        gtilde = oracle(*args)
        seen.append(([x.copy() for x in args[2].blocks], [g.copy() for g in gtilde.blocks]))
        return gtilde

    monkeypatch.setattr(optimizer, "_oracle", spy)
    result = run_trajectory(problem, noise, cfg)
    assert result.failed is None
    got = [x for x, _ in seen[1:]] + [result.final.blocks]
    want = reference.iterates(problem.shapes, problem.x0.blocks, [g for _, g in seen], cfg)
    return [max(np.abs(a[ell] - b[ell]).max() / np.abs(b[ell]).max() for a, b in zip(got, want))
            for ell in range(len(problem.shapes))]


def assert_matches(shapes, diffs):
    for shape, diff in zip(shapes, diffs):
        assert diff <= TOLERANCE[shape.geometry], (shape, diff)


@pytest.mark.parametrize("noisy", [False, True], ids=["exact", "noisy"])
@pytest.mark.parametrize("mode", list(MomentumMode), ids=lambda m: m.value)
@pytest.mark.parametrize("space", list(SPACES))
def test_the_step_matches_the_dense_reference(monkeypatch, space, mode, noisy):
    shapes = SPACES[space]
    problem = make_problem("quadratic", shapes, seed=2)
    assert_matches(shapes, differences(monkeypatch, problem, noise_model(noisy, shapes),
                                       config(mode)))


@pytest.mark.parametrize("mode", list(MomentumMode), ids=lambda m: m.value)
def test_fanned_out_factorizations_match_the_dense_reference(monkeypatch, mode):
    # the worker runs Shampoo's 64 x 64 eigh, the call _worker_call picks
    set_cpus(monkeypatch, 2)
    problem = make_problem("matfact", MATRIX_BLOCKS, seed=2, target_scale=1.0)
    diffs = differences(monkeypatch, problem, noise_model(True, MATRIX_BLOCKS), config(mode, K=10))
    assert psd_linalg._WORKER_CALLS == {tuple(MATRIX_BLOCKS): 0}
    assert_matches(MATRIX_BLOCKS, diffs)


def shampoo_half_power(real):
    """geom_precondition with Shampoo's exponent 1/4 made 1/2."""

    def mutant(shape, state, V):
        if shape.geometry is not Geometry.SHAMPOO:
            return real(shape, state, V)
        (wl, Ql), (wr, Qr) = state.left_eig, state.right_eig
        core = Ql.mT @ V @ Qr / wl[..., :, None] ** 0.5 / wr[..., None, :] ** 0.5
        return Ql @ core @ Qr.mT

    return mutant


def diag_absolute(real):
    """geom_accumulate with DiagAdaGrad growing by |v|, not v^2."""

    def mutant(shape, state, V, lmap_trace):
        if shape.geometry is not Geometry.DIAG_ADAGRAD:
            return real(shape, state, V, lmap_trace)
        return geometries.DiagonalState(state.diag + np.abs(V[..., 0]))

    return mutant


def zero_first_momentum(real):
    """_momentum with M_0 = mu_0 0 + (1 - mu_0) Gtilde_0."""

    def mutant(M, mu, gtilde):
        if M is None:
            M = ProductPoint([np.zeros_like(b) for b in gtilde.blocks])
        return real(M, mu, gtilde)

    return mutant


MUTANTS = {
    "Shampoo exponent 1/2": ("geom_precondition", shampoo_half_power, "shampoo", MomentumMode.NONE),
    "DiagAdaGrad grows by |v|": ("geom_accumulate", diag_absolute, "diag", MomentumMode.NONE),
    "M_0 = 0 in M1": ("_momentum", zero_first_momentum, "adanorm", MomentumMode.M1),
    "M_0 = 0 in M2": ("_momentum", zero_first_momentum, "full", MomentumMode.M2),
}


@pytest.mark.parametrize("name, make, space, mode", MUTANTS.values(), ids=MUTANTS.keys())
def test_a_step_mutant_fails_the_reference(monkeypatch, name, make, space, mode):
    monkeypatch.setattr(optimizer, name, make(getattr(optimizer, name)))
    shapes = SPACES[space]
    problem = make_problem("quadratic", shapes, seed=2)
    diffs = differences(monkeypatch, problem, NoiseModel(), config(mode))
    assert any(diff > TOLERANCE[shape.geometry] for shape, diff in zip(shapes, diffs))
