import concurrent.futures
import sys
import threading
import time

import numpy as np
import pytest

from adprec import _second_cpu, psd_linalg
from conftest import set_cpus

from adprec.block_space import BlockShape, Geometry
from adprec.errors import NonPositiveDefinite
from adprec.geometries import KroneckerState, geom_precondition
from adprec.psd_linalg import (
    CLAMP_RTOL,
    SV_RTOL,
    eigh_clamped,
    factorize,
    msign,
    nuclear_norm,
    polar,
    psd_from_draws,
    psd_power,
    random_psd,
    random_psd_draws,
    svd_factors,
    trace_log_psd,
)


def test_psd_power_diagonal_sqrt():
    np.testing.assert_allclose(psd_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]))


def test_psd_power_identity_quarter_root():
    np.testing.assert_allclose(psd_power(np.eye(3), -0.25), np.eye(3), atol=1e-14)


def test_psd_power_inverse_sqrt_oracle():
    # R = M**-1/2 must satisfy R R M = I (verified by plain multiplication)
    M = random_psd(4, 50.0, seed=3)
    R = psd_power(M, -0.5)
    np.testing.assert_allclose(R @ R @ M, np.eye(4), atol=1e-9)


def test_psd_power_composition():
    M = random_psd(6, 100.0, seed=11)
    twice = psd_power(psd_power(M, -0.25), 2.0)
    # applying the quarter inverse root twice == inverse root
    once = psd_power(M, -0.5)
    err = np.linalg.norm(twice - once) / np.linalg.norm(once)
    assert err < 1e-9


def test_psd_power_rejects_singular_for_negative_powers():
    M = np.diag([1.0, 0.0])
    with pytest.raises(NonPositiveDefinite):
        psd_power(M, -0.5)
    # but a positive definite input just below the identity inverts
    M2 = np.diag([1.0, 1.0 - 1e-12])
    out = psd_power(M2, -0.5)
    np.testing.assert_allclose(out, np.eye(2), atol=1e-8)


def test_eigh_clamped_raises_eigenvalues_below_the_floor():
    # 1 - 1e-6 is below the clamp level floor * (1 - CLAMP_RTOL) and is lifted to it
    w, _ = eigh_clamped(np.diag([1.0, 1.0 - 1e-6]), floor=1.0)
    assert w.tolist() == [1.0 * (1.0 - CLAMP_RTOL), 1.0]


def test_trace_log_hand_values():
    assert trace_log_psd(np.eye(2)) == pytest.approx(0.0, abs=1e-14)
    assert trace_log_psd(np.diag([np.e, np.e**2])) == pytest.approx(3.0, rel=1e-12)


def test_trace_log_matches_determinant_oracle():
    M = random_psd(5, 200.0, seed=7)
    sign, logdet = np.linalg.slogdet(M)
    assert sign > 0
    assert trace_log_psd(M) == pytest.approx(logdet, rel=1e-9)


def test_trace_log_monotone_under_psd_addition():
    rng = np.random.default_rng(0)
    for s in range(20):
        A = random_psd(4, 30.0, seed=2 * s)
        B = random_psd(4, 30.0, seed=2 * s + 1) * rng.uniform(0.1, 2.0)
        assert trace_log_psd(A + B) >= trace_log_psd(A) - 1e-10


def test_trace_log_rejects_singular():
    with pytest.raises(NonPositiveDefinite):
        trace_log_psd(np.diag([1.0, 0.0]))


def test_msign_diagonal_and_zero():
    np.testing.assert_allclose(msign(np.diag([3.0, -2.0])), np.diag([1.0, -1.0]), atol=1e-14)
    np.testing.assert_array_equal(msign(np.zeros((3, 2))), np.zeros((3, 2)))


def test_msign_orthogonality_and_duality():
    rng = np.random.default_rng(5)
    G = rng.standard_normal((3, 2))
    P = msign(G)
    np.testing.assert_allclose(P.T @ P, np.eye(2), atol=1e-10)
    assert np.linalg.norm(P, 2) == pytest.approx(1.0, abs=1e-12)
    # the pairing <G, msign(G)> attains the nuclear norm
    assert float(np.sum(G * P)) == pytest.approx(nuclear_norm(G), rel=1e-9)


def test_msign_rank_deficient():
    u = np.array([[1.0], [2.0]])
    G = u @ np.array([[3.0, 0.0]])  # rank 1, 2x2
    P = msign(G)
    assert np.linalg.norm(P, 2) == pytest.approx(1.0, abs=1e-12)
    assert float(np.sum(G * P)) == pytest.approx(nuclear_norm(G), rel=1e-10)


def test_polar_gives_nuclear_norm_and_msign_of_every_positive_multiple():
    # one thin SVD of G gives the nuclear norm and msign of G, and of c G for
    # c > 0 after scaling the norm by c; the sum and the kept vectors share
    # one cutoff, so a singular value below it counts in neither
    rng = np.random.default_rng(11)
    G = rng.standard_normal((5, 3))
    U, s, Vt = svd_factors(G)
    np.testing.assert_allclose((U * s[None, :]) @ Vt, G, atol=1e-14)
    nuclear, P = polar(U, s, Vt)
    np.testing.assert_array_equal(P, msign(G))
    assert nuclear == pytest.approx(nuclear_norm(G), rel=1e-14)
    for c in (1e-3, 0.37, 5e4):
        assert c * nuclear == pytest.approx(nuclear_norm(c * G), rel=1e-13)
        np.testing.assert_allclose(P, msign(c * G), atol=1e-13)
    below = np.diag([1.0, 0.5, 0.5 * SV_RTOL])
    nuclear, P = polar(*svd_factors(below))
    np.testing.assert_array_equal(np.diag(P), [1.0, 1.0, 0.0])
    assert nuclear == nuclear_norm(below) == 1.5


def test_infinite_entry_gives_nan_nuclear_norm():
    # the SVD of a matrix with an infinite entry returns NaN singular values,
    # which the rank cutoff keeps: the nuclear norm is NaN, never 0
    G = np.ones((3, 2))
    G[0, 0] = np.inf
    assert np.isnan(nuclear_norm(G))
    assert np.isnan(polar(*svd_factors(G))[0])
    # U and Vt stay finite, so msign is made NaN from the nuclear norm
    assert np.isnan(msign(G)).all()
    # in a stack, only the item with the infinite entry turns NaN; the rank-1
    # item takes the per-matrix path of the rank cutoff
    F = np.ones((3, 2))
    stacked = msign(np.stack([F, G]))
    np.testing.assert_array_equal(stacked[0], msign(F))
    assert np.isnan(stacked[1]).all()


def test_norms_hand_values():
    G = np.diag([3.0, -2.0])
    assert nuclear_norm(G) == pytest.approx(5.0)
    assert np.linalg.norm(G, 2) == pytest.approx(3.0)
    u = np.array([[0.6], [0.8]])
    v = np.array([[1.0, 0.0]])
    assert nuclear_norm(u @ v) == pytest.approx(1.0)
    assert np.linalg.norm(u @ v, 2) == pytest.approx(1.0)


def test_norm_ordering():
    rng = np.random.default_rng(9)
    for _ in range(10):
        G = rng.standard_normal((4, 3))
        fro = np.linalg.norm(G)
        assert nuclear_norm(G) >= fro - 1e-12
        assert fro >= np.linalg.norm(G, 2) - 1e-12


def test_kron_precondition_identity_and_diagonal():
    # The Shampoo step L^{-1/4} G R^{-1/4} on hand-built Kronecker factors.
    G = np.arange(6.0).reshape(3, 2)
    st = KroneckerState(lfac=np.eye(3), rfac=np.eye(2), varsigma=1.0)
    out = geom_precondition(BlockShape(3, 2, Geometry.SHAMPOO), st, G)
    np.testing.assert_allclose(out, G, atol=1e-14)
    L = R = np.diag([2.0, 1.0])
    E = np.zeros((2, 2))
    E[0, 0] = 1.0
    st = KroneckerState(lfac=L, rfac=R, varsigma=1.0)
    out = geom_precondition(BlockShape(2, 2, Geometry.SHAMPOO), st, E)
    np.testing.assert_allclose(out, 2.0**-0.5 * E, atol=1e-14)


def test_random_psd_contracts():
    one = random_psd(1, 5.0, seed=0)
    assert one.shape == (1, 1) and one[0, 0] >= 0
    iso = random_psd(4, 1.0, seed=2)
    np.testing.assert_allclose(iso, np.eye(4), atol=1e-12)
    a = random_psd(5, 100.0, seed=42)
    b = random_psd(5, 100.0, seed=42)
    np.testing.assert_array_equal(a, b)
    w = np.linalg.eigvalsh(a)
    assert w.min() >= 1.0 / 100.0 - 1e-12 and w.max() <= 1.0 + 1e-12
    for bad in (0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="condition_target"):
            random_psd(3, bad, seed=0)


@pytest.mark.parametrize("dims", [(4, 3), (3, 5), (6, 6), (1, 4)])
def test_stacked_calls_equal_per_matrix_calls(dims):
    # a stack mixing full-rank, rank-1 and zero matrices: each item of one
    # stacked call is the call on that matrix, bit for bit (msign truncates
    # the rank per matrix)
    rng = np.random.default_rng(7)
    n, m = dims
    G = rng.standard_normal((4, n, m))
    G[1] = rng.standard_normal((n, 1)) @ rng.standard_normal((1, m))
    G[2] = 0.0
    S = G @ G.mT + 0.5 * np.eye(n)
    powers = (-1.0, -0.5, 0.5)

    def calls(G, S):
        return [msign(G), nuclear_norm(G), *polar(*svd_factors(G)),
                *eigh_clamped(S, floor=0.5), trace_log_psd(S),
                *(psd_power(S, p) for p in powers)]

    stacked = calls(G, S)
    for i in range(len(G)):
        for a, b in zip(stacked, calls(G[i], S[i])):
            np.testing.assert_array_equal(a[i], b)
    # the finish of random_psd: item i is random_psd on draw i's generator state
    for d in (1, 8):
        draws = [random_psd_draws(d, 50.0, np.random.default_rng(s)) for s in range(3)]
        finished = psd_from_draws(*(np.stack(x) for x in zip(*draws)))
        for s in range(3):
            np.testing.assert_array_equal(finished[s], random_psd(d, 50.0, seed=s))
    # a stack whose item 2 (and 3) is singular raises what item 2 alone raises
    S[2] = 0.0
    S[3] = -np.eye(n)
    for f in (trace_log_psd, *(lambda M, p=p: psd_power(M, p) for p in powers[:2])):
        with pytest.raises(NonPositiveDefinite) as alone:
            f(S[2])
        with pytest.raises(NonPositiveDefinite) as stack:
            f(S)
        assert str(stack.value) == str(alone.value)
    np.testing.assert_array_equal(psd_power(S, 0.5)[2], np.zeros((n, n)))


# -- factorizations fanned out to the worker thread ------------------------------

# (the calls' matrix dims in order, the calls that raise): the worker runs
# the largest call, the last one or the first one
FAILURES = {
    "the worker's": ((24, 16, 64), {2}),
    "this thread's, before the worker's": ((24, 16, 64), {0}),
    "this thread's, after the worker's": ((64, 24, 20), {2}),
    "both, this thread's first": ((24, 16, 64), {0, 2}),
    "both, the worker's first": ((64, 24, 20), {0, 2}),
}


@pytest.mark.parametrize("dims, failing", FAILURES.values(), ids=FAILURES.keys())
def test_a_fanned_out_failure_raises_the_in_order_failure(monkeypatch, worker, dims, failing):
    # whichever thread runs the failing calls, factorize raises the error of
    # the first one in order, as the calls run in order on one thread do,
    # and only once the worker is done
    mats = [random_psd(n, 10.0, seed=n) for n in dims]
    calls = [("eigh", M, 1.0) for M in mats]
    on_worker = set()
    real = psd_linalg.eigh_clamped

    def flaky(M, floor=None):
        i = next(i for i, m in enumerate(mats) if m is M)
        if threading.current_thread() is not threading.main_thread():
            on_worker.add(i)
            time.sleep(0.05)  # the worker ends last
        if i in failing:
            raise np.linalg.LinAlgError(f"call {i} failed")
        return real(M, floor=floor)

    monkeypatch.setattr(psd_linalg, "eigh_clamped", flaky)
    monkeypatch.setattr(psd_linalg, "_CONCURRENT_DIM", 10**9)
    with pytest.raises(np.linalg.LinAlgError) as in_order:
        factorize(calls, "in order")
    assert not worker.futures and str(in_order.value) == f"call {min(failing)} failed"
    monkeypatch.setattr(psd_linalg, "_CONCURRENT_DIM", 20)
    with pytest.raises(np.linalg.LinAlgError) as fanned:
        factorize(calls, "fanned out")
    assert on_worker == {dims.index(64)}
    assert len(worker.futures) == 1 and worker.futures[0].done()
    assert str(fanned.value) == str(in_order.value)


def logged_calls(monkeypatch, worker, mats, failing=(), slow=0.0):
    """Patch in a _run that logs ("call", i, on this thread) for call i of
    mats, sleeps `slow` on the worker and raises for the calls failing, and
    an executor whose futures log "wait" when factorize waits on them;
    return the log."""
    log, real = [], psd_linalg._run

    def run(call):
        i = next(i for i, m in enumerate(mats) if m is call[1])
        on_this_thread = threading.current_thread() is threading.main_thread()
        log.append(("call", i, on_this_thread))
        if not on_this_thread:
            time.sleep(slow)
        if i in failing:
            raise np.linalg.LinAlgError(f"call {i} failed")
        return real(call)

    class Spied:
        def __init__(self, future):
            self.future = future

        def exception(self):
            log.append("wait")
            return self.future.exception()

        def result(self):
            log.append("wait")
            return self.future.result()

    class Executor:
        def submit(self, fn, *args):
            return Spied(worker.submit(fn, *args))

    monkeypatch.setattr(psd_linalg, "_run", run)
    monkeypatch.setattr(psd_linalg, "executor", Executor)
    return log


def logging_meanwhile(log, error=None):
    """A meanwhile that logs ("meanwhile", on this thread), then raises error."""

    def meanwhile():
        log.append(("meanwhile", threading.current_thread() is threading.main_thread()))
        if error is not None:
            raise error

    return meanwhile


@pytest.mark.parametrize("fanned_out", [True, False], ids=["fanned out", "in order"])
def test_meanwhile_runs_once_after_this_threads_calls_and_before_the_wait(monkeypatch, worker,
                                                                         fanned_out):
    # meanwhile runs once, on this thread, after the calls this thread runs
    # and, with a worker, before factorize waits on the worker's result; the
    # results are those of the calls alone
    mats = [random_psd(n, 10.0, seed=n) for n in (24, 16, 64)]
    calls = [("eigh", M, 1.0) for M in mats]
    want = [eigh_clamped(M, floor=1.0) for M in mats]
    log = logged_calls(monkeypatch, worker, mats, slow=0.02)
    monkeypatch.setattr(psd_linalg, "_CONCURRENT_DIM", 20 if fanned_out else 10**9)
    got = factorize(calls, "meanwhile", logging_meanwhile(log))
    for g, ref in zip(got, want):
        assert all(np.array_equal(a, b) for a, b in zip(g, ref))
    own = [0, 1] if fanned_out else [0, 1, 2]
    assert [e for e in log if e != "wait" and e[-1]] == (
        [("call", i, True) for i in own] + [("meanwhile", True)])
    if fanned_out:
        assert ("call", 2, False) in log and log.index("wait") > log.index(("meanwhile", True))
        assert worker.futures[0].done()
    else:
        assert "wait" not in log and not worker.futures


@pytest.mark.parametrize("fanned_out", [True, False], ids=["fanned out", "in order"])
@pytest.mark.parametrize("dims, failing", FAILURES.values(), ids=FAILURES.keys())
def test_meanwhile_runs_when_a_call_fails(monkeypatch, worker, dims, failing, fanned_out):
    # a failing call, on either thread, still lets meanwhile run once on
    # this thread; then the in-order error is raised, once the worker is done
    mats = [random_psd(n, 10.0, seed=n) for n in dims]
    log = logged_calls(monkeypatch, worker, mats, failing, slow=0.05)
    monkeypatch.setattr(psd_linalg, "_CONCURRENT_DIM", 20 if fanned_out else 10**9)
    with pytest.raises(np.linalg.LinAlgError, match=f"call {min(failing)} failed"):
        factorize([("eigh", M, 1.0) for M in mats], "failing", logging_meanwhile(log))
    assert log.count(("meanwhile", True)) == 1 and ("meanwhile", False) not in log
    assert len(worker.futures) == fanned_out and all(f.done() for f in worker.futures)


@pytest.mark.parametrize("fanned_out", [True, False], ids=["fanned out", "in order"])
@pytest.mark.parametrize("failing", [set(), {0}, {2}, {0, 2}], ids=str)
def test_an_error_of_meanwhile_propagates_once_the_worker_is_done(monkeypatch, worker, failing,
                                                                 fanned_out):
    # whether or not a call fails, meanwhile's own error is the one raised,
    # and only after the worker's call (the 64 x 64, which sleeps) is done
    mats = [random_psd(n, 10.0, seed=n) for n in (24, 16, 64)]
    log = logged_calls(monkeypatch, worker, mats, failing, slow=0.05)
    monkeypatch.setattr(psd_linalg, "_CONCURRENT_DIM", 20 if fanned_out else 10**9)
    meanwhile = logging_meanwhile(log, RuntimeError("meanwhile failed"))
    with pytest.raises(RuntimeError, match="meanwhile failed"):
        factorize([("eigh", M, 1.0) for M in mats], "raising", meanwhile)
    assert log.count(("meanwhile", True)) == 1
    assert len(worker.futures) == fanned_out and all(f.done() for f in worker.futures)
    if fanned_out:
        assert log.index("wait") > log.index(("meanwhile", True))


def test_threads_stepping_at_once_share_one_worker(monkeypatch):
    # more threads than CPUs, each fanning out at once with a short switch
    # interval: one executor is made, and every result has its in-order bits
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(_second_cpu, "_worker", None)
    made = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            time.sleep(0.01)  # the other threads reach the worker meanwhile
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    calls = [("eigh", random_psd(n, 10.0, seed=n), 1.0) for n in (32, 24, 40)]
    want = [eigh_clamped(M, floor=floor) for _, M, floor in calls]
    failures = []

    start = threading.Barrier(4)

    def step():
        start.wait(timeout=60)
        for _ in range(20):
            for got, ref in zip(factorize(calls, "shared"), want):
                if not all(np.array_equal(a, b) for a, b in zip(got, ref)):
                    failures.append(got)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=step) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures and len(made) == 1
    made[0].shutdown()
