"""Named audit suites: the standard configurations behind `adprec audit`.

Each suite returns a list of AuditReports.  Suites are deterministic given
(trials, seed); the trajectory-based suites ignore `trials` and use their
fixed iteration budgets.

A suite is a list of independent audits, each seeded on its own.  Every
suite, and ``run_suite("all")`` over all six at once, runs its audits as
zero-argument tasks through ``_run_tasks``, which returns their results in
list order.  It runs them on two processes when all of these hold: the
platform has ``os.fork``, ``os.sched_getaffinity`` gives the process at
least two CPUs, there are at least two tasks, no thread is alive besides
the caller and the idle factorization worker of ``psd_linalg``, and the
caller is not itself such a second process.  It then forks once.  The
tasks are closures, which the child inherits instead of receiving them
pickled.  Both processes take task indices one at a time, in increasing
order, from a pipe filled before the fork, and the child sends its
results back pickled through a second pipe and leaves with ``os._exit``,
so it never flushes the parent's stdio or runs its exit handlers.
Otherwise the tasks run in order in this process.  Either way each task
makes the same calls on the same inputs, so no report changes a bit.

A failure raises what running the tasks in order raises: the error of the
first failing task in list order, with its type and message.  Every task
below it was claimed first and has finished, and a process that sees a
failure drains the pipe so that no new task starts.  The child is always
reaped, and killed first when the parent is interrupted or fails; if it
dies before sending all its results, a RuntimeError names its exit status.
"""

from __future__ import annotations

import os
import signal
import threading
import warnings
from functools import partial

import numpy as np

from .audit import (
    AuditReport,
    audit_bounds,
    audit_log_increment,
    audit_m1_degenerate,
    audit_path_potentials,
    audit_rate_regimes,
    audit_spectral_log,
    audit_sqrt_trace,
    audit_structural_identities,
    audit_subadditivity_constants,
    audit_techn,
)
from .block_space import BlockShape, Geometry
from .bounds import m2_eta_limit
from .errors import InvalidConfig
from .optimizer import MomentumMode, OptimizerConfig
from .problems import NoiseKind, NoiseModel, make_problem
from .psd_linalg import _worker_threads

_CLAIM = 4  # bytes per task index in the claims pipe
_in_child = False  # set in the second process of _run_tasks


def _fans_out(tasks) -> bool:
    """Whether _run_tasks runs tasks on two processes (module docstring)."""
    if _in_child or len(tasks) < 2 or not hasattr(os, "fork"):
        return False
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return False
    others = set(threading.enumerate()) - {threading.current_thread()}
    return others <= _worker_threads()


def _run_claims(tasks, claims: int) -> dict:
    """Run the tasks whose indices this process claims from the pipe claims,
    until it is empty: {index: result or the exception raised}.  After a
    failure, drain the pipe so that no further task starts."""
    out = {}
    while index := os.read(claims, _CLAIM):
        i = int.from_bytes(index, "little")
        try:
            out[i] = tasks[i]()
        except Exception as e:
            out[i] = e
            while os.read(claims, 1 << 16):
                pass
    return out


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _serve(tasks, claims: int, send: int):
    """The second process of _run_tasks: run its claims, send the results
    pickled to the pipe send, and leave with os._exit, status 0 only once
    all are sent."""
    global _in_child
    status = 1
    try:
        _in_child = True
        import pickle

        data = memoryview(pickle.dumps(_run_claims(tasks, claims)))
        while data:
            data = data[os.write(send, data):]
        status = 0
    finally:
        os._exit(status)


def _run_tasks(tasks) -> list:
    """The results of the zero-argument callables tasks, in list order, on
    two processes or in order in this one (module docstring)."""
    if not _fans_out(tasks):
        return [task() for task in tasks]
    import pickle

    claims, fill = os.pipe()
    back, send = os.pipe()
    fds = [claims, fill, back, send]  # the pipe ends this process holds open
    pid = None

    def close(fd):
        os.close(fd)
        fds.remove(fd)

    try:
        # a pipe holds 64 KiB, far more indices than a suite has tasks, and
        # with its write end closed an empty pipe reads as end of file
        os.write(fill, b"".join(i.to_bytes(_CLAIM, "little") for i in range(len(tasks))))
        close(fill)
        with warnings.catch_warnings():
            # Python 3.12+ warns that a forked child of a threaded process
            # may deadlock; the only other thread is the idle factorization
            # worker, which the child drops (psd_linalg._forget_worker)
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            _serve(tasks, claims, send)
        close(send)
        results = _run_claims(tasks, claims)
        data = _read_all(back)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        pid = None
        if status != 0:
            raise RuntimeError(
                f"the second audit process exited with status {status} before sending its results"
            )
        results.update(pickle.loads(data))
    finally:
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in list(fds):
            close(fd)
    # every task below the first failing one has finished; later ones may not
    for i in range(len(tasks)):
        if isinstance(results[i], Exception):
            raise results[i]
    return [results[i] for i in range(len(tasks))]


def _reports(tasks) -> list[AuditReport]:
    """The reports of the audit tasks, in order; a task returns one report
    or a list of them."""
    reports = []
    for result in _run_tasks(tasks):
        if isinstance(result, list):
            reports.extend(result)
        else:
            reports.append(result)
    return reports


def _trace_tasks(trials=1000, seed=0):
    return [
        partial(audit_sqrt_trace, trials, seed=seed),
        partial(audit_log_increment, trials, seed=seed + 1),
        partial(audit_spectral_log, trials, seed=seed + 2),
        partial(audit_techn, trials, seed=seed + 3),
    ]


def suite_trace(trials=1000, seed=0):
    return _reports(_trace_tasks(trials, seed))


def _identities_tasks(trials=500, seed=0):
    tasks = []
    for i, g in enumerate(Geometry):
        tasks.append(partial(audit_structural_identities, g, trials, seed=seed + i))
        tasks.append(partial(audit_subadditivity_constants, g, max(trials, 1000), seed=seed + 10 + i))
    return tasks


def suite_identities(trials=500, seed=0):
    return _reports(_identities_tasks(trials, seed))


# the six spaces exercised by the potential audits: each of the five
# geometries alone, plus a mixed Muon + AdaNorm product space
def _potential_spaces():
    return [
        ("adanorm", "quadratic", [BlockShape(6, 1, Geometry.ADANORM)]),
        ("diag", "quadratic", [BlockShape(8, 1, Geometry.DIAG_ADAGRAD)]),
        ("full", "quadratic", [BlockShape(5, 1, Geometry.FULL_ADAGRAD)]),
        (
            "shampoo",
            "matfact",
            [BlockShape(4, 2, Geometry.SHAMPOO), BlockShape(2, 3, Geometry.SHAMPOO)],
        ),
        (
            "muon",
            "matfact",
            [BlockShape(4, 2, Geometry.MUON), BlockShape(2, 3, Geometry.MUON)],
        ),
        (
            "mixed",
            "quadratic",
            [BlockShape(3, 2, Geometry.MUON), BlockShape(4, 1, Geometry.ADANORM)],
        ),
    ]


def potential_configurations(K=500, seed=0):
    """(label, problem, noise, config) for the 12 potential-audit runs."""
    out = []
    for i, (name, kind, shapes) in enumerate(_potential_spaces()):
        problem = make_problem(kind, shapes, seed=seed + 7 * i)
        cfg = OptimizerConfig(eta=0.5, varsigma=1.0, max_iters=K, seed=seed)
        for label, noise in [
            ("exact", NoiseModel()),
            (
                "noisy",
                NoiseModel(
                    kind=NoiseKind.ADDITIVE_DECAYING, sigma=(0.5,) * len(shapes), alpha=1.0
                ),
            ),
        ]:
            out.append((f"{name}/{label}", problem, noise, cfg))
    return out


def _potential_pair(problem, exact, exact_noise, noisy, noisy_noise, cfg):
    """[exact report, noisy report] of one space's two runs, which share its
    problem and config: one two-row stack, with the noisy run in row 0 so
    that it keeps the seed."""
    rows = {noisy: noisy_noise, exact: exact_noise}
    noisy_report, exact_report = audit_path_potentials(problem, rows, cfg)
    return [exact_report, noisy_report]


def _potentials_tasks(trials=0, seed=0, K=500):
    runs = potential_configurations(K=K, seed=seed)
    return [
        partial(_potential_pair, problem, exact, exact_noise, noisy, noisy_noise, cfg)
        for (exact, problem, exact_noise, cfg), (noisy, _, noisy_noise, _) in zip(runs[::2], runs[1::2])
    ]


def suite_potentials(trials=0, seed=0, K=500):
    return _reports(_potentials_tasks(trials, seed, K))


def bound_configurations(K=2000, seed=0):
    out = []
    for kind, shapes, eta in [
        ("quadratic", [BlockShape(8, 1, Geometry.DIAG_ADAGRAD)], 1.0),
        ("quadratic", [BlockShape(6, 1, Geometry.ADANORM)], 1.0),
        ("trigquad", [BlockShape(8, 1, Geometry.DIAG_ADAGRAD)], 1.0),
        ("trigquad", [BlockShape(5, 1, Geometry.FULL_ADAGRAD)], 0.5),
    ]:
        problem = make_problem(kind, shapes, seed=seed)
        cfg = OptimizerConfig(eta=eta, varsigma=1.0, max_iters=K, seed=seed)
        out.append((f"{kind}/{shapes[0].geometry.value}", problem, cfg))
    return out


def _bounds_tasks(trials=0, seed=0, K=2000):
    tasks = [
        partial(audit_bounds, f"master-theta[{label}]", problem, cfg, context=label)
        for label, problem, cfg in bound_configurations(K=K, seed=seed)
    ]
    # statistical variant: replicate means with the analytic noise budget
    problem = make_problem("quadratic", [BlockShape(8, 1, Geometry.DIAG_ADAGRAD)], seed=seed)
    cfg = OptimizerConfig(eta=1.0, varsigma=1.0, max_iters=400, seed=seed)
    noise = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(0.5,), alpha=2.0)
    name = "master-theta[quadratic/statistical]"
    tasks.append(partial(audit_bounds, name, problem, cfg, noise, replicates=32, context="statistical"))
    return tasks


def suite_bounds(trials=0, seed=0, K=2000):
    return _reports(_bounds_tasks(trials, seed, K))


def _momentum_tasks(trials=0, seed=0, K=2000):
    problem = make_problem("quadratic", [BlockShape(8, 1, Geometry.DIAG_ADAGRAD)], seed=seed)
    tasks = []
    for mu in (0.5, 0.9):
        cfg = OptimizerConfig(
            eta=1.0,
            varsigma=1.0,
            max_iters=K,
            seed=seed,
            momentum_mode=MomentumMode.M1,
            mu_max=mu,
        )
        tasks.append(partial(audit_bounds, f"momentum-m1[mu={mu}]", problem, cfg, context=f"mu_max={mu}"))
    tasks.append(partial(audit_m1_degenerate, problem, K=min(K, 300), seed=seed))
    cfg2 = OptimizerConfig(
        eta=0.25,
        varsigma=1.0,
        max_iters=K // 2,
        seed=seed,
        momentum_mode=MomentumMode.M2,
        mu_max=0.5,
    )
    tasks.append(partial(audit_bounds, "m2-deterministic", problem, cfg2, context="mu_max=0.5"))
    return tasks


def suite_momentum(trials=0, seed=0, K=2000):
    return _reports(_momentum_tasks(trials, seed, K))


def _rate_reports(problem, cfg, R):
    """The rate-regime reports of the three noise exponents alpha."""
    results = audit_rate_regimes(problem, cfg, alphas=(0.5, 1.0, 2.0), sigma=1.0, replicates=R)
    return [r.report for r in results]


def _rates_tasks(trials=0, seed=0, K=5000, R=16):
    problem = make_problem("quadratic", [BlockShape(8, 1, Geometry.DIAG_ADAGRAD)], seed=seed)
    cfg = OptimizerConfig(eta=1.0, varsigma=1.0, max_iters=K, seed=seed, eval_objective=False)
    return [
        partial(_rate_reports, problem, cfg, R),
        partial(m2_schedule_gap_report, problem, K=K, R=R, seed=seed),
    ]


def suite_rates(trials=0, seed=0, K=5000, R=16):
    return _reports(_rates_tasks(trials, seed, K, R))


def m2_schedule_gap_report(problem, K=5000, R=16, seed=0) -> AuditReport:
    """Compare the pure-gradient momentum variant (mu_max = 0.9) at beta = 0.25
    (schedule exponent making alpha + 2 beta = 1) against beta = 0 at alpha = 0.5.

    Passes when both schedules' own rate-regime reports pass (each curve
    stays under its envelope and decays at least as fast as its guaranteed
    exponent, up to SLOPE_TOL) and the guaranteed exponent for beta = 0.25 is
    strictly below the one for beta = 0.  The measured min-gradient slopes
    and their gap are recorded in the context but not gated: the guarantees
    are upper bounds, and the realized trajectories may converge at matching
    rates.  worst_violation is the worse of the two sub-reports'.
    """
    mu_max = 0.9
    eta = 0.9 * m2_eta_limit(mu_max, problem.lipschitz, 1.0)
    out = {}
    for beta in (0.0, 0.25):
        cfg = OptimizerConfig(
            eta=eta,
            varsigma=1.0,
            max_iters=K,
            seed=seed,
            momentum_mode=MomentumMode.M2,
            mu_max=mu_max,
            beta=beta,
            eval_objective=False,
        )
        out[beta] = audit_rate_regimes(problem, cfg, alphas=(0.5,), sigma=4.0, replicates=R)[0]
    gap = out[0.0].fitted_slope - out[0.25].fitted_slope
    bound_gap = out[0.0].theory_slope - out[0.25].theory_slope
    ok = bound_gap > 0.0 and out[0.0].report.passed and out[0.25].report.passed
    return AuditReport(
        "m2-schedule-gap",
        2 * R * K,
        # np.min, not min: a NaN worst of either sub-report stays NaN
        float(np.min([out[0.0].report.worst_violation, out[0.25].report.worst_violation])),
        ok,
        f"measured slopes beta0={out[0.0].fitted_slope:.3f} "
        f"beta025={out[0.25].fitted_slope:.3f} gap={gap:.3f} "
        f"(guaranteed exponents beta0={out[0.0].theory_slope:.2f} "
        f"beta025={out[0.25].theory_slope:.2f}, gap={bound_gap:.2f})",
    )


SUITES = {
    "trace": suite_trace,
    "identities": suite_identities,
    "potentials": suite_potentials,
    "bounds": suite_bounds,
    "momentum": suite_momentum,
    "rates": suite_rates,
}
# each suite's audits as tasks, which ``run_suite("all")`` runs in one call
_TASKS = {
    "trace": _trace_tasks,
    "identities": _identities_tasks,
    "potentials": _potentials_tasks,
    "bounds": _bounds_tasks,
    "momentum": _momentum_tasks,
    "rates": _rates_tasks,
}


def run_suite(name: str, trials: int, seed: int) -> list[AuditReport]:
    if trials < 0:
        raise InvalidConfig(f"trials must be nonnegative, got {trials}")
    if seed < 0:
        raise InvalidConfig(f"seed must be nonnegative, got {seed}")
    if name == "all":
        return _reports([t for tasks in _TASKS.values() for t in tasks(trials=trials, seed=seed)])
    if name not in SUITES:
        raise InvalidConfig(f"unknown audit suite {name!r}; have {sorted(SUITES)} or 'all'")
    return SUITES[name](trials=trials, seed=seed)
