"""The audit suites' task runner, ``suites._run_tasks``: fanning out to a
second process changes no report, a failure raises what the tasks run in
order raise, the second process is always reaped, and the serial side
never forks."""

import json
import math
import os
import select
import signal
import threading
import warnings
from functools import partial

import numpy as np
import pytest

from adprec import audit, suites
from adprec.audit import AuditReport
from adprec.errors import NonFiniteIterate

# every suite at reduced sizes: TRIALS trials and these keyword arguments
TRIALS = 40
REDUCED = {
    "trace": {},
    "identities": {},
    "potentials": dict(K=40),
    "bounds": dict(K=60),
    "momentum": dict(K=60),
    "rates": dict(K=60, R=3),
}


def cpus(monkeypatch, n: int):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def count_forks(monkeypatch) -> list:
    """Patch os.fork to record each call in the returned list (in the
    process that calls it)."""
    forks, real = [], os.fork

    def fork():
        forks.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def texts(reports) -> list[str]:
    """The reports' to_dict() as JSON text, in which a NaN worst equals a
    NaN worst and -inf equals -inf."""
    return [json.dumps(r.to_dict(), sort_keys=True) for r in reports]


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def serial_and_fanned(monkeypatch, run):
    """run() serially (one CPU) and fanned out (two CPUs), counting forks."""
    forks = count_forks(monkeypatch)
    cpus(monkeypatch, 1)
    serial = run()
    assert forks == []
    cpus(monkeypatch, 2)
    fanned = run()
    assert forks == [os.getpid()]
    assert_no_child()
    return serial, fanned


@pytest.mark.parametrize("name", list(REDUCED))
def test_fanning_out_changes_no_report(monkeypatch, name):
    run = partial(suites.SUITES[name], trials=TRIALS, seed=3, **REDUCED[name])
    serial, fanned = serial_and_fanned(monkeypatch, run)
    assert len(serial) > 1 and texts(fanned) == texts(serial)


def test_all_suites_fan_out_in_one_call(monkeypatch):
    for name, sizes in REDUCED.items():
        monkeypatch.setitem(suites._TASKS, name, partial(suites._TASKS[name], **sizes))
    serial, fanned = serial_and_fanned(monkeypatch, lambda: suites.run_suite("all", TRIALS, 2))
    assert texts(fanned) == texts(serial)
    # the reports of each suite, in suite order
    cpus(monkeypatch, 1)
    each = [suites.SUITES[name](trials=TRIALS, seed=2, **REDUCED[name]) for name in REDUCED]
    assert texts(fanned) == texts(r for reports in each for r in reports)


def test_nonfinite_worsts_survive_fanning_out(monkeypatch):
    # a blown-up rates run fails its reports with a -inf worst; a NaN worst
    # comes back as NaN
    def blow_up(*args, **kwargs):
        raise NonFiniteIterate("replicate 0 (seed 0): non-finite at iteration 3: iterate")

    monkeypatch.setattr(audit, "run_replicates", blow_up)
    serial, fanned = serial_and_fanned(monkeypatch, partial(suites.suite_rates, K=10, R=2))
    assert [r.worst_violation for r in fanned] == [-math.inf] * 4
    assert texts(fanned) == texts(serial)

    nan = partial(AuditReport, "nan", 1, math.nan, False)
    serial, fanned = serial_and_fanned(monkeypatch, lambda: suites._reports([nan, nan, nan]))
    assert all(math.isnan(r.worst_violation) for r in fanned)
    assert texts(fanned) == texts(serial)


def wait_for(fd: int):
    ready, _, _ = select.select([fd], [], [], 20.0)
    if not ready:
        raise TimeoutError("the other process never started its task")
    os.read(fd, 1)


@pytest.fixture
def placed(monkeypatch):
    """placed(first_in, *bodies): two tasks, task 0 run by first_in
    ("parent" or "child") and task 1 by the other process.  Each task runs
    its body, a zero-argument callable."""
    cpus(monkeypatch, 2)
    pipes = []

    def make(first_in, *bodies):
        started = [os.pipe(), os.pipe()]  # task i writes to started[i] as it starts
        pipes.extend(started)
        real = os.fork

        def fork():
            pid = real()
            if (pid == 0) == (first_in == "parent"):
                # this process runs task 1: it claims after task 0 is claimed
                wait_for(started[0][0])
            return pid

        monkeypatch.setattr(os, "fork", fork)

        def task(i):
            os.write(started[i][1], b"x")
            if i == 0:
                # keep the other process from claiming task 0's successor late
                wait_for(started[1][0])
            return bodies[i]()

        return [partial(task, 0), partial(task, 1)]

    yield make
    for r, w in pipes:
        os.close(r)
        os.close(w)


def raising(error):
    def body():
        raise error

    return body


def where():
    return "parent" if os.getpid() == PARENT else "child"


PARENT = os.getpid()


@pytest.mark.parametrize("first_in", ["parent", "child"])
def test_tasks_run_where_placed(placed, first_in):
    assert suites._run_tasks(placed(first_in, where, where)) == [
        first_in, {"parent": "child", "child": "parent"}[first_in]
    ]
    assert_no_child()


@pytest.mark.parametrize("first_in", ["parent", "child"])
@pytest.mark.parametrize("failing", [0, 1])
def test_one_failing_task_raises_its_error(placed, first_in, failing):
    # the failing task runs in the parent or in the child
    bodies = [where, where]
    bodies[failing] = raising(ValueError(f"task {failing} failed"))
    with pytest.raises(ValueError) as info:
        suites._run_tasks(placed(first_in, *bodies))
    assert str(info.value) == f"task {failing} failed"
    assert_no_child()


@pytest.mark.parametrize("first_in", ["parent", "child"])
def test_the_first_failure_in_list_order_wins(placed, first_in):
    bodies = raising(KeyError("first")), raising(ZeroDivisionError("second"))
    with pytest.raises(KeyError) as info:
        suites._run_tasks(placed(first_in, *bodies))
    assert info.value.args == ("first",)
    assert_no_child()


def test_a_failure_in_order_is_the_serial_one(monkeypatch):
    # many tasks, two failing: the lower one's error, as in order
    def task(i):
        if i in (5, 9):
            raise ValueError(f"task {i}")
        return i

    tasks = [partial(task, i) for i in range(16)]
    for n in (1, 2):
        cpus(monkeypatch, n)
        with pytest.raises(ValueError, match="^task 5$"):
            suites._run_tasks(tasks)
    assert_no_child()


def test_a_failure_starts_no_further_task(monkeypatch):
    # task 0 fails at once and its process drains the claims: at most the
    # other process's one task in flight starts besides it
    log, note = os.pipe()

    def task(i):
        os.write(note, bytes([i]))
        if i == 0:
            raise ValueError("task 0")
        select.select([], [], [], 0.05)

    cpus(monkeypatch, 2)
    try:
        with pytest.raises(ValueError, match="^task 0$"):
            suites._run_tasks([partial(task, i) for i in range(20)])
    finally:
        os.close(note)
    started = set(os.read(log, 64))
    os.close(log)
    assert started in ({0}, {0, 1})
    assert_no_child()


def test_a_killed_child_raises_runtime_error(placed):
    def die():
        os.kill(os.getpid(), signal.SIGKILL)

    with pytest.raises(RuntimeError, match=f"status {-signal.SIGKILL}"):
        suites._run_tasks(placed("child", die, where))
    assert_no_child()


@pytest.mark.parametrize("first_in", ["parent", "child"])
def test_a_warning_as_error_reraises(placed, first_in):
    # as under -W error: numpy's divide-by-zero warning becomes an exception
    def log_zero():
        return np.log(np.float64(0.0))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="divide by zero"):
            suites._run_tasks(placed(first_in, log_zero, where))
    assert_no_child()


def test_an_interrupted_parent_kills_and_reaps_the_child(placed):
    def interrupt():
        raise KeyboardInterrupt

    def forever():
        select.select([], [], [], 60.0)

    with pytest.raises(KeyboardInterrupt):
        suites._run_tasks(placed("child", forever, interrupt))
    assert_no_child()


@pytest.fixture
def no_fork(monkeypatch):
    def fork():
        raise AssertionError("the serial side forked")

    monkeypatch.setattr(os, "fork", fork)
    cpus(monkeypatch, 2)


def test_one_cpu_never_forks(no_fork, monkeypatch):
    cpus(monkeypatch, 1)
    assert suites._run_tasks([where, where]) == ["parent", "parent"]


def test_another_thread_never_forks(no_fork):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert suites._run_tasks([where, where]) == ["parent", "parent"]
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_a_single_task_never_forks(no_fork):
    assert suites._run_tasks([where]) == ["parent"]


def test_a_child_never_forks(placed, monkeypatch):
    # task 0 runs in the child, which calls the runner again: in order
    def nested():
        return suites._run_tasks([where, where])

    tasks = placed("child", nested, where)
    real = os.fork

    def fork():
        if os.getpid() != PARENT:
            raise AssertionError("a child forked")
        return real()

    monkeypatch.setattr(os, "fork", fork)
    assert suites._run_tasks(tasks) == [["child", "child"], "parent"]
    assert_no_child()
