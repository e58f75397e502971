"""The audit suites' task runner, ``_second_cpu.run_tasks``: fanning out to a
second process changes no report, the costliest tasks are claimed first, a
failure raises what the tasks run in order raise, the second process is
always reaped, and the serial side never forks."""

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

from adprec import _second_cpu, audit, psd_linalg, suites
from adprec.audit import AuditReport
from adprec.block_space import Geometry
from adprec.errors import InvalidConfig, NonFiniteIterate
from adprec.psd_linalg import eigh_clamped, random_psd
from conftest import set_cpus

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
    run = partial(suites.run_suite, name, TRIALS, 3, **REDUCED[name])
    serial, fanned = serial_and_fanned(monkeypatch, run)
    assert len(serial) > 1 and texts(fanned) == texts(serial)


def test_all_suites_fan_out_in_one_call(monkeypatch):
    for name, sizes in REDUCED.items():
        monkeypatch.setitem(suites.SUITES, name, partial(suites.SUITES[name], **sizes))
    serial, fanned = serial_and_fanned(monkeypatch, lambda: suites.run_suite("all", TRIALS, 2))
    assert texts(fanned) == texts(serial)
    # the reports of each suite, in suite order
    cpus(monkeypatch, 1)
    each = [suites.run_suite(name, TRIALS, 2, **REDUCED[name]) for name in REDUCED]
    assert texts(fanned) == texts(r for reports in each for r in reports)


def test_all_passes_each_builder_its_own_sizes(monkeypatch):
    # a builder gets the sizes it takes and no other; a size that no
    # builder of the run takes is a config error
    cpus(monkeypatch, 1)
    own = {"trace": {}, "identities": {}, "potentials": dict(K=5), "bounds": dict(K=5),
           "momentum": dict(K=5), "rates": dict(K=5, R=2)}
    assert list(own) == list(suites.SUITES)
    each = [r for name, sizes in own.items() for r in suites.run_suite(name, 10, 0, **sizes)]
    assert texts(suites.run_suite("all", 10, 0, K=5, R=2)) == texts(each)
    with pytest.raises(InvalidConfig, match="takes no size R"):
        suites.run_suite("bounds", 10, 0, K=5, R=2)
    with pytest.raises(InvalidConfig, match="takes no size k"):
        suites.run_suite("all", 10, 0, k=5)


def test_nonfinite_worsts_survive_fanning_out(monkeypatch):
    # a blown-up rates run fails its reports with a -inf worst; a NaN worst
    # comes back as NaN
    def blow_up(*args, **kwargs):
        raise NonFiniteIterate("replicate 0 (seed 0): non-finite at iteration 3: iterate")

    monkeypatch.setattr(audit, "run_replicates", blow_up)
    serial, fanned = serial_and_fanned(monkeypatch, partial(suites.run_suite, "rates", 0, 0, K=10, R=2))
    assert [r.worst_violation for r in fanned] == [-math.inf] * 4
    assert texts(fanned) == texts(serial)

    nan = partial(AuditReport, "nan", 1, math.nan, False)
    serial, fanned = serial_and_fanned(monkeypatch, lambda: _second_cpu.run_tasks([nan, nan, nan]))
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
    assert _second_cpu.run_tasks(placed(first_in, where, where)) == [
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
        _second_cpu.run_tasks(placed(first_in, *bodies))
    assert str(info.value) == f"task {failing} failed"
    assert_no_child()


@pytest.mark.parametrize("first_in", ["parent", "child"])
def test_the_first_failure_in_list_order_wins(placed, first_in):
    bodies = raising(KeyError("first")), raising(ZeroDivisionError("second"))
    with pytest.raises(KeyError) as info:
        _second_cpu.run_tasks(placed(first_in, *bodies))
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
            _second_cpu.run_tasks(tasks)
    assert_no_child()


def test_a_failure_starts_no_further_task(monkeypatch):
    # task 0 fails at once, and its process starts no task listed after it:
    # at most the other process's one task in flight starts besides it
    log, note = os.pipe()

    def task(i):
        os.write(note, bytes([i]))
        if i == 0:
            raise ValueError("task 0")
        select.select([], [], [], 0.05)

    cpus(monkeypatch, 2)
    try:
        with pytest.raises(ValueError, match="^task 0$"):
            _second_cpu.run_tasks([partial(task, i) for i in range(20)])
    finally:
        os.close(note)
    started = set(os.read(log, 64))
    os.close(log)
    assert started in ({0}, {0, 1})
    assert_no_child()


def read_starts(log: int) -> list:
    """(task, process) of each task started, in the order they started."""
    return [(line[0], line[1:].decode()) for line in os.read(log, 1 << 12).split(b"\n")[:-1]]


@pytest.mark.parametrize(
    "costs, first", [((1, 5, 2, 9, 3), {1, 3}), ((2,) * 5, {0, 1})], ids=["costs", "equal"]
)
def test_the_costliest_tasks_are_claimed_first(monkeypatch, costs, first):
    # the two tasks claimed first each wait for the other to start, so they
    # run at once, one in each process, before any other task starts
    cpus(monkeypatch, 2)
    log, note = os.pipe()
    started = {i: os.pipe() for i in first}

    def task(i):
        os.write(note, bytes([i]) + where().encode() + b"\n")
        if i in started:
            os.write(started[i][1], b"x")
            wait_for(started[(first - {i}).pop()][0])
        return i, where()

    try:
        results = _second_cpu.run_tasks([partial(task, i) for i in range(5)], costs)
        starts = read_starts(log)
    finally:
        for fd in [log, note, *(fd for pipe in started.values() for fd in pipe)]:
            os.close(fd)
    assert {i for i, _ in starts[:2]} == first and {p for _, p in starts[:2]} == {"parent", "child"}
    # each task once, and the results in list order
    assert sorted(i for i, _ in starts) == list(range(5)) and results == sorted(starts)
    assert_no_child()


def test_a_failure_claimed_first_yields_to_one_listed_first(monkeypatch):
    # task 2 is claimed first and fails at once; tasks 3 and 4 come next,
    # then 1 and 0, which fails too: task 0's error wins, task 1 runs, and
    # the process that saw task 2 fail starts no task listed after it
    cpus(monkeypatch, 2)
    log, note = os.pipe()

    def task(i):
        os.write(note, bytes([i]) + where().encode() + b"\n")
        if i in (0, 2):
            raise ValueError(f"task {i}")
        if i > 2:
            select.select([], [], [], 0.05)
        return i

    try:
        with pytest.raises(ValueError, match="^task 0$"):
            _second_cpu.run_tasks([partial(task, i) for i in range(5)], (1, 2, 5, 4, 3))
        starts = read_starts(log)
    finally:
        os.close(log)
        os.close(note)
    assert starts[0][0] in (2, 3) and {0, 1, 2} <= {i for i, _ in starts}
    process = dict(starts)[2]
    started_there = [i for i, p in starts if p == process]
    assert started_there[0] == 2 and all(i < 2 for i in started_there[1:])
    assert_no_child()


def test_the_cost_estimate_ranks_the_tasks():
    # deterministic: from the tasks' sizes, never from timings
    def costs(builder, key, **sizes):
        return {key(task): cost for cost, task in builder(seed=0, **sizes)}

    every = [c for tasks in suites.SUITES.values() for c, _ in tasks(trials=1000, seed=0)]
    rates = [c for c, _ in suites._rates_tasks(seed=0)]
    assert sorted(every)[-2:] == sorted(rates)

    label = costs(suites._potentials_tasks, lambda task: task.args[1].split("/")[0])
    assert label["shampoo"] > label["muon"] > max(label["mixed"], label["full"])
    assert min(label["mixed"], label["full"]) > max(label["adanorm"], label["diag"])

    for trials in (500, 1000):  # the benchmark's trials and the default
        geometry = costs(suites._identities_tasks, lambda task: (task.func, task.args[0]), trials=trials)
        matrix = [c for (_, g), c in geometry.items() if g in (Geometry.SHAMPOO, Geometry.MUON)]
        vector = [c for (_, g), c in geometry.items() if g not in (Geometry.SHAMPOO, Geometry.MUON)]
        assert len(matrix) == 4 and len(vector) == 6 and min(matrix) > max(vector)


def test_a_killed_child_raises_runtime_error(placed):
    def die():
        os.kill(os.getpid(), signal.SIGKILL)

    with pytest.raises(RuntimeError, match=f"status {-signal.SIGKILL}"):
        _second_cpu.run_tasks(placed("child", die, where))
    assert_no_child()


@pytest.mark.parametrize("first_in", ["parent", "child"])
def test_a_warning_as_error_reraises(placed, first_in):
    # as under -W error: numpy's divide-by-zero warning becomes an exception
    def log_zero():
        return np.log(np.float64(0.0))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="divide by zero"):
            _second_cpu.run_tasks(placed(first_in, log_zero, where))
    assert_no_child()


def test_an_interrupted_parent_kills_and_reaps_the_child(placed):
    def interrupt():
        raise KeyboardInterrupt

    def forever():
        select.select([], [], [], 60.0)

    with pytest.raises(KeyboardInterrupt):
        _second_cpu.run_tasks(placed("child", forever, interrupt))
    assert_no_child()


@pytest.fixture
def no_fork(monkeypatch):
    def fork():
        raise AssertionError("the serial side forked")

    monkeypatch.setattr(os, "fork", fork)
    cpus(monkeypatch, 2)


def test_one_cpu_never_forks(no_fork, monkeypatch):
    cpus(monkeypatch, 1)
    assert _second_cpu.run_tasks([where, where]) == ["parent", "parent"]


def test_another_thread_never_forks(no_fork):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _second_cpu.run_tasks([where, where]) == ["parent", "parent"]
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_a_single_task_never_forks(no_fork):
    assert _second_cpu.run_tasks([where]) == ["parent"]


def test_a_child_never_forks(placed, monkeypatch):
    # task 0 runs in the child, which calls the runner again: in order
    def nested():
        return _second_cpu.run_tasks([where, where])

    tasks = placed("child", nested, where)
    real = os.fork

    def fork():
        if os.getpid() != PARENT:
            raise AssertionError("a child forked")
        return real()

    monkeypatch.setattr(os, "fork", fork)
    assert _second_cpu.run_tasks(tasks) == [["child", "child"], "parent"]
    assert_no_child()


def test_a_parent_never_forks_twice(placed, monkeypatch):
    # task 0 runs in the parent, which calls the runner again: in order
    def nested():
        return _second_cpu.run_tasks([where, where])

    tasks = placed("parent", nested, where)
    real, forks = os.fork, []

    def fork():
        forks.append(os.getpid())
        if len(forks) > 1:
            raise AssertionError("the parent forked twice")
        return real()

    monkeypatch.setattr(os, "fork", fork)
    assert _second_cpu.run_tasks(tasks) == [["parent", "parent"], "child"]
    assert forks == [PARENT]
    assert_no_child()


def test_no_factorization_worker_inside_a_fan_out(placed, monkeypatch):
    # a key first decided outside a fan-out, where the worker takes its
    # 64 x 64, runs in order on the calling thread inside one, in either
    # process: no thread starts, and the bits are those of the calls in order
    set_cpus(monkeypatch, 2)
    calls = [("eigh", random_psd(n, 10.0, seed=n), 1.0) for n in (64, 32)]
    want = [eigh_clamped(M, floor=floor) for _, M, floor in calls]
    on_this_thread, real = [], psd_linalg._run

    def run(call):
        on_this_thread.append(threading.current_thread() is threading.main_thread())
        return real(call)

    monkeypatch.setattr(psd_linalg, "_run", run)
    psd_linalg.factorize(calls, "fan-out")
    assert sorted(on_this_thread) == [False, True]
    before = set(threading.enumerate())

    def task():
        on_this_thread.clear()
        got = psd_linalg.factorize(calls, "fan-out")
        started = [t.name for t in threading.enumerate() if t not in before]
        return where(), got, list(on_this_thread), started

    results = _second_cpu.run_tasks(placed("parent", task, task))
    assert [r[0] for r in results] == ["parent", "child"]
    assert_no_child()
    for _, got, ran, started in results:
        assert ran == [True, True] and started == []
        for g, ref in zip(got, want):
            assert all(np.array_equal(a, b) for a, b in zip(g, ref))
