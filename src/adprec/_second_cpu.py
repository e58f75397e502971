"""The one owner of the second CPU: the factorization worker thread and the
task runner's second process.

One policy, with no knob: besides the calling thread, adprec runs at most
one extra LAPACK thread or one extra process at a time, chosen from the
affinity mask, the BLAS threads, the live threads and the task count.
``spare_thread`` grants the worker thread when BLAS runs a call on fewer
threads than the process has CPUs (its affinity mask, else the machine's
count); ``executor`` withholds it while a fan-out runs.  The two threads
overlap only inside LAPACK, which releases the interpreter lock; the worker
needs the lock to start and to return its call (``psd_linalg.factorize``).
``run_tasks`` fans out, forking once, when the platform has ``os.fork`` and
``os.sched_getaffinity``, the process has at least two CPUs and two tasks,
no thread is alive besides the caller and the idle worker, and no fan-out
is running.  A fan-out sets one flag that both processes keep until it
ends, so a task inside it, in either process, runs its own tasks in order
and its factorizations on its own thread.

The worker is one thread, made with ``concurrent.futures`` on first use; a
forked child drops it.  In a fan-out the child inherits the tasks, which are
closures, instead of receiving them pickled.  Both processes claim task
indices one at a time from a pipe filled before the fork, the costliest
task by the caller's estimate first, so that neither idles long while the
other ends a long task claimed last, and the child sends its results back
pickled (``_serve``).  Either way each task makes the same calls on the
same inputs, so no result changes a bit, and a failure raises what running
the tasks in order raises: the error of the first failing task in list
order, with its type and message.  After a failure a process skips each
task it claims that is listed after it, so every task listed before the
first failure runs.  The child is always reaped, and killed first when the
parent is interrupted or fails; if it dies before sending all its results,
a RuntimeError names its exit status.
"""

from __future__ import annotations

import os
import signal
import threading
import warnings

_CLAIM = 4  # bytes per task index in the claims pipe
_fanning_out = False  # set while run_tasks fans out, in both processes
_worker = None  # the one worker thread's executor, made on first use
_worker_lock = threading.Lock()


def _cpus() -> int:
    """The CPUs in this process's affinity mask; 0 where the platform has none."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 0


def _blas_threads() -> int:
    """The threads BLAS runs a call on, as OpenBLAS and MKL read them when
    numpy loads them: the first of these variables that holds a positive
    integer (OpenBLAS reads 0 as unset), else one per CPU.  With BLAS on
    every CPU, a second call at once only contends with the first (a
    matrix_blocks step read 6% slower on a 2-vCPU VM)."""
    for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "")
        if value.isdigit() and int(value) > 0:
            return int(value)
    return os.cpu_count() or 1


def spare_thread() -> bool:
    """Whether BLAS leaves a CPU of the process idle for the worker thread."""
    return _blas_threads() < (_cpus() or os.cpu_count() or 1)


def _forget_worker():
    """Drop the parent's worker in a forked child, which has no such thread."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


def executor():
    """The worker thread's executor, made (and concurrent.futures imported)
    on first use, or None while a fan-out runs."""
    global _worker
    if _fanning_out:
        return None
    with _worker_lock:
        if _worker is None:
            from concurrent.futures import ThreadPoolExecutor

            _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="adprec-factorize")
            os.register_at_fork(after_in_child=_forget_worker)
    return _worker


def _fans_out(tasks) -> bool:
    """Whether run_tasks runs tasks on two processes (module docstring)."""
    if _fanning_out or len(tasks) < 2 or not hasattr(os, "fork") or _cpus() < 2:
        return False
    worker = set() if _worker is None else set(_worker._threads)
    return set(threading.enumerate()) - {threading.current_thread()} <= worker


def _run_claims(tasks, claims: int) -> dict:
    """Run the tasks whose indices this process claims from the pipe claims,
    until it is empty: {index: result or the exception raised}.  After a
    failure, skip every claimed task listed after it."""
    out, failed = {}, len(tasks)
    while index := os.read(claims, _CLAIM):
        i = int.from_bytes(index, "little")
        if i > failed:
            continue
        try:
            out[i] = tasks[i]()
        except Exception as e:
            out[i], failed = e, i
    return out


def _serve(tasks, claims: int, send: int):
    """The second process of run_tasks: run its claims, send the results
    pickled to the pipe send, and leave with os._exit, status 0 only once
    all are sent, so that it never flushes the parent's stdio or runs its
    exit handlers."""
    status = 1
    try:
        import pickle

        data = memoryview(pickle.dumps(_run_claims(tasks, claims)))
        while data:
            data = data[os.write(send, data):]
        status = 0
    finally:
        os._exit(status)


def run_tasks(tasks, costs=None) -> list:
    """The results of the zero-argument callables tasks, in list order, on
    two processes or in order in this one (module docstring).  costs holds
    one estimate per task (default: all equal); a fan-out claims the
    costliest task first, ties in list order."""
    global _fanning_out
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
        _fanning_out = True  # the child inherits it
        # costliest first; the sort is stable, so ties keep list order
        order = sorted(range(len(tasks)), key=lambda i: 0 if costs is None else -costs[i])
        # a pipe holds 64 KiB, far more indices than a suite has tasks, and
        # with its write end closed an empty pipe reads as end of file
        os.write(fill, b"".join(i.to_bytes(_CLAIM, "little") for i in order))
        close(fill)
        with warnings.catch_warnings():
            # Python 3.12+ warns that a forked child of a threaded process
            # may deadlock; the only other thread is the idle worker, which
            # the child drops (_forget_worker)
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            _serve(tasks, claims, send)
        close(send)
        results, chunks = _run_claims(tasks, claims), []
        while chunk := os.read(back, 1 << 16):
            chunks.append(chunk)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        pid = None
        if status != 0:
            raise RuntimeError(
                f"the second audit process exited with status {status} before sending its results"
            )
        results.update(pickle.loads(b"".join(chunks)))
    finally:
        _fanning_out = False
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in list(fds):
            close(fd)
    # every task listed before the first failure has run (_run_claims)
    for i in range(len(tasks)):
        if isinstance(results[i], Exception):
            raise results[i]
    return [results[i] for i in range(len(tasks))]
