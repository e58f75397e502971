import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from adprec import psd_linalg


class RecordingExecutor:
    """A one-thread executor that keeps every future it returns."""

    def __init__(self):
        self.pool = ThreadPoolExecutor(max_workers=1)
        self.futures = []

    def submit(self, fn, *args):
        self.futures.append(self.pool.submit(fn, *args))
        return self.futures[-1]


def set_cpus(monkeypatch, cpus: int, blas_threads: str | None = "1"):
    """Make psd_linalg.factorize choose afresh, in a process on `cpus` CPUs
    whose BLAS runs on blas_threads threads (None: unset, one per CPU)."""
    monkeypatch.setattr(psd_linalg, "_WORKER_CALLS", {})
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    if blas_threads is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)


@pytest.fixture
def worker(monkeypatch):
    """Two CPUs, BLAS on one thread, and a RecordingExecutor as the worker."""
    set_cpus(monkeypatch, 2)
    executor = RecordingExecutor()
    monkeypatch.setattr(psd_linalg, "executor", lambda: executor)
    yield executor
    executor.pool.shutdown()
