"""Spans recorded from outside the package, for the traced run only.

Every function one adprec module imports from another is replaced, in the
importing module's namespace, by a wrapper that records a span: name, start,
end and the span open when it was called (its parent).  The per-block
geometry operations carry the block's geometry in their span name.  A few
calls inside one module are wrapped too (see INTERNAL), and problem objects
built through ``make_problem`` get wrapped ``eval_grad`` / ``eval_f``.

``numpy.linalg.eigh`` and ``numpy.linalg.svd`` are wrapped with plain call
counters, so their time stays in the ``psd_linalg`` span that called them.

Spans are kept in flat arrays in memory and written out once, at the end.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import time
from array import array
from collections import Counter

import numpy as np

MODULES = ("cli", "suites", "audit", "optimizer", "geometries", "problems",
           "block_space", "psd_linalg")

# per-block operations, named by what they do to a block
GEOMETRY_OPS = {
    "geom_accumulate": "accumulate",
    "geom_precondition": "precondition",
    "geom_diagnostics": "diagnostics",
    "geom_dual_norm": "norms",
    "geom_selector": "norms",
    "geom_step_direction": "norms",
}

# functions a module calls inside itself that still mark a layer step: the
# cli's parse, bounds and write steps, and the optimizer's driver loop and step
INTERNAL = {
    "cli": ("cmd_run", "cmd_audit", "build_parser", "load_experiment", "write_csv",
            "bound_curves"),
    "optimizer": ("run_trajectory", "adprec_step"),
}

FACTORIZATIONS = ("eigh", "svd")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.calls: Counter = Counter()

    def span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def traced(self, fn, pick):
        """Wrap fn; pick(args) returns the span's name id."""
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(name_id)
            name_id.append(pick(args))
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()

        return wrapper

    def named(self, fn, name: str):
        nid = self.span_id(name)
        return self.traced(fn, lambda args: nid)

    def _geometry_op(self, fn, op: str):
        ids = {}

        def pick(args):
            geometry = args[0].geometry
            if geometry not in ids:
                ids[geometry] = self.span_id(f"geometries.{op}.{geometry.value}")
            return ids[geometry]

        return self.traced(fn, pick)

    def _problem_factory(self, fn):
        def build(*args, **kwargs):
            problem = fn(*args, **kwargs)
            changes = {
                "eval_grad": self.named(problem.eval_grad, "problems.eval_grad"),
                "eval_f": self.named(problem.eval_f, "problems.eval_f"),
            }
            if problem.component_grad is not None:
                changes["component_grad"] = self.named(
                    problem.component_grad, "problems.component_grad"
                )
            return dataclasses.replace(problem, **changes)

        return self.named(build, "problems.make_problem")

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, adprec):
        """Wrap every cross-module import of the adprec package, the INTERNAL
        calls, and the numpy factorizations; uninstall() undoes it."""
        for caller_name in MODULES:
            caller = getattr(adprec, caller_name)
            for attr, fn in list(vars(caller).items()):
                if not inspect.isfunction(fn):
                    continue
                package, _, callee = fn.__module__.rpartition(".")
                if fn.__module__ == caller.__name__:
                    if attr in INTERNAL.get(caller_name, ()):
                        self._patch(caller, attr, self.named(fn, f"{caller_name}.{attr}"))
                elif package == "adprec" and callee in MODULES:
                    if attr == "make_problem":
                        wrapped = self._problem_factory(fn)
                    elif attr in GEOMETRY_OPS:
                        wrapped = self._geometry_op(fn, GEOMETRY_OPS[attr])
                    else:
                        wrapped = self.named(fn, f"{callee}.{attr}")
                    self._patch(caller, attr, wrapped)
        for attr in FACTORIZATIONS:
            self._patch(np.linalg, attr, self._counted(getattr(np.linalg, attr), attr))

    def _counted(self, fn, key):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # analysis

    def arrays(self):
        """(name_id, parent, duration, self_time) as numpy arrays."""
        name_id = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        return name_id, parent, dur, dur - child_time

    def totals(self):
        """Per span name: (count, inclusive seconds, self seconds)."""
        name_id, _, dur, self_time = self.arrays()
        n = len(self.names)
        count = np.bincount(name_id, minlength=n)
        incl = np.bincount(name_id, weights=dur, minlength=n)
        own = np.bincount(name_id, weights=self_time, minlength=n)
        return {name: (int(count[i]), float(incl[i]), float(own[i]))
                for i, name in enumerate(self.names)}

    def save(self, path, meta: dict):
        """Write every span, the name table and a JSON metadata string."""
        np.savez_compressed(
            path,
            name_id=np.array(self.name_id, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
            start=np.array(self.start),
            end=np.array(self.end),
            names=np.array(self.names),
            meta=np.array(json.dumps(meta)),
        )
