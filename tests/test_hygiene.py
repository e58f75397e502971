"""Source hygiene checks on the package modules, using the stdlib `ast`
only, and the package entry points that the benchmark under `perfbench/`
calls."""

import ast
import functools
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from adprec import cli, optimizer
from adprec.block_space import BlockShape, Geometry
from adprec.problems import NoiseKind, NoiseModel, make_problem

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "adprec"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# every file that may use a package definition
READERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_unused_import_detector():
    assert unused_imports("import os\nimport numpy as np\nnp.zeros(1)\n") == ["line 1: os"]
    assert unused_imports("from a import b as c, d\nd()\n") == ["line 1: c"]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name}: unused imports: {', '.join(unused)}"


def referenced_names(tree, skip=None) -> set[str]:
    """Identifiers, attribute names and imported names that `tree` mentions,
    outside the definition node `skip`."""
    names = set()
    nodes = [tree]
    while nodes:
        node = nodes.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        nodes.extend(ast.iter_child_nodes(node))
    return names


@functools.cache
def source_names(source: str) -> frozenset[str]:
    """``referenced_names`` of a whole source text, parsed once per text:
    the per-module checks read every other file as a reader."""
    return frozenset(referenced_names(ast.parse(source)))


def definitions(tree):
    """(name, node) of the top-level functions and classes of `tree`, and of
    the non-dunder methods of its public classes, named `Class.method`."""
    for node in tree.body:
        if not isinstance(node, DEFINITIONS):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                method = isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                if method and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def dead_definitions(source: str, readers: list[str]) -> list[str]:
    """The ``definitions`` of `source` that neither the rest of `source` nor
    any of the `readers` sources mention; a method is mentioned by its name
    alone, as an attribute of whatever object."""
    tree = ast.parse(source)
    used = set().union(*(source_names(r) for r in readers))
    return [
        f"line {node.lineno}: {name}"
        for name, node in definitions(tree)
        if node.name not in used and node.name not in referenced_names(tree, skip=node)
    ]


def test_dead_definition_detector():
    src = "def f(n):\n    return f(n - 1)\n\nclass C:\n    pass\n\ndef g():\n    return C()\n"
    assert dead_definitions(src, []) == ["line 1: f", "line 7: g"]
    assert dead_definitions(src, ["from m import g\n", "m.f(1)\n"]) == []
    # methods of public classes count, dunders and private classes do not
    src = (
        "class C:\n    def __init__(self):\n        pass\n\n    def m(self):\n"
        "        return self.m()\n\n    def n(self):\n        pass\n\n"
        "class _P:\n    def q(self):\n        pass\n\nC(), _P()\n"
    )
    assert dead_definitions(src, []) == ["line 5: C.m", "line 8: C.n"]
    assert dead_definitions(src, ["c.m()\n", "n = 1\n"]) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_definitions(path):
    readers = [p.read_text() for p in READERS if p != path]
    dead = dead_definitions(path.read_text(), readers)
    assert not dead, f"{path.name}: definitions nothing uses: {', '.join(dead)}"


# the program's own files; a re-export in the package root is not a use
PROGRAM_READERS = sorted(
    p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*.py") if p != SRC / "__init__.py"
)
# definitions that only tests read, each kept for a reason
TEST_ONLY = {
    "example_config": "the config schema that the cli docstring points to",
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_test_only_definitions(path):
    readers = [p.read_text() for p in PROGRAM_READERS if p != path]
    dead = dead_definitions(path.read_text(), readers)
    unlisted = [d for d in dead if d.rpartition(" ")[2] not in TEST_ONLY]
    assert not unlisted, f"{path.name}: definitions only tests use: {', '.join(unlisted)}"


# what builds a published bound or its slack set, which audit leaves to bounds
BOUND_BUILDERS = ("bound_constants", "nu_curve_analytic", "master_slack", "mu_schedule")


def lipschitz_reads(source: str) -> list[str]:
    """Where `source` reads a `.lipschitz` attribute, each as
    "<top-level definition>: line <n>"."""
    return [
        f"{getattr(top, 'name', '<module>')}: line {node.lineno}"
        for top in ast.parse(source).body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "lipschitz"
    ]


def test_bound_owner_detectors():
    src = (
        "from .optimizer import mu_schedule\n\ndef f(p):\n    return p.lipschitz\n\n"
        "class C:\n    L = bounds.master_slack(q.lipschitz)\n\nx = r.lipschitz_bound\n"
    )
    assert lipschitz_reads(src) == ["f: line 4", "C: line 7"]
    assert set(BOUND_BUILDERS) & source_names(src) == {"mu_schedule", "master_slack"}


def test_the_published_bounds_have_one_owner():
    # bounds.published_bounds maps a momentum mode to its bounds and slack
    # set: audit reads no Lipschitz constant and builds no bound itself, and
    # in bounds only bound_constants reads the problem's Lipschitz constant
    audit_source = (SRC / "audit.py").read_text()
    assert not lipschitz_reads(audit_source)
    named = sorted(set(BOUND_BUILDERS) & source_names(audit_source))
    assert not named, f"audit.py names {', '.join(named)}"
    readers = {w.partition(":")[0] for w in lipschitz_reads((SRC / "bounds.py").read_text())}
    assert readers == {"bound_constants"}, readers


def layout_modules(readme: str) -> set[str]:
    """The `adprec.<module>` names that open a bullet of README's "Package
    layout" section."""
    section = readme.split("\n## Package layout\n", 1)[1].split("\n## ", 1)[0]
    return {
        line[len("- `adprec.") :].split("`", 1)[0]
        for line in section.splitlines()
        if line.startswith("- `adprec.")
    }


def test_readme_lists_every_module():
    listed = layout_modules((ROOT / "README.md").read_text())
    missing = [p.stem for p in MODULES if p.stem not in listed]
    assert not missing, f"README's Package layout has no bullet for: {', '.join(missing)}"


def layout_reads(source: str) -> list[str]:
    """Where `source` reads an array's `.strides` or passes `order=`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "strides":
            found.append(f"line {node.lineno}: .strides")
        elif isinstance(node, ast.keyword) and node.arg == "order":
            found.append(f"line {node.lineno}: order=")
    return found


def test_layout_read_detector():
    src = "a.strides\nnp.copy(a, order='F')\nb.reshape(-1)\n"
    assert layout_reads(src) == ["line 1: .strides", "line 2: order="]


def test_layout_lives_in_block_space():
    # block_space.ProductPoint owns the memory layout of every block item
    found = [
        f"{path.name} {where}"
        for path in MODULES
        if path.name != "block_space.py"
        for where in layout_reads(path.read_text())
    ]
    assert not found, f"layout read outside block_space: {', '.join(found)}"


# what only adprec._second_cpu may use: the calls that fork or count CPUs,
# and the modules that start threads
SECOND_CPU_CALLS = ("fork", "sched_getaffinity", "cpu_count")
THREAD_MODULES = ("threading", "concurrent")


def second_cpu_uses(source: str) -> list[str]:
    """Where `source` uses one of SECOND_CPU_CALLS of `os`, names a
    `*_NUM_THREADS` variable or imports one of THREAD_MODULES."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in SECOND_CPU_CALLS:
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                found.append(f"line {node.lineno}: os.{node.attr}")
        elif isinstance(node, ast.Constant) and str(node.value).endswith("_NUM_THREADS"):
            found.append(f"line {node.lineno}: {node.value}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            found += [f"line {node.lineno}: import {n}" for n in names
                      if n and n.partition(".")[0] in THREAD_MODULES]
    return found


def private_imports(source: str) -> list[str]:
    """Where `source` imports a `_`-prefixed name from an adprec module."""
    return [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").partition(".")[0] == "adprec")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_second_cpu_detectors():
    src = (
        "import os, threading\nfrom concurrent.futures import Executor\nos.fork()\n"
        "len(os.sched_getaffinity(0))\nos.environ.get('MKL_NUM_THREADS')\n"
        "from .psd_linalg import _run, factorize\nfrom adprec.suites import _reports\n"
        "from numpy import _core\n"
    )
    assert set(second_cpu_uses(src)) == {
        "line 1: import threading", "line 2: import concurrent.futures", "line 3: os.fork",
        "line 4: os.sched_getaffinity", "line 5: MKL_NUM_THREADS",
    }
    assert private_imports(src) == ["line 6: _run", "line 7: _reports"]


def test_the_second_cpu_lives_in_one_module():
    # adprec._second_cpu owns the worker thread, the fork and the CPU count,
    # and no module reaches into another's private names
    found = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        uses = [] if path.name == "_second_cpu.py" else second_cpu_uses(source)
        found += [f"{path.name} {where}" for where in uses + private_imports(source)]
    assert not found, f"second CPU used outside _second_cpu, or private import: {', '.join(found)}"


def file_writes(source: str) -> list[str]:
    """Where `source` opens a file to write it (an `open` whose mode is not
    a constant free of w, x and a) or writes one by `write_text` /
    `write_bytes`, each as "<top-level definition>: line <n>"."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "open":
                # builtin open(file, mode) or Path.open(mode)
                at = 1 if isinstance(node.func, ast.Name) else 0
                mode = node.args[at] if len(node.args) > at else next(
                    (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r")
                )
                read_only = isinstance(mode, ast.Constant) and not set(mode.value) & set("wxa")
                writes = not read_only
            else:
                writes = name in ("write_text", "write_bytes")
            if writes:
                found.append(f"{getattr(top, 'name', '<module>')}: line {node.lineno}")
    return found


def test_file_write_detector():
    src = (
        "def f(p, m):\n    open(p)\n    open(p, 'rb')\n    open(p, 'w')\n    open(p, m)\n\n"
        "def g(p):\n    p.open(mode='a')\n    p.open()\n    p.write_text('x')\n"
    )
    assert file_writes(src) == ["f: line 4", "f: line 5", "g: line 8", "g: line 10"]


def test_cli_writes_only_through_its_writer():
    # _write_new removes an output before writing it anew; an `open(path,
    # "w")` elsewhere would truncate old outputs in place again
    writes = file_writes((SRC / "cli.py").read_text())
    assert [w.partition(":")[0] for w in writes] == ["_write_new"], writes


def test_benchmark_entry_points(monkeypatch):
    # perfbench counts steps by the span of optimizer.adprec_step, which its
    # tracer wraps in the optimizer's namespace; it checks every replicate
    # of a run against the records of a solo run_trajectory; and it names
    # the spans of the cli's and the optimizer's own functions
    steps = []
    step = optimizer.adprec_step

    def counted(*args, **kwargs):
        steps.append(args[-1])
        return step(*args, **kwargs)

    monkeypatch.setattr(optimizer, "adprec_step", counted)
    problem = make_problem("quadratic", [BlockShape(4, 1, Geometry.DIAG_ADAGRAD)], seed=1)
    noise = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(0.5,))
    config = optimizer.OptimizerConfig(eta=0.5, varsigma=1.0, max_iters=3)
    optimizer.run_replicates(problem, noise, config, 2)
    assert steps == [0, 1, 2]
    monkeypatch.undo()

    traj = optimizer.run_trajectory(problem, noise, config)
    columns = set(cli.CSV_COLUMNS) - {"theta_k", "bound_curve"}
    assert traj.failed is None and len(traj.records) == 3
    assert all(columns <= set(vars(record)) for record in traj.records)

    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = {"cli": cli, "optimizer": optimizer}
    for name, internal in spans.INTERNAL.items():
        for attr in internal:
            fn = getattr(modules[name], attr, None)
            assert inspect.isfunction(fn) and fn.__module__ == f"adprec.{name}", f"{name}.{attr}"


def call_sites(source: str) -> list[tuple[str, str]]:
    """(caller, callee) for every call inside a function or class of
    `source`: caller is the dotted path of the innermost definition around
    the call (``outer.inner`` for a nested function), callee the plain or
    attribute name called."""
    found = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITIONS):
                visit(child, path + (child.name,))
                continue
            if isinstance(child, ast.Call) and path:
                callee = getattr(child.func, "id", getattr(child.func, "attr", None))
                found.append((".".join(path), callee))
            visit(child, path)

    visit(ast.parse(source), ())
    return found


def test_call_site_detector():
    src = (
        "def f():\n    g()\n\n    def h():\n        m.g(k())\n\n    return h\n\n"
        "class C:\n    def m(self):\n        f()\n\ng()\n"
    )
    assert call_sites(src) == [("f", "g"), ("f.h", "g"), ("f.h", "k"), ("C.m", "f")]


def test_step_computes_no_record():
    # the step carries what the next step reads; the per-step diagnostics
    # and norms belong to the record pass, which runs once per chunk of steps
    sites = call_sites((SRC / "optimizer.py").read_text())
    calls = {callee for caller, callee in sites if caller == "adprec_step"}
    assert "geom_accumulate" in calls
    assert not calls & {"geom_diagnostics", "product_dual_norm_sq"}, calls


def attribute_reads(source: str, function: str) -> list[str]:
    """Every ``name.attr`` read inside the top-level function `function` of
    `source`, as "name.attr", in source order."""
    [top] = [node for node in ast.parse(source).body
             if isinstance(node, DEFINITIONS) and node.name == function]
    return [f"{node.value.id}.{node.attr}" for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)]


def test_attribute_read_detector():
    src = (
        "def run_rows(p, rows, config):\n    k = config.max_iters\n"
        "    return [(n, config.seed + r) for r, n in enumerate(rows)]\n\n"
        "def other(config):\n    return config.seed\n"
    )
    assert attribute_reads(src, "run_rows") == ["config.max_iters", "config.seed"]
    assert attribute_reads(src, "other") == ["config.seed"]


def test_run_rows_reads_no_config_seed():
    # each row is run at the seed it is given, not at one implied by its place
    reads = attribute_reads((SRC / "optimizer.py").read_text(), "run_rows")
    assert "config.seed" not in reads, reads


def generator_names(source: str) -> list[str]:
    """Where `source` names numpy's Generator class, as an attribute
    (``np.random.Generator``) or a bare name."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "Generator"
            or isinstance(node, ast.Name) and node.id == "Generator"]


def test_generator_name_detector():
    src = (
        "import numpy as np\nfrom numpy.random import Generator\n"
        "def f(rng):\n    return isinstance(rng, np.random.Generator)\n"
        "def g(x: Generator):\n    return x.rngs\n"
    )
    assert generator_names(src) == ["line 4", "line 5"]


def test_the_oracle_reads_one_stream_type():
    # sample_gradient reads a NormalStreams for one point as for a stack, so
    # problems.py has no branch on a bare Generator
    assert not generator_names((SRC / "problems.py").read_text())


def test_one_record_path():
    # every chunk of steps the trajectory driver records, one step or many,
    # takes one path: the nested record helper of _drive calls the one
    # function that calls step_record
    sites = [site for path in MODULES for site in call_sites(path.read_text())]
    callers = {caller for caller, callee in sites if callee == "step_record"}
    assert len(callers) == 1, callers
    helper = callers.pop().rpartition(".")[2]
    assert [caller for caller, callee in sites if callee == helper] == ["_drive.record"]


def test_small_blocks_start_no_thread_and_import_no_pool():
    # importing the package and running small blocks starts no thread and
    # imports no thread pool, even with BLAS on one thread
    code = (
        "import sys, threading\n"
        "from adprec import cli, optimizer\n"
        "from adprec.block_space import BlockShape\n"
        "from adprec.problems import NoiseModel, make_problem\n"
        "p = make_problem('matfact', [BlockShape(4, 3, 'Shampoo'), BlockShape(3, 5, 'Muon')])\n"
        "c = optimizer.OptimizerConfig(eta=0.5, varsigma=1.0, max_iters=3)\n"
        "assert optimizer.run_trajectory(p, NoiseModel(), c).failed is None\n"
        "print('concurrent.futures' in sys.modules, threading.active_count())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.split() == ["False", "1"]


def test_an_audit_imports_no_pool_and_leaves_no_child(tmp_path):
    # the audit suites fan out with a bare fork, and reap what they fork
    code = (
        "import os, sys\n"
        "from adprec import cli\n"
        "argv = ['audit', '--suite', 'trace', '--trials', '50', '--out', sys.argv[1]]\n"
        "assert cli.main(argv) == 0\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "    print('child left')\n"
        "except ChildProcessError:\n"
        "    pass\n"
        "print('multiprocessing' in sys.modules, 'concurrent.futures' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "audit")], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.splitlines()[-1].split() == ["False", "False"]
    assert "child left" not in out.stdout
