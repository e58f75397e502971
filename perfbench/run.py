"""adprec benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs from the root of a source checkout and imports adprec from its ``src/``.
Workloads are defined in workloads.py; README.md says why each exists and
which metric each layer should move.

--trace 0 measures the end-to-end metrics: set-up time over several fresh
interpreters, then closed-loop jobs for --seconds, each timed from outside.
--trace 1 alternates untraced and traced jobs for --seconds, then runs one
short trajectory per geometry, and reports the per-layer metrics from the
traced jobs only.  Both check every job's output.

The last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS threads for the benchmark process and the set-up processes it starts,
# set before numpy loads, which is when BLAS reads them
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import numpy as np  # noqa: E402

from spans import MODULES, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    Checks,
    derive_seed,
    reference_path,
    run_quietly,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 7
PROBE_ITERATIONS = 20


def import_adprec():
    """Import adprec from this checkout's sources, never from elsewhere."""
    package = SRC / "adprec"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no adprec sources at {package}")
    sys.path.insert(0, str(SRC))
    import adprec
    import adprec.cli

    if Path(adprec.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported adprec from {adprec.__file__}, not {package}")
    return adprec


def git_commit():
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git work tree)"


def machine_record():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = hashlib.sha256()
    for path in sorted((SRC / "adprec").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
        "src_sha256": sources.hexdigest()[:16],
    }


def run_job(main, job):
    return [run_quietly(main, argv) for argv in job["argvs"]]


def output_digest(workload, job):
    h = hashlib.sha256()
    for path in workload.output_files(job):
        h.update(path.read_bytes())
    return h.hexdigest()


def measure_setup(job):
    """Median seconds from starting a fresh interpreter to the first iteration."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), *job["argvs"][0]]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def tail(samples):
    """(percentile, value): the highest of 99/95/90/75/50 with ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    for p in (99, 95, 90, 75, 50):
        i = max(math.ceil(p / 100 * n) - 1, 0)
        if n - 1 - i >= 10:
            return p, xs[i]
    return None, None


class JobLoop:
    """Closed-loop jobs with their checks; every job's output must equal the
    warm-up job's, which is itself checked against the workload's rules."""

    def __init__(self, adprec, workload, job, checks):
        self.workload = workload
        self.job = job
        self.checks = checks
        rcs = run_job(adprec.cli.main, job)
        workload.check_job(job, rcs, checks)
        self.digest = output_digest(workload, job)

    def once(self, main, calibration=None):
        """Run one job.  Returns its seconds and, given a calibration, those
        seconds over the median calibration pass run between the job's calls
        and after it, about one pass per 0.2 s of call."""
        gc.collect()
        seconds, rcs, passes = 0.0, [], []
        for argv in self.job["argvs"]:
            t0 = time.perf_counter()
            rcs.append(run_quietly(main, argv))
            call = time.perf_counter() - t0
            seconds += call
            if calibration is not None:
                passes += [calibration.run() for _ in range(max(1, round(call / 0.2)))]
        self.workload.check_job(self.job, rcs, self.checks)
        self.checks.check(
            output_digest(self.workload, self.job) == self.digest,
            f"{self.workload.name}: output differs from the first job's",
        )
        return seconds, (seconds / statistics.median(passes) if passes else None)


def reference_checks(adprec, workload, job, seed, checks):
    """The default seed's record stream against the stored reference, and
    every replicate against a solo run_trajectory."""
    ref_job = job
    if seed != DEFAULT_SEED:
        ref_job = workload.prepare(DEFAULT_SEED, OUT / workload.name / "default_seed")
        workload.check_job(ref_job, run_job(adprec.cli.main, ref_job), checks)
    ref = json.loads(reference_path(workload.name).read_text())
    workload.compare_reference(workload.stream(ref_job), ref, checks)
    if hasattr(workload, "check_solo_replicates"):
        workload.check_solo_replicates(
            adprec.cli, adprec.optimizer.run_trajectory, job, checks
        )


class Calibration:
    """Fixed work that never touches adprec, timed between jobs.  It mixes
    what the workloads spend time on: Python calls with small-array numpy
    arithmetic, and eigh / SVD at the matrix_blocks sizes.  Its time tracks
    the speed the shared machine gives this process."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = np.ones(8)
        self.sym = []
        for n in (64, 32):
            a = rng.standard_normal((n, n))
            self.sym.append(a @ a.T + np.eye(n))
        self.rect = rng.standard_normal((32, 48))

    def run(self):
        """Seconds taken by one pass, about 8 ms."""
        t0 = time.perf_counter()
        s = 0.0
        for i in range(400):
            y = self.x * 1.0001 + 0.5
            s += float(np.sum(y * y)) ** 0.5
            d = {"k": i, "s": s}
            s += d["k"] * 1e-9
        for _ in range(3):
            for m in self.sym:
                s += float(np.linalg.eigh(m)[0][0])
            s += float(np.linalg.svd(self.rect, compute_uv=False)[0])
        return time.perf_counter() - t0


def end_to_end(adprec, workload, job, seconds, checks):
    setup_s = measure_setup(job)
    loop = JobLoop(adprec, workload, job, checks)
    calibration = Calibration()
    times, ratios = [], []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        job_seconds, ratio = loop.once(adprec.cli.main, calibration)
        times.append(job_seconds)
        ratios.append(ratio)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    median = statistics.median(times)
    p, p_value = tail(times)
    # raw times, printed but not gated: see README.md on the machine's drift
    print(f"wall_s = {median:.6g} s (median of n={len(times)} jobs); "
          + (f"p{p} = {p_value:.6g} s (ten or more samples beyond it)" if p
             else "no percentile has ten samples beyond it"))
    print(f"steps_per_s = {workload.work_units(job) / median:.6g} 1/s (at the median job)")
    return {
        "wall_rel": (statistics.median(ratios), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def probe_geometries(adprec, seed):
    """One short traced trajectory per geometry: factorizations and geometry
    time per block-step.  Returns {geometry: (tracer, block_steps)}."""
    from adprec.block_space import BlockShape, Geometry
    from adprec.optimizer import OptimizerConfig
    from adprec.problems import NoiseKind, NoiseModel, make_problem

    vector = [(64, 1)]
    matrix = [(64, 32), (32, 48)]
    spaces = {
        Geometry.ADANORM: ("quadratic", vector),
        Geometry.DIAG_ADAGRAD: ("quadratic", vector),
        Geometry.FULL_ADAGRAD: ("quadratic", vector),
        Geometry.SHAMPOO: ("matfact", matrix),
        Geometry.MUON: ("matfact", matrix),
    }
    out = {}
    for geometry, (kind, shapes) in spaces.items():
        shapes = [BlockShape(rows, cols, geometry) for rows, cols in shapes]
        problem = make_problem(kind, shapes, seed=derive_seed("probe", seed, geometry.value))
        noise = NoiseModel(kind=NoiseKind.ADDITIVE_DECAYING, sigma=(0.5,), alpha=1.0)
        config = OptimizerConfig(eta=0.5, varsigma=1.0, max_iters=PROBE_ITERATIONS,
                                 seed=derive_seed("probe", seed, "optimizer"))
        tracer = Tracer()
        tracer.install(adprec)
        try:
            traj = tracer.named(adprec.optimizer.run_trajectory, "optimizer.run_trajectory")(
                problem, noise, config
            )
        finally:
            tracer.uninstall()
        if traj.failed is not None:
            raise RuntimeError(f"probe trajectory on {geometry.value} failed: {traj.failed}")
        out[geometry.value] = (tracer, PROBE_ITERATIONS * len(shapes))
    return out


def per_layer(adprec, workload, job, seconds, seed, checks):
    loop = JobLoop(adprec, workload, job, checks)
    tracer = Tracer()
    traced, untraced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < 1 or time.perf_counter() < deadline:
        untraced.append(loop.once(adprec.cli.main)[0])
        tracer.install(adprec)
        try:
            traced.append(loop.once(tracer.named(adprec.cli.main, "cli.main"))[0])
        finally:
            tracer.uninstall()
    bytes_written = sum(
        p.stat().st_size for d in workload.output_dirs(job) for p in d.rglob("*") if p.is_file()
    )
    probes = probe_geometries(adprec, seed)
    tracer.save(OUT / workload.name / "spans.npz",
                {"workload": workload.name, "seed": seed, "traced_jobs": len(traced)})

    totals = tracer.totals()
    jobs = len(traced)

    def own(*names):
        return sum(totals[n][2] for n in names if n in totals)

    def module(name):
        return name.partition(".")[0]

    job_time = totals["cli.main"][1]
    steps = totals["optimizer.adprec_step"][0]
    # trajectories the audit layer drives: run_trajectory spans under suites or audit
    name_id, parent, dur, _ = tracer.arrays()
    audit_ids = [i for i, n in enumerate(tracer.names) if module(n) in ("suites", "audit")]
    is_traj = name_id == tracer.span_id("optimizer.run_trajectory")
    under_audit = (parent >= 0) & np.isin(name_id[np.maximum(parent, 0)], audit_ids)
    audit_traj = float(dur[is_traj & under_audit].sum())
    m = {
        "optimizer.step_self_us": (own("optimizer.adprec_step") / steps * 1e6, "us"),
        "optimizer.driver_self_us": (own("optimizer.run_trajectory") / steps * 1e6, "us"),
        "optimizer.aggregate_share": (100 * own("optimizer.run_replicates") / job_time, "%"),
        "problems.oracle_us": (
            own("problems.sample_gradient", "problems.eval_grad") / steps * 1e6, "us"),
        "problems.objective_us": (own("problems.eval_f") / steps * 1e6, "us"),
        "block_space.norms_us": (own("block_space.product_dual_norm_sq") / steps * 1e6, "us"),
        "psd_linalg.factor_calls_per_job": (sum(tracer.calls.values()) / jobs, "count"),
        "audit.trajectory_share": (100 * audit_traj / job_time, "%"),
        "cli.parse_s": (own("cli.build_parser", "cli.load_experiment") / jobs, "s"),
        "cli.write_s": (own("cli.write_csv", "cli.cmd_run", "cli.cmd_audit") / jobs, "s"),
        "cli.bounds_share": (100 * totals.get("cli.bound_curves", (0, 0.0))[1] / job_time, "%"),
        "cli.bytes_written": (bytes_written, "B"),
        "trace.overhead_ratio": (statistics.median(traced) / statistics.median(untraced),
                                 "ratio"),
    }
    for mod in MODULES:
        m[f"self_share.{mod}"] = (
            100 * sum(t[2] for n, t in totals.items() if module(n) == mod) / job_time, "%")
    factor_time = factor_calls = 0
    for geometry, (probe, block_steps) in probes.items():
        pt = probe.totals()
        for op in ("accumulate", "precondition", "diagnostics", "norms"):
            incl = pt.get(f"geometries.{op}.{geometry}", (0, 0.0))[1]
            m[f"geometries.{op}_us.{geometry}"] = (incl / block_steps * 1e6, "us")
        for kind in ("eigh", "svd"):
            m[f"psd_linalg.{kind}_per_block_step.{geometry}"] = (
                probe.calls[kind] / block_steps, "count")
        factor_time += sum(t[1] for n, t in pt.items() if module(n) == "psd_linalg")
        factor_calls += sum(probe.calls.values())
    m["psd_linalg.factor_us"] = (factor_time / factor_calls * 1e6, "us")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    adprec = import_adprec()
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    print("machine " + json.dumps(machine_record(), sort_keys=True))
    job = workload.prepare(args.seed, OUT / workload.name / "seed")
    checks = Checks()
    if args.trace:
        metrics = per_layer(adprec, workload, job, args.seconds, args.seed, checks)
    else:
        metrics = end_to_end(adprec, workload, job, args.seconds, checks)
    reference_checks(adprec, workload, job, args.seed, checks)
    if not args.trace:
        metrics["passed_share"] = (100.0 * (1 - checks.failed / checks.attempted), "%")

    print(f"{workload.name} seed={args.seed} trace={args.trace}: "
          f"{checks.attempted} checks, {checks.failed} failed")
    for message in checks.messages:
        print("  FAILED " + message)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
