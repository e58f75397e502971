"""The three benchmark workloads: the inputs each generates from the workload
seed, one job as a closed-loop call into ``adprec.cli.main``, and the checks
on each job's output.

Every job is a batch job in this process; the next job starts only after the
previous one returned.  Sizes (blocks, replicates, iterations, trials) are
fixed here so that every commit measures the same work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import replace
from pathlib import Path

# Seed whose outputs are stored under reference/.  Every run, whatever its
# --seed, also runs this seed once and compares its record stream.
DEFAULT_SEED = 0
# Tolerance of that comparison, per value: |a - b| <= ATOL + RTOL * max(|a|, |b|),
# and NaN only matches NaN.  Wide enough for a refactor that changes the last
# bits of a factorization, far below any change of the iteration itself.
RTOL = 1e-9
ATOL = 1e-12

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def derive_seed(workload: str, seed: int, role: str) -> int:
    """Deterministic 31-bit seed for one role (problem, optimizer, suite)."""
    digest = hashlib.sha256(f"{workload}:{seed}:{role}".encode()).hexdigest()
    return int(digest[:8], 16) % 2**31


def run_quietly(main, argv):
    # cmd_audit prints one line per report; the benchmark's stdout is its result
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= ATOL + RTOL * max(abs(a), abs(b))


class Checks:
    """Attempted and failed correctness checks, with the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


class RunWorkload:
    """``adprec run`` on a generated config; output is the records CSVs."""

    expected_rc = (0,)

    def __init__(self, name, blocks, problem, optimizer, noise, replicates, iterations):
        self.name = name
        self.blocks = blocks
        self.problem = problem
        self.optimizer = optimizer
        self.noise = noise
        self.replicates = replicates
        self.iterations = iterations

    def config(self, seed: int) -> dict:
        problem = dict(self.problem, seed=derive_seed(self.name, seed, "problem"))
        optimizer = dict(
            self.optimizer,
            iterations=self.iterations,
            seed=derive_seed(self.name, seed, "optimizer"),
        )
        return {
            "schema_version": 1,
            "problem": problem,
            "blocks": self.blocks,
            "optimizer": optimizer,
            "noise": self.noise,
            "replicates": self.replicates,
        }

    def prepare(self, seed: int, workdir: Path) -> dict:
        workdir.mkdir(parents=True, exist_ok=True)
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps(self.config(seed), indent=1))
        out = workdir / "out"
        return {"config": str(config_path), "out": out, "argvs": [
            ["run", "--config", str(config_path), "--out", str(out)]
        ]}

    def output_dirs(self, job) -> list[Path]:
        return [job["out"]]

    def output_files(self, job) -> list[Path]:
        out = job["out"]
        return [out / "records.csv"] + [
            out / f"records_rep{r:03d}.csv" for r in range(self.replicates)
        ]

    def work_units(self, job) -> int:
        """Replicate-steps done by one job."""
        return self.replicates * self.iterations

    def check_job(self, job, rcs, checks: Checks):
        checks.check(tuple(rcs) == self.expected_rc, f"{self.name}: exit codes {rcs}")

    def stream(self, job):
        """The record stream compared with the reference: records.csv as numbers."""
        lines = (job["out"] / "records.csv").read_text().splitlines()
        return {
            "columns": lines[0].split(","),
            "rows": [[float(v) for v in line.split(",")] for line in lines[1:]],
        }

    def compare_reference(self, stream, ref, checks: Checks):
        ok = stream["columns"] == ref["columns"] and len(stream["rows"]) == len(ref["rows"])
        worst = ""
        if ok:
            for k, (row, ref_row) in enumerate(zip(stream["rows"], ref["rows"])):
                for col, a, b in zip(ref["columns"], row, ref_row):
                    if not _close(a, b):
                        ok = False
                        worst = f" first mismatch k={k} {col}: {a!r} vs {b!r}"
                        break
                if not ok:
                    break
        checks.check(ok, f"{self.name}: records.csv differs from the reference{worst}")

    def check_solo_replicates(self, cli, run_trajectory, job, checks: Checks):
        """Replicate r of the CLI run equals a solo run_trajectory at seed + r,
        byte for byte in records_repNNN.csv."""
        exp = cli.load_experiment(job["config"])
        mean_rows = [
            line.split(",") for line in (job["out"] / "records.csv").read_text().splitlines()
        ]
        header = mean_rows[0]
        for r in range(self.replicates):
            traj = run_trajectory(
                exp.problem, exp.noise, replace(exp.config, seed=exp.config.seed + r)
            )
            lines = [",".join(header)]
            for k, rec in enumerate(traj.records):
                tokens = []
                for col, mean_token in zip(header, mean_rows[k + 1]):
                    if col == "k":
                        tokens.append(str(rec.k))
                    elif col in ("theta_k", "bound_curve"):
                        tokens.append(mean_token)  # replicate-independent columns
                    else:
                        tokens.append(f"{float(getattr(rec, col)):.17g}")
                lines.append(",".join(tokens))
            expected = "\n".join(lines) + "\n"
            got = (job["out"] / f"records_rep{r:03d}.csv").read_text()
            checks.check(
                traj.failed is None and got == expected,
                f"{self.name}: replicate {r} differs from a solo run_trajectory",
            )


class AuditWorkload:
    """``adprec audit`` on three suites; output is the three audit reports."""

    suites = ("trace", "identities", "potentials")
    # potentials exits 1: it holds the two by-design failures below
    expected_rc = (0, 0, 1)
    # failures the README documents; every other report must pass
    expected_failures = frozenset(
        {"path-potentials[shampoo/exact]", "path-potentials[shampoo/noisy]"}
    )

    def __init__(self, name, trials):
        self.name = name
        self.trials = trials

    def prepare(self, seed: int, workdir: Path) -> dict:
        suite_seed = derive_seed(self.name, seed, "suite")
        workdir.mkdir(parents=True, exist_ok=True)
        outs = [workdir / "out" / s for s in self.suites]
        argvs = [
            ["audit", "--suite", s, "--trials", str(self.trials),
             "--seed", str(suite_seed), "--out", str(o)]
            for s, o in zip(self.suites, outs)
        ]
        return {"outs": outs, "argvs": argvs}

    def output_dirs(self, job) -> list[Path]:
        return job["outs"]

    def output_files(self, job) -> list[Path]:
        return [o / "audit_report.json" for o in job["outs"]]

    def reports(self, job) -> list[dict]:
        return [r for p in self.output_files(job) for r in json.loads(p.read_text())]

    def work_units(self, job) -> int:
        """Audit trials and trajectory steps, as the reports count them."""
        return sum(r["trials"] for r in self.reports(job))

    def check_job(self, job, rcs, checks: Checks):
        checks.check(tuple(rcs) == self.expected_rc, f"{self.name}: exit codes {rcs}")
        for r in self.reports(job):
            expected = r["check_name"] not in self.expected_failures
            checks.check(
                r["pass"] == expected,
                f"{self.name}: {r['check_name']} verdict {r['pass']}, expected {expected}",
            )

    def stream(self, job):
        return {
            "reports": [
                [r["check_name"], r["pass"], r["trials"], r["worst_violation"]]
                for r in self.reports(job)
            ]
        }

    def compare_reference(self, stream, ref, checks: Checks):
        got, want = stream["reports"], ref["reports"]
        ok = len(got) == len(want) and all(
            g[:3] == w[:3] and _close(g[3], w[3]) for g, w in zip(got, want)
        )
        checks.check(ok, f"{self.name}: audit reports differ from the reference")


WORKLOADS = {
    # Per-step Python in optimizer, block_space and problems; no factorization.
    "vec_replicates": RunWorkload(
        "vec_replicates",
        blocks=[
            {"rows": 8, "cols": 1, "geometry": "DiagAdaGrad"},
            {"rows": 6, "cols": 1, "geometry": "AdaNorm"},
        ],
        problem={"kind": "quadratic", "condition": 10.0},
        optimizer={"eta": 0.25, "varsigma": 1.0, "momentum": "M2", "mu_max": 0.5,
                   "beta": 0.25, "eval_objective": True},
        noise={"kind": "AdditiveDecaying", "sigma": 1.0, "alpha": 0.5},
        replicates=16,
        iterations=50,
    ),
    # eigh (Shampoo) and SVD (Muon) on blocks of width 64 dominate; R = 1.
    "matrix_blocks": RunWorkload(
        "matrix_blocks",
        blocks=[
            {"rows": 64, "cols": 32, "geometry": "Shampoo"},
            {"rows": 32, "cols": 48, "geometry": "Muon"},
        ],
        problem={"kind": "matfact", "target_scale": 1.0},
        optimizer={"eta": 0.5, "varsigma": 1.0, "momentum": "None", "mu_max": 0.0,
                   "beta": 0.0, "eval_objective": True},
        noise={"kind": "AdditiveDecaying", "sigma": 0.5, "alpha": 1.0},
        replicates=1,
        iterations=50,
    ),
    # Thousands of one-shot factorizations on fresh inputs, plus short R = 1
    # trajectories on all five geometries and the mixed space.
    "audit_suites": AuditWorkload("audit_suites", trials=500),
}


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"
