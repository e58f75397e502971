"""Command-line front end.

    adprec run   --config cfg.json --out results/
    adprec audit --suite all --trials 1000 --seed 0 --out results/
    adprec sweep --config cfg.json --alphas 0.5,1.0,2.0 --out results/

Configuration is a single JSON document (see `example_config`).  All CSV
output uses '.' decimals and 17 significant digits, so reruns of the same
config are byte-identical.

Exit codes: 0 ok, 1 audit failures, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audit import audit_rate_regimes
from .block_space import BlockShape
from .bounds import published_bounds
from .errors import AdprecError, InvalidConfig, NonFiniteIterate
from .optimizer import MomentumMode, OptimizerConfig, run_replicates
from .problems import NoiseKind, NoiseModel, make_problem
from .suites import SUITES, run_suite

CSV_COLUMNS = (
    "k",
    "f_value",
    "grad_dual_norm",
    "gtilde_dual_norm",
    "z_dual_norm_sq",
    "trace_sqrt_total",
    "delta_k",
    "theta_k",
    "bound_curve",
    "resid_ineq1",
    "resid_ineq2",
    "step_dual_norm",
)


def example_config():
    return {
        "schema_version": 1,
        "problem": {"kind": "quadratic", "condition": 10.0, "seed": 7},
        "blocks": [{"rows": 8, "cols": 1, "geometry": "DiagAdaGrad"}],
        "optimizer": {
            "eta": 1.0,
            "varsigma": 1.0,
            "iterations": 200,
            "seed": 1,
            "momentum": "None",
            "mu_max": 0.0,
            "beta": 0.0,
            "eval_objective": True,
        },
        "noise": {"kind": "Exact"},
        "replicates": 1,
    }


@dataclass
class Experiment:
    raw: dict
    problem: object
    noise: NoiseModel
    config: OptimizerConfig
    replicates: int

    @property
    def digest(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


_REQUIRED = object()


def _check(v, kind, what):
    """v as the JSON type `kind` (int, float, bool, str, list or dict).  A
    bool is never accepted as an int or a float; an int is accepted (as a
    float) where a float is expected."""
    accepted = (int, float) if kind is float else kind
    if isinstance(v, bool) != (kind is bool) or not isinstance(v, accepted):
        raise InvalidConfig(f"{what} must be {kind.__name__}, got {type(v).__name__}")
    return float(v) if kind is float else v


def _get(d, key, kind, where, default=_REQUIRED):
    """d[key] checked by `_check`, or `default` when the key is absent and a
    default is given; d itself must be a JSON object."""
    if not isinstance(d, dict):
        raise InvalidConfig(f"{where} must be a JSON object, got {type(d).__name__}")
    if key not in d:
        if default is _REQUIRED:
            raise InvalidConfig(f"{where}: missing required key {key!r}")
        return default
    return _check(d[key], kind, f"{where}: key {key!r}")


def parse_experiment(raw: dict) -> Experiment:
    if _get(raw, "schema_version", int, "config", None) != 1:
        raise InvalidConfig("config needs schema_version = 1")

    blocks_raw = _get(raw, "blocks", list, "config")
    if not blocks_raw:
        raise InvalidConfig("config: blocks must be a nonempty list")
    shapes = []
    for i, b in enumerate(blocks_raw):
        where = f"blocks[{i}]"
        gname = _get(b, "geometry", str, where)
        rows, cols = _get(b, "rows", int, where), _get(b, "cols", int, where)
        try:
            shapes.append(BlockShape(rows, cols, gname))
        except AdprecError as err:
            raise type(err)(f"{where}: {err}") from None

    prob_raw = dict(_get(raw, "problem", dict, "config"))
    kind = _get(prob_raw, "kind", str, "problem")
    prob_raw.pop("kind")
    try:
        problem = make_problem(kind, shapes, **prob_raw)
    except (TypeError, ValueError) as err:
        raise InvalidConfig(f"problem: bad parameters for {kind!r}: {err}")

    opt = _get(raw, "optimizer", dict, "config")
    mom_name = _get(opt, "momentum", str, "optimizer", "None")
    try:
        mode = MomentumMode(mom_name)
    except ValueError:
        raise InvalidConfig(f"optimizer: unknown momentum mode {mom_name!r}")
    config = OptimizerConfig(
        eta=_get(opt, "eta", float, "optimizer"),
        varsigma=_get(opt, "varsigma", float, "optimizer"),
        max_iters=_get(opt, "iterations", int, "optimizer"),
        seed=_get(opt, "seed", int, "optimizer", 0),
        momentum_mode=mode,
        mu_max=_get(opt, "mu_max", float, "optimizer", 0.0),
        beta=_get(opt, "beta", float, "optimizer", 0.0),
        eval_objective=_get(opt, "eval_objective", bool, "optimizer", True),
    )

    noise_raw = _get(raw, "noise", dict, "config", {})
    nk = _get(noise_raw, "kind", str, "noise", "Exact")
    try:
        noise_kind = NoiseKind(nk)
    except ValueError:
        raise InvalidConfig(f"noise: unknown kind {nk!r}")
    sigma = noise_raw.get("sigma")
    if isinstance(sigma, list):
        sigma = tuple(_check(s, float, f"noise: sigma[{i}]") for i, s in enumerate(sigma))
    else:
        sigma = (_get(noise_raw, "sigma", float, "noise", 0.0),) * len(shapes)
    try:
        noise = NoiseModel(
            kind=noise_kind,
            sigma=sigma,
            alpha=_get(noise_raw, "alpha", float, "noise", 1.0),
            omega=_get(noise_raw, "omega", float, "noise", 0.0),
            batch=_get(noise_raw, "batch", int, "noise", 1),
        )
    except InvalidConfig as err:
        raise InvalidConfig(f"noise: {err}") from None

    replicates = _get(raw, "replicates", int, "config", 1)
    if replicates < 1:
        raise InvalidConfig("replicates must be >= 1")
    return Experiment(raw, problem, noise, config, replicates)


def load_experiment(path) -> Experiment:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise InvalidConfig(f"cannot read config {path}: {err}")
    except json.JSONDecodeError as err:
        raise InvalidConfig(f"config {path} is not valid JSON: {err}")
    return parse_experiment(raw)


def format_column(values) -> list[str]:
    """Each value as CSV text with 17 significant digits; integral values
    print without a decimal point."""
    return [f"{v:.17g}" for v in np.asarray(values, dtype=float).tolist()]


def _write_new(path, text: str):
    """Replace whatever is at `path` by a new file holding `text`.

    The old file (or symlink) is removed first, never truncated: on ext4,
    closing a truncated file starts its writeback, and truncating it again
    waits for that writeback, so rewriting the same outputs in place stalls
    a rerun.  Writing a temporary file and renaming it over the output
    starts the same writeback."""
    Path(path).unlink(missing_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def write_csv(path, columns):
    """Write {name: formatted column} as a CSV file, one column per name."""
    lines = [",".join(columns), *map(",".join, zip(*columns.values()))]
    _write_new(path, "\n".join(lines) + "\n")


def _replicate_file(r: int) -> str:
    """The name of replicate r's records file."""
    return f"records_rep{r:03d}.csv"


def _remove_stale_replicates(out: Path, R: int):
    """Remove the replicate records files of an earlier run with more than R
    replicates: every entry of `out` named ``_replicate_file(r)`` for some
    r >= R, and nothing else."""
    for name in os.listdir(out):
        digits = name.removeprefix("records_rep").removesuffix(".csv")
        if digits.isdecimal() and name == _replicate_file(int(digits)) and int(digits) >= R:
            path = out / name
            if path.is_symlink() or not path.is_dir():
                path.unlink()


def bound_curves(exp: Experiment) -> tuple[np.ndarray, np.ndarray, str]:
    """Per-iteration Theta envelope and rate bound for the configured run;
    NaN (with an explanatory note) when no Lipschitz bound, no analytic
    noise budget, or no verified momentum stepsize hypothesis is available."""
    K = exp.config.max_iters
    nan = np.full(K, math.nan)
    if exp.problem.lipschitz is None:
        return nan, nan, "no Lipschitz bound for this problem; bound columns are NaN"
    if exp.noise.kind is NoiseKind.MINI_BATCH:
        return nan, nan, "mini-batch oracle has no analytic noise budget; bound columns are NaN"
    try:
        published = published_bounds(exp.problem, exp.noise, exp.config)
    except InvalidConfig as err:
        return nan, nan, f"bound hypothesis unverified ({err}); bound columns are NaN"
    return published.theta, published.rate, ""


def cmd_run(config_path, out_dir) -> int:
    start = time.monotonic()
    exp = load_experiment(config_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    res = run_replicates(exp.problem, exp.noise, exp.config, exp.replicates)

    K = exp.config.max_iters
    theta, bound, bound_note = bound_curves(exp)
    # the same in every file, so formatted once
    shared = {
        "k": format_column(np.arange(K)),
        "theta_k": format_column(theta),
        "bound_curve": format_column(bound),
    }

    def write(path, fields):
        write_csv(path, {
            name: shared[name] if name in shared else format_column(fields[name])
            for name in CSV_COLUMNS
        })

    write(out / "records.csv", res.mean)
    for r in range(exp.replicates):
        write(out / _replicate_file(r), {name: a[r] for name, a in res.arrays.items()})
    _remove_stale_replicates(out, exp.replicates)

    summary = {
        "final_min_grad": float(res.min_grad_curve[-1]) if K else None,
        "config_digest": exp.digest,
        "seed": exp.config.seed,
        "replicates": exp.replicates,
        "iterations": K,
        "problem": exp.problem.name,
        "wall_time_s": time.monotonic() - start,
    }
    if bound_note:
        summary["bound_note"] = bound_note
    _write_new(out / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_audit(suite, trials, seed, out_dir) -> int:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    reports = run_suite(suite, trials=trials, seed=seed)
    text = json.dumps([r.to_dict() for r in reports], indent=2) + "\n"
    _write_new(out / "audit_report.json", text)
    ok = True
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {r.check_name}: worst={r.worst_violation:.3e} {r.context}")
        ok = ok and r.passed
    return 0 if ok else 1


def cmd_sweep(config_path, alphas, out_dir) -> int:
    exp = load_experiment(config_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = []
    if alphas:
        sigma = max(exp.noise.sigma) if exp.noise.sigma else 0.0
        results = audit_rate_regimes(
            exp.problem, exp.config, alphas=alphas, sigma=sigma, replicates=exp.replicates
        )
    write_csv(out / "sweep.csv", {
        "alpha": format_column([r.alpha for r in results]),
        "fitted_slope": format_column([r.fitted_slope for r in results]),
        "theoretical_exponent": format_column([r.theory_slope for r in results]),
        "bound_dominates": format_column([r.bound_dominates for r in results]),
    })
    return 0 if all(r.report.passed for r in results) else 1


def build_parser():
    p = argparse.ArgumentParser(prog="adprec", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="run one experiment and write record CSVs")
    pr.add_argument("--config", required=True)
    pr.add_argument("--out", required=True)

    pa = sub.add_parser("audit", help="run a named audit suite")
    pa.add_argument(
        "--suite",
        required=True,
        choices=[*SUITES, "all"],
    )
    pa.add_argument("--trials", type=int, default=1000)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--out", required=True)

    ps = sub.add_parser("sweep", help="rate-regime sweep over noise exponents")
    ps.add_argument("--config", required=True)
    ps.add_argument("--alphas", required=True, help="comma-separated list, may be empty")
    ps.add_argument("--out", required=True)
    return p


@functools.cache
def _parser():
    """The parser `main` reuses for every call in this process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, args.out)
        if args.command == "audit":
            return cmd_audit(args.suite, args.trials, args.seed, args.out)
        if args.command == "sweep":
            try:
                alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
            except ValueError as err:
                raise InvalidConfig(f"bad --alphas list: {err}")
            return cmd_sweep(args.config, alphas, args.out)
    except InvalidConfig as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NonFiniteIterate as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except AdprecError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
