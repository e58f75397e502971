import json
import math
from dataclasses import replace

import numpy as np
import pytest

from adprec.block_space import ProductPoint
from adprec.bounds import bound_constants, m1_noise_constants, m1_rate_bound
from adprec.cli import example_config, format_column, main, parse_experiment
from adprec.errors import InvalidConfig, NonFiniteIterate


def write_config(tmp_path, overrides=None, **kw):
    raw = example_config()
    raw.update(kw)
    if overrides:
        for key, sub in overrides.items():
            raw[key].update(sub)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path, raw


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_run_writes_records_and_summary(tmp_path):
    cfg_path, raw = write_config(tmp_path, overrides={"optimizer": {"iterations": 10}})
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    header, rows = read_csv(out / "records.csv")
    assert header == [
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
    ]
    assert len(rows) == 10
    assert (out / "records_rep000.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["iterations"] == 10
    assert len(summary["config_digest"]) == 64
    assert summary["final_min_grad"] >= 0.0


def test_rerun_is_byte_identical(tmp_path):
    cfg_path, _ = write_config(
        tmp_path,
        overrides={
            "optimizer": {"iterations": 15},
            "noise": {"kind": "AdditiveDecaying", "sigma": 0.5, "alpha": 1.0},
        },
        replicates=3,
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
    for name in ["records.csv", "records_rep000.csv", "records_rep001.csv", "records_rep002.csv"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def run_argvs(cfg_path, iterations, seed, alphas, out):
    """Set the config's iterations, then return the argvs of run, audit
    --suite trace and sweep into one --out."""
    cfg = json.loads(cfg_path.read_text())
    cfg["optimizer"]["iterations"] = iterations
    cfg_path.write_text(json.dumps(cfg))
    return [
        ["run", "--config", str(cfg_path), "--out", str(out)],
        ["audit", "--suite", "trace", "--trials", "50", "--seed", str(seed), "--out", str(out)],
        ["sweep", "--config", str(cfg_path), "--alphas", alphas, "--out", str(out)],
    ]


def output_texts(out):
    """Every output file's bytes, with summary.json's wall_time_s dropped."""
    texts = {}
    for path in sorted(out.iterdir()):
        if path.name == "summary.json":
            summary = json.loads(path.read_text())
            del summary["wall_time_s"]
            texts[path.name] = summary
        else:
            texts[path.name] = path.read_bytes()
    return texts


def test_rerun_into_the_same_out_matches_a_fresh_run(tmp_path):
    # the first pass writes longer files than the second: more iterations,
    # more sweep rows, another audit seed
    cfg_path, _ = write_config(
        tmp_path,
        overrides={"noise": {"kind": "AdditiveDecaying", "sigma": 0.5, "alpha": 1.0}},
        replicates=2,
    )
    same, fresh = tmp_path / "same", tmp_path / "fresh"
    first = [main(argv) for argv in run_argvs(cfg_path, 40, 1, "2.0", same)]
    assert first == [0, 0, 0]
    second = [main(argv) for argv in run_argvs(cfg_path, 12, 2, "", same)]
    assert second == [main(argv) for argv in run_argvs(cfg_path, 12, 2, "", fresh)]
    assert output_texts(same) == output_texts(fresh)
    # a rerun with fewer replicates removes the replicate files it does not
    # write, and no file of another name
    others = ["records_rep0001.csv", "records_rep1.csv", "records_rep001.csv.bak", "notes.csv"]
    for name in others:
        (same / name).write_text("kept\n")
    cfg = json.loads(cfg_path.read_text())
    cfg["replicates"] = 1
    cfg_path.write_text(json.dumps(cfg))
    fewer = tmp_path / "fewer"
    third = [main(argv) for argv in run_argvs(cfg_path, 12, 2, "", same)]
    assert third == [main(argv) for argv in run_argvs(cfg_path, 12, 2, "", fewer)]
    assert not (same / "records_rep001.csv").exists()
    texts = output_texts(same)
    assert all(texts.pop(name) == b"kept\n" for name in others)
    assert texts == output_texts(fewer)


def test_run_replaces_a_symlinked_output_by_a_new_file(tmp_path):
    cfg_path, _ = write_config(tmp_path, overrides={"optimizer": {"iterations": 5}})
    target = tmp_path / "elsewhere.csv"
    target.write_bytes(b"not an output\n")
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    out.mkdir()
    (out / "records.csv").symlink_to(target)
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(fresh)]) == 0
    assert target.read_bytes() == b"not an output\n"
    records = out / "records.csv"
    assert records.is_file() and not records.is_symlink()
    assert records.read_bytes() == (fresh / "records.csv").read_bytes()


def test_theta_column_nondecreasing_under_additive_noise(tmp_path):
    cfg_path, _ = write_config(
        tmp_path,
        overrides={
            "optimizer": {"iterations": 40},
            "noise": {"kind": "AdditiveDecaying", "sigma": 1.0, "alpha": 0.7},
        },
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    header, rows = read_csv(out / "records.csv")
    col = header.index("theta_k")
    theta = np.array([float(r[col]) for r in rows])
    assert np.all(np.diff(theta) >= -1e-12)


def test_m1_bound_curve_is_the_audited_rate_bound(tmp_path):
    # an M1 run publishes the first variant's rate bound over its own theta_k,
    # the bound the momentum-m1 audit checks
    cfg_path, raw = write_config(
        tmp_path,
        overrides={
            "optimizer": {"iterations": 12, "momentum": "M1", "mu_max": 0.5},
            "noise": {"kind": "AdditiveDecaying", "sigma": 0.5, "alpha": 1.0},
        },
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    header, rows = read_csv(out / "records.csv")
    theta = [float(r[header.index("theta_k")]) for r in rows]
    bound = [float(r[header.index("bound_curve")]) for r in rows]
    exp = parse_experiment(raw)
    constants = bound_constants(exp.problem, exp.config, omega=exp.noise.omega)
    _, omega_m1 = m1_noise_constants(constants, exp.config.mu_max)
    m1 = replace(constants, omega=omega_m1)
    assert bound == [m1_rate_bound(m1, t, k) for k, t in enumerate(theta)]


def test_config_errors_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    cfg_path, _ = write_config(tmp_path, overrides={"optimizer": {"eta": -1.0}})
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2

    cfg_path2, _ = write_config(tmp_path, blocks=[{"rows": 2, "cols": 1, "geometry": "Zesty"}])
    assert main(["run", "--config", str(cfg_path2), "--out", str(tmp_path / "o")]) == 2

    missing = tmp_path / "missing.json"
    assert main(["run", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2

    cfg_path3, _ = write_config(tmp_path, problem={"kind": "quadratic", "zap": 3})
    assert main(["run", "--config", str(cfg_path3), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "block, message",
    [
        ({"rows": 2, "cols": 1, "geometry": "Zesty"}, "blocks[1]: unknown geometry 'Zesty'"),
        ({"rows": 2, "cols": 2, "geometry": "AdaNorm"}, "blocks[1]: AdaNorm is a vector-block"),
        ({"rows": 0, "cols": 1, "geometry": "Muon"}, "blocks[1]: block dims must be positive"),
    ],
    ids=["geometry", "cols", "rows"],
)
def test_bad_block_names_its_index(tmp_path, capsys, block, message):
    good = {"rows": 4, "cols": 1, "geometry": "DiagAdaGrad"}
    cfg_path, _ = write_config(tmp_path, blocks=[good, block])
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


def _set(raw, path, value):
    *parents, key = path
    for p in parents:
        raw = raw[p]
    raw[key] = value


@pytest.mark.parametrize(
    "path, value",
    [
        (("replicates",), "x"),
        (("optimizer", "seed"), "x"),
        (("optimizer", "seed"), -1),
        (("optimizer", "mu_max"), "abc"),
        (("optimizer", "iterations"), True),
        (("optimizer", "eval_objective"), "false"),
        (("noise",), 3),
        (("noise", "sigma"), "ab"),
        (("noise", "batch"), "x"),
        (("noise", "batch"), 0),
        (("noise", "omega"), -1.0),
        (("blocks",), [3]),
        (("problem", "condition"), 0.5),
        (("problem", "x0"), [1, 2, 3, 4]),
    ],
    ids=lambda v: ".".join(v) if isinstance(v, tuple) else repr(v),
)
def test_malformed_config_values_exit_2(tmp_path, capsys, path, value):
    # every malformed value is a config error (exit 2), never a traceback
    raw = example_config()
    raw["noise"] = {"kind": "AdditiveDecaying", "sigma": 0.5, "alpha": 1.0}
    raw["optimizer"]["iterations"] = 5
    _set(raw, path, value)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, value",
    [
        (("optimizer", "eta"), math.inf),
        (("optimizer", "varsigma"), math.inf),
        (("optimizer", "beta"), math.nan),
        (("noise", "sigma"), math.inf),
        (("noise", "alpha"), math.inf),
        (("noise", "omega"), math.inf),
    ],
    ids=lambda v: ".".join(v) if isinstance(v, tuple) else repr(v),
)
def test_nonfinite_config_values_exit_2(tmp_path, capsys, path, value):
    # JSON's NaN and Infinity parse as floats; a config holding one is a
    # config error naming the key, before anything runs
    raw = example_config()
    raw["noise"] = {"kind": "AdditivePlusMultiplicative", "sigma": 0.5, "alpha": 1.0, "omega": 0.5}
    raw["optimizer"].update(iterations=5, momentum="M1", mu_max=0.5)
    _set(raw, path, value)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and path[-1] in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, 10**400], ids=["NaN", "Infinity", "int-too-large-for-a-float"]
)
@pytest.mark.parametrize(
    "kind, key",
    [("quadratic", "condition"), ("quadratic", "b_scale"), ("trigquad", "cos_weight"),
     ("logistic", "reg"), ("matfact", "target_scale")],
)
def test_nonfinite_problem_parameters_exit_2(tmp_path, capsys, kind, key, value):
    # a non-finite problem parameter, or a JSON integer too large for a
    # float, is a config error naming the key, not a traceback from the
    # problem's random draws or a run that fails later
    raw = example_config()
    raw["problem"] = {"kind": kind, key: value}
    if kind == "matfact":
        raw["blocks"] = [{"rows": 3, "cols": 2, "geometry": "Shampoo"},
                         {"rows": 2, "cols": 4, "geometry": "Muon"}]
    raw["optimizer"]["iterations"] = 5
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not (tmp_path / "o").exists()


def test_sweep_too_few_iterations_exit_2(tmp_path):
    # a slope cannot be fitted to fewer than three iterations
    cfg_path, _ = write_config(tmp_path, overrides={"optimizer": {"iterations": 0}})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg_path), "--alphas", "1.0", "--out", str(out)]) == 2


def test_parse_experiment_validation():
    raw = example_config()
    raw["optimizer"]["momentum"] = "M7"
    with pytest.raises(InvalidConfig):
        parse_experiment(raw)
    raw2 = example_config()
    raw2["schema_version"] = 2
    with pytest.raises(InvalidConfig):
        parse_experiment(raw2)
    raw3 = example_config()
    raw3["noise"] = {"kind": "AdditiveDecaying", "sigma": -1.0}
    with pytest.raises(InvalidConfig):
        parse_experiment(raw3)


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_nonfinite_exit_3(tmp_path, monkeypatch, capsys, command):
    # run is a numerical failure (exit 3); sweep fails only the alpha whose
    # trajectory blew up (exit 1, a nan slope row)
    import adprec.audit as audit_mod
    import adprec.cli as cli_mod

    def boom(*a, **kw):
        raise NonFiniteIterate("synthetic blow-up")

    cfg_path, _ = write_config(tmp_path)
    out = tmp_path / "o"
    args = [command, "--config", str(cfg_path), "--out", str(out)]
    if command == "run":
        monkeypatch.setattr(cli_mod, "run_replicates", boom)
        assert main(args) == 3
        assert "numerical failure: synthetic blow-up" in capsys.readouterr().err
    else:
        monkeypatch.setattr(audit_mod, "run_replicates", boom)
        assert main([*args, "--alphas", "1.0"]) == 1
        assert read_csv(out / "sweep.csv")[1] == [["1", "nan", "-0.5", "0"]]


def test_nonfinite_records_exit_3(tmp_path, capsys):
    # eta = 1e308 keeps the iterate finite but overflows the record norms
    cfg_path, _ = write_config(tmp_path, overrides={"optimizer": {"eta": 1e308, "iterations": 5}})
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: replicate 0 (seed 1): non-finite at iteration 1: f_value" in err


def test_oracle_scale_underflow_is_exact_noise(tmp_path):
    # (k+1)**(alpha/2) overflows for alpha = 1e308: the noise scale is 0
    cfg_path, _ = write_config(
        tmp_path,
        overrides={"optimizer": {"iterations": 5}},
        noise={"kind": "AdditiveDecaying", "sigma": 0.5, "alpha": 1e308},
    )
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    _, rows = read_csv(out / "records.csv")
    assert len(rows) == 5 and all(np.isfinite(float(v)) for row in rows for v in row)


def test_failing_replicate_names_its_seed(tmp_path, monkeypatch, capsys):
    # the oracle turns only replicate 2 of 4 non-finite, at iteration 2; the
    # message says which one failed and how to rerun it
    import adprec.optimizer as opt_mod

    real = opt_mod.sample_gradient

    def nan_for_replicate_2(problem, noise, X, k, rng, **kw):
        G = real(problem, noise, X, k, rng, **kw)
        # row 2 of the stack of all 4 is replicate 2; the rerun of
        # replicates 0-1 stays finite
        if k != 2 or G.blocks[0].shape[:-2] != (4,):
            return G
        blocks = [b.copy() for b in G.blocks]
        blocks[0][2] = np.nan
        return ProductPoint(blocks)

    monkeypatch.setattr(opt_mod, "sample_gradient", nan_for_replicate_2)
    cfg_path, raw = write_config(tmp_path, overrides={"optimizer": {"iterations": 5}}, replicates=4)
    assert raw["optimizer"]["seed"] == 1
    with np.errstate(invalid="ignore"):
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    assert "replicate 2 (seed 3): non-finite at iteration 2: " in capsys.readouterr().err


def test_zero_iterations_write_header_only_records(tmp_path):
    cfg_path, _ = write_config(tmp_path, overrides={"optimizer": {"iterations": 0}}, replicates=3)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    names = ["records.csv", *(f"records_rep{r:03d}.csv" for r in range(3))]
    assert sorted(p.name for p in out.glob("records*.csv")) == names
    for name in names:
        header, rows = read_csv(out / name)
        assert header[0] == "k" and rows == []
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final_min_grad"] is None and summary["iterations"] == 0


def test_audit_trace_suite(tmp_path, capsys):
    out = tmp_path / "audit"
    code = main(["audit", "--suite", "trace", "--trials", "200", "--seed", "1", "--out", str(out)])
    assert code == 0
    reports = json.loads((out / "audit_report.json").read_text())
    assert len(reports) == 4
    names = {r["check_name"] for r in reports}
    assert names == {"sqrt-trace", "log-increment", "spectral-log", "techn"}
    assert all(r["pass"] for r in reports)
    assert "[pass]" in capsys.readouterr().out


def test_audit_identities_suite(tmp_path):
    out = tmp_path / "audit"
    code = main(["audit", "--suite", "identities", "--trials", "60", "--seed", "0", "--out", str(out)])
    assert code == 0
    reports = json.loads((out / "audit_report.json").read_text())
    # five geometries x (two identities + compatibility + sub-additivity)
    assert len(reports) == 20


def test_audit_unknown_suite_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--suite", "bogus", "--trials", "10", "--seed", "0", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not (tmp_path / "audit_report.json").exists()


@pytest.mark.parametrize(
    "suite, trials, seed, message",
    [
        ("trace", "-5", "0", "trials must be nonnegative, got -5"),
        ("trace", "10", "-1", "seed must be nonnegative, got -1"),
        ("potentials", "0", "-3", "seed must be nonnegative, got -3"),
    ],
)
def test_audit_negative_trials_or_seed_exit_2(tmp_path, capsys, suite, trials, seed, message):
    # a config error, not a failed report (exit 1) or a traceback
    out = tmp_path / "audit"
    code = main(["audit", "--suite", suite, "--trials", trials, "--seed", seed, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (out / "audit_report.json").exists()


def test_audit_potentials_suite_exits_1_with_documented_findings(tmp_path):
    # the Kronecker-factored sqrt-potential finding makes this suite exit 1
    out = tmp_path / "audit"
    code = main(["audit", "--suite", "potentials", "--trials", "0", "--seed", "0", "--out", str(out)])
    assert code == 1
    reports = json.loads((out / "audit_report.json").read_text())
    assert len(reports) == 12
    failing = {r["check_name"] for r in reports if not r["pass"]}
    assert failing == {"path-potentials[shampoo/exact]", "path-potentials[shampoo/noisy]"}


def test_sweep_empty_alphas(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg_path), "--alphas", "", "--out", str(out)]) == 0
    header, rows = read_csv(out / "sweep.csv")
    assert header == ["alpha", "fitted_slope", "theoretical_exponent", "bound_dominates"]
    assert rows == []


def test_sweep_noise_free_fallback(tmp_path):
    cfg_path, _ = write_config(
        tmp_path, overrides={"optimizer": {"iterations": 400, "eval_objective": False}}, replicates=2
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg_path), "--alphas", "2.0", "--out", str(out)]) == 0
    header, rows = read_csv(out / "sweep.csv")
    assert len(rows) == 1
    alpha, slope, theory, flag = rows[0]
    assert float(alpha) == 2.0
    assert float(slope) < 0.0
    assert flag == "1"


def test_one_entry_sigma_list_broadcasts_like_a_scalar(tmp_path):
    # the oracle draws a one-entry sigma list on every block, so the
    # published bound must count it on every block as well
    blocks = [
        {"rows": 4, "cols": 1, "geometry": "DiagAdaGrad"},
        {"rows": 4, "cols": 1, "geometry": "AdaNorm"},
    ]
    records = []
    for i, sigma in enumerate(([200.0], 200.0, [200.0, 200.0])):
        cfg_path, _ = write_config(
            tmp_path,
            overrides={
                "optimizer": {"iterations": 20, "eta": 0.5},
                "noise": {"kind": "AdditiveDecaying", "sigma": sigma, "alpha": 0.5},
            },
            blocks=blocks,
        )
        out = tmp_path / f"out{i}"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        records.append((out / "records.csv").read_bytes())
    assert records[0] == records[1] == records[2]


def test_unverified_momentum_hypothesis_noted(tmp_path):
    # large eta breaks the M2 stepsize hypothesis: bound columns become NaN
    # and the summary records why
    cfg_path, _ = write_config(
        tmp_path,
        overrides={"optimizer": {"iterations": 8, "eta": 5.0, "momentum": "M2", "mu_max": 0.9}},
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "unverified" in summary["bound_note"]
    header, rows = read_csv(out / "records.csv")
    col = header.index("theta_k")
    assert all(r[col] == "nan" for r in rows)


def test_m1_under_multiplicative_noise_has_no_bound(tmp_path):
    # the first momentum variant's bound has no multiplicative-noise form:
    # NaN bound columns and a note, and the run still succeeds
    cfg_path, _ = write_config(
        tmp_path,
        overrides={
            "optimizer": {"iterations": 5, "momentum": "M1", "mu_max": 0.5},
            "noise": {"kind": "AdditivePlusMultiplicative", "sigma": 0.5, "omega": 5.0},
        },
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "multiplicative" in summary["bound_note"]
    header, rows = read_csv(out / "records.csv")
    for name in ("theta_k", "bound_curve"):
        assert all(r[header.index(name)] == "nan" for r in rows)


def test_omega_without_multiplicative_oracle_exits_2(tmp_path, capsys):
    # an AdditiveDecaying oracle never draws omega's noise, so omega is refused
    # rather than raising the published bound for identical draws
    cfg_path, _ = write_config(
        tmp_path,
        overrides={
            "optimizer": {"iterations": 5},
            "noise": {"kind": "AdditiveDecaying", "sigma": 0.5, "omega": 5.0},
        },
    )
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "config error: noise: omega" in capsys.readouterr().err


def test_format_column_text():
    # 17 significant digits; integral values (counters, 0/1 flags) print
    # without a decimal point; signed zero and non-finite values keep their sign
    values = [0, 3, np.int64(49), True, -0.0, 1.5, 0.1, -2e-300, np.nan, np.inf, -np.inf]
    assert format_column(values) == [
        "0", "3", "49", "1", "-0", "1.5", "0.10000000000000001", "-2.0000000000000001e-300",
        "nan", "inf", "-inf",
    ]
    assert format_column(np.arange(3)) == ["0", "1", "2"]
    assert format_column([]) == []


def test_sweep_bad_alphas_exit_2(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg_path), "--alphas", "1.0,zap", "--out", str(tmp_path / "s")]) == 2


def test_sweep_exponent_table(tmp_path):
    # guaranteed exponents per noise-decay regime: -alpha/2 below one, -1/2 at
    # and above one (the log factors live in the slope tolerance)
    cfg_path, _ = write_config(
        tmp_path,
        overrides={
            "optimizer": {"iterations": 600, "eval_objective": False},
            "noise": {"kind": "AdditiveDecaying", "sigma": 0.5, "alpha": 1.0},
        },
        replicates=2,
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg_path), "--alphas", "0.5,1.0,2.0", "--out", str(out)]) == 0
    header, rows = read_csv(out / "sweep.csv")
    exponents = [float(r[2]) for r in rows]
    assert exponents == [-0.25, -0.5, -0.5]
    assert all(r[3] == "1" for r in rows)


def test_shipped_configs_parse(tmp_path):
    from pathlib import Path

    for cfg_file in sorted(Path(__file__).resolve().parents[1].glob("configs/*.json")):
        exp = parse_experiment(json.loads(cfg_file.read_text()))
        assert exp.config.max_iters > 0
