import json

import numpy as np
import pytest

from adprec.cli import example_config, main, parse_experiment
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
        (("optimizer", "mu_max"), "abc"),
        (("optimizer", "iterations"), True),
        (("optimizer", "eval_objective"), "false"),
        (("noise",), 3),
        (("noise", "sigma"), "ab"),
        (("noise", "batch"), "x"),
        (("blocks",), [3]),
        (("problem", "condition"), 0.5),
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


@pytest.mark.parametrize(
    "command, driver",
    [("run", "run_replicates"), ("sweep", "audit_rate_regimes")],
    ids=["run", "sweep"],
)
def test_nonfinite_exit_3(tmp_path, monkeypatch, capsys, command, driver):
    cfg_path, _ = write_config(tmp_path)
    import adprec.cli as cli_mod

    def boom(*a, **kw):
        raise NonFiniteIterate("synthetic blow-up")

    monkeypatch.setattr(cli_mod, driver, boom)
    args = [command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]
    if command == "sweep":
        args += ["--alphas", "1.0"]
    assert main(args) == 3
    assert "numerical failure: synthetic blow-up" in capsys.readouterr().err


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
