import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ruinlab
from ruinlab import cli, engine
from ruinlab.cli import main
from ruinlab.errors import ConfigError
from ruinlab.laws import Weibull
from ruinlab.tables import _cl_model, table_spec

MODEL_EE = {
    "claim": {"family": "exp", "params": {"rate": 1.0}},
    "wait": {"family": "exp", "params": {"rate": 1.0}},
    "safety_loading": 0.5,
}
TILT_LINEAR = {"family": "linear", "params": {"xi_factor": 1.95}}
TILT_IDENTITY = {"family": "identity"}
# c*E[W e^delta] = 1.5 * 2 > E[X e^gamma] = 2 on MODEL_EE: not ruin-inducing
TILT_TARGET = {
    "family": "from_target",
    "params": {
        "claim": {"family": "gamma", "params": {"shape": 40.0, "rate": 20.0}},
        "wait": {"family": "exp", "params": {"rate": 0.5}},
    },
}


@pytest.fixture
def configs(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(MODEL_EE))
    tilt = tmp_path / "tilt.json"
    tilt.write_text(json.dumps(TILT_LINEAR))
    ident = tmp_path / "identity.json"
    ident.write_text(json.dumps(TILT_IDENTITY))
    target = tmp_path / "target.json"
    target.write_text(json.dumps(TILT_TARGET))
    return {"model": str(model), "tilt": str(tilt), "identity": str(ident),
            "target": str(target)}


def read_csv(path):
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if not row[0].startswith("#")]
    return rows[0], rows[1:]


def test_estimate_csv_roundtrip(configs, tmp_path):
    out = tmp_path / "out.csv"
    code = main(
        [
            "estimate",
            "--model", configs["model"],
            "--tilt", configs["tilt"],
            "--u", "0,1,5",
            "--K", "5000",
            "--seed", "7",
            "--exact",
            "--out", str(out),
        ]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == [
        "u", "estimate", "std_error", "rse", "are", "ess",
        "max_norm_weight", "K", "seed", "runtime_seconds",
    ]
    assert len(rows) == 3
    for row in rows:
        parsed = dict(zip(header, row))
        # re-parsing and re-formatting reproduces the printed text exactly
        est = float(parsed["estimate"])
        assert f"{est:.10e}" == parsed["estimate"]
        assert 0.0 < est <= 1.0
        assert parsed["are"] != ""  # --exact fills the column
        assert int(parsed["K"]) == 5000
        assert int(parsed["seed"]) == 7
    assert [float(r[0]) for r in rows] == [0.0, 1.0, 5.0]


def test_estimate_without_exact_leaves_are_blank(configs, tmp_path):
    out = tmp_path / "o.csv"
    assert main(
        ["estimate", "--model", configs["model"], "--tilt", configs["tilt"],
         "--u", "1", "--K", "1000", "--seed", "1", "--out", str(out)]
    ) == 0
    header, rows = read_csv(out)
    assert rows[0][header.index("are")] == ""


def test_threshold_exact_targets_shifted_reserve(configs, tmp_path):
    # with b = u the barrier sits at 0: the reference is psi(0) = 2/3, not psi(u)
    out = tmp_path / "b.csv"
    assert main(
        ["estimate", "--model", configs["model"], "--tilt", configs["tilt"],
         "--u", "10", "--threshold", "10", "--K", "20000", "--seed", "1",
         "--exact", "--out", str(out)]
    ) == 0
    header, rows = read_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["are"]) <= 4 * float(row["rse"])


def test_exact_underflow_reports_nan_are(configs, tmp_path):
    # exact_psi underflows to 0.0 near u = 2300: no relative error, no traceback
    out = tmp_path / "deep.csv"
    assert main(
        ["estimate", "--model", configs["model"], "--tilt", configs["tilt"],
         "--u", "2300", "--K", "20", "--seed", "1", "--exact", "--out", str(out)]
    ) == 0
    header, rows = read_csv(out)
    assert rows[0][header.index("are")] == "nan"


def test_empty_grid_is_config_error(configs):
    code = main(
        ["estimate", "--model", configs["model"], "--tilt", configs["tilt"],
         "--u", "", "--K", "10", "--seed", "1"]
    )
    assert code == 2


def test_unparsable_grid_is_config_error(configs, capsys):
    code = main(
        ["estimate", "--model", configs["model"], "--tilt", configs["tilt"],
         "--u", "1,x", "--K", "10", "--seed", "1"]
    )
    assert code == 2
    assert "cannot parse reserve grid" in capsys.readouterr().err


def test_unsorted_grid_is_config_error(configs):
    code = main(
        ["estimate", "--model", configs["model"], "--tilt", configs["tilt"],
         "--u", "5,1", "--K", "10", "--seed", "1"]
    )
    assert code == 2


def test_inadmissible_tilt_exits_3(configs, capsys):
    code = main(
        ["estimate", "--model", configs["model"], "--tilt", configs["identity"],
         "--u", "1", "--K", "10", "--seed", "1"]
    )
    assert code == 3
    err = capsys.readouterr().err
    # both sides of the inequality are reported
    assert "1.5" in err and "1" in err


def test_identity_allowed_with_horizon(configs, tmp_path):
    out = tmp_path / "h.csv"
    code = main(
        ["estimate", "--model", configs["model"], "--tilt", configs["identity"],
         "--u", "1", "--K", "2000", "--seed", "1", "--horizon", "20", "--out", str(out)]
    )
    assert code == 0


def test_non_ruin_inducing_pair_runs_only_with_horizon(configs, tmp_path, capsys):
    # one rule, the library's: ruin-inducing is required only without a horizon
    out = tmp_path / "t.csv"
    args = ["estimate", "--model", configs["model"], "--tilt", configs["target"],
            "--u", "1", "--K", "200", "--seed", "1", "--out", str(out)]
    assert main(args) == 3
    assert "= 3 > " in capsys.readouterr().err
    assert not out.exists()
    assert main(args + ["--horizon", "5"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(args + ["--horizon", "5", "--force"])
    assert exc.value.code == 2


def test_zero_drift_pair_exits_3(tmp_path, capsys, monkeypatch):
    # table4's Pa(2,3) model at theta = 1, r = r_max: in the class, zero drift
    monkeypatch.setattr(engine, "_MAX_STEPS", 10**5)
    model = tmp_path / "pa_wei.json"
    model.write_text(json.dumps({
        "claim": {"family": "pareto", "params": {"shape": 2.0, "scale": 3.0}},
        "wait": {"family": "weibull", "params": {"shape": 0.375, "scale": 0.5}},
        "safety_loading": 0.5,
    }))
    tilt = tmp_path / "boundary.json"
    tilt.write_text(json.dumps({"family": "hazard", "params": {"theta": 1.0, "r_factor": 1.0}}))
    assert main(["check", "--model", str(model), "--tilt", str(tilt)]) == 0
    assert "in_c_p: True" in capsys.readouterr().out
    out = tmp_path / "b.csv"
    assert main(["estimate", "--model", str(model), "--tilt", str(tilt),
                 "--u", "100", "--K", "100", "--seed", "1", "--out", str(out)]) == 3
    assert "tilted drift" in capsys.readouterr().err
    assert not out.exists()


def test_infinite_tilted_moment_exits_3(tmp_path, capsys):
    model = tmp_path / "pareto.json"
    model.write_text(json.dumps({
        "claim": {"family": "pareto", "params": {"shape": 1.5, "scale": 3.0}},
        "wait": {"family": "exp", "params": {"rate": 1.0}},
        "safety_loading": 0.5,
    }))
    tilt = tmp_path / "hazard.json"  # Pa(0.75, 3) tilted claims have no mean
    tilt.write_text(json.dumps({"family": "hazard", "params": {"r": 0.5, "theta": 1.0}}))
    assert main(
        ["estimate", "--model", str(model), "--tilt", str(tilt),
         "--u", "1", "--K", "10", "--seed", "1"]
    ) == 3
    assert "admissibility failure" in capsys.readouterr().err


def test_step_cap_exit_code(configs, tmp_path, monkeypatch):
    # 100 steps end every replication at u <= 5 but not at u = 10 or 50: the
    # reserves run before the cap trips leave no partial CSV
    monkeypatch.setattr(engine, "_MAX_STEPS", 100)
    out = tmp_path / "capped.csv"
    assert main(
        ["estimate", "--model", configs["model"], "--tilt", configs["tilt"],
         "--u", "1,50", "--K", "10", "--seed", "1", "--out", str(out)]
    ) == 4
    assert not out.exists()
    assert main(["table", "table1", "--K", "10", "--seed", "1", "--out", str(out)]) == 4
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "table"])
def test_k_too_large_for_memory_exits_2(configs, tmp_path, capsys, monkeypatch, command):
    # a run allocates state for all K replications at once; numpy's
    # MemoryError is a configuration error that names K, not a traceback
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli, "estimate_psi", no_memory)
    out = tmp_path / "big.csv"
    argv = {
        "estimate": ["estimate", "--model", configs["model"], "--tilt", configs["tilt"],
                     "--u", "1"],
        "table": ["table", "table1"],
    }[command]
    assert main(argv + ["--K", "1000000000000", "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("configuration error: out of memory with --K 1000000000000 replications "
                   "per run\n")
    assert not out.exists()


@pytest.mark.parametrize("bad", [["--seed=-1"], ["--K", "0"]], ids=["seed", "K"])
def test_bad_table_setting_leaves_no_csv(tmp_path, bad):
    out = tmp_path / "t.csv"
    argv = ["table", "table1", "--K", "10", "--seed", "1", "--out", str(out)]
    assert main(argv + bad) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "table", "check"])
def test_unwritable_out_exits_2(configs, tmp_path, capsys, monkeypatch, command):
    # a missing directory is found with the settings: no replication runs
    calls = []
    real = cli.estimate_psi
    monkeypatch.setattr(cli, "estimate_psi", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    out = tmp_path / "missing" / "x.csv"
    argv = {
        "estimate": ["estimate", "--model", configs["model"], "--tilt", configs["tilt"],
                     "--u", "1", "--K", "10", "--seed", "1"],
        "table": ["table", "table1", "--K", "10", "--seed", "1"],
        "check": ["check", "--model", configs["model"]],
    }[command]
    assert main(argv + ["--out", str(out)]) == 2
    assert f"configuration error: cannot write {out}" in capsys.readouterr().err
    assert not out.exists()
    assert calls == []


@pytest.mark.parametrize("command", ["estimate", "table"])
def test_unwritable_out_directory_exits_2(configs, tmp_path, capsys, monkeypatch, command):
    # an existing directory without write access is found with the settings;
    # access is denied through os.access, since chmod does not stop root
    calls = []
    real = cli.estimate_psi
    monkeypatch.setattr(cli, "estimate_psi", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    out = tmp_path / "x.csv"
    argv = {
        "estimate": ["estimate", "--model", configs["model"], "--tilt", configs["tilt"],
                     "--u", "1", "--K", "10", "--seed", "1"],
        "table": ["table", "table1", "--K", "10", "--seed", "1"],
    }[command]
    assert main(argv + ["--out", str(out)]) == 2
    assert f"configuration error: cannot write {out}" in capsys.readouterr().err
    assert not out.exists()
    assert calls == []


def test_exact_with_horizon_is_config_error(configs, tmp_path, capsys):
    # psi(u, T) has no closed form here: a blank are column would hide that
    out = tmp_path / "h.csv"
    assert main(
        ["estimate", "--model", configs["model"], "--tilt", configs["tilt"],
         "--u", "1", "--K", "10", "--seed", "1", "--horizon", "5", "--exact",
         "--out", str(out)]
    ) == 2
    assert "no closed form" in capsys.readouterr().err
    assert not out.exists()


def test_bad_model_config_exits_2(tmp_path, configs):
    bad = tmp_path / "bad.json"
    bad.write_text('{"claim": {"family": "exp", "params": {"rate": 1.0}}}')
    assert main(
        ["estimate", "--model", str(bad), "--tilt", configs["tilt"],
         "--u", "1", "--K", "10", "--seed", "1"]
    ) == 2
    missing = tmp_path / "missing.json"
    assert main(
        ["estimate", "--model", str(missing), "--tilt", configs["tilt"],
         "--u", "1", "--K", "10", "--seed", "1"]
    ) == 2


_EXP = {"family": "exp", "params": {"rate": 1.0}}


@pytest.mark.parametrize(
    "model, tilt",
    [
        ({**MODEL_EE, "claim": {"family": "exp", "params": None}}, None),
        ({**MODEL_EE, "claim": {"family": "exp", "params": {"rate": [1]}}}, None),
        ({"claim": _EXP, "wait": _EXP, "premium": [2]}, None),
        (MODEL_EE, {"family": "linear", "params": None}),
        (MODEL_EE, {"family": "esscher", "params": {"r": [0.1]}}),
    ],
    ids=["law-params-null", "law-param-list", "premium-list", "tilt-params-null", "r-list"],
)
def test_malformed_config_values_exit_2(tmp_path, model, tilt):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model))
    argv = ["check", "--model", str(model_path)]
    if tilt is not None:
        tilt_path = tmp_path / "tilt.json"
        tilt_path.write_text(json.dumps(tilt))
        argv += ["--tilt", str(tilt_path)]
    assert main(argv) == 2


@pytest.mark.parametrize(
    "grid",
    [["--u", "inf"], ["--u", "nan"], ["--u=-1"], ["--u", "1", "--horizon", "inf"],
     ["--u", "1", "--horizon", "nan"]],
    ids=["u-inf", "u-nan", "u-negative", "horizon-inf", "horizon-nan"],
)
def test_non_finite_reserve_or_horizon_exits_2(configs, grid):
    assert main(["estimate", "--model", configs["model"], "--tilt", configs["tilt"],
                 "--K", "10", "--seed", "1", *grid]) == 2


@pytest.mark.parametrize("seed", ["-1", str(2**64)], ids=["negative", "2^64"])
def test_out_of_range_seed_exits_2(configs, seed):
    assert main(["estimate", "--model", configs["model"], "--tilt", configs["tilt"],
                 "--u", "1", "--K", "10", "--seed", seed]) == 2


@pytest.mark.parametrize(
    "model",
    [
        {"claim": {"family": "exp", "params": {"rate": "inf"}}, "wait": _EXP, "premium": 1.0},
        {"claim": {"family": "weibull", "params": {"shape": "inf", "scale": 1.0}},
         "wait": _EXP, "safety_loading": 0.5},
        {"claim": {"family": "gamma", "params": {"shape": 2.0, "rate": "1e309"}},
         "wait": _EXP, "premium": 1.0},
        {"claim": _EXP, "wait": _EXP, "premium": "inf"},
        {"claim": _EXP, "wait": _EXP, "safety_loading": "inf"},
    ],
    ids=["exp-rate-inf", "weibull-shape-inf", "gamma-rate-1e309", "premium-inf",
         "safety-loading-inf"],
)
def test_non_finite_model_parameters_exit_2(tmp_path, model):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert main(["check", "--model", str(path)]) == 2


def _law(family, **params):
    return {"family": family, "params": params}


_GGA = _law("gengamma", alpha=1.5, scale=1.0, shape=2.0)
_LN = _law("lognormal", mu=0.0, sigma=0.5)

# (claim, wait, safety loading) models and one tilt per family whose pairs reach
# every exit path: tilted laws with no sampler (Esscher on Weibull claims or
# waits, the linear tilt's size-biased Pareto), missing mgfs, non-exponential
# waits for the linear tilt, gamma waits for the hazard twist, pairs that are
# not ruin-inducing, heavy-tailed waits with an infinite twisted mean, and
# loadings where the Lundberg and r_m solves find no usable root
MATRIX_MODELS = {
    "exp_exp": (_EXP, _EXP, 0.5),
    "exp_wei": (_EXP, _law("weibull", shape=0.375, scale=0.5), 0.5),
    "pa_exp": (_law("pareto", shape=2.5, scale=3.0), _EXP, 0.5),
    "wei_exp": (_law("weibull", shape=2.0, scale=1.0), _EXP, 0.5),
    "ga_exp": (_law("gamma", shape=2.0, rate=1.0), _EXP, 0.5),
    "pa_wei": (_law("pareto", shape=2.0, scale=3.0), _law("weibull", shape=0.375, scale=0.5),
               0.5),
    "exp_ga": (_EXP, _law("gamma", shape=2.0, rate=1.0), 0.5),
    "exp_exp_eta1e-9": (_EXP, _EXP, 1e-9),
    "exp_exp_eta1e6": (_EXP, _EXP, 1e6),
    "gga_ln_eta1e6": (_GGA, _LN, 1e6),
    "gga_ln_eta1e-15": (_GGA, _LN, 1e-15),
    "exp_ln_eta1e3": (_EXP, _LN, 1e3),
    "exp_pa": (_EXP, _law("pareto", shape=1.5, scale=3.0), 0.5),
}
MATRIX_TILTS = {
    "identity": TILT_IDENTITY,
    "esscher": {"family": "esscher", "params": {"r": 0.1}},
    "linear": TILT_LINEAR,
    "hazard": {"family": "hazard", "params": {"theta": 1.2, "r_factor": 0.95}},
    "from_target": TILT_TARGET,
    "hazard_waits": {"family": "hazard", "params": {"theta": 0.5, "r": 0.5}},
}


@pytest.mark.parametrize("tilt", list(MATRIX_TILTS))
@pytest.mark.parametrize("model", list(MATRIX_MODELS))
def test_cli_failure_matrix(tmp_path, capsys, model, tilt):
    # every estimate and check ends in an exit code, never an exception, an
    # estimate that exits non-zero leaves no --out file, and a model's check
    # exits 0, reporting what it cannot compute as unavailable
    claim, wait, eta = MATRIX_MODELS[model]
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"claim": claim, "wait": wait, "safety_loading": eta}))
    tilt_path = tmp_path / "tilt.json"
    tilt_path.write_text(json.dumps(MATRIX_TILTS[tilt]))
    config = ["--model", str(model_path), "--tilt", str(tilt_path)]
    for horizon in ([], ["--horizon", "5"]):
        out = tmp_path / "out.csv"
        code = main(["estimate", *config, "--u", "1", "--K", "20", "--seed", "1",
                     *horizon, "--out", str(out)])
        assert code in (0, 2, 3)
        assert out.exists() == (code == 0)
        if out.exists():
            out.unlink()
    assert main(["check", "--model", str(model_path)]) == 0
    capsys.readouterr()
    # check reports admissibility, so only a tilt config it cannot build fails
    code = main(["check", *config])
    assert code in (0, 2)
    if code:
        assert capsys.readouterr().err.startswith("configuration error:")


def test_unknown_table_exits_2():
    # the child imports the same ruinlab as this process, installed or not
    path = [str(Path(ruinlab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "ruinlab.cli", "table", "table9", "--K", "10", "--seed", "1"],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 2


def test_readme_cli_flags_are_parser_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: set(p._option_string_actions) for name, p in subparsers.choices.items()}
    # each example command, its backslash-continued lines joined
    commands = re.findall(r"^ruinlab (\S+)((?:.*\\\n)*.*)$", section, re.M)
    assert commands
    for name, rest in commands:
        flags = set(re.findall(r"--[\w-]+", rest))
        assert flags <= options[name], (name, flags - options[name])
    # flags named in the prose belong to some subcommand
    assert set(re.findall(r"--[\w-]+", section)) <= set().union(*options.values())


def test_table_headers_record_resolved_parameters(tmp_path):
    out = tmp_path / "t1.csv"
    assert main(["table", "table1", "--K", "500", "--seed", "3", "--out", str(out)]) == 0
    text = out.read_text()
    assert "xi=-0.4875" in text  # 1.95 * xi_hat resolved to its absolute value
    header, rows = read_csv(out)
    assert len(rows) == 9
    exact0 = float(rows[0][header.index("exact")])
    assert exact0 == pytest.approx(2.0 / 3.0, rel=1e-10)


def test_table5_resolves_twist_factor(tmp_path):
    out = tmp_path / "t5.csv"
    assert main(["table", "table5", "--K", "200", "--seed", "3", "--out", str(out)]) == 0
    text = out.read_text()
    assert "r=0.6" in text  # 0.9 * r_max(1) = 0.9 * 2/3
    header, rows = read_csv(out)
    assert float(rows[0][header.index("exact")]) == pytest.approx(0.5750, abs=1e-4)


def test_table2_validates_mean_constraint():
    spec = table_spec("table2")
    assert [c.label for c in spec.columns] == [
        "Ga(2,1)", "Wei(3/4,1.68)", "InvGa(3,4)", "InvWei(3,1.48)",
    ]
    for col in spec.columns:
        assert abs(col.model.claim_mean - 2.0) < 0.01
    with pytest.raises(ConfigError):
        _cl_model(Weibull(0.75, 1.0), mean_check=2.0)


def test_check_command_reports_analytics(configs, capsys, tmp_path):
    out = tmp_path / "check.csv"
    code = main(
        ["check", "--model", configs["model"], "--tilt", configs["tilt"], "--out", str(out)]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "rho: 3.333333" in text
    assert "xi_hat: -2.5" in text
    assert "r_memm: 1.835034" in text
    assert "in_c_p: True" in text
    rows = dict(list(csv.reader(out.open()))[1:])
    assert float(rows["rho"]) == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_check_heavy_tail_reports_unavailable(tmp_path, capsys):
    model = tmp_path / "pareto.json"
    model.write_text(json.dumps({
        "claim": {"family": "pareto", "params": {"shape": 1.5, "scale": 3.0}},
        "wait": {"family": "exp", "params": {"rate": 1.0}},
        "safety_loading": 0.5,
    }))
    assert main(["check", "--model", str(model)]) == 0
    text = capsys.readouterr().out
    assert "rho: unavailable (claim law Pa(1.5,3) has no mgf on (0, inf))" in text
    assert "xi_hat: unavailable" in text


def test_check_identity_not_ruin_inducing(configs, capsys):
    assert main(["check", "--model", configs["model"], "--tilt", configs["identity"]]) == 0
    assert "in_c_p: False" in capsys.readouterr().out


def test_one_lundberg_root_solve_per_model(tmp_path, capsys):
    # Exp(1) claims and Wei(0.375, 1/2) waits: the exact column needs rho
    model = tmp_path / "exp_wei.json"
    model.write_text(json.dumps({
        "claim": {"family": "exp", "params": {"rate": 1.0}},
        "wait": {"family": "weibull", "params": {"shape": 0.375, "scale": 0.5}},
        "safety_loading": 0.5,
    }))
    tilt = tmp_path / "hazard.json"
    tilt.write_text(json.dumps({"family": "hazard", "params": {"theta": 1.0, "r_factor": 0.9}}))
    assert main(["check", "--model", str(model)]) == 0
    assert "exact_psi_0: " in capsys.readouterr().out
    out = tmp_path / "est.csv"
    assert main(["estimate", "--model", str(model), "--tilt", str(tilt), "--u", "0,1,2",
                 "--K", "200", "--seed", "1", "--exact", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert all(row[header.index("are")] != "" for row in rows)
    # table5's exact column
    assert main(["table", "table5", "--K", "10", "--seed", "1", "--out", str(out)]) == 0


def _write_model(path, claim, wait, **premium):
    path.write_text(json.dumps({"claim": claim, "wait": wait, **premium}))
    return str(path)


EXP1 = {"family": "exp", "params": {"rate": 1.0}}


def test_overflowing_moments_are_reported(tmp_path, capsys):
    # Wei(0.01, 1) has E[X^2] = Gamma(201), past the largest double
    wei = {"family": "weibull", "params": {"shape": 0.01, "scale": 1.0}}
    model = _write_model(tmp_path / "m.json", wei, EXP1, safety_loading=0.5)
    assert main(["check", "--model", model]) == 0
    assert "xi_hat: unavailable (" in capsys.readouterr().out
    # Wei(0.005, 1) has E[X] = Gamma(201): the model itself is rejected
    wei["params"]["shape"] = 0.005
    model = _write_model(tmp_path / "m.json", wei, EXP1, safety_loading=0.5)
    assert main(["check", "--model", model]) == 2
    assert "finite means" in capsys.readouterr().err


def test_overflowing_twist_boundary_is_reported(tmp_path, capsys):
    # r_max = (E[X] / (c E[W_theta]))^1000 = 666.7^1000 for Wei(1000, 1) claims
    wei = {"family": "weibull", "params": {"shape": 1000.0, "scale": 1.0}}
    model = _write_model(tmp_path / "m.json", wei, EXP1, safety_loading=0.5)
    tilt = tmp_path / "t.json"
    tilt.write_text(json.dumps({"family": "hazard", "params": {"theta": 1000, "r_factor": 0.9}}))
    assert main(["estimate", "--model", model, "--tilt", str(tilt),
                 "--u", "1", "--K", "10", "--seed", "1"]) == 2
    assert "exceeds the largest double" in capsys.readouterr().err
    # with an absolute r the pair builds, and check reports the boundary it cannot give
    tilt.write_text(json.dumps({"family": "hazard", "params": {"theta": 1000, "r": 2.0}}))
    assert main(["check", "--model", model, "--tilt", str(tilt)]) == 0
    assert "r_max: unavailable (" in capsys.readouterr().out


def test_check_gamma_claims_at_large_shapes(tmp_path, capsys):
    # Ga(1e14, 1e13) claims have mean 10 and sd 1e-6: over Exp(1) waits at
    # c = 15, rho is the root of 10 r = log1p(15 r) (0.0762688560850...)
    ga = {"family": "gamma", "params": {"shape": 1e14, "rate": 1e13}}
    model = _write_model(tmp_path / "m.json", ga, EXP1, safety_loading=0.5)
    assert main(["check", "--model", model]) == 0
    assert "rho: 7.6268856085e-02" in capsys.readouterr().out
    # at shape 3e305 the root is out of the probes' reach, and check says so
    ga["params"] = {"shape": 3e305, "rate": 1e300}
    model = _write_model(tmp_path / "m.json", ga, EXP1, safety_loading=0.5)
    assert main(["check", "--model", model]) == 0
    assert "rho: unavailable (" in capsys.readouterr().out


def test_fmt_writes_non_finite_floats():
    assert [cli._fmt(v) for v in (math.inf, -math.inf, math.nan)] == ["inf", "-inf", "nan"]
    assert cli._fmt(2.0) == "2" and cli._fmt(0.1) == "1.0000000000e-01"


def test_check_prints_infinite_safety_loading(tmp_path, capsys):
    # c E[W] = 1e300 * 1e10 overflows: the loading reads inf
    slow = {"family": "exp", "params": {"rate": 1e-10}}
    model = _write_model(tmp_path / "m.json", EXP1, slow, premium=1e300)
    assert main(["check", "--model", model]) == 0
    assert "safety_loading: inf" in capsys.readouterr().out
