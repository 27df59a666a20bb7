"""Tests for the experiment-runner CLI: config validation, artifacts,
exit codes, reproducibility, and flag handling."""

import ast
import json
import math
import os
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import pytest

from slqkit import cli, evaluate
from slqkit.cli import ExperimentConfig, load_config, main
from slqkit.errors import ConfigError
from slqkit.feedback import synthesize
from slqkit.grid import PathArray, make_grid, sample_brownian
from slqkit.problem import InitialCondition, scenario_example1
from slqkit.riccati import closed_form_example1


def _write_config(tmp_path, name="cfg.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


# ---------------------------------------------------------------------------
# Config loading and validation
# ---------------------------------------------------------------------------

def test_load_config_fills_defaults(tmp_path):
    cfg = load_config(_write_config(tmp_path, scenario="example1"))
    assert cfg.scenario == "example1"
    assert cfg.T == 1.0
    assert cfg.steps == 256
    assert cfg.paths == 10000
    assert cfg.seed == 1
    assert cfg.start_index == 0
    assert cfg.eta == [1.0]
    assert cfg.solver == "closed_form"
    assert cfg.checks == []
    assert cfg.tolerances == {}
    assert cfg.output_dir == "out"
    assert cfg.enabled_checks() == [
        "value_identity", "completion_of_squares", "optimality", "stationarity"]
    assert cfg.tolerance("n_se") == 3.0
    assert cfg.tolerance("disc_coeff") == 0.5


def test_load_config_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(str(tmp_path / "absent.json"))


def test_load_config_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert err.value.field == "json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert err.value.field == "json"


@pytest.mark.parametrize("fields,bad_field", [
    ({}, "scenario"),
    ({"scenario": "nope"}, "scenario"),
    ({"scenario": "example1", "stepz": 2}, "stepz"),
    ({"scenario": "example1", "T": -1.0}, "T"),
    ({"scenario": "example1", "T": True}, "T"),
    ({"scenario": "example1", "steps": 1}, "steps"),
    ({"scenario": "example1", "steps": 2.5}, "steps"),
    ({"scenario": "example1", "paths": 0}, "paths"),
    ({"scenario": "example1", "seed": 1.5}, "seed"),
    ({"scenario": "example1", "steps": 8, "start_index": 8}, "start_index"),
    ({"scenario": "example1", "eta": []}, "eta"),
    ({"scenario": "example1", "eta": [1.0, "x"]}, "eta"),
    ({"scenario": "example1", "solver": "cholesky"}, "solver"),
    ({"scenario": "example1", "checks": ["nope"]}, "checks"),
    ({"scenario": "example1", "checks": ["divergence"]}, "checks"),
    ({"scenario": "example1", "tolerances": {"nope": 1.0}}, "tolerances"),
    ({"scenario": "example1", "tolerances": {"n_se": "x"}}, "tolerances"),
    ({"scenario": "example1", "output_dir": ""}, "output_dir"),
    ({"scenario": "deterministic", "deterministic": [1.0, 2.0]}, "deterministic"),
    ({"scenario": "custom-from-file"}, "custom_model"),
    ({"scenario": "example1", "T": 10 ** 400}, "T"),
    ({"scenario": "example1", "eta": [float("inf")]}, "eta"),
    ({"scenario": "example1", "tolerances": {"synthesis": -1e-8}}, "tolerances"),
    ({"scenario": "deterministic",
      "deterministic": [0.0, 1.0, 0.0, 0.0, 0.0, 1.0, float("nan")]}, "deterministic"),
    ({"scenario": "example1", "tolerances": {"basis_degree": 2.5}}, "tolerances"),
    ({"scenario": "example1", "start_index": True}, "start_index"),
    ({"scenario": "custom-from-file", "custom_model": ":make_model"}, "custom_model"),
    ({"scenario": "custom-from-file", "custom_model": "mymod:"}, "custom_model"),
])
def test_config_schema_violations_name_the_field(tmp_path, fields, bad_field):
    with pytest.raises(ConfigError) as err:
        load_config(_write_config(tmp_path, **fields))
    assert err.value.field == bad_field


def test_checks_all_keyword_and_scenario_defaults(tmp_path):
    cfg = load_config(_write_config(tmp_path, scenario="example1", checks="all"))
    assert cfg.checks == []
    cex = load_config(_write_config(tmp_path, scenario="counterexample"))
    assert cex.enabled_checks()[-1] == "divergence"
    assert len(cex.enabled_checks()) == 5


def test_tolerance_override_only_touches_named_entries(tmp_path):
    cfg = load_config(_write_config(
        tmp_path, scenario="example1", tolerances={"n_se": 5}))
    assert cfg.tolerance("n_se") == 5.0
    assert isinstance(cfg.tolerances["n_se"], float)
    assert cfg.tolerance("stationarity") == 1e-8


# ---------------------------------------------------------------------------
# End-to-end runs and artifacts
# ---------------------------------------------------------------------------

def test_cli_deterministic_run_passes(tmp_path, capsys):
    out = tmp_path / "det"
    rc = main(["--scenario", "deterministic", "--steps", "16", "--paths", "8",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    for name in ("report.json", "riccati.csv", "sweep.csv", "regularity.csv"):
        assert (out / name).is_file()
    lines = (out / "riccati.csv").read_text().splitlines()
    assert lines[0] == "t,path_id,P,Lambda,K,L"
    # The homogeneous solution has one deterministic trajectory: 17 nodes.
    assert len(lines) == 18
    t0, path_id, P0, Lam0, K0, L0 = lines[1].split(",")
    assert (t0, path_id) == ("0", "0")
    assert abs(float(P0) - 0.5) <= 1e-6
    assert float(Lam0) == 0.0
    assert float(K0) == 1.0
    stdout = capsys.readouterr().out
    for check in ("value_identity", "completion_of_squares", "optimality",
                  "stationarity"):
        assert f"{check}: PASS" in stdout
    assert f"artifacts written to {out}" in stdout


def test_cli_example1_report_and_artifacts(tmp_path):
    out = tmp_path / "ex1"
    rc = main(["--scenario", "example1", "--steps", "32", "--paths", "50",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["all_passed"] is True
    assert report["failed"] is None
    assert report["manifest"] == [
        "riccati.csv", "sweep.csv", "regularity.csv", "report.json"]
    assert report["config"]["steps"] == 32
    assert report["config"]["paths"] == 50
    summary = report["riccati_summary"]
    assert summary["solver_tag"] == "closed_form_example1"
    assert summary["paths_in_csv"] == 16
    assert summary["P_at_start_mean"] == pytest.approx(0.275, abs=1e-12)
    assert summary["P_at_start_std"] == pytest.approx(0.0, abs=1e-15)
    flags = report["verification"]["pass_flags"]
    assert sorted(flags) == ["completion_of_squares", "optimality",
                             "stationarity", "value_identity"]
    assert all(info["passed"] for info in flags.values())
    arms = flags["completion_of_squares"]["arms"]
    assert arms["closed_loop_replay"]["residual"] == 0.0
    assert len(arms) == 11  # 10 perturbations + exact replay
    reg = report["regularity"]
    assert set(reg["quantiles"]) == {"0.5", "0.9", "0.99"}
    assert reg["qualified"] is True
    for key in ("setup_s", "riccati_s", "feedback_s", "checks_s", "artifacts_s"):
        assert report["timings"][key] >= 0.0
    # CSV row counts: 16 exported paths x 33 nodes, 50 regularity paths,
    # 10 perturbations x 3 epsilons in the sweep, one header line each.
    assert len((out / "riccati.csv").read_text().splitlines()) == 1 + 16 * 33
    assert len((out / "regularity.csv").read_text().splitlines()) == 1 + 50
    assert len((out / "sweep.csv").read_text().splitlines()) == 1 + 30


def test_cli_run_shares_closed_loops_and_the_perturbation_library(tmp_path, monkeypatch):
    # One memoized closed-loop cost serves the value identity, completion of
    # squares and the sweep, filled from arm 0 of the completion-of-squares
    # pass.  No run is simulated and stored on its own: the 10 CoS arms take
    # one arm pass with the closed loop as arm 0, whose own identity is the
    # replay, and the sweep's 10 zero-start responses and 10 direct arms
    # another, each adding its arms' costs as it goes.  The perturbation
    # library is built once.
    calls = {"closed": 0, "open": 0, "cost": 0, "library": 0, "arm_pass": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for key, name in (("closed", "simulate_closed_loop"), ("open", "simulate_open_loop"),
                      ("cost", "cost"), ("library", "make_perturbations"),
                      ("arm_pass", "_arm_pass")):
        wrapped = counted(key, getattr(evaluate, name))
        monkeypatch.setattr(evaluate, name, wrapped)
        if hasattr(cli, name):
            monkeypatch.setattr(cli, name, wrapped)
    out = tmp_path / "counted"
    assert main(["--scenario", "example1", "--steps", "16", "--paths", "20",
                 "--out", str(out)]) == 0
    assert calls == {"closed": 0, "open": 0, "cost": 0, "library": 1, "arm_pass": 2}
    flags = json.loads((out / "report.json").read_text())["verification"]["pass_flags"]
    assert flags["optimality"]["superposition_ok"] is True
    assert 0.0 <= flags["optimality"]["superposition_error"] <= evaluate.SUPERPOSITION_RTOL


def test_cli_stages_cover_the_run(tmp_path, monkeypatch):
    # The five stages account for the run's wall time: what lies outside
    # them (the output directory, the config echo, report.json) is small.
    monkeypatch.delenv("OUTPUT_DIR", raising=False)
    config = ExperimentConfig(scenario="example1", steps=128, paths=1000,
                              output_dir=str(tmp_path / "stages"))
    t0 = time.perf_counter()
    report = cli.run(config)
    wall = time.perf_counter() - t0
    assert list(report.timings) == ["setup_s", "riccati_s", "feedback_s", "checks_s",
                                    "artifacts_s"]
    assert sum(report.timings.values()) >= 0.95 * wall


def test_cli_checks_equal_the_public_checks_on_the_same_batch(tmp_path, monkeypatch):
    # The CLI's shared closed loop changes no number: each residual, detail
    # and sweep row equals what the public check computes on its own.
    out = tmp_path / "same"
    assert main(["--scenario", "example1", "--steps", "32", "--paths", "200",
                 "--seed", "3", "--out", str(out)]) == 0
    calls = {"closed": 0, "cost": 0}
    for key, name in (("closed", "simulate_closed_loop"), ("cost", "cost")):
        def counted(*args, _key=key, _fn=getattr(evaluate, name), **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(evaluate, name, counted)
    verification = json.loads((out / "report.json").read_text())["verification"]
    flags = verification["pass_flags"]
    grid = make_grid(1.0, 32)
    batch = sample_brownian(grid, 200, 3)
    model = scenario_example1(1.0)
    sol = closed_form_example1(grid, batch)
    law = synthesize(sol, model)
    init = InitialCondition(0, np.array([1.0]))

    vi = evaluate.value_identity_check(sol, law, model, init, batch)
    assert verification["value_identity_residual"] == vi.residual
    assert flags["value_identity"]["residual"] == vi.residual
    assert flags["value_identity"]["tolerance"] == vi.tolerance
    assert flags["value_identity"]["details"] == vi.details

    arms = flags["completion_of_squares"]["arms"]
    _, u_fb = evaluate.simulate_closed_loop(model, law, init, batch)
    perts = evaluate.make_perturbations(grid, batch, model.m)
    for pid, v in perts:
        u = PathArray(u_fb.values + 0.1 * v)
        cos = evaluate.completion_of_squares_check(sol, law, model, u, init, batch)
        assert arms[pid]["residual"] == cos.residual
        assert arms[pid]["tolerance"] == cos.tolerance
    replay = evaluate.completion_of_squares_check(sol, law, model, u_fb, init, batch)
    assert arms["closed_loop_replay"]["residual"] == replay.residual == 0.0

    sweep = evaluate.optimality_sweep(sol, law, model, init, batch)
    assert verification["optimality_sweep"] == [
        {"perturbation_id": r.perturbation_id, "epsilon": r.epsilon, "J": r.J,
         "J_minus_Jfb": r.J_minus_Jfb, "std_err": r.std_err} for r in sweep.rows]
    assert flags["optimality"]["min_gap"] == sweep.min_gap
    assert flags["optimality"]["superposition_error"] == sweep.superposition_error
    # The value identity, the eleven completion-of-squares calls and the sweep
    # read one memoized closed-loop cost, taken as the closed loop steps; the
    # one stored closed loop is this test's own u_fb.
    assert calls == {"closed": 1, "cost": 0}


def test_cli_reaches_into_evaluate_only_for_the_shared_arm_pass():
    # The CLI runs the public checks; of evaluate's private names it imports
    # only the completion-of-squares body, whose arm list lets the ten
    # perturbed arms share one arm pass with the closed loop, the replay.
    tree = ast.parse(Path(cli.__file__).read_text())
    private = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module in ("evaluate", "slqkit.evaluate") for alias in node.names
               if alias.name.startswith("_")}
    assert private == {"_completion_of_squares"}


def test_report_echoes_the_checks_that_ran(tmp_path):
    out = tmp_path / "echo"
    assert main(["--scenario", "example1", "--steps", "8", "--paths", "10",
                 "--out", str(out)]) == 0
    config = json.loads((out / "report.json").read_text())["config"]
    assert config["checks"] == []  # the echo of the config as given
    assert config["enabled_checks"] == [
        "value_identity", "completion_of_squares", "optimality", "stationarity"]


def test_cli_rerun_is_byte_identical_and_env_redirects(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write_config(tmp_path, scenario="example1", steps=32, paths=50,
                        output_dir="ignored")
    reports = []
    for sub in ("a", "b"):
        monkeypatch.setenv("OUTPUT_DIR", str(tmp_path / sub))
        assert main(["--config", cfg]) == 0
        reports.append(json.loads((tmp_path / sub / "report.json").read_text()))
    assert not (tmp_path / "ignored").exists()
    for name in ("riccati.csv", "sweep.csv", "regularity.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    # Identical configs reproduce the full report except wall-clock timings.
    for rep in reports:
        rep.pop("timings")
    assert reports[0] == reports[1]


def test_cli_divergence_check_fails_with_exit_2(tmp_path, capsys):
    out = tmp_path / "cex"
    rc = main(["--scenario", "counterexample", "--steps", "512", "--paths", "200",
               "--seed", "1", "--check", "divergence", "--out", str(out)])
    assert rc == 2
    assert "divergence: FAIL" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["all_passed"] is False
    flags = report["verification"]["pass_flags"]
    assert list(flags) == ["divergence"]
    div = flags["divergence"]
    assert div["passed"] is False
    assert div["bounds_ok"] is False
    (row,) = div["rows"]
    assert (row["steps"], row["n_paths"]) == (512, 200)
    assert row["ito_violations"] == row["y_violations"] > 0


def test_cli_divergence_ladder_leads_with_the_256_by_1000_rung(tmp_path):
    # Past 256 steps and 1000 paths the probe compares the run's own rung
    # against (256, 1000).  Seed 8 is the first whose synthesis is feasible
    # on this grid; the verdict is not asserted, only the rungs.
    out = tmp_path / "ladder"
    main(["--scenario", "counterexample", "--steps", "257", "--paths", "1001",
          "--seed", "8", "--check", "divergence", "--out", str(out)])
    rows = json.loads((out / "report.json").read_text())["verification"]["pass_flags"][
        "divergence"]["rows"]
    assert [(row["steps"], row["n_paths"]) for row in rows] == [(256, 1000), (257, 1001)]


def test_cli_infeasible_synthesis_exits_4_with_partial_report(tmp_path, capsys):
    out = tmp_path / "cex4"
    rc = main(["--scenario", "counterexample", "--steps", "128", "--paths", "500",
               "--seed", "1", "--out", str(out)])
    assert rc == 4
    assert "runtime-error: SynthesisInfeasibleError" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["failed"].startswith("SynthesisInfeasibleError")
    assert report["all_passed"] is False
    assert report["manifest"] == ["report.json"]
    assert not (out / "riccati.csv").exists()


def test_cli_config_and_input_errors_exit_3(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "absent.json")]) == 3
    assert "io-error" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad)]) == 3
    assert "config-error" in capsys.readouterr().err
    # An integer beyond Python's digit limit is refused by json.loads itself,
    # and a file that is not UTF-8 by its decoding.
    bad.write_text('{"scenario": "example1", "T": 1' + "0" * 5000 + "}")
    assert main(["--config", str(bad)]) == 3
    assert "config-error: config is not valid JSON" in capsys.readouterr().err
    bad.write_bytes(b'{"scenario": "ex\xff"}')
    assert main(["--config", str(bad)]) == 3
    assert "config-error: config is not valid JSON" in capsys.readouterr().err
    assert main([]) == 3  # no scenario anywhere
    assert main(["--scenario", "example1", "--steps", "1"]) == 3
    assert main(["--scenario", "example1", "--tol", "n_se"]) == 3
    assert main(["--scenario", "example1", "--tol", "n_se=abc"]) == 3
    assert main(["--scenario", "example1", "--T", "inf"]) == 3
    assert main(["--scenario", "example1", "--tol", "n_se=nan"]) == 3
    assert main(["--scenario", "example1", "--tol", "disc_coeff=-1"]) == 3
    assert main(["--scenario", "example1", "--solver", "regression",
                 "--tol", "basis_degree=2.5"]) == 3
    err = capsys.readouterr().err
    assert "config-error" in err
    # eta's length is checked against the model before any path is sampled.
    out = tmp_path / "eta"
    cfg = _write_config(tmp_path, "eta.json", scenario="example1", eta=[1.0, 2.0],
                        steps=8, paths=4, output_dir=str(out))
    assert main(["--config", cfg]) == 3
    assert "config-error: eta has length 2" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["failed"].startswith("ConfigError") and report["timings"] == {}


def test_cli_solver_scenario_mismatch_exits_3(tmp_path, capsys):
    out = tmp_path / "mismatch"
    rc = main(["--scenario", "example1", "--solver", "deterministic_ode",
               "--steps", "16", "--paths", "8", "--out", str(out)])
    assert rc == 3
    assert "config-error" in capsys.readouterr().err


def _exit_code(argv):
    """``main(argv)``'s exit as the interpreter gives it: a SystemExit's code, and
    1 with a printed traceback for an exception that escapes."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception:
        traceback.print_exc()
        return 1


@pytest.mark.parametrize("argv,code,label", [
    (["--scenario", "bogus"], 3, "config-error"),
    (["--scenario", "example1", "--solver", "nope"], 3, "config-error"),
    (["--scenario", "example1", "--steps", "abc"], 3, "config-error"),
    (["--scenario", "example1", "--T", "x"], 3, "config-error"),
    (["--scenario", "example1", "--bogus", "1"], 3, "config-error"),
    (["--scenario", "example1", "--steps"], 3, "config-error"),
    (["--config", "{tmp}/list_tolerances.json", "--tol", "n_se=1"], 3, "config-error"),
    (["--config", "{tmp}/huge_steps.json"], 3, "config-error"),
    (["--config", "{tmp}/huge_paths.json"], 3, "config-error"),
    (["--config", "{tmp}/sqrt_model.json"], 3, "config-error"),
    (["--scenario", "example1", "--out", "{tmp}/a_file"], 3, "io-error"),
    (["--scenario", "example1", "--out", "{tmp}/a_file/sub"], 3, "io-error"),
    (["--scenario", "example1", "--steps", "8", "--paths", "4", "--out", "{tmp}/oom"],
     4, "runtime-error"),
    (["--config", "{tmp}/pi_model.json"], 3, "config-error"),
    (["--config", "{tmp}/boom_model.json"], 3, "config-error"),
    (["--config", "{tmp}/no_argument_model.json"], 3, "config-error"),
    (["--config", "{tmp}/no_module_model.json"], 3, "config-error"),
    (["--config", "{tmp}/eta_overflow.json"], 4, "runtime-error"),
    (["--scenario", "example1", "--solver", "regression", "--steps", "8", "--paths", "40",
      "--tol", "basis_degree=1e9", "--out", "{tmp}/degree"], 4, "runtime-error"),
], ids=["scenario", "solver", "steps-text", "T-text", "unknown-flag", "steps-no-value",
        "tolerances-list-and-tol", "steps-beyond-numpy", "paths-beyond-numpy",
        "factory-returns-a-float", "out-is-a-file", "out-under-a-file", "memory",
        "factory-is-a-float", "factory-raises", "factory-takes-no-argument",
        "factory-of-no-module", "cost-overflows", "basis-beyond-the-batch"])
def test_every_failure_exits_through_the_exit_table(tmp_path, monkeypatch, capsys, request,
                                                    argv, code, label):
    # Exit 2 is a check that ran and failed, and exit 1 a crash: a flag argparse
    # cannot read, a config value the flags used to read before admission, an
    # unusable output directory, an allocation that fails, a custom factory that
    # cannot be called or raises, and a cost that overflows each exit by its row
    # of the table instead, with its label and no traceback.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("OUTPUT_DIR", raising=False)
    _write_config(tmp_path, "list_tolerances.json", scenario="example1", tolerances=[1, 2])
    _write_config(tmp_path, "huge_steps.json", scenario="example1", steps=10**20)
    _write_config(tmp_path, "huge_paths.json", scenario="example1", steps=2, paths=10**20)
    _write_config(tmp_path, "sqrt_model.json", scenario="custom-from-file",
                  custom_model="math:sqrt", solver="deterministic_ode", steps=8, paths=4,
                  output_dir=str(tmp_path / "sqrt"))
    (tmp_path / "exit_table_factories.py").write_text(
        "def boom(T):\n    raise ValueError('boom')\n\n\ndef no_argument():\n    return None\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    for name, factory in (("pi", "math:pi"), ("boom", "exit_table_factories:boom"),
                          ("no_argument", "exit_table_factories:no_argument"),
                          ("no_module", ":x")):
        _write_config(tmp_path, f"{name}_model.json", scenario="custom-from-file",
                      custom_model=factory, solver="deterministic_ode", steps=8, paths=4)
    _write_config(tmp_path, "eta_overflow.json", scenario="example1", steps=16, paths=50,
                  eta=[1e200])
    (tmp_path / "a_file").write_text("")

    def out_of_memory(*args, **kwargs):
        raise MemoryError("cannot allocate the batch")

    if request.node.callspec.id == "memory":  # the other runs need their batch
        monkeypatch.setattr(cli, "sample_brownian", out_of_memory)
    rc = _exit_code([arg.format(tmp=tmp_path) for arg in argv])
    err = capsys.readouterr().err
    assert rc not in (1, 2)
    assert (rc, err.partition(":")[0]) == (code, label), err
    assert "Traceback" not in err


def test_cli_flags_override_config_file(tmp_path):
    out = tmp_path / "over"
    cfg = _write_config(tmp_path, scenario="example1", steps=16, paths=30,
                        output_dir=str(out))
    rc = main(["--config", cfg, "--steps", "24", "--check", "value_identity",
               "--check", "stationarity", "--tol", "n_se=4"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["steps"] == 24
    assert report["config"]["paths"] == 30
    assert report["config"]["checks"] == ["value_identity", "stationarity"]
    assert report["config"]["tolerances"] == {"n_se": 4.0}
    assert sorted(report["verification"]["pass_flags"]) == [
        "stationarity", "value_identity"]
    # sweep.csv is still written (empty, header only) when optimality is off.
    assert (out / "sweep.csv").read_text().splitlines() == [
        "perturbation_id,epsilon,J,J_minus_Jfb,std_err"]


def test_cli_custom_model_scenario(tmp_path, monkeypatch):
    (tmp_path / "mymod.py").write_text(
        "from slqkit.problem import scenario_deterministic\n\n"
        "def make_model(T):\n"
        "    return scenario_deterministic(0, 1, 0, 0, 0, 1, 1, T=T)\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    out = tmp_path / "custom"
    cfg = _write_config(tmp_path, scenario="custom-from-file",
                        custom_model="mymod:make_model",
                        solver="deterministic_ode", steps=16, paths=8,
                        output_dir=str(out))
    assert main(["--config", cfg]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["riccati_summary"]["solver_tag"] == "deterministic_ode"
    assert main(["--scenario", "custom-from-file", "--out", str(out)]) == 3


def test_cli_custom_model_of_a_bool_dimension_exits_4(tmp_path, monkeypatch, capsys):
    # n = True used to pass the model and end the run in a bare TypeError
    # (exit 1) when the first table was allocated.
    (tmp_path / "bool_dim.py").write_text(
        "import dataclasses\n"
        "from slqkit.problem import scenario_deterministic\n\n"
        "def make_model(T):\n"
        "    return dataclasses.replace(scenario_deterministic(0, 1, 0, 0, 0, 1, 1, T=T), n=True)\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    out = tmp_path / "bool_dim"
    cfg = _write_config(tmp_path, scenario="custom-from-file", custom_model="bool_dim:make_model",
                        solver="deterministic_ode", steps=16, paths=8, output_dir=str(out))
    assert main(["--config", cfg]) == 4
    assert "runtime-error: InvalidArgumentError: n must be a positive integer, got True" \
        in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["failed"] == "InvalidArgumentError: n must be a positive integer, got True"
    assert report["manifest"] == ["report.json"] and report["timings"] == {}


def test_cli_asymmetric_custom_weight_exits_4_at_the_solve(tmp_path, monkeypatch, capsys):
    (tmp_path / "skew_q.py").write_text(
        "import numpy as np\n"
        "from slqkit.problem import CoefficientModel\n\n"
        "def make_model(T):\n"
        "    eye, skew = np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]])\n"
        "    return CoefficientModel(\n"
        "        n=2, m=2, A=lambda i, W: 0.1 * eye, B=lambda i, W: eye,\n"
        "        C=lambda i, W: 0.0 * eye, D=lambda i, W: eye, Q=lambda i, W: skew,\n"
        "        R=lambda i, W: eye, G=lambda W: eye)\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    out = tmp_path / "skew"
    cfg = _write_config(tmp_path, scenario="custom-from-file", custom_model="skew_q:make_model",
                        solver="deterministic_ode", eta=[1.0, 0.0], steps=16, paths=8,
                        output_dir=str(out))
    assert main(["--config", cfg]) == 4
    assert "runtime-error: InvalidArgumentError: Q is not symmetric" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["failed"].startswith("InvalidArgumentError: Q is not symmetric within tolerance")
    assert list(report["timings"]) == ["setup_s"]
    assert report["manifest"] == ["report.json"]


def test_cli_csv_and_summary_agree_on_the_sign_of_P(tmp_path, monkeypatch):
    # n = 1, m = 2: P is 1x1 and keeps its sign in both riccati.csv and the
    # summary, while the 2x2 K and the 2x1 L get their Frobenius norms.
    # dP/dt = |B|^2 P^2 = P^2 / 2 from P(1) = G = -0.5 gives P(t) = -2 / (3 + t).
    (tmp_path / "wide_control.py").write_text(
        "import numpy as np\n"
        "from slqkit.problem import CoefficientModel\n\n"
        "def make_model(T):\n"
        "    zero, zero_row = np.zeros((1, 1)), np.zeros((1, 2))\n"
        "    return CoefficientModel(\n"
        "        n=1, m=2, A=lambda i, W: zero, B=lambda i, W: np.full((1, 2), 0.5),\n"
        "        C=lambda i, W: zero, D=lambda i, W: zero_row, Q=lambda i, W: zero,\n"
        "        R=lambda i, W: np.eye(2), G=lambda W: np.full((1, 1), -0.5))\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    out = tmp_path / "wide"
    cfg = _write_config(tmp_path, scenario="custom-from-file",
                        custom_model="wide_control:make_model",
                        solver="deterministic_ode", steps=16, paths=8,
                        output_dir=str(out))
    assert main(["--config", cfg]) == 0
    summary = json.loads((out / "report.json").read_text())["riccati_summary"]
    header, first = (out / "riccati.csv").read_text().splitlines()[:2]
    row = dict(zip(header.split(","), first.split(",")))
    assert (row["t"], row["path_id"]) == ("0", "0")
    assert float(row["P"]) == summary["P_at_start_mean"]
    assert summary["P_at_start_mean"] == pytest.approx(-2.0 / 3.0, rel=1e-6)
    assert float(row["K"]) == pytest.approx(math.sqrt(2.0), rel=1e-12)  # ||I||_F
    assert float(row["L"]) == pytest.approx(math.sqrt(0.5) * 2.0 / 3.0, rel=1e-6)


def test_cli_bad_custom_model_import_exits_3(tmp_path, capsys):
    out = tmp_path / "badmod"
    cfg = _write_config(tmp_path, scenario="custom-from-file",
                        custom_model="no_such_module:factory",
                        solver="deterministic_ode", steps=16, paths=8,
                        output_dir=str(out))
    assert main(["--config", cfg]) == 3
    assert "cannot import custom model" in capsys.readouterr().err


def test_cli_custom_model_has_no_closed_form_and_exits_3(tmp_path, capsys):
    out = tmp_path / "custom_closed"
    cfg = _write_config(tmp_path, scenario="custom-from-file",
                        custom_model="slqkit.problem:scenario_example1", solver="closed_form",
                        steps=8, paths=4, output_dir=str(out))
    assert main(["--config", cfg]) == 3
    assert capsys.readouterr().err.startswith(
        "config-error: no closed-form solver for scenario 'custom-from-file'; ")
    report = json.loads((out / "report.json").read_text())
    assert report["failed"].startswith("ConfigError:")


def test_python_dash_m_runs_the_cli(tmp_path):
    out = tmp_path / "module"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "slqkit", "--scenario", "example1",
                           "--steps", "8", "--paths", "10", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for name in ("riccati.csv", "sweep.csv", "regularity.csv"):
        assert (out / name).read_text().count("\n") > 1


def test_experiment_config_tolerance_rejects_unknown_name():
    cfg = ExperimentConfig(scenario="example1")
    with pytest.raises(KeyError):
        cfg.tolerance("nonexistent")
