"""Experiment runner CLI.

Reads a JSON config (or equivalent flags) and runs five stages in order, each
timed into the report's ``timings`` as ``<stage>_s``: ``setup`` (the scenario's
model, the grid and the Brownian batch), ``riccati`` (the chosen solver),
``feedback`` (the gain ``Theta = -K^+ L`` and its regularity), ``checks`` (the
enabled checks, in ``CHECKS`` order) and ``artifacts``.  The checks share one
closed loop ``(x, u, J)`` and one perturbation library, each built on first
use.  The run writes:

* ``report.json`` — config echo, Riccati summary, regularity report,
  verification residuals/flags, timings, and the artifact manifest;
* ``riccati.csv`` — ``(t, path_id, P, Lambda, K, L)`` trajectories (all grid
  nodes for the first up-to-16 path ids; deterministic runs export their
  single path in full);
* ``sweep.csv`` — ``(perturbation_id, epsilon, J, J_minus_Jfb, std_err)``;
* ``regularity.csv`` — ``(path_id, sqnorm_theta)`` for every path.

Floats in CSVs are written with 17 significant digits, and identical configs
reproduce every CSV byte for byte.  Exit status: 0 all enabled checks passed,
2 a check failed, 3 configuration/input error, 4 runtime/numerical error.
The output directory may be overridden with the ``OUTPUT_DIR`` environment
variable.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import importlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, SlqError
from .evaluate import (
    _EPSILONS,
    DISC_ALLOWANCE,
    N_SE,
    _closed_loop,
    _completion_of_squares,
    _sweep,
    _value_identity,
    counterexample_divergence_probe,
    make_perturbations,
)
from .feedback import regularity_diagnostics, stationarity_residual, synthesize
from .grid import PathArray, make_grid, sample_brownian
from .problem import (
    InitialCondition,
    scenario_counterexample,
    scenario_deterministic,
    scenario_example1,
)
from .riccati import (
    RegressionBasis,
    closed_form_counterexample,
    closed_form_example1,
    solve_bsre_regression,
    solve_deterministic,
)

__all__ = ["ExperimentConfig", "RunReport", "load_config", "run", "main"]


def _custom_model(cfg: ExperimentConfig):
    mod_name, _, attr = cfg.custom_model.partition(":")
    try:
        factory = getattr(importlib.import_module(mod_name), attr)
    except (ImportError, AttributeError) as exc:
        raise ConfigError(f"cannot import custom model {cfg.custom_model!r}: {exc}",
                          field="custom_model") from exc
    return factory(cfg.T)


# scenario -> (model factory of the config, the solver "closed_form" names for it,
# of (model, grid, batch), or None).  Lambdas look names up at call time.
_SCENARIOS = {
    "example1": (lambda cfg: scenario_example1(cfg.T),
                 lambda model, grid, batch: closed_form_example1(grid, batch)),
    "counterexample": (lambda cfg: scenario_counterexample(cfg.T),
                       lambda model, grid, batch: closed_form_counterexample(grid, batch)),
    "deterministic": (lambda cfg: scenario_deterministic(*cfg.deterministic, T=cfg.T),
                      lambda model, grid, batch: solve_deterministic(model, grid)),
    "custom-from-file": (_custom_model, None),
}
SCENARIOS = tuple(_SCENARIOS)
SOLVERS = ("closed_form", "regression", "deterministic_ode")
CHECKS = ("value_identity", "completion_of_squares", "optimality",
          "stationarity", "divergence")
TOLERANCE_DEFAULTS = {
    "n_se": N_SE,           # standard-error multiplier of all MC checks
    "disc_coeff": DISC_ALLOWANCE,  # coefficient of the sqrt(h) allowance
    "stationarity": 1e-8,   # max ||L + K Theta|| line
    "synthesis": 1e-8,      # pointwise PSD/range tolerance
    "regularity_bound": 0.0,  # 0 = auto (10x median of this run)
    "basis_degree": float(RegressionBasis.degree),  # total degree of the regression basis
    "cos_epsilon": 0.1,     # perturbation size of the CLI's cos check
}
RICCATI_CSV_MAX_PATHS = 16
_SWEEP_COLUMNS = ("perturbation_id", "epsilon", "J", "J_minus_Jfb", "std_err")


@dataclass
class ExperimentConfig:
    """Validated experiment description (see module docstring for files)."""

    scenario: str
    T: float = 1.0
    steps: int = 256
    paths: int = 10000
    seed: int = 1
    start_index: int = 0
    eta: list = field(default_factory=lambda: [1.0])
    solver: str = "closed_form"
    checks: list = field(default_factory=list)  # empty = all applicable
    tolerances: dict = field(default_factory=dict)
    output_dir: str = "out"
    deterministic: list = field(default_factory=lambda: [0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0])
    custom_model: str | None = None

    def enabled_checks(self) -> list:
        if self.checks:
            return list(self.checks)
        return [c for c in CHECKS if c != "divergence" or self.scenario == "counterexample"]

    def tolerance(self, name: str) -> float:
        return float(self.tolerances.get(name, TOLERANCE_DEFAULTS[name]))


@dataclass
class RunReport:
    """In-memory mirror of report.json."""

    config: dict
    riccati_summary: dict
    regularity: dict
    verification: dict
    timings: dict
    manifest: list
    all_passed: bool
    failed: str | None = None


def _expect(cond: bool, fld: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"config field '{fld}': {msg}", field=fld)


def _is_finite_real(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _validate_config(raw: dict) -> ExperimentConfig:
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config field '{key}'", field=key)
    _expect("scenario" in raw, "scenario", "required")
    cfg = ExperimentConfig(scenario=raw["scenario"])
    for key, value in raw.items():
        setattr(cfg, key, value)
    _expect(cfg.scenario in SCENARIOS, "scenario",
            f"must be one of {SCENARIOS}, got {cfg.scenario!r}")
    _expect(_is_finite_real(cfg.T) and cfg.T > 0, "T",
            f"must be a finite positive real, got {cfg.T!r}")
    cfg.T = float(cfg.T)
    _expect(isinstance(cfg.steps, int) and not isinstance(cfg.steps, bool)
            and cfg.steps >= 2, "steps", f"must be an integer >= 2, got {cfg.steps!r}")
    _expect(isinstance(cfg.paths, int) and not isinstance(cfg.paths, bool)
            and cfg.paths >= 1, "paths", f"must be a positive integer, got {cfg.paths!r}")
    _expect(isinstance(cfg.seed, int) and not isinstance(cfg.seed, bool),
            "seed", f"must be an integer, got {cfg.seed!r}")
    _expect(isinstance(cfg.start_index, int) and not isinstance(cfg.start_index, bool)
            and 0 <= cfg.start_index < cfg.steps,
            "start_index", f"must be an integer in [0, steps), got {cfg.start_index!r}")
    _expect(isinstance(cfg.eta, list) and cfg.eta
            and all(_is_finite_real(v) for v in cfg.eta),
            "eta", f"must be a non-empty list of finite reals, got {cfg.eta!r}")
    cfg.eta = [float(v) for v in cfg.eta]
    _expect(cfg.solver in SOLVERS, "solver",
            f"must be one of {SOLVERS}, got {cfg.solver!r}")
    if cfg.checks == "all":
        cfg.checks = []
    _expect(isinstance(cfg.checks, list), "checks",
            f"must be 'all' or a list of check names, got {cfg.checks!r}")
    for name in cfg.checks:
        _expect(name in CHECKS, "checks",
                f"unknown check {name!r}; known: {CHECKS}")
        if name == "divergence":
            _expect(cfg.scenario == "counterexample", "checks",
                    "the divergence check requires the counterexample scenario")
    _expect(isinstance(cfg.tolerances, dict), "tolerances",
            f"must be a name->value map, got {cfg.tolerances!r}")
    for name, value in cfg.tolerances.items():
        _expect(name in TOLERANCE_DEFAULTS, "tolerances",
                f"unknown tolerance {name!r}; known: {sorted(TOLERANCE_DEFAULTS)}")
        _expect(_is_finite_real(value) and value >= 0, "tolerances",
                f"{name} must be a finite real >= 0, got {value!r}")
        _expect(name != "basis_degree" or float(value).is_integer(), "tolerances",
                f"basis_degree must be an integer, got {value!r}")
    cfg.tolerances = {k: float(v) for k, v in cfg.tolerances.items()}
    _expect(isinstance(cfg.output_dir, str) and cfg.output_dir, "output_dir",
            "must be a non-empty path string")
    _expect(isinstance(cfg.deterministic, list) and len(cfg.deterministic) == 7
            and all(_is_finite_real(v) for v in cfg.deterministic),
            "deterministic", "must be a list of 7 finite reals [a,b,c,d,q,r,g]")
    cfg.deterministic = [float(v) for v in cfg.deterministic]
    if cfg.scenario == "custom-from-file":
        _expect(isinstance(cfg.custom_model, str) and ":" in (cfg.custom_model or ""),
                "custom_model", "must be 'module:callable' for custom-from-file")
    return cfg


def _read_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", field="json") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object", field="json")
    return raw


def load_config(path: str) -> ExperimentConfig:
    """Load and validate a JSON experiment config.

    Raises
    ------
    FileNotFoundError
        Missing file (io-error; exit code 3 from the CLI).
    ConfigError
        Malformed JSON or schema violation; names the offending field.
    """
    return _validate_config(_read_config(path))


def _resolve_model(cfg: ExperimentConfig):
    return _SCENARIOS[cfg.scenario][0](cfg)


def _solve(cfg: ExperimentConfig, model, grid, batch):
    if cfg.solver == "regression":
        return solve_bsre_regression(model, grid, batch,
                                     RegressionBasis(int(cfg.tolerance("basis_degree"))))
    if cfg.solver == "closed_form":
        closed_form = _SCENARIOS[cfg.scenario][1]
        if closed_form is None:
            raise ConfigError(
                f"no closed-form solver for scenario {cfg.scenario!r}; "
                "use 'regression' or 'deterministic_ode'", field="solver")
        return closed_form(model, grid, batch)
    if model.kind != "deterministic":
        raise ConfigError(
            "solver 'deterministic_ode' requires deterministic coefficients", field="solver")
    return solve_deterministic(model, grid)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: tuple | list, rows) -> None:
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if x != x:
            return None  # NaN -> null
        if x in (float("inf"), float("-inf")):
            return repr(x)
        return x
    return obj


def _echo(config: ExperimentConfig) -> dict:
    """The config as given, plus the checks it resolves to."""
    return {**dataclasses.asdict(config), "enabled_checks": config.enabled_checks()}


def run(config: ExperimentConfig) -> RunReport:
    """Execute one experiment; write artifacts; return the report.

    Module errors (solver failures, finite escape, ...) propagate to the
    caller after a partial ``report.json`` with a ``failed`` marker has been
    written; check *failures* do not raise — they are recorded in the report
    and reflected in the exit code by :func:`main`.
    """
    out_dir = Path(os.environ.get("OUTPUT_DIR") or config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    timings: dict[str, float] = {}

    def _emit_report(report: RunReport) -> None:
        payload = _jsonable(dataclasses.asdict(report))
        (out_dir / "report.json").write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")

    @contextlib.contextmanager
    def stage(name: str):  # a stage that raises records nothing
        t0 = time.perf_counter()
        yield
        timings[name] = time.perf_counter() - t0

    try:
        with stage("setup_s"):
            model = _resolve_model(config)
            if len(config.eta) != model.n:
                raise ConfigError(f"eta has length {len(config.eta)}, state dimension is "
                                  f"{model.n}", field="eta")
            grid = make_grid(config.T, config.steps)
            batch = sample_brownian(grid, config.paths, config.seed)

        with stage("riccati_s"):
            sol = _solve(config, model, grid, batch)

        with stage("feedback_s"):
            law = synthesize(sol, model, tol=config.tolerance("synthesis"))
            bound = config.tolerance("regularity_bound")
            reg = regularity_diagnostics(law, grid, None if bound == 0.0 else bound)

        init = InitialCondition(start_index=config.start_index, eta=np.asarray(config.eta))
        n_se = config.tolerance("n_se")
        disc = config.tolerance("disc_coeff")
        enabled = config.enabled_checks()
        pass_flags: dict[str, dict] = {}
        sweep_rows: list[dict] = []
        # Built on first use, then shared by every check that reads them.
        loop = functools.cache(lambda: _closed_loop(model, law, init, batch))
        perts = functools.cache(lambda: make_perturbations(grid, batch, model.m))

        with stage("checks_s"):
            if "value_identity" in enabled:
                res = _value_identity(sol, model, init, batch, loop()[2], n_se, disc)
                pass_flags["value_identity"] = {
                    k: getattr(res, k) for k in ("passed", "residual", "tolerance", "details")}
            if "completion_of_squares" in enabled:
                _, u_fb, J_fb = loop()
                eps = config.tolerance("cos_epsilon")
                arms = {}
                for pid, v in perts():
                    res = _completion_of_squares(sol, law, model, PathArray(u_fb.values + eps * v),
                                                 init, batch, J_fb, n_se, disc)
                    arms[pid] = {"residual": res.residual, "tolerance": res.tolerance,
                                 "passed": res.passed}
                worst = max(arm["residual"] for arm in arms.values())
                replay = _completion_of_squares(sol, law, model, u_fb, init, batch, J_fb,
                                                n_se, disc)
                arms["closed_loop_replay"] = {"residual": replay.residual, "tolerance": 0.0,
                                              "passed": replay.residual == 0.0}
                pass_flags["completion_of_squares"] = {
                    "passed": all(arm["passed"] for arm in arms.values()), "residual": worst,
                    "tolerance": None, "arms": arms,
                }
            if "optimality" in enabled:
                sweep = _sweep(law, model, init, batch, loop(), perts(), _EPSILONS, n_se, disc)
                sweep_rows = [{k: getattr(r, k) for k in _SWEEP_COLUMNS} for r in sweep.rows]
                pass_flags["optimality"] = {k: getattr(sweep, k) for k in (
                    "passed", "min_gap", "first_order_ok", "quad_ratios", "quad_ok",
                    "superposition_error", "superposition_ok")}
            if "stationarity" in enabled:
                st = stationarity_residual(law, sol, model, batch.W)
                tol = config.tolerance("stationarity")
                pass_flags["stationarity"] = {
                    "passed": st.max_residual <= tol,
                    "residual": st.max_residual, "tolerance": tol,
                    "pi_form_residual": st.pi_form_residual,
                }
            if "divergence" in enabled:
                rungs = [(config.steps, config.paths)]
                if config.steps > 256 and config.paths > 1000:
                    rungs.insert(0, (256, 1000))
                probe = counterexample_divergence_probe(config.T, *zip(*rungs), config.seed)
                pass_flags["divergence"] = {
                    "passed": probe.bounds_ok and probe.growth_monotone,
                    "bounds_ok": probe.bounds_ok,
                    "growth_ratio": probe.growth_ratio,
                    "rows": [dataclasses.asdict(r) for r in probe.rows],
                }
        verification = {
            "value_identity_residual": pass_flags.get("value_identity", {}).get("residual"),
            "cos_identity_residual": pass_flags.get("completion_of_squares", {}).get("residual"),
            "stationarity_residual": pass_flags.get("stationarity", {}).get("residual"),
            "optimality_sweep": sweep_rows, "pass_flags": pass_flags,
        }

        with stage("artifacts_s"):
            n_export = min(RICCATI_CSV_MAX_PATHS, sol.P.n_paths)
            # A 1x1 field keeps its signed entry; a larger one reads as its Frobenius norm.
            fields = [f.values[..., 0, 0] if f.values.shape[2:] == (1, 1)
                      else np.linalg.norm(f.values, axis=(2, 3))
                      for f in (sol.P, sol.Lambda, sol.K, sol.L)]
            riccati_rows = (
                [_fmt(grid.points[i]), str(p)] + [_fmt(f[i, p]) for f in fields]
                for p in range(n_export) for i in range(grid.N + 1)
            )
            _write_csv(out_dir / "riccati.csv",
                       ["t", "path_id", "P", "Lambda", "K", "L"], riccati_rows)
            _write_csv(out_dir / "sweep.csv", _SWEEP_COLUMNS,
                       ([row["perturbation_id"]] + [_fmt(row[k]) for k in _SWEEP_COLUMNS[1:]]
                        for row in sweep_rows))
            _write_csv(out_dir / "regularity.csv", ["path_id", "sqnorm_theta"],
                       ([str(p), _fmt(v)] for p, v in enumerate(reg.pathwise_sqnorm)))

        p_start = fields[0][config.start_index]
        report = RunReport(
            config=_echo(config),
            riccati_summary={
                "solver_tag": sol.solver_tag,
                "P_at_start_mean": float(p_start.mean()),
                "P_at_start_std": float(p_start.std()),
                "paths_in_csv": n_export,
            },
            regularity={f.name: getattr(reg, f.name) for f in dataclasses.fields(reg)
                        if f.name != "pathwise_sqnorm"},
            verification=verification,
            timings=timings,
            manifest=["riccati.csv", "sweep.csv", "regularity.csv", "report.json"],
            all_passed=all(f["passed"] for f in pass_flags.values()),
        )
        _emit_report(report)
        return report
    except SlqError as exc:
        report = RunReport(
            config=_echo(config),
            riccati_summary={}, regularity={}, verification={},
            timings=timings, manifest=["report.json"],
            all_passed=False, failed=f"{type(exc).__name__}: {exc}",
        )
        _emit_report(report)
        raise


def _apply_flag_overrides(raw: dict, args: argparse.Namespace) -> dict:
    for flag in ("scenario", "T", "steps", "paths", "seed", "out", "solver"):
        if getattr(args, flag) is not None:
            raw["output_dir" if flag == "out" else flag] = getattr(args, flag)
    if args.check:
        raw["checks"] = list(args.check)
    if args.tol:
        tols = dict(raw.get("tolerances", {}))
        for spec_str in args.tol:
            name, sep, value = spec_str.partition("=")
            if not sep:
                raise ConfigError(
                    f"--tol expects NAME=VALUE, got {spec_str!r}", field="tolerances")
            try:
                tols[name] = float(value)
            except ValueError as exc:
                raise ConfigError(
                    f"--tol {name}: not a real number: {value!r}",
                    field="tolerances") from exc
        raw["tolerances"] = tols
    return raw


def main(argv: list | None = None) -> int:
    """Entry point: parse flags, run the experiment, map outcomes to exit
    codes (0 pass / 2 check failed / 3 config or input error / 4 runtime)."""
    parser = argparse.ArgumentParser(
        prog="slqkit",
        description="Run a stochastic linear-quadratic control experiment "
                    "and write verification artifacts.",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--scenario", choices=SCENARIOS)
    parser.add_argument("--T", type=float, help="horizon")
    parser.add_argument("--steps", type=int, help="grid steps")
    parser.add_argument("--paths", type=int, help="Monte Carlo paths")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="output directory (overrides output_dir)")
    parser.add_argument("--solver", choices=SOLVERS)
    parser.add_argument("--check", action="append", metavar="NAME",
                        help="enable a specific check (repeatable)")
    parser.add_argument("--tol", action="append", metavar="NAME=VAL",
                        help="override a tolerance (repeatable)")
    args = parser.parse_args(argv)
    try:
        raw = _read_config(args.config) if args.config else {}
        config = _validate_config(_apply_flag_overrides(raw, args))
    except FileNotFoundError as exc:
        print(f"io-error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config-error: {exc}", file=sys.stderr)
        return 3
    try:
        report = run(config)
    except ConfigError as exc:
        print(f"config-error: {exc}", file=sys.stderr)
        return 3
    except SlqError as exc:
        print(f"runtime-error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    out_dir = os.environ.get("OUTPUT_DIR") or config.output_dir
    for name, info in report.verification["pass_flags"].items():
        print(f"{name}: {'PASS' if info['passed'] else 'FAIL'}")
    print(f"artifacts written to {out_dir}")
    return 0 if report.all_passed else 2


if __name__ == "__main__":
    raise SystemExit(main())
