"""Experiment runner CLI.

Reads a JSON config (or equivalent flags) and runs five stages in order, each
timed into the report's ``timings`` as ``<stage>_s``: ``setup`` (the scenario's
model, the grid and the Brownian batch), ``riccati`` (the chosen solver),
``feedback`` (the gain ``Theta = -K^+ L`` and its regularity), ``checks`` (the
enabled checks, in ``CHECKS`` order) and ``artifacts``.  The checks read one
memoized closed-loop cost of :mod:`slqkit.evaluate` and step the closed loop as
arm 0 of their arm passes; the perturbation library is built once, when
completion of squares or the sweep is enabled.  The run writes:

* ``report.json`` — config echo, Riccati summary, regularity report,
  verification residuals/flags, timings, and the artifact manifest;
* ``riccati.csv`` — ``(t, path_id, P, Lambda, K, L)`` trajectories (all grid
  nodes for the first up-to-16 path ids; deterministic runs export their
  single path in full);
* ``sweep.csv`` — ``(perturbation_id, epsilon, J, J_minus_Jfb, std_err)``;
* ``regularity.csv`` — ``(path_id, sqnorm_theta)`` for every path.

Floats in CSVs are written with 17 significant digits, and identical configs
reproduce every CSV byte for byte.  Exit status: 0 all enabled checks passed,
2 a check ran and failed, and a failure by its row of ``_EXITS``.
The output directory may be overridden with the ``OUTPUT_DIR`` environment
variable.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidArgumentError, SlqError, _integer, _real
from .evaluate import (
    DISC_ALLOWANCE,
    N_SE,
    _completion_of_squares,
    counterexample_divergence_probe,
    make_perturbations,
    optimality_sweep,
    value_identity_check,
)
from .feedback import regularity_diagnostics, stationarity_residual, synthesize
from .grid import _path_count, _step_count, make_grid, sample_brownian
from .pinv import SOLVE_TOL
from .problem import (
    CoefficientModel,
    InitialCondition,
    scenario_counterexample,
    scenario_deterministic,
    scenario_example1,
)
from .riccati import (
    RegressionBasis,
    _gains,
    closed_form_counterexample,
    closed_form_example1,
    solve_bsre_regression,
    solve_deterministic,
)

__all__ = ["ExperimentConfig", "RunReport", "load_config", "run", "main"]


def _custom_model(cfg: ExperimentConfig):
    """The model of ``cfg.custom_model``'s factory at ``cfg.T``.  A factory that cannot
    be imported or called, or whose call raises what is not an ``SlqError`` (nor a
    ``MemoryError``), is a config error on ``custom_model``."""
    mod_name, _, attr = cfg.custom_model.partition(":")
    try:
        factory = getattr(importlib.import_module(mod_name), attr)
    except (ImportError, AttributeError) as exc:
        raise ConfigError(f"cannot import custom model {cfg.custom_model!r}: {exc}",
                          field="custom_model") from exc
    if not callable(factory):
        raise ConfigError(f"custom model {cfg.custom_model!r} is a {type(factory).__name__}, "
                          "not a callable", field="custom_model")
    try:
        model = factory(cfg.T)
    except (SlqError, MemoryError):
        raise
    except Exception as exc:
        raise ConfigError(f"custom model {cfg.custom_model!r} failed: {type(exc).__name__}: "
                          f"{exc}", field="custom_model") from exc
    if not isinstance(model, CoefficientModel):
        raise ConfigError(f"custom model {cfg.custom_model!r} returned a "
                          f"{type(model).__name__}, not a CoefficientModel", field="custom_model")
    return model


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
    "synthesis": SOLVE_TOL,  # pointwise PSD/range tolerance
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


def _admit(fld: str, rule, value, name: str | None = None, **bounds):
    """``rule(value, name or fld, **bounds)``, its refusal re-raised as ``fld``'s ConfigError."""
    try:
        return rule(value, name or fld, **bounds)
    except InvalidArgumentError as exc:
        raise ConfigError(f"config field '{fld}': {exc}", field=fld) from None


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
    cfg.T = _admit("T", _real, cfg.T, minimum=0.0, strict=True)
    cfg.steps = _admit("steps", _step_count, cfg.steps)
    cfg.paths = _admit("paths", _path_count, cfg.paths, N=cfg.steps)
    cfg.seed = _admit("seed", _integer, cfg.seed)
    cfg.start_index = _admit("start_index", _integer, cfg.start_index, minimum=0)
    _expect(cfg.start_index < cfg.steps, "start_index",
            f"must be below steps = {cfg.steps}, got {cfg.start_index}")
    _expect(isinstance(cfg.eta, list) and cfg.eta, "eta",
            f"must be a non-empty list of finite reals, got {cfg.eta!r}")
    cfg.eta = [_admit("eta", _real, v, f"eta[{k}]") for k, v in enumerate(cfg.eta)]
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
        _admit("tolerances", _real, value, name, minimum=0.0)
        _expect(name != "basis_degree" or float(value).is_integer(), "tolerances",
                f"basis_degree must be an integer, got {value!r}")
    cfg.tolerances = {k: float(v) for k, v in cfg.tolerances.items()}
    _expect(isinstance(cfg.output_dir, str) and cfg.output_dir, "output_dir",
            "must be a non-empty path string")
    _expect(isinstance(cfg.deterministic, list) and len(cfg.deterministic) == 7,
            "deterministic", "must be a list of 7 finite reals [a,b,c,d,q,r,g]")
    cfg.deterministic = [_admit("deterministic", _real, v, f"deterministic[{k}]")
                         for k, v in enumerate(cfg.deterministic)]
    if cfg.scenario == "custom-from-file":
        spec = cfg.custom_model if isinstance(cfg.custom_model, str) else ""
        mod_name, colon, attr = spec.partition(":")
        _expect(mod_name and colon and attr, "custom_model",
                f"must be 'module:callable' for custom-from-file, got {cfg.custom_model!r}")
    return cfg


def _read_config(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except ValueError as exc:  # not UTF-8, malformed, or an integer beyond Python's digit limit
        raise ConfigError(f"config is not valid JSON: {exc}", field="json") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object", field="json")
    return raw


def load_config(path: str) -> ExperimentConfig:
    """Load and validate a JSON experiment config.

    Raises
    ------
    OSError
        Missing or unreadable file (io-error; exit code 3 from the CLI).
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

    Module errors (solver failures, finite escape, ...) and a MemoryError
    propagate to the caller after a partial ``report.json`` with a ``failed``
    marker has been written; check *failures* do not raise — they are
    recorded in the report and reflected in the exit code by :func:`main`.
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

        with stage("checks_s"):
            if "completion_of_squares" in enabled or "optimality" in enabled:
                perts = make_perturbations(grid, batch, model.m)
            # Completion of squares goes first: its arm pass steps the closed
            # loop as arm 0 and fills the memo that the value identity reads.
            if "completion_of_squares" in enabled:
                eps = config.tolerance("cos_epsilon")
                # Ten perturbed arms on the closed loop; arm 0's own identity is the replay.
                controls = [(True, eps, v) for _, v in perts]
                replay, *results = _completion_of_squares(sol, law, model, controls, init,
                                                          batch, n_se, disc)
                arms = {pid: {"residual": res.residual, "tolerance": res.tolerance,
                              "passed": res.passed} for (pid, _), res in zip(perts, results)}
                worst = max(arm["residual"] for arm in arms.values())
                arms["closed_loop_replay"] = {"residual": replay.residual, "tolerance": 0.0,
                                              "passed": replay.residual == 0.0}
                pass_flags["completion_of_squares"] = {
                    "passed": all(arm["passed"] for arm in arms.values()), "residual": worst,
                    "tolerance": None, "arms": arms,
                }
            if "value_identity" in enabled:
                res = value_identity_check(sol, law, model, init, batch, n_se, disc)
                pass_flags["value_identity"] = {
                    k: getattr(res, k) for k in ("passed", "residual", "tolerance", "details")}
            if "optimality" in enabled:
                sweep = optimality_sweep(sol, law, model, init, batch, perts, n_se=n_se,
                                         disc_coeff=disc)
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
        # The report lists the checks in CHECKS order, whatever order they ran in.
        pass_flags = {name: pass_flags[name] for name in CHECKS if name in pass_flags}
        verification = {
            "value_identity_residual": pass_flags.get("value_identity", {}).get("residual"),
            "cos_identity_residual": pass_flags.get("completion_of_squares", {}).get("residual"),
            "stationarity_residual": pass_flags.get("stationarity", {}).get("residual"),
            "optimality_sweep": sweep_rows, "pass_flags": pass_flags,
        }

        with stage("artifacts_s"):
            n_export = min(RICCATI_CSV_MAX_PATHS, sol.P.n_paths)
            # A 1x1 field keeps its signed entry; a larger one reads as its Frobenius norm.
            fields = [v[..., 0, 0] if v.shape[2:] == (1, 1) else np.linalg.norm(v, axis=(2, 3))
                      for v in (sol.P.values, sol.Lambda.values,
                                *_gains(sol, paths=slice(n_export)))]
            # Python floats format faster than NumPy scalars, to the same text.
            points, columns = grid.points.tolist(), [f[:, :n_export].tolist() for f in fields]
            riccati_rows = (
                [_fmt(points[i]), str(p)] + [_fmt(f[i][p]) for f in columns]
                for p in range(n_export) for i in range(grid.N + 1)
            )
            _write_csv(out_dir / "riccati.csv",
                       ["t", "path_id", "P", "Lambda", "K", "L"], riccati_rows)
            _write_csv(out_dir / "sweep.csv", _SWEEP_COLUMNS,
                       ([row["perturbation_id"]] + [_fmt(row[k]) for k in _SWEEP_COLUMNS[1:]]
                        for row in sweep_rows))
            _write_csv(out_dir / "regularity.csv", ["path_id", "sqnorm_theta"],
                       ([str(p), _fmt(v)] for p, v in enumerate(reg.pathwise_sqnorm.tolist())))

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
    except (SlqError, MemoryError) as exc:
        report = RunReport(
            config=_echo(config),
            riccati_summary={}, regularity={}, verification={},
            timings=timings, manifest=["report.json"],
            all_passed=False, failed=f"{type(exc).__name__}: {exc}",
        )
        _emit_report(report)
        raise


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's own exit 2 would read as a failed check
        raise ConfigError(message)


def tolerance(text: str) -> tuple:
    """``--tol NAME=VAL`` as ``(NAME, float(VAL))``, admitted with the config; argparse
    reports the ValueError of a text without ``=`` or a real as an invalid tolerance."""
    name, value = text.split("=", 1)
    return name, float(value)


def _apply_flag_overrides(raw: dict, args: argparse.Namespace) -> dict:
    """``raw`` with the given flags laid over it, left for :func:`_validate_config`
    to admit: a ``tolerances`` that is not a map stays as it is, to be refused."""
    flags = {k: v for k, v in vars(args).items() if v is not None and k != "config"}
    tols = flags.pop("tolerances", None)
    if tols and isinstance(raw.get("tolerances", {}), dict):
        flags["tolerances"] = {**raw.get("tolerances", {}), **dict(tols)}
    return {**raw, **flags}


# A failure's exit code and stderr label, by the first class of its MRO in the table.
_EXITS = {
    ConfigError: (3, "config-error"),
    OSError: (3, "io-error"),  # a config file or an output directory
    SlqError: (4, "runtime-error: {}"),
    MemoryError: (4, "runtime-error: {}"),
}


def main(argv: list | None = None) -> int:
    """Entry point: parse flags, run the experiment, and map its outcome to an exit
    code: 0 all enabled checks passed, 2 a check failed, a failure by ``_EXITS``."""
    parser = _Parser(
        prog="slqkit",
        description="Run a stochastic linear-quadratic control experiment "
                    "and write verification artifacts.",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--scenario", help=f"one of {', '.join(SCENARIOS)}")
    parser.add_argument("--T", type=float, help="horizon")
    parser.add_argument("--steps", type=int, help="grid steps")
    parser.add_argument("--paths", type=int, help="Monte Carlo paths")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", dest="output_dir", help="output directory")
    parser.add_argument("--solver", help=f"one of {', '.join(SOLVERS)}")
    parser.add_argument("--check", action="append", dest="checks", metavar="NAME",
                        help="enable a specific check (repeatable)")
    parser.add_argument("--tol", action="append", dest="tolerances", metavar="NAME=VAL",
                        type=tolerance, help="override a tolerance (repeatable)")
    try:
        args = parser.parse_args(argv)
        raw = _read_config(args.config) if args.config else {}
        config = _validate_config(_apply_flag_overrides(raw, args))
        report = run(config)
    except tuple(_EXITS) as exc:
        code, label = next(_EXITS[c] for c in type(exc).__mro__ if c in _EXITS)
        print(f"{label.format(type(exc).__name__)}: {exc}", file=sys.stderr)
        return code
    out_dir = os.environ.get("OUTPUT_DIR") or config.output_dir
    for name, info in report.verification["pass_flags"].items():
        print(f"{name}: {'PASS' if info['passed'] else 'FAIL'}")
    print(f"artifacts written to {out_dir}")
    return 0 if report.all_passed else 2


if __name__ == "__main__":
    raise SystemExit(main())
