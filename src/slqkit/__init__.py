"""Stochastic linear-quadratic control toolkit.

Solves scalar-noise stochastic LQ problems with random coefficients on a
uniform time grid: backward stochastic Riccati equations (closed forms,
least-squares Monte Carlo regression, deterministic Runge-Kutta), feedback
synthesis through pseudoinverses, and Monte Carlo verification of the value
identity, the completion-of-squares identity, and feedback optimality.
Includes a model whose optimal feedback gain exists pathwise but fails every
square-integrability bound as the grid is refined, plus the tooling to
measure that divergence.

The usual entry points::

    from slqkit import make_grid, sample_brownian, scenario_example1
    from slqkit import closed_form_example1, synthesize, value_identity_check

or, from a shell, the ``slqkit`` command (see :mod:`slqkit.cli`).
"""

from .errors import (
    ConfigError,
    DriverSingularError,
    FiniteEscapeError,
    InvalidArgumentError,
    RegressionSingularError,
    RiccatiSingularError,
    SlqError,
    SynthesisInfeasibleError,
)
from .grid import BrownianBatch, PathArray, TimeGrid, make_grid, sample_brownian
from .pinv import SOLVE_TOL, PinvResult, pinv, pinv_limit, psd_check, range_inclusion
from .problem import (
    ZETA_SCALE,
    Y_UPPER,
    CoefficientModel,
    CoefficientTable,
    CounterexamplePaths,
    InitialCondition,
    coefficient_table,
    counterexample_paths,
    delta_grid,
    example1_y,
    scenario_counterexample,
    scenario_deterministic,
    scenario_example1,
)
from .riccati import (
    RegressionBasis,
    RiccatiSolution,
    closed_form_counterexample,
    closed_form_example1,
    discrete_recursion_oracle,
    solve_bsre_regression,
    solve_deterministic,
)
from .feedback import (
    FeedbackLaw,
    RegularityReport,
    StationarityResult,
    regularity_diagnostics,
    stationarity_residual,
    synthesize,
)
from .evaluate import (
    DISC_ALLOWANCE,
    CheckResult,
    CostEstimate,
    ProbeResult,
    ProbeRow,
    SweepResult,
    SweepRow,
    completion_of_squares_check,
    cost,
    counterexample_divergence_probe,
    make_perturbations,
    optimality_sweep,
    simulate_closed_loop,
    simulate_open_loop,
    value_identity_check,
)
from .cli import ExperimentConfig, RunReport, load_config, main, run

__version__ = "0.1.0"

__all__ = [
    "BrownianBatch",
    "CheckResult",
    "CoefficientModel",
    "CoefficientTable",
    "ConfigError",
    "CostEstimate",
    "CounterexamplePaths",
    "DISC_ALLOWANCE",
    "DriverSingularError",
    "ExperimentConfig",
    "FeedbackLaw",
    "FiniteEscapeError",
    "InitialCondition",
    "InvalidArgumentError",
    "PathArray",
    "PinvResult",
    "ProbeResult",
    "ProbeRow",
    "RegressionBasis",
    "RegressionSingularError",
    "RegularityReport",
    "RiccatiSingularError",
    "RiccatiSolution",
    "RunReport",
    "SOLVE_TOL",
    "SlqError",
    "StationarityResult",
    "SweepResult",
    "SweepRow",
    "SynthesisInfeasibleError",
    "TimeGrid",
    "Y_UPPER",
    "ZETA_SCALE",
    "closed_form_counterexample",
    "closed_form_example1",
    "coefficient_table",
    "completion_of_squares_check",
    "cost",
    "counterexample_divergence_probe",
    "counterexample_paths",
    "delta_grid",
    "discrete_recursion_oracle",
    "example1_y",
    "load_config",
    "main",
    "make_grid",
    "make_perturbations",
    "optimality_sweep",
    "pinv",
    "pinv_limit",
    "psd_check",
    "range_inclusion",
    "regularity_diagnostics",
    "run",
    "sample_brownian",
    "scenario_counterexample",
    "scenario_deterministic",
    "scenario_example1",
    "simulate_closed_loop",
    "simulate_open_loop",
    "solve_bsre_regression",
    "solve_deterministic",
    "stationarity_residual",
    "synthesize",
    "value_identity_check",
]
