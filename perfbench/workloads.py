"""The benchmark's four workloads.

Each workload is a class with two steps:

* ``__init__(seed, size)`` is set-up: it builds grids, models and configs
  from the seed and samples nothing;
* ``round()`` runs the work once, from the first call into slqkit's
  numerical code to the verdict, and returns ``(ops, outputs)``.  ``ops`` is
  a list of ``(operation, passed)`` pairs checked against closed forms and
  method properties computed in :mod:`checks`; ``outputs`` is what tracing
  must leave unchanged (CSV digests, probe rows, fitted values).

Every round of a workload attempts the same operations, so the share of
failed operations does not depend on how many rounds a run fits.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from pathlib import Path

import numpy as np

import slqkit

import checks

T = 1.0
CSV_NAMES = ("riccati.csv", "sweep.csv", "regularity.csv")

# Problem sizes.  "full" is what the benchmark measures; "tiny" keeps the
# benchmark's own tests fast and exercises the same code paths.
SIZES = {
    "full": {
        "cli_steps": 256, "cli_paths": 1000,
        "probe_steps": (256, 1024, 4096), "probe_paths": (1000, 2000, 4000),
        "probe_chunk": 1000,
        "oracle_steps": 64, "oracle_analytic_steps": 256, "oracle_mc_paths": 1000,
        "reg_steps": 256, "reg_paths": 20000,
    },
    "tiny": {
        "cli_steps": 32, "cli_paths": 100,
        "probe_steps": (64, 128, 256), "probe_paths": (100, 200, 400),
        "probe_chunk": 150,
        "oracle_steps": 16, "oracle_analytic_steps": 64, "oracle_mc_paths": 100,
        "reg_steps": 32, "reg_paths": 2000,
    },
}


class Example1Cli:
    """``slqkit --scenario example1`` with the four default checks."""

    def __init__(self, seed: int, size: str, out_dir: Path):
        s = SIZES[size]
        self.seed = seed
        self.steps, self.paths = s["cli_steps"], s["cli_paths"]
        self.out_dir = out_dir
        self.argv = ["--scenario", "example1", "--steps", str(self.steps),
                     "--paths", str(self.paths), "--seed", str(seed),
                     "--out", str(out_dir)]
        self.first_digests = None

    def round(self):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = slqkit.cli.main(self.argv)
        verdicts = dict(line.split(": ", 1) for line in stdout.getvalue().splitlines()
                        if ": " in line and not line.startswith("artifacts"))
        report = json.loads((self.out_dir / "report.json").read_text())
        digests = {n: hashlib.sha256((self.out_dir / n).read_bytes()).hexdigest()
                   for n in CSV_NAMES}
        if self.first_digests is None:
            self.first_digests = digests
        # report.json is left out: it records timings, so its size varies.
        artifact_bytes = sum((self.out_dir / n).stat().st_size for n in CSV_NAMES)

        flags = report["verification"]["pass_flags"]
        W = checks.brownian_paths(T, self.steps, self.paths, self.seed)
        expected = checks.example1_theta_sqnorm(T, W)
        rows = (self.out_dir / "regularity.csv").read_text().splitlines()[1:]
        got = [line.split(",") for line in rows]
        regularity_ok = len(got) == self.paths and all(
            int(p) == i and checks.rel_close(float(v), expected[i], 1e-12)
            for i, (p, v) in enumerate(got))
        value = flags["value_identity"]["details"]["value_quadratic_form"]
        p0 = report["riccati_summary"]["P_at_start_mean"]
        replay = flags["completion_of_squares"]["arms"]["closed_loop_replay"]["residual"]

        ops = [(f"check_{name}_pass", verdicts.get(name) == "PASS")
               for name in ("value_identity", "completion_of_squares", "optimality",
                            "stationarity")]
        ops += [
            ("exit_code_0", rc == 0),
            ("value_and_P0_closed_form",
             abs(value - checks.EX1_VALUE) <= 1e-12 and abs(p0 - checks.EX1_P0) <= 1e-12),
            ("regularity_rows_match_theta_cos_over_y", regularity_ok),
            ("cos_replay_residual_exactly_zero", replay == 0.0),
            ("csv_digests_repeat", digests == self.first_digests),
        ]
        return ops, {"digests": digests, "artifact_bytes": artifact_bytes}


class CounterexampleProbe:
    """``counterexample_divergence_probe`` over three refinement rungs."""

    def __init__(self, seed: int, size: str):
        s = SIZES[size]
        self.seed = seed
        self.steps, self.paths = list(s["probe_steps"]), list(s["probe_paths"])
        self.chunk = s["probe_chunk"]

    def round(self):
        probe = slqkit.counterexample_divergence_probe(
            T, self.steps, self.paths, self.seed, chunk_size=self.chunk)
        ops = []
        for row in probe.rows:
            bound = (np.pi ** 2 / 8.0) * checks.harmonic(row.steps) * (1.0 + 1e-12)
            ops.append((f"zeta_sqint_le_harmonic_bound_N{row.steps}",
                        row.max_zeta_sqint <= bound))
            ops.append((f"mean_exp_zeta_sqint_finite_ge_1_N{row.steps}",
                        bool(np.isfinite(row.mean_exp_zeta_sqint))
                        and row.mean_exp_zeta_sqint >= 1.0))
        first = probe.rows[0]
        ref = checks.counterexample_stats(
            T, checks.brownian_paths(T, first.steps, first.n_paths, self.seed))
        ops.append(("first_rung_matches_stopped_processes",
                    all(checks.rel_close(getattr(first, k), v, 1e-12)
                        for k, v in ref.items())))
        rows = [dataclasses.asdict(r) for r in probe.rows]
        return ops, {"rows": rows, "growth_ratio": probe.growth_ratio}


def _random_instance(seed: int, k: int, n: int, m: int) -> slqkit.CoefficientModel:
    """Constant-coefficient instance built as in acceptance criterion 6, with
    its dimensions fixed by the caller: entries uniform in [-1, 1], dynamics
    scaled by 1/max(n, m), R >= 0.1 I, Q and G positive semidefinite."""
    rng = np.random.default_rng([seed, k])

    def mat(r, c):
        return rng.uniform(-1.0, 1.0, (r, c))

    A, B, C, D = mat(n, n), mat(n, m), mat(n, n), mat(n, m)

    def psd(d):
        S = rng.uniform(-1.0, 1.0, (d, d))
        M = S @ S.T
        return M / max(1.0, np.abs(M).max())

    Q, G = psd(n), psd(n)
    R = psd(m) * 0.45 + 0.1 * np.eye(m)
    s = float(max(n, m))
    A, B, C, D = A / s, B / s, C / s, D / s

    def const(M):
        return lambda i, W, M=M: M

    return slqkit.CoefficientModel(
        n=n, m=m, A=const(A), B=const(B), C=const(C), D=const(D),
        Q=const(Q), R=const(R), G=lambda W, G=G: G, kind="deterministic",
    )


class DeterministicOracle:
    """ODE vs discrete recursion on random instances, the analytic instance,
    and Monte Carlo checks of the matrix instances' synthesized laws."""

    # One instance per (n, m) pair, so every seed has the same make-up.
    DIMS = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)]

    def __init__(self, seed: int, size: str):
        s = SIZES[size]
        self.seed = seed
        self.grid = slqkit.make_grid(T, s["oracle_steps"])
        self.fine_grid = slqkit.make_grid(T, 2 * s["oracle_steps"])
        self.models = [_random_instance(seed, k, n, m) for k, (n, m) in enumerate(self.DIMS)]
        self.analytic = slqkit.scenario_deterministic(0, 1, 0, 0, 0, 1, 1, T=T)
        self.analytic_grid = slqkit.make_grid(T, s["oracle_analytic_steps"])
        self.inits = [slqkit.InitialCondition(0, np.ones(model.n)) for model in self.models]
        self.mc_paths = s["oracle_mc_paths"]

    def round(self):
        ops = []
        p0 = []
        gap_over_h = []
        batch = None
        for k, model in enumerate(self.models):
            sol = slqkit.solve_deterministic(model, self.grid)
            ode_p0 = sol.P.values[0, 0]
            gaps = [float(np.abs(ode_p0 - slqkit.discrete_recursion_oracle(model, g)
                                 .P.values[0, 0]).max())
                    for g in (self.grid, self.fine_grid)]
            # The recursion is first order and the RK4 solution is far more
            # accurate, so halving h must divide the gap by about 2: the band
            # [1.5, 3] separates first order from zeroth and second.
            ops.append((f"ode_vs_recursion_gap_first_order_{model.n}x{model.m}",
                        gaps[0] > 0.0 and 1.0 / 3.0 <= gaps[1] / gaps[0] <= 2.0 / 3.0))
            p0.append(ode_p0.tolist())
            gap_over_h.append(gaps[0] / self.grid.h)
            if model.n < 2 or model.m < 2:
                continue
            if batch is None:
                batch = slqkit.sample_brownian(self.grid, self.mc_paths, self.seed)
            law = slqkit.synthesize(sol, model)
            vi = slqkit.value_identity_check(sol, law, model, self.inits[k], batch)
            st = slqkit.stationarity_residual(law, sol, model)
            ops.append((f"value_identity_pass_{model.n}x{model.m}", vi.passed))
            ops.append((f"stationarity_le_1e-8_{model.n}x{model.m}", st.max_residual <= 1e-8))
        analytic = slqkit.solve_deterministic(self.analytic, self.analytic_grid)
        a0 = float(analytic.P.values[0, 0, 0, 0])
        ops.append(("analytic_P0_is_1_over_1_plus_T", abs(a0 - 1.0 / (1.0 + T)) <= 1e-6))
        return ops, {"P0": p0, "gap_over_h": gap_over_h, "analytic_P0": a0}


class RegressionFit:
    """``solve_bsre_regression`` on example 1, then synthesis and the
    stationarity residual.

    The batch seed is fixed at 1 whatever the workload seed: the P(0) line
    fails because of a known fault of the method (a W-only regression basis
    for a terminal weight that depends on the integral of sin W), and a
    known failure is kept only on inputs that do not change between runs.
    """

    BATCH_SEED = 1
    KNOWN_FAULT = "P0_within_2pct_of_closed_form"

    def __init__(self, seed: int, size: str):
        s = SIZES[size]
        self.grid = slqkit.make_grid(T, s["reg_steps"])
        self.paths = s["reg_paths"]
        self.model = slqkit.scenario_example1(T)
        self.basis = slqkit.RegressionBasis(3)

    def round(self):
        batch = slqkit.sample_brownian(self.grid, self.paths, self.BATCH_SEED)
        try:
            fit = slqkit.solve_bsre_regression(self.model, self.grid, batch, self.basis)
        except slqkit.SlqError:
            return [("fit_completes", False), ("stationarity_le_1e-8", False),
                    (self.KNOWN_FAULT, False)], {}
        law = slqkit.synthesize(fit, self.model)
        st = slqkit.stationarity_residual(law, fit, self.model, batch.W)
        p0 = float(fit.P.values[0, 0, 0, 0])
        rel_err = abs(p0 - checks.EX1_P0) / checks.EX1_P0
        ops = [("fit_completes", True),
               ("stationarity_le_1e-8", st.max_residual <= 1e-8),
               (self.KNOWN_FAULT, rel_err <= 0.02)]
        return ops, {"P0": p0, "rel_err": rel_err, "stationarity": st.max_residual}


WORKLOADS = {
    "example1-cli": Example1Cli,
    "counterexample-probe": CounterexampleProbe,
    "deterministic-oracle": DeterministicOracle,
    "regression-fit": RegressionFit,
}

# Operations allowed to fail without making a run incorrect: each is a fault
# of the program named in the benchmark's README.
KNOWN_FAULTS = {"regression-fit": {RegressionFit.KNOWN_FAULT}}


def make(name: str, seed: int, size: str, out_dir: Path):
    """Set up workload ``name``; ``out_dir`` receives the CLI's artifacts."""
    if name == "example1-cli":
        return Example1Cli(seed, size, out_dir)
    return WORKLOADS[name](seed, size)
