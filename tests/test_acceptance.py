"""Acceptance suite: one test per shipped guarantee, each at its stated
scale and tolerance, printing a single PASS/FAIL line.

Run with ``python3 -m pytest tests/test_acceptance.py -s`` to see the lines
as they complete (about three minutes total, single-threaded).  The heavy
Monte Carlo criteria share one (N=256, 50 000 paths, seed 1) batch.
Criterion 5 probes a structural discretization effect and currently fails at
its stated scales; its assertion message describes the mechanism, and
nothing is loosened to hide that.
"""

import time

import numpy as np
import pytest

from slqkit.cli import main
from slqkit.evaluate import (
    completion_of_squares_check,
    counterexample_divergence_probe,
    make_perturbations,
    optimality_sweep,
    simulate_closed_loop,
    value_identity_check,
)
from slqkit.feedback import stationarity_residual, synthesize
from slqkit.grid import PathArray, make_grid, sample_brownian
from slqkit.pinv import pinv, pinv_limit
from slqkit.problem import (
    CoefficientModel,
    InitialCondition,
    scenario_counterexample,
    scenario_deterministic,
    scenario_example1,
)
from slqkit.riccati import (
    RegressionBasis,
    closed_form_counterexample,
    closed_form_example1,
    discrete_recursion_oracle,
    solve_bsre_regression,
    solve_deterministic,
)

INIT = InitialCondition(0, np.array([1.0]))


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def ex1():
    """Shared (N=256, 50k paths, seed 1) example-1 instance with feedback."""
    grid = make_grid(1.0, 256)
    batch = sample_brownian(grid, 50_000, seed=1)
    model = scenario_example1(1.0)
    sol = closed_form_example1(grid, batch)
    law = synthesize(sol, model)
    return grid, batch, model, sol, law


@pytest.fixture(scope="module")
def ex1_regression(ex1):
    grid, batch, model, _, _ = ex1
    return solve_bsre_regression(model, grid, batch, RegressionBasis(3))


def test_criterion_1_example1_value_identity(ex1):
    grid, batch, model, sol, law = ex1
    t0 = time.perf_counter()
    res = value_identity_check(sol, law, model, INIT, batch)
    wall = time.perf_counter() - t0
    exact_value = abs(res.details["value_quadratic_form"] - 0.1375) <= 1e-12
    ok = res.passed and exact_value
    _line(1, "example1 value identity (N=256, 50k paths, seed 1)", ok,
          f"|J_fb - 0.1375| = {res.residual:.3e} vs tol {res.tolerance:.3e}, "
          f"J_fb = {res.details['closed_loop_cost']:.7f}, {wall:.1f}s")
    assert ok, (
        f"closed-loop Monte Carlo cost {res.details['closed_loop_cost']} "
        f"differs from the value form 0.1375 by {res.residual} "
        f"(tolerance {res.tolerance})"
    )


def test_criterion_2_regression_solver_vs_closed_form(ex1_regression):
    model = scenario_example1(1.0)
    errors = []
    t0 = time.perf_counter()
    for N, n_paths in ((64, 5_000), (128, 20_000)):
        grid = make_grid(1.0, N)
        batch = sample_brownian(grid, n_paths, seed=1)
        fit = solve_bsre_regression(model, grid, batch, RegressionBasis(3))
        errors.append(abs(float(fit.P.values[0, 0, 0, 0]) - 0.275) / 0.275)
    errors.append(
        abs(float(ex1_regression.P.values[0, 0, 0, 0]) - 0.275) / 0.275)
    wall = time.perf_counter() - t0
    final_ok = errors[-1] <= 0.02
    ladder_ok = all(b <= 1.2 * a for a, b in zip(errors, errors[1:]))
    ok = final_ok and ladder_ok
    _line(2, "regression solver vs closed form (2% line + refinement ladder)",
          ok,
          "rel errors " + "/".join(f"{e:.2%}" for e in errors)
          + f" on (64,5k)/(128,20k)/(256,50k), {wall:.0f}s")
    assert ok, (
        f"fitted-P(0) relative errors {[f'{e:.4f}' for e in errors]} on the "
        "(64,5k)/(128,20k)/(256,50k) ladder miss the 2% line and/or the "
        "monotone-decrease leg: the fit regresses each time slice on "
        "polynomials in W_t alone, while the true solution also depends on "
        "the running integral of sin(W); the distance between that "
        "W-projection and the solution is a bias floor of about 3% that "
        "neither more paths nor more steps reduces"
    )


def test_criterion_3_completion_of_squares(ex1):
    grid, batch, model, sol, law = ex1
    t0 = time.perf_counter()
    _, u_fb = simulate_closed_loop(model, law, INIT, batch)
    replay = completion_of_squares_check(sol, law, model, u_fb, INIT, batch)
    worst = 0.0
    all_ok = True
    for pid, v in make_perturbations(grid, batch, model.m):
        res = completion_of_squares_check(
            sol, law, model, PathArray(u_fb.values + v), INIT, batch)
        all_ok &= res.passed
        worst = max(worst, res.residual)
    wall = time.perf_counter() - t0
    ok = all_ok and replay.residual == 0.0
    _line(3, "completion of squares (10 perturbations + exact replay)", ok,
          f"worst residual {worst:.3e}, replay residual "
          f"{replay.residual!r}, {wall:.0f}s")
    assert ok, (
        f"worst perturbed-control residual {worst} or replay residual "
        f"{replay.residual} (must be exactly 0.0) out of tolerance"
    )


def test_criterion_4_optimality_sweep(ex1):
    grid, batch, model, sol, law = ex1
    t0 = time.perf_counter()
    sweep = optimality_sweep(sol, law, model, INIT, batch)
    wall = time.perf_counter() - t0
    worst_dev = max(abs(r - 100.0) for r in sweep.quad_ratios.values())
    ok = sweep.passed
    _line(4, "optimality sweep (one-sided gaps + quadratic eps-scaling)", ok,
          f"min gap {sweep.min_gap:+.2e}, quad ratios within {worst_dev:.1e} "
          f"of 100, {wall:.0f}s")
    assert ok, (
        f"gaps_ok={sweep.gaps_ok} first_order_ok={sweep.first_order_ok} "
        f"quad_ok={sweep.quad_ok}; min gap {sweep.min_gap}, "
        f"quad ratios {sweep.quad_ratios}"
    )


def test_criterion_5_counterexample_divergence():
    t0 = time.perf_counter()
    probe = counterexample_divergence_probe(
        1.0, [256, 1024, 4096], [1_000, 10_000, 100_000], seed=1)
    wall = time.perf_counter() - t0
    growth_ok = probe.growth_ratio >= 10.0 and probe.growth_monotone
    ito_ok = all(r.ito_violations == 0 for r in probe.rows)
    y_ok = all(r.y_violations == 0 for r in probe.rows)
    ok = growth_ok and ito_ok and y_ok
    viols = ", ".join(
        f"{r.ito_violations}/{r.n_paths}" for r in probe.rows)
    _line(5, "counterexample divergence (envelopes + >=10x gain growth)", ok,
          f"growth ratio {probe.growth_ratio:.1f} (monotone), envelope "
          f"violations {viols}, {wall:.0f}s")
    assert ok, (
        f"stopped-envelope violations on {viols} paths across the "
        "(256,1e3)/(1024,1e4)/(4096,1e5) rungs: a path whose threshold "
        "crossing lands m steps before the horizon overshoots the stopped "
        "sum by an O(1/sqrt(m)) normal increment, so order-one overshoots "
        "persist at every step count under any adapted grid stopping rule; "
        "the same late-crossing tails are what produce the (passing) "
        f"gain-norm growth ratio {probe.growth_ratio:.1f} >= 10"
    )


def _random_instance(seed: int) -> CoefficientModel:
    """Constant-coefficient instance: dims <= 3, entries uniform in [-1, 1],
    dynamics scaled by 1/max(n, m) so generator norms stay comparable across
    dimensions, R >= 0.1 I, Q and G positive semidefinite."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 4))

    def mat(r, c):
        return rng.uniform(-1.0, 1.0, (r, c))

    A, B, C, D = mat(n, n), mat(n, m), mat(n, n), mat(n, m)

    def psd(k):
        S = rng.uniform(-1.0, 1.0, (k, k))
        M = S @ S.T
        return M / max(1.0, np.abs(M).max())

    Q, G = psd(n), psd(n)
    R = psd(m) * 0.45 + 0.1 * np.eye(m)
    s = float(max(n, m))
    A, B, C, D = A / s, B / s, C / s, D / s

    def const(M):
        return lambda i, W, M=M: M

    return CoefficientModel(
        n=n, m=m, A=const(A), B=const(B), C=const(C), D=const(D),
        Q=const(Q), R=const(R), G=lambda W, G=G: G, kind="deterministic",
    )


def test_criterion_6_deterministic_oracle_agreement():
    grid = make_grid(1.0, 64)
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(1, 101):
        model = _random_instance(seed)
        p_ode = solve_deterministic(model, grid).P.values[0, 0]
        p_dp = discrete_recursion_oracle(model, grid).P.values[0, 0]
        worst = max(worst, float(np.abs(p_ode - p_dp).max()))
    agree_ok = worst <= 5.0 * grid.h
    classical = solve_deterministic(
        scenario_deterministic(0, 1, 0, 0, 0, 1, 1, T=1.0), make_grid(1.0, 256))
    p0 = float(classical.P.values[0, 0, 0, 0])
    exact_ok = abs(p0 - 0.5) <= 1e-6
    wall = time.perf_counter() - t0
    ok = agree_ok and exact_ok
    _line(6, "continuous vs discrete Riccati on 100 random instances", ok,
          f"worst t=0 gap {worst:.4f} vs 5h = {5.0 * grid.h:.4f}; analytic "
          f"instance |P(0)-0.5| = {abs(p0 - 0.5):.1e}, {wall:.0f}s")
    assert ok, (
        f"worst ODE-vs-recursion gap {worst} exceeds {5.0 * grid.h} "
        f"or analytic P(0) = {p0} misses 0.5 by more than 1e-6"
    )


def test_criterion_7_pseudoinverse_suite():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        A = rng.uniform(-1.0, 1.0, size=(rows, cols))
        if rng.random() < 0.5 and min(rows, cols) > 1:
            A[:, -1] = A[:, 0]
        Ad = pinv(A).pinv
        worst = max(worst, float(np.abs(A @ Ad @ A - A).max()),
                    float(np.abs(Ad @ A @ Ad - Ad).max()),
                    float(np.abs((A @ Ad) - (A @ Ad).T).max()),
                    float(np.abs((Ad @ A) - (Ad @ A).T).max()))
    penrose_ok = worst <= 1e-10
    M = np.array([[3.0, 1.0], [1.0, 2.0]])
    exact = pinv(M).pinv
    errs_full = [float(np.abs(pinv_limit(M, d) - exact).max())
                 for d in (10.0 ** -k for k in range(2, 9))]
    # On a rank-deficient matrix the regularized inverse amplifies null-space
    # roundoff by 1/delta, so per-decade steps bottom out near delta = 1e-8;
    # two-decade strides keep each step above that float64 floor.
    rng2 = np.random.default_rng(3)
    A = rng2.uniform(-1.0, 1.0, size=(4, 3))
    A[:, 2] = A[:, 0] + A[:, 1]
    Ad = pinv(A).pinv
    errs_rank = [float(np.abs(pinv_limit(A, d) - Ad).max())
                 for d in (1e-2, 1e-4, 1e-6, 1e-8)]
    mono_ok = (all(b < a for a, b in zip(errs_full, errs_full[1:]))
               and all(b < a for a, b in zip(errs_rank, errs_rank[1:])))
    ok = penrose_ok and mono_ok
    _line(7, "pseudoinverse identities (1000 draws) + limit formula", ok,
          f"worst identity residual {worst:.2e} vs 1e-10, limit errors "
          f"strictly decreasing over delta = 1e-2..1e-8: {mono_ok}")
    assert ok, (
        f"worst identity residual {worst} or non-monotone limit convergence"
    )


def test_criterion_8_stationarity(ex1, ex1_regression):
    grid, batch, model, sol, law = ex1
    t0 = time.perf_counter()
    r_ex1 = stationarity_residual(law, sol, model, batch.W).max_residual
    cgrid = make_grid(1.0, 512)
    cbatch = sample_brownian(cgrid, 200, seed=1)
    cmodel = scenario_counterexample(1.0)
    csol = closed_form_counterexample(cgrid, cbatch)
    claw = synthesize(csol, cmodel)
    r_cex = stationarity_residual(claw, csol, cmodel, cbatch.W).max_residual
    rlaw = synthesize(ex1_regression, model)
    r_reg = stationarity_residual(
        rlaw, ex1_regression, model, batch.W).max_residual
    wall = time.perf_counter() - t0
    ok = r_ex1 <= 1e-8 and r_cex <= 1e-8 and r_reg <= 1e-8
    _line(8, "stationarity max |L + K Theta| on every synthesized law", ok,
          f"closed-form {r_ex1:.1e} / {r_cex:.1e}, regression {r_reg:.1e}, "
          f"all vs 1e-8, {wall:.0f}s")
    assert ok, (
        f"stationarity residuals example1 {r_ex1}, counterexample {r_cex}, "
        f"regression {r_reg} exceed 1e-8"
    )


def test_criterion_9_cli_byte_identical_reruns(tmp_path, capsys):
    t0 = time.perf_counter()
    outs = []
    for sub in ("run_a", "run_b"):
        out = tmp_path / sub
        rc = main(["--scenario", "example1", "--steps", "64", "--paths", "500",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        outs.append(out)
    wall = time.perf_counter() - t0
    capsys.readouterr()  # drop the CLI's own PASS lines
    names = ("riccati.csv", "sweep.csv", "regularity.csv")
    ok = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
             for n in names)
    _line(9, "CLI determinism", ok,
          f"riccati/sweep/regularity CSVs byte-identical across two full "
          f"runs, {wall:.0f}s")
    assert ok, "CSV artifacts differ between identical CLI runs"
