"""Tests for the four backward-Riccati solution routes."""

import dataclasses
import re

import numpy as np
import pytest

from slqkit.errors import (
    DriverSingularError,
    FiniteEscapeError,
    InvalidArgumentError,
    RegressionSingularError,
    RiccatiSingularError,
)
from slqkit.grid import PathArray, make_grid, sample_brownian
from slqkit.problem import (
    Y_SHIFT,
    ZETA_SCALE,
    CoefficientModel,
    CoefficientTable,
    scenario_counterexample,
    scenario_deterministic,
    scenario_example1,
)
from slqkit.riccati import (
    RegressionBasis,
    RiccatiSolution,
    _design_matrix,
    _projector,
    _whiten,
    closed_form_counterexample,
    closed_form_example1,
    discrete_recursion_oracle,
    solve_bsre_regression,
    solve_deterministic,
)

CLASSICAL = scenario_deterministic(0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, T=1.0)


def random_constant_instance(seed, normalized=True):
    """Random constant-coefficient instance with PSD weights.

    ``normalized`` divides the dynamics matrices by ``max(n, m)`` so the
    generator scale stays comparable across dimensions; the raw draw is kept
    reachable for the convergence-order test below.
    """
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
    if normalized:
        s = float(max(n, m))
        A, B, C, D = A / s, B / s, C / s, D / s

    def const(M):
        return lambda i, W, M=M: M

    return CoefficientModel(
        n=n, m=m, A=const(A), B=const(B), C=const(C), D=const(D),
        Q=const(Q), R=const(R), G=lambda W, G=G: G, kind="deterministic",
    )


# ---------------------------------------------------------------------------
# Deterministic ODE solver
# ---------------------------------------------------------------------------

def test_ode_classical_instance_matches_closed_form():
    # For (a,b,c,d,q,r,g) = (0,1,0,0,0,1,1) the solution is P(t) = 1/(1+T-t).
    grid = make_grid(1.0, 64)
    sol = solve_deterministic(CLASSICAL, grid)
    P = sol.P.values[:, 0, 0, 0]
    exact = 1.0 / (1.0 + grid.T - grid.points)
    assert abs(P[0] - 0.5) <= 1e-6
    np.testing.assert_allclose(P, exact, rtol=0.0, atol=1e-8)
    # Terminal condition holds exactly and Lambda is exact zero.
    assert P[-1] == 1.0
    np.testing.assert_array_equal(sol.Lambda.values, 0.0)
    assert sol.solver_tag == "deterministic_ode"


def test_ode_derived_gain_ingredients():
    grid = make_grid(1.0, 32)
    sol = solve_deterministic(CLASSICAL, grid)
    P = sol.P.values
    # K = r + d^2 P = 1 and L = b P + d(cP) = P for this instance.
    np.testing.assert_allclose(sol.K.values, 1.0, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(sol.L.values, P, rtol=0.0, atol=1e-14)


def test_ode_zero_problem():
    model = scenario_deterministic(0, 0, 0, 0, 0, 0, 0, T=1.0)
    sol = solve_deterministic(model, make_grid(1.0, 16))
    np.testing.assert_array_equal(sol.P.values, 0.0)
    np.testing.assert_array_equal(sol.K.values, 0.0)
    np.testing.assert_array_equal(sol.L.values, 0.0)


def test_ode_no_drift_multiplicative_control_case():
    # b = c = 0 with d = 1 makes L = 0, so the driver vanishes: P stays at g.
    model = scenario_deterministic(0, 0, 0, 1, 0, 1, 0.5, T=1.0)
    sol = solve_deterministic(model, make_grid(1.0, 16))
    np.testing.assert_allclose(sol.P.values, 0.5, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(sol.K.values, 1.5, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(sol.L.values, 0.0, rtol=0.0, atol=1e-12)


def test_ode_kind_guard():
    with pytest.raises(InvalidArgumentError):
        solve_deterministic(scenario_example1(1.0), make_grid(1.0, 8))


def test_ode_indefinite_weight_raises_with_time():
    model = scenario_deterministic(0, 1, 0, 0, 0, -1.0, 1, T=1.0)
    with pytest.raises(RiccatiSingularError) as exc:
        solve_deterministic(model, make_grid(1.0, 8))
    assert exc.value.time == pytest.approx(1.0)


def test_ode_range_failure_is_seen_at_any_scale():
    # K = 0 and L = P: L leaves K's range at the first stage, also where
    # ||L||^2 overflows.
    for g in (1.0, 1e160):
        model = scenario_deterministic(0, 1, 0, 0, 0, 0, g, T=1.0)
        with pytest.raises(RiccatiSingularError, match="range condition failed at t=1$"):
            solve_deterministic(model, make_grid(1.0, 8))


def test_ode_finite_escape():
    # Unstable drift with no stabilizing control: the backward solution
    # overflows before reaching t = 0 and must surface as FiniteEscapeError,
    # never as a shape/typing error from the solvability predicates.
    model = scenario_deterministic(500, 0, 0, 0, 1, 1, 1, T=1.0)
    with pytest.raises(FiniteEscapeError) as exc:
        solve_deterministic(model, make_grid(1.0, 64))
    assert exc.value.time is not None


@pytest.mark.parametrize("coeffs", [
    (500, 0, 0, 1e3, 1, 1, 1),  # K = R + d^2 P overflows while P is finite
    (0, 1e200, 0, 0, 1, 1, 1e200),  # L = b P overflows at the first stage
], ids=["K", "L"])
def test_ode_finite_escape_through_K_or_L(coeffs):
    # An overflow that shows first in K or L is the same escape, not an
    # input error from the solvability kernel.
    model = scenario_deterministic(*coeffs, T=1.0)
    with pytest.raises(FiniteEscapeError, match="blew up near t=") as exc:
        solve_deterministic(model, make_grid(1.0, 64))
    assert exc.value.time is not None


def test_a_tiny_K_with_a_large_L_escapes_rather_than_fail_range():
    # K = 1.65e-66 and |L| = 2e250 at the first stage: L is in K's range, so
    # the stage passes, and the solution blows up one stage later.
    model = scenario_deterministic(0, -2.77e124, -6.57e22, -0.0, -0.00605, 1.65e-66, -7.2e125,
                                   T=1.0)
    with pytest.raises(FiniteEscapeError,
                       match=r"^Riccati solution blew up near t=0\.984375$") as exc:
        solve_deterministic(model, make_grid(1.0, 8))
    assert exc.value.time == 0.984375


def test_deterministic_routes_escape_after_a_step_and_guard_their_kind():
    # b = d = 0 keeps every stage finite (K = R, L = 0), so only a step's own
    # arithmetic overflows: the RK4 combination of four -q slopes after the
    # first substep, and the recursion's sym(P) once P = 1 + 8 h q nears 1e308.
    model = scenario_deterministic(0, 0, 0, 0, 1e308, 1, 1, T=1.0)
    grid = make_grid(1.0, 8)
    for route, message, time in (
            (solve_deterministic, "Riccati solution blew up near t=0.96875", 0.96875),
            (discrete_recursion_oracle, "discrete recursion blew up at t=0", 0.0)):
        with pytest.raises(FiniteEscapeError) as exc:
            route(model, grid)
        assert str(exc.value) == message and exc.value.time == time
        with pytest.raises(InvalidArgumentError) as exc:
            route(scenario_example1(1.0), grid)
        assert str(exc.value) == (
            f"{route.__name__} needs kind=\"deterministic\", got 'path_dependent'")


# ---------------------------------------------------------------------------
# Discrete dynamic-programming oracle
# ---------------------------------------------------------------------------

def test_oracle_classical_instance_is_exact_flow():
    # For the classical instance the one-step minimization reproduces the
    # exact Moebius flow P <- P/(1 + hP), so the recursion lands on the
    # continuum solution at every node up to roundoff.
    grid = make_grid(1.0, 64)
    sol = discrete_recursion_oracle(CLASSICAL, grid)
    P = sol.P.values[:, 0, 0, 0]
    exact = 1.0 / (1.0 + grid.T - grid.points)
    np.testing.assert_allclose(P, exact, rtol=0.0, atol=1e-12)


def test_oracle_matches_ode_within_first_order_band():
    # Independent discretizations of the same continuous problem must agree
    # at t = 0 within 5h across a seeded sweep of random instances.
    grid = make_grid(1.0, 64)
    allowance = 5.0 * grid.h
    for seed in range(20):
        model = random_constant_instance(seed)
        p_ode = solve_deterministic(model, grid).P.values[0, 0]
        p_dp = discrete_recursion_oracle(model, grid).P.values[0, 0]
        assert np.abs(p_dp - p_ode).max() <= allowance


def test_oracle_ode_gap_halves_with_h():
    # On a raw (unnormalized) draw the agreement constant is large but the
    # order is clean: the t=0 gap halves as N doubles.
    model = random_constant_instance(2, normalized=False)
    gaps = {}
    for N in (64, 128, 256):
        grid = make_grid(1.0, N)
        p_ode = solve_deterministic(model, grid).P.values[0, 0]
        p_dp = discrete_recursion_oracle(model, grid).P.values[0, 0]
        gaps[N] = float(np.abs(p_dp - p_ode).max())
    assert 0.4 <= gaps[128] / gaps[64] <= 0.6
    assert 0.4 <= gaps[256] / gaps[128] <= 0.6


def test_oracle_terminal_and_zero_cases():
    model = scenario_deterministic(0, 0, 0, 0, 0, 0, 0, T=1.0)
    sol = discrete_recursion_oracle(model, make_grid(1.0, 8))
    np.testing.assert_array_equal(sol.P.values, 0.0)
    sol = discrete_recursion_oracle(CLASSICAL, make_grid(1.0, 8))
    assert sol.P.values[-1, 0, 0, 0] == 1.0


def test_oracle_guards_and_errors():
    with pytest.raises(InvalidArgumentError):
        discrete_recursion_oracle(scenario_example1(1.0), make_grid(1.0, 8))
    with pytest.raises(RiccatiSingularError) as exc:
        discrete_recursion_oracle(
            scenario_deterministic(0, 1, 0, 0, 0, -1.0, 1, T=1.0), make_grid(1.0, 8)
        )
    assert exc.value.time == pytest.approx(0.875)
    with pytest.raises(FiniteEscapeError):
        discrete_recursion_oracle(
            scenario_deterministic(500, 0, 0, 0, 1, 1, 1e300, T=1.0), make_grid(1.0, 16)
        )


def test_a_stage_K_off_symmetry_is_refused_by_the_batched_verdict():
    # R_0 is asymmetric by 1e-7, which the table admits against the largest
    # weight on the grid (1e-8 * (1 + 100)); K = R at the first node is not
    # symmetric within the solvability tolerance, so the completed sweep's
    # batched verdict refuses it and the stage-by-stage replay names it.
    R_0 = np.array([[1.0, 1e-7], [0.0, 1.0]])
    model = CoefficientModel(
        n=1, m=2, A=lambda i, W: np.zeros((1, 1)), B=lambda i, W: np.ones((1, 2)),
        C=lambda i, W: np.zeros((1, 1)), D=lambda i, W: np.zeros((1, 2)),
        Q=lambda i, W: np.ones((1, 1)), R=lambda i, W: R_0 if i == 0 else 100.0 * np.eye(2),
        G=lambda W: np.ones((1, 1)), kind="deterministic")
    grid = make_grid(1.0, 8)
    for solve, asymmetry in ((solve_deterministic, "1.000e-07"),
                             (discrete_recursion_oracle, "1.250e-08")):
        with pytest.raises(InvalidArgumentError, match=re.escape(
                f"K is not symmetric within tolerance (max asymmetry {asymmetry})")):
            solve(model, grid)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def test_closed_form_example1_time_zero_values():
    # W_0 = 0 pins y_0 = 2 + T/2 = 2.5, hence P(0), K(0), L(0) are exact.
    grid = make_grid(1.0, 64)
    batch = sample_brownian(grid, 50, seed=1)
    sol = closed_form_example1(grid, batch)
    np.testing.assert_allclose(sol.P.values[0], 0.275, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(sol.K.values[0], 0.4, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(sol.Lambda.values[0], -0.16, rtol=0.0, atol=1e-15)
    np.testing.assert_array_equal(sol.L.values, sol.Lambda.values)
    assert sol.solver_tag == "closed_form_example1"


def test_closed_form_example1_terminal_matches_G_bitwise():
    grid = make_grid(1.0, 32)
    batch = sample_brownian(grid, 100, seed=2)
    sol = closed_form_example1(grid, batch)
    g = scenario_example1(1.0).terminal(batch.W, batch.n_paths)
    np.testing.assert_array_equal(sol.P.values[-1], g)


def test_closed_form_example1_K_is_reciprocal_y():
    # K = R + P = 1/y stays in [1/4, 1] for T = 1.
    grid = make_grid(1.0, 64)
    batch = sample_brownian(grid, 200, seed=1)
    sol = closed_form_example1(grid, batch)
    K = sol.K.values
    assert K.min() >= 0.25 - 1e-12
    assert K.max() <= 1.0 + 1e-12


def test_closed_form_example1_discrete_equation_residual():
    # The closed form solves the *continuous* equation; its discrete residual
    #   res_i = P_{i+1} - P_i - h Lam_i^2 / (R + P_i) - Lam_i dW_i
    # accumulates to a signed sum whose typical size shrinks like sqrt(h).
    medians = {}
    for N in (128, 512):
        grid = make_grid(1.0, N)
        batch = sample_brownian(grid, 2000, seed=1)
        sol = closed_form_example1(grid, batch)
        P = sol.P.values[:, :, 0, 0]
        lam = sol.Lambda.values[:, :, 0, 0]
        res = (P[1:] - P[:-1]
               - grid.h * lam[:-1] ** 2 / (0.125 + P[:-1])
               - lam[:-1] * batch.increments)
        medians[N] = float(np.median(np.abs(res.sum(axis=0))))
    assert medians[512] < medians[128]
    assert 0.35 <= medians[512] / medians[128] <= 0.65


def test_closed_form_counterexample_time_zero_values():
    grid = make_grid(1.0, 64)
    batch = sample_brownian(grid, 50, seed=1)
    sol = closed_form_counterexample(grid, batch)
    np.testing.assert_allclose(sol.P.values[0], 1.0 / Y_SHIFT - 0.25,
                               rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(sol.K.values[0], 1.0 / Y_SHIFT, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(sol.Lambda.values[0], -ZETA_SCALE / Y_SHIFT**2,
                               rtol=0.0, atol=1e-15)
    assert sol.solver_tag == "closed_form_counterexample"


def test_closed_form_counterexample_terminal_matches_G_bitwise():
    grid = make_grid(1.0, 32)
    batch = sample_brownian(grid, 100, seed=2)
    sol = closed_form_counterexample(grid, batch)
    g = scenario_counterexample(1.0).terminal(batch.W, batch.n_paths)
    np.testing.assert_array_equal(sol.P.values[-1], g)


def test_closed_forms_evaluate_G_only_on_one_path_prefixes(monkeypatch):
    # Their coefficients are constants: they are read from the one-path
    # zero prefix, never tabulated (with G) on the batch.
    shapes = []
    terminal = CoefficientModel.terminal

    def recording(self, W_full, n_paths):
        shapes.append(W_full.shape)
        return terminal(self, W_full, n_paths)

    monkeypatch.setattr(CoefficientModel, "terminal", recording)
    grid = make_grid(1.0, 16)
    batch = sample_brownian(grid, 50, seed=3)
    for solve in (closed_form_example1, closed_form_counterexample):
        shapes.clear()
        solve(grid, batch)
        assert shapes == [(17, 1)]


def test_closed_form_grid_mismatch_guard():
    batch = sample_brownian(make_grid(1.0, 16), 4, seed=1)
    with pytest.raises(InvalidArgumentError):
        closed_form_example1(make_grid(1.0, 8), batch)
    with pytest.raises(InvalidArgumentError):
        closed_form_counterexample(make_grid(1.0, 8), batch)


# ---------------------------------------------------------------------------
# Regression solver
# ---------------------------------------------------------------------------

def test_regression_basis_guard():
    # A bool or non-integer degree is refused here, not by a bare TypeError
    # inside the solve or a silent int() truncation.
    for degree in (-1, 2.5, "3", True, 3.0, None):
        with pytest.raises(InvalidArgumentError):
            RegressionBasis(degree=degree)
    assert RegressionBasis().degree == 3
    assert RegressionBasis(np.int64(2)).degree == 2


def test_regression_example1_recovers_initial_value():
    grid = make_grid(1.0, 64)
    batch = sample_brownian(grid, 5000, seed=1)
    sol = solve_bsre_regression(scenario_example1(1.0), grid, batch)
    p0 = sol.P.values[0, :, 0, 0]
    # Time-zero fit collapses to a constant (degenerate slice).
    assert p0.max() - p0.min() == 0.0
    # Hard range from the y-bounds, and proximity to the closed form 0.275.
    assert 0.125 <= p0[0] <= 0.875
    assert abs(p0[0] - 0.275) <= 0.05 * 0.275
    # Terminal slice is the exact terminal weight; last martingale
    # coefficient is stored as exact zero.
    g = scenario_example1(1.0).terminal(batch.W, batch.n_paths)
    np.testing.assert_array_equal(sol.P.values[-1], g)
    np.testing.assert_array_equal(sol.Lambda.values[-1], 0.0)
    assert sol.solver_tag == "regression_mc"


def test_regression_deterministic_data_reduces_to_euler():
    # With path-independent data every cross-sectional fit is exact, so the
    # scheme degenerates to the explicit Euler recursion: spread-free slices,
    # near-zero martingale coefficients, first-order agreement with the ODE.
    grid = make_grid(1.0, 32)
    batch = sample_brownian(grid, 200, seed=1)
    sol = solve_bsre_regression(CLASSICAL, grid, batch)
    P = sol.P.values[:, :, 0, 0]
    assert np.ptp(P, axis=1).max() <= 1e-12
    assert np.abs(sol.Lambda.values).max() <= 1e-12
    assert abs(P[0, 0] - 0.5) <= 5.0 * grid.h


def test_regression_degree_zero_runs():
    grid = make_grid(1.0, 32)
    batch = sample_brownian(grid, 500, seed=1)
    sol = solve_bsre_regression(scenario_example1(1.0), grid, batch,
                                RegressionBasis(degree=0))
    assert np.isfinite(sol.P.values).all()
    assert 0.125 <= sol.P.values[0, 0, 0, 0] <= 0.875


def test_regression_guards():
    grid = make_grid(1.0, 8)
    batch = sample_brownian(grid, 10, seed=1)
    two = random_constant_instance(5)  # n=3 draw
    with pytest.raises(InvalidArgumentError):
        solve_bsre_regression(two, grid, batch)
    with pytest.raises(InvalidArgumentError):
        solve_bsre_regression(scenario_example1(1.0), make_grid(1.0, 16), batch)
    path_dep = CoefficientModel(
        n=1, m=1, A=CLASSICAL.A, B=CLASSICAL.B, C=CLASSICAL.C, D=CLASSICAL.D,
        Q=CLASSICAL.Q, R=CLASSICAL.R, G=CLASSICAL.G, kind="path_dependent",
    )
    with pytest.raises(InvalidArgumentError):
        solve_bsre_regression(path_dep, grid, batch)


def test_regression_example1_tracks_closed_form_pathwise():
    # P is a function of example 1's declared features, so the fit follows
    # the closed form path by path, not only in the mean at t = 0.
    grid = make_grid(1.0, 64)
    batch = sample_brownian(grid, 5000, seed=1)
    fit = solve_bsre_regression(scenario_example1(1.0), grid, batch).P.values
    exact = closed_form_example1(grid, batch).P.values
    for i in (16, 32, 48):
        assert np.median(np.abs(fit[i] - exact[i])) <= 0.005


def test_regression_collinear_and_degenerate_slices_fit():
    grid = make_grid(1.0, 64)
    batch = sample_brownian(grid, 500, seed=1)
    sin_w, integral = scenario_example1(1.0).features(batch.W)
    # t_0: every feature is zero, so the fit is the plain mean.
    Z0 = _whiten([sin_w[0], integral[0]])
    assert Z0.shape == (0, 500)
    y = batch.increments[0]
    np.testing.assert_array_equal(_projector(_design_matrix(Z0, 3), 0)(y),
                                  np.full(500, np.mean(y)))
    # A feature constant up to rounding is constant too, and a direction
    # that two features share up to rounding counts once.
    noise = np.random.default_rng(0).standard_normal(500)
    assert _whiten([0.1 + 1e-14 * noise]).shape == (0, 500)
    assert _whiten([sin_w[5], sin_w[5] + 1e-9 * noise]).shape == (1, 500)
    # t_1: the integral is (h/2) sin W_1, exactly collinear with the first
    # feature; it counts once, and the slice fits without error.
    np.testing.assert_array_equal(integral[1], 0.5 * grid.h * sin_w[1])
    Z1 = _whiten([sin_w[1], integral[1]])
    assert Z1.shape == (1, 500)
    X1 = _design_matrix(Z1, 3)
    assert X1.shape == (3, 500)
    fit = _projector(X1, 1)
    for target in (sin_w[1], integral[1], sin_w[1] ** 3):
        np.testing.assert_allclose(fit(target), target, rtol=0, atol=1e-12)
    # t_2: two independent features, all ten monomials of total degree <= 3.
    Z2 = _whiten([sin_w[2], integral[2]])
    np.testing.assert_allclose(Z2 @ Z2.T / 500, np.eye(2), atol=1e-12)
    assert _design_matrix(Z2, 3).shape == (9, 500)


def test_regression_slice_fit_matches_lstsq():
    # The shared Gram factorization gives the least-squares fit on [1, X].
    grid = make_grid(1.0, 64)
    batch = sample_brownian(grid, 2000, seed=3)
    feats = scenario_example1(1.0).features(batch.W)
    target = closed_form_example1(grid, batch).P.values[:, :, 0, 0]
    for i in (2, 30, 63):
        X = _design_matrix(_whiten([f[i] for f in feats]), 3)
        design = np.column_stack([np.ones(2000), X.T])
        for y in (target[i], target[i] * batch.increments[i]):
            ref = design @ np.linalg.lstsq(design, y, rcond=None)[0]
            np.testing.assert_allclose(_projector(X, i)(y), ref, rtol=0, atol=1e-12)


def test_regression_declared_features():
    grid = make_grid(1.0, 16)
    batch = sample_brownian(grid, 300, seed=2)
    base = scenario_example1(1.0)

    def with_features(features, kind="path_dependent"):
        return CoefficientModel(
            n=1, m=1, A=base.A, B=base.B, C=base.C, D=base.D, Q=base.Q,
            R=base.R, G=base.G, kind=kind, features=features)

    # Declaring W itself is the default of a markov_in_W model, bit for bit.
    declared = solve_bsre_regression(with_features(lambda W: (W,), "markov_in_W"),
                                     grid, batch)
    default = solve_bsre_regression(with_features(None, "markov_in_W"), grid, batch)
    np.testing.assert_array_equal(declared.P.values, default.P.values)
    # Malformed features are refused.
    for bad in (lambda W: (), lambda W: (W[:-1],),
                lambda W: (np.where(W > 0, np.nan, W),)):
        with pytest.raises(InvalidArgumentError):
            solve_bsre_regression(with_features(bad), grid, batch)


def test_regression_rank_deficient_design_raises():
    # Two paths cannot identify four basis coefficients.
    grid = make_grid(1.0, 8)
    batch = sample_brownian(grid, 2, seed=1)
    with pytest.raises(RegressionSingularError) as exc:
        solve_bsre_regression(scenario_example1(1.0), grid, batch)
    assert exc.value.step == 7
    # Three paths cannot either; their design is singular up to rounding.
    w = sample_brownian(grid, 3, seed=1).W
    for i in range(1, 9):
        with pytest.raises(RegressionSingularError):
            _projector(_design_matrix(_whiten([w[i]]), 3), i)


def test_regression_driver_clamp_breach_raises():
    # A negative r with a zero terminal weight leaves K = r < 0 at the first
    # backward step, which fails the kernel's PSD verdict; the solver must
    # refuse rather than divide.  (K = 1e-7 is solvable under the paper's rule.)
    grid = make_grid(1.0, 8)
    batch = sample_brownian(grid, 50, seed=1)
    model = scenario_deterministic(0, 0, 0, 1, 0, -1e-7, 0, T=1.0)
    with pytest.raises(DriverSingularError) as exc:
        solve_bsre_regression(model, grid, batch)
    assert exc.value.step == 7


def _condition(route, model, grid, batch):
    """``route``'s solution on ``model``, or the condition it failed: "escape",
    "range" or "psd", read from the error its route documents (else its message)."""
    try:
        return route(model, grid, batch)
    except FiniteEscapeError:
        return "escape"
    except (RiccatiSingularError, DriverSingularError) as exc:
        named = [c for c, words in (("range", ("range",)), ("psd", ("PSD", "semidefinit")))
                 if any(w in str(exc) for w in words)]
        return named[0] if len(named) == 1 else str(exc)


@pytest.mark.parametrize("coeffs,verdict", [
    ((0, 1, 0, 0, 0, 0, 0), None),        # K = 0 and L = 0 everywhere: P = 0
    ((0, 0, 0, 1, 0, 1e-7, 0), None),     # K = 1e-7 > 0: solvable, however small
    ((0, 1, 0, 0, 0, 0, 1), "range"),     # K = 0, L = 1
    ((0, 0, 0, 1, 0, -1e-7, 0), "psd"),   # K = -1e-7
    ((1e300, 1, 1, 1, 1, 1, 1), "escape"),
], ids=["K-and-L-zero", "K-tiny", "L-off-range", "K-negative", "escape"])
def test_ode_and_regression_routes_judge_a_step_by_one_rule(coeffs, verdict):
    # The regression route used to floor K at 1e-6, refusing the first two
    # rows, and to end the last in an InvalidArgumentError on its output.
    grid = make_grid(1.0, 8)
    batch = sample_brownian(grid, 50, seed=1)
    model = scenario_deterministic(*coeffs, T=1.0)
    routes = (lambda m, g, b: solve_deterministic(m, g), solve_bsre_regression)
    outcomes = [_condition(route, model, grid, batch) for route in routes]
    if verdict is not None:
        assert outcomes == [verdict, verdict]
        return
    for sol in outcomes:  # q = g = 0 and no L: P stays exactly 0
        assert isinstance(sol, RiccatiSolution) and (sol.P.values == 0.0).all()


def test_regression_driver_failures_name_step_path_and_verdict():
    grid = make_grid(1.0, 8)
    batch = sample_brownian(grid, 50, seed=1)
    for coeffs, message in (
            ((0, 1, 0, 0, 0, 0, 1), "regression range condition failed at step 7 (path 0, K=0"),
            ((0, 0, 0, 1, 0, -1e-7, 0), "regression control weight not PSD at step 7 (path 0, "
                                        "K=-1.000e-07)")):
        with pytest.raises(DriverSingularError, match=re.escape(message)):
            solve_bsre_regression(scenario_deterministic(*coeffs, T=1.0), grid, batch)
    with pytest.raises(FiniteEscapeError,
                       match="regression solution at step 6 became non-finite, first path 0") as exc:
        solve_bsre_regression(scenario_deterministic(1e300, 1, 1, 1, 1, 1, 1, T=1.0), grid, batch)
    assert exc.value.time == grid.points[6]


def test_regression_basis_larger_than_the_batch_is_refused_before_it_is_built():
    # A degree-1e9 basis in one feature has 1e9 + 1 columns, far more than 40
    # paths can identify: the step is refused at once, as the rank rule would.
    grid = make_grid(1.0, 8)
    batch = sample_brownian(grid, 40, seed=1)
    with pytest.raises(RegressionSingularError, match="outnumbers 40 paths") as exc:
        solve_bsre_regression(scenario_example1(1.0), grid, batch, RegressionBasis(10**9))
    assert exc.value.step == 7


def test_regression_counterexample_completes_at_moderate_scale():
    # At (512, 200) with seed 1 the sampled discrete Y stays positive, so the
    # backward induction runs to completion with a finite fitted solution.
    grid = make_grid(1.0, 512)
    batch = sample_brownian(grid, 200, seed=1)
    sol = solve_bsre_regression(scenario_counterexample(1.0), grid, batch)
    assert np.isfinite(sol.P.values).all()
    g = scenario_counterexample(1.0).terminal(batch.W, batch.n_paths)
    np.testing.assert_array_equal(sol.P.values[-1], g)


# ---------------------------------------------------------------------------
# RiccatiSolution: the pair and the table it was solved on
# ---------------------------------------------------------------------------

def _example1_solution(N=8, n_paths=5):
    grid = make_grid(1.0, N)
    return closed_form_example1(grid, sample_brownian(grid, n_paths, seed=3))


def test_derived_gains_are_fresh_read_only_arrays():
    sol = _example1_solution()
    assert sol.K.values is not sol.K.values
    for derived in (sol.K.values, sol.L.values):
        assert not derived.flags.writeable


def test_reading_K_derives_K_alone(traced_peak):
    # A reader of K pays for one K array and node-sized temporaries, not L.
    grid = make_grid(1.0, 64)
    sol = solve_bsre_regression(scenario_example1(1.0), grid,
                                sample_brownian(grid, 50_000, seed=1))
    K, peak = traced_peak(lambda: sol.K.values)
    assert K.shape == (65, 50_000, 1, 1)
    assert peak < K.nbytes + 4 * sol.P.values[0].nbytes


def test_solution_refuses_a_table_of_another_step_count():
    sol = _example1_solution()
    table = CoefficientTable(scenario_example1(1.0), np.zeros((17, 1)))
    with pytest.raises(InvalidArgumentError,
                       match="coefficient table has 17 time rows, expected 9"):
        dataclasses.replace(sol, table=table)
    # A pair of another step count used to be admitted, and synthesis raised IndexError.
    with pytest.raises(InvalidArgumentError, match="P has 5 time rows, expected 9"):
        dataclasses.replace(sol, P=PathArray(sol.P.values[:5]))


def test_solution_refuses_a_table_of_another_path_count():
    sol = _example1_solution()
    table = CoefficientTable(scenario_example1(1.0), np.zeros((9, 3)))
    with pytest.raises(InvalidArgumentError,
                       match="coefficient table has 3 paths, expected 1 or 5"):
        dataclasses.replace(sol, table=table)
    with pytest.raises(InvalidArgumentError, match="Lambda has 2 paths, expected 1 or 5"):
        dataclasses.replace(sol, Lambda=PathArray(sol.Lambda.values[:, :2]))
    # One path row, or one per path of P, is accepted.
    for k in (1, 5):
        dataclasses.replace(sol, table=CoefficientTable(scenario_example1(1.0), np.zeros((9, k))))


def test_solution_refuses_a_table_of_another_state_dimension():
    sol = _example1_solution()
    model = scenario_deterministic(0, 0, 0, 0, 0, 1, 0, T=1.0)
    two = dataclasses.replace(
        model, n=2, A=lambda i, W: np.zeros((2, 2)), B=lambda i, W: np.zeros((2, 1)),
        C=lambda i, W: np.zeros((2, 2)), D=lambda i, W: np.zeros((2, 1)),
        Q=lambda i, W: np.zeros((2, 2)), G=lambda W: np.zeros((2, 2)))
    with pytest.raises(InvalidArgumentError,
                       match=re.escape("P entries must be (2, 2) for the model, got (1, 1)")):
        dataclasses.replace(sol, table=CoefficientTable(two, np.zeros((9, 1))))
