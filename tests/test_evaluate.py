"""Tests for simulation, cost evaluation, verification checks, and the probe."""

import dataclasses
import math
import re
import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from slqkit.errors import FiniteEscapeError, InvalidArgumentError
from slqkit.feedback import FeedbackLaw, stationarity_residual, synthesize
from slqkit.grid import _SHARED, BrownianBatch, PathArray, make_grid, sample_brownian
from slqkit.problem import (
    CoefficientModel,
    CoefficientTable,
    InitialCondition,
    coefficient_table,
    scenario_deterministic,
    scenario_example1,
)
from slqkit.riccati import (
    RiccatiSolution,
    closed_form_example1,
    discrete_recursion_oracle,
    solve_bsre_regression,
    solve_deterministic,
)
from slqkit import evaluate
from slqkit.evaluate import (
    completion_of_squares_check,
    cost,
    counterexample_divergence_probe,
    make_perturbations,
    optimality_sweep,
    simulate_closed_loop,
    simulate_open_loop,
    value_identity_check,
)

INIT = InitialCondition(0, np.array([1.0]))


def _example1_setup(N=64, n_paths=500, seed=1):
    grid = make_grid(1.0, N)
    batch = sample_brownian(grid, n_paths, seed=seed)
    model = scenario_example1(1.0)
    sol = closed_form_example1(grid, batch)
    law = synthesize(sol, model)
    return grid, batch, model, sol, law


def _zero_control(grid, n_paths, m=1):
    return PathArray(np.zeros((grid.N + 1, n_paths, m, 1)))


def _constant_solution(model, grid, p):
    """A one-path solution with every entry of ``P`` equal to ``p`` and zero ``Lambda``."""
    P = np.full((grid.N + 1, 1, model.n, model.n), p)
    return RiccatiSolution(grid, PathArray(P), PathArray(np.zeros_like(P)),
                           coefficient_table(model, np.zeros((grid.N + 1, 1))))


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def test_zero_problem_keeps_state_and_control_trivial():
    model = scenario_deterministic(0, 0, 0, 0, 0, 0, 0, T=1.0)
    grid = make_grid(1.0, 8)
    batch = sample_brownian(grid, 5, seed=1)
    sol = solve_deterministic(model, grid)
    law = synthesize(sol, model)
    x, u = simulate_closed_loop(model, law, INIT, batch)
    np.testing.assert_array_equal(x.values, 1.0)
    np.testing.assert_array_equal(u.values, 0.0)


def test_open_loop_drift_only_is_exact_ramp():
    # b = 1 with constant u: x_i = eta + u * t_i exactly.
    model = scenario_deterministic(0, 1, 0, 0, 0, 1, 1, T=1.0)
    grid = make_grid(1.0, 10)
    batch = sample_brownian(grid, 3, seed=1)
    u = PathArray(np.full((11, 3, 1, 1), 2.0))
    x = simulate_open_loop(model, u, INIT, batch)
    expected = np.broadcast_to((1.0 + 2.0 * grid.points)[:, None], (11, 3))
    np.testing.assert_allclose(x.values[:, :, 0, 0], expected,
                               rtol=0.0, atol=1e-14)


def test_open_loop_multiplicative_noise_is_exact_product():
    # c = 1 with u = 0: x_{i+1} = x_i (1 + dW_i), an exact running product.
    model = scenario_deterministic(0, 0, 1, 0, 0, 1, 1, T=1.0)
    grid = make_grid(1.0, 16)
    batch = sample_brownian(grid, 7, seed=2)
    x = simulate_open_loop(model, _zero_control(grid, 7), INIT, batch)
    expected = np.ones((17, 7))
    expected[1:] = np.cumprod(1.0 + batch.increments, axis=0)
    np.testing.assert_allclose(x.values[:, :, 0, 0], expected, rtol=0.0, atol=1e-12)


def test_closed_loop_replay_is_bit_exact():
    # Replaying the recorded closed-loop control through the open-loop
    # simulator reproduces the closed-loop states bit for bit.
    grid, batch, model, sol, law = _example1_setup(N=32, n_paths=50)
    x_fb, u_fb = simulate_closed_loop(model, law, INIT, batch)
    x_re = simulate_open_loop(model, u_fb, INIT, batch)
    np.testing.assert_array_equal(x_re.values, x_fb.values)


def test_simulation_respects_start_index():
    model = scenario_deterministic(0, 1, 0, 0, 0, 1, 1, T=1.0)
    grid = make_grid(1.0, 8)
    batch = sample_brownian(grid, 3, seed=1)
    init = InitialCondition(4, np.array([2.0]))
    u = PathArray(np.full((9, 3, 1, 1), 1.0))
    x = simulate_open_loop(model, u, init, batch)
    np.testing.assert_array_equal(x.values[:5], 2.0)
    assert x.values[5, 0, 0, 0] == pytest.approx(2.0 + grid.h)


def test_simulation_guards():
    model = scenario_deterministic(0, 1, 0, 0, 0, 1, 1, T=1.0)
    grid = make_grid(1.0, 8)
    batch = sample_brownian(grid, 3, seed=1)
    with pytest.raises(InvalidArgumentError):
        simulate_open_loop(model, _zero_control(grid, 3),
                           InitialCondition(8, np.array([1.0])), batch)
    with pytest.raises(InvalidArgumentError):
        simulate_open_loop(model, _zero_control(make_grid(1.0, 4), 3), INIT, batch)
    with pytest.raises(InvalidArgumentError):
        simulate_open_loop(model, PathArray(np.zeros((9, 3, 2, 1))), INIT, batch)


def test_a_start_at_the_last_index_is_refused_before_any_step(monkeypatch):
    # From s = N a run would take no step and cost the terminal term alone.
    grid, batch, model, sol, law = _example1_setup(N=16, n_paths=20)
    late = InitialCondition(16, np.array([1.0]))
    u = _zero_control(grid, 20)

    def no_step(*args):
        raise AssertionError("stepped before the start-index guard")

    monkeypatch.setattr(evaluate, "_step", no_step)
    for run in (lambda: simulate_closed_loop(model, law, late, batch),
                lambda: simulate_open_loop(model, u, late, batch),
                lambda: value_identity_check(sol, law, model, late, batch),
                lambda: completion_of_squares_check(sol, law, model, u, late, batch),
                lambda: optimality_sweep(sol, law, model, late, batch)):
        with pytest.raises(InvalidArgumentError, match=r"^start_index 16 must be < N = 16$"):
            run()


def test_a_gain_that_overflows_a_finite_state_raises_an_escape():
    # Theta_3 = 1e308 on path 2 takes u = Theta x past float-max while x is
    # still finite: the next state is non-finite, and no RuntimeWarning leaks.
    # Every check steps the closed loop as the first arm of its stack, or on
    # its own first, so each names that escape.
    model = scenario_deterministic(0, 1, 0, 0, 0, 1, 1, T=1.0)
    grid = make_grid(1.0, 8)
    batch = sample_brownian(grid, 4, seed=1)
    sol = solve_deterministic(model, grid)
    theta = np.zeros((9, 4, 1, 1))
    theta[3, 2] = 1e308
    law = FeedbackLaw(theta=PathArray(theta), source=sol)
    init = InitialCondition(0, np.array([10.0]))
    zero = _zero_control(grid, 4)
    for run in (lambda: simulate_closed_loop(model, law, init, batch),
                lambda: value_identity_check(sol, law, model, init, batch),
                lambda: completion_of_squares_check(sol, law, model, zero, init, batch),
                lambda: optimality_sweep(sol, law, model, init, batch)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FiniteEscapeError,
                               match="^state became non-finite at step 4, first path 2$"):
                run()


def test_an_overflowing_control_that_moves_no_state_is_an_escape():
    # With B = D = 0, Theta_3 = 1e308 on path 2 overflows u = Theta x and no
    # state: the recording raises the escape at the control's index, before
    # any PathArray refuses it as an argument, and the checks at its cost.
    model = scenario_deterministic(0, 0, 0, 0, 0, 1, 1, T=1.0)
    grid = make_grid(1.0, 8)
    batch = sample_brownian(grid, 4, seed=1)
    sol = solve_deterministic(model, grid)
    theta = np.zeros((9, 4, 1, 1))
    theta[3, 2] = 1e308
    law = FeedbackLaw(theta=PathArray(theta), source=sol)
    init = InitialCondition(0, np.array([10.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FiniteEscapeError,
                           match="^control became non-finite at step 3, first path 2$"):
            simulate_closed_loop(model, law, init, batch)
        for run in (lambda: value_identity_check(sol, law, model, init, batch),
                    lambda: optimality_sweep(sol, law, model, init, batch)):
            with pytest.raises(FiniteEscapeError, match="^cost became non-finite, first path 2$"):
                run()


@pytest.mark.parametrize("shape", [(2, 1), (1, 2), (2, 2)])
def test_a_gain_of_the_wrong_shape_is_refused(shape):
    # Example 1 has m = n = 1.  A wider gain whose first entry is the right
    # one used to run on its first row and column, silently truncated.
    grid, batch, model, sol, law = _example1_setup(N=16, n_paths=20)
    theta = np.zeros((17, 20) + shape)
    theta[..., :1, :1] = law.theta.values
    wide = FeedbackLaw(theta=PathArray(theta), source=sol)
    u = _zero_control(grid, 20)
    match = re.escape(f"gain entries must be (1, 1) for the model, got {shape}")
    for run in (lambda: simulate_closed_loop(model, wide, INIT, batch),
                lambda: value_identity_check(sol, wide, model, INIT, batch),
                lambda: completion_of_squares_check(sol, wide, model, u, INIT, batch),
                lambda: optimality_sweep(sol, wide, model, INIT, batch)):
        with pytest.raises(InvalidArgumentError, match=match):
            run()


def _overflowing_2x2():
    """Constant 2x2 model whose drift overflows a nonzero state at step 2."""
    A, Z = 1e155 * np.array([[1.0, 0.5], [0.5, 1.0]]), np.zeros((2, 2))
    return CoefficientModel(
        n=2, m=2, A=lambda i, W: A, B=lambda i, W: Z, C=lambda i, W: Z, D=lambda i, W: Z,
        Q=lambda i, W: Z, R=lambda i, W: np.eye(2), G=lambda W: np.eye(2),
        kind="deterministic",
    )


@pytest.mark.parametrize("model, init, first_path", [
    (scenario_deterministic(1e155, 0, 0, 0, 0, 1, 1, T=1.0), INIT, 0),
    # Path 0 starts at the origin and never leaves it; path 1 escapes.
    (_overflowing_2x2(), InitialCondition(0, np.array([[0.0, 0.0], [1.0, -0.5]])), 1),
], ids=["1x1", "2x2"])
def test_simulation_raises_on_state_overflow(model, init, first_path):
    grid = make_grid(1.0, 8)
    batch = sample_brownian(grid, 2, seed=1)
    with pytest.raises(FiniteEscapeError, match=f"at step 2, first path {first_path}$"):
        simulate_open_loop(model, _zero_control(grid, 2, model.m), init, batch)


# ---------------------------------------------------------------------------
# Cost
# ---------------------------------------------------------------------------

def test_cost_zero_problem_is_zero():
    model = scenario_deterministic(0, 0, 0, 0, 0, 0, 0, T=1.0)
    grid = make_grid(1.0, 8)
    batch = sample_brownian(grid, 4, seed=1)
    x = simulate_open_loop(model, _zero_control(grid, 4), INIT, batch)
    est = cost(model, x, _zero_control(grid, 4), INIT, grid, batch)
    assert est.mean == 0.0
    np.testing.assert_array_equal(est.per_path, 0.0)


def test_cost_exact_on_constant_state():
    # Zero dynamics hold x at 1 and u at 0, so J = (q T + g) / 2 exactly.
    model = scenario_deterministic(0, 0, 0, 0, 2.0, 1.0, 3.0, T=1.0)
    grid = make_grid(1.0, 16)
    batch = sample_brownian(grid, 6, seed=1)
    x = simulate_open_loop(model, _zero_control(grid, 6), INIT, batch)
    est = cost(model, x, _zero_control(grid, 6), INIT, grid, batch)
    np.testing.assert_allclose(est.per_path, 2.5, rtol=0.0, atol=1e-14)
    assert est.std_error == pytest.approx(0.0, abs=1e-14)
    assert est.components["running_state"] == pytest.approx(1.0, abs=1e-14)
    assert est.components["running_control"] == 0.0
    assert est.components["terminal"] == pytest.approx(1.5, abs=1e-14)
    assert est.mean == pytest.approx(
        sum(est.components.values()), abs=1e-12)


def test_cost_guards():
    model = scenario_deterministic(0, 0, 0, 0, 1, 1, 1, T=1.0)
    grid = make_grid(1.0, 8)
    x = PathArray(np.zeros((9, 4, 1, 1)))
    with pytest.raises(InvalidArgumentError):
        cost(model, PathArray(np.zeros((7, 4, 1, 1))), _zero_control(grid, 4),
             INIT, grid)
    with pytest.raises(InvalidArgumentError):
        cost(model, x, _zero_control(grid, 3), INIT, grid)
    with pytest.raises(InvalidArgumentError):
        cost(model, x, _zero_control(grid, 4), INIT, grid,
             batch=sample_brownian(make_grid(1.0, 4), 4, seed=1))
    with pytest.raises(InvalidArgumentError, match="the batch 8 steps to T = 2.0"):
        cost(model, x, _zero_control(grid, 4), INIT, grid,
             batch=sample_brownian(make_grid(2.0, 8), 4, seed=1))


def test_cost_refusal_names_both_grids_and_path_counts():
    model = scenario_deterministic(0, 0, 0, 0, 1, 1, 1, T=1.0)
    grid = make_grid(1.0, 8)
    x = PathArray(np.zeros((9, 4, 1, 1)))
    with pytest.raises(InvalidArgumentError) as exc:
        cost(model, x, _zero_control(grid, 4), INIT, grid,
             batch=sample_brownian(make_grid(3.0, 16), 4, seed=1))
    assert str(exc.value) == "grid has 8 steps to T = 1.0, the batch 16 steps to T = 3.0"
    with pytest.raises(InvalidArgumentError, match="state has 4 paths, expected 1 or 5"):
        cost(model, x, _zero_control(grid, 4), INIT, grid,
             batch=sample_brownian(grid, 5, seed=1))
    # Entries beyond the model's (1, 1) used to be dropped: both costs read 1.5.
    u = _zero_control(grid, 4)
    for what, x_, u_, shape in (("state", PathArray(np.ones((9, 4, 2, 1))), u, (2, 1)),
                                ("control", x, PathArray(np.ones((9, 4, 1, 3))), (1, 3))):
        with pytest.raises(InvalidArgumentError, match=re.escape(
                f"{what} entries must be {(1, 1)} for the model, got {shape}")):
            cost(model, x_, u_, INIT, grid)


def test_cost_without_batch_needs_a_deterministic_model():
    # A path-dependent G evaluated on an all-zero path would be silently wrong.
    model = scenario_example1(1.0)
    grid = make_grid(1.0, 8)
    x = PathArray(np.ones((9, 4, 1, 1)))
    with pytest.raises(InvalidArgumentError):
        cost(model, x, _zero_control(grid, 4), INIT, grid)
    batch = sample_brownian(grid, 4, seed=1)
    assert math.isfinite(cost(model, x, _zero_control(grid, 4), INIT, grid, batch).mean)


def _entry_points(good):
    """Every public reader of a model's coefficients, as ``(name, call)`` where
    ``call(model)`` runs it with everything else built from the model ``good``."""
    grid = make_grid(1.0, 8)
    batch = sample_brownian(grid, 20, seed=1)
    sol = solve_deterministic(good, grid)
    law = synthesize(sol, good)
    x, u = simulate_closed_loop(good, law, INIT, batch)
    return [
        ("cost", lambda model: cost(model, x, u, INIT, grid, batch)),
        ("simulate_closed_loop", lambda model: simulate_closed_loop(model, law, INIT, batch)),
        ("simulate_open_loop", lambda model: simulate_open_loop(model, u, INIT, batch)),
        ("solve_deterministic", lambda model: solve_deterministic(model, grid)),
        ("discrete_recursion_oracle", lambda model: discrete_recursion_oracle(model, grid)),
        ("solve_bsre_regression", lambda model: solve_bsre_regression(model, grid, batch)),
        ("value_identity_check", lambda model: value_identity_check(sol, law, model, INIT, batch)),
        ("completion_of_squares_check",
         lambda model: completion_of_squares_check(sol, law, model, u, INIT, batch)),
        ("optimality_sweep", lambda model: optimality_sweep(sol, law, model, INIT, batch)),
        ("stationarity_residual", lambda model: stationarity_residual(law, sol, model, batch.W)),
    ]


@pytest.mark.parametrize("bad", ["coefficient", "G"])
def test_every_entry_point_refuses_a_non_finite_coefficient(bad):
    good = scenario_deterministic(0.3, 1.0, -0.2, 0.5, 1.0, 2.0, 1.0, T=1.0)
    if bad == "G":
        model = dataclasses.replace(good, G=lambda W: np.full((1, 1), np.nan))
        match = "^G has a non-finite entry at path 0$"
    else:
        model = dataclasses.replace(good, Q=lambda i, W: np.full((1, 1), np.nan if i == 3 else 1.0))
        match = "^Q has a non-finite entry at index 3, path 0$"
    for name, call in _entry_points(good):
        with pytest.raises(InvalidArgumentError, match=match):
            call(model)
            pytest.fail(f"{name} accepted a non-finite {bad}")


# ---------------------------------------------------------------------------
# Coefficient-table kernels against the per-step reference loop
# ---------------------------------------------------------------------------

def _path_dependent_1x1():
    """1x1 model with every coefficient nonzero; R is a constant."""
    return CoefficientModel(
        n=1, m=1,
        A=lambda j, W: 0.3 * np.sin(W[j]),
        B=lambda j, W: np.cos(W[j]),
        C=lambda j, W: 0.5 * W[j] + 0.1,
        D=lambda j, W: 1.0 + 0.1 * W[j] ** 2,
        Q=lambda j, W: W[j] ** 2 + 0.5,
        R=lambda j, W: np.full((1, 1), 1.5),
        G=lambda W: 1.0 + W[-1] ** 2,
        kind="path_dependent",
    )


def _path_dependent_2x2():
    """2x2 model: A is a constant matrix, everything else moves with W."""
    rng = np.random.default_rng(4)
    A0, B0, C0, D0 = (0.4 * rng.uniform(-1, 1, (2, 2)) for _ in range(4))

    def moving(M0):
        return lambda j, W: M0 + 0.2 * np.sin(W[j])[:, None, None] * np.eye(2)

    def spd(j, W):
        s = np.sin(W[j])[:, None, None]
        return np.eye(2) + 0.3 * s * np.array([[1.0, 0.5], [0.5, 1.0]])

    return CoefficientModel(
        n=2, m=2, A=lambda j, W: A0, B=moving(B0), C=moving(C0), D=moving(D0),
        Q=spd, R=spd, G=lambda W: spd(-1, W), kind="path_dependent",
    )


def _index_sum(terms):
    """Sum of a list of arrays in list order, starting from the first term."""
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _reference_matvec(M, v):
    """``M @ v`` on ``(k, r, c)`` and ``(P, c, 1)`` stacks, each entry summed
    in index order.  (A BLAS ``matmul`` may fuse or reorder these sums, so
    its bits depend on the build.)"""
    return np.stack([_index_sum([M[:, j, l] * v[:, l, 0] for l in range(M.shape[2])])
                     for j in range(M.shape[1])], axis=1)[:, :, None]


def _reference_form(M, x, y):
    """Per-path ``<M x, y>``: ``(x_j M_jl) y_l`` summed over ``(j, l)`` in index order."""
    return _index_sum([x[:, j, 0] * M[:, j, l] * y[:, l, 0]
                       for j in range(M.shape[1]) for l in range(M.shape[2])])


def _reference_simulate(model, batch, eta, theta=None, u=None):
    """Per-step loop: every coefficient from model.coeff, index-order products."""
    N, h, P = batch.grid.N, batch.grid.h, batch.n_paths
    x = np.empty((N + 1, P, model.n, 1))
    uu = np.zeros((N + 1, P, model.m, 1))
    x[0] = eta.reshape(1, -1, 1)
    for i in range(N + 1):
        uu[i] = _reference_matvec(theta[i], x[i]) if theta is not None else u[i]
        if i == N:
            break
        A, B, C, D = (model.coeff(k, i, batch.W[: i + 1], P) for k in "ABCD")
        drift = _reference_matvec(A, x[i]) + _reference_matvec(B, uu[i])
        diffusion = _reference_matvec(C, x[i]) + _reference_matvec(D, uu[i])
        x[i + 1] = x[i] + h * drift + diffusion * batch.increments[i][:, None, None]
    return x, uu


def _reference_cost(model, batch, x, u):
    N, h, P = batch.grid.N, batch.grid.h, batch.n_paths
    run = np.zeros(P)
    ctrl = np.zeros(P)
    for i in range(N):
        Q, R = (model.coeff(k, i, batch.W[: i + 1], P) for k in "QR")
        run += h * _reference_form(Q, x[i], x[i])
        ctrl += h * _reference_form(R, u[i], u[i])
    G = model.terminal(batch.W, P)
    term = _reference_form(G, x[N], x[N])
    return 0.5 * (run + ctrl + term)


@pytest.mark.parametrize("make_model", [_path_dependent_1x1, _path_dependent_2x2])
def test_table_kernels_match_reference_loop_bit_for_bit(make_model):
    # Both models must reproduce the per-step loop exactly: every product
    # sums its entries in index order at every dimension.
    model = make_model()
    n, m = model.n, model.m
    grid = make_grid(1.0, 32)
    batch = sample_brownian(grid, 50, seed=6)
    rng = np.random.default_rng(2)
    eta = np.linspace(0.5, 1.5, n)
    init = InitialCondition(0, eta)
    theta = 0.5 * rng.uniform(-1, 1, (grid.N + 1, 50, m, n))
    u = PathArray(rng.normal(size=(grid.N + 1, 50, m, 1)))
    law = FeedbackLaw(theta=PathArray(theta), source=None)

    x_fb, u_fb = simulate_closed_loop(model, law, init, batch)
    x_ref, u_ref = _reference_simulate(model, batch, eta, theta=theta)
    np.testing.assert_array_equal(x_fb.values, x_ref)
    np.testing.assert_array_equal(u_fb.values, u_ref)
    np.testing.assert_array_equal(cost(model, x_fb, u_fb, init, grid, batch).per_path,
                                  _reference_cost(model, batch, x_ref, u_ref))

    x_u = simulate_open_loop(model, u, init, batch)
    x_ref, _ = _reference_simulate(model, batch, eta, u=u.values)
    np.testing.assert_array_equal(x_u.values, x_ref)
    np.testing.assert_array_equal(cost(model, x_u, u, init, grid, batch).per_path,
                                  _reference_cost(model, batch, x_ref, u.values))

    # The value form reads a per-path P, the penalty a path-constant K row.
    P_path = rng.uniform(0.5, 1.5, (grid.N + 1, 50, n, n))
    P_path = P_path + P_path.swapaxes(-1, -2)
    K_row = np.eye(m)[None, None] * np.linspace(1.0, 2.0, grid.N + 1)[:, None, None, None]
    # D = 0 and B = 0 with R = K_row give K = K_row and L = 0 on every path.
    weights = CoefficientModel(
        n=n, m=m, A=lambda i, W: np.zeros((n, n)), B=lambda i, W: np.zeros((n, m)),
        C=lambda i, W: np.zeros((n, n)), D=lambda i, W: np.zeros((n, m)),
        Q=lambda i, W: np.zeros((n, n)), R=lambda i, W: K_row[i, 0], G=lambda W: np.zeros((n, n)))
    sol = RiccatiSolution(grid=grid, P=PathArray(P_path), Lambda=PathArray(np.zeros_like(P_path)),
                          table=CoefficientTable(weights, np.zeros((grid.N + 1, 1))))
    eta_col = np.broadcast_to(eta.reshape(1, n, 1), (50, n, 1))
    value_ref = 0.5 * _reference_form(P_path[0], eta_col, eta_col)
    res = value_identity_check(sol, law, model, init, batch)
    assert res.details["value_quadratic_form"] == float(value_ref.mean())
    penalty_ref = np.zeros(50)
    for i in range(grid.N):
        diff = u.values[i] - _reference_matvec(theta[i], x_ref[i])
        penalty_ref += grid.h * _reference_form(K_row[i], diff, diff)
    penalty_ref *= 0.5
    res = completion_of_squares_check(sol, law, model, u, init, batch)
    assert res.details["penalty_mean"] == float(penalty_ref.mean())


@pytest.mark.parametrize("n", [1, 2])
def test_sums_keep_the_sign_of_zero(n):
    # Every sum starts from its first term, not from +0.0, so a negative gain
    # on a zero state records -0.0 at every dimension.
    Z = np.zeros((n, n))
    model = CoefficientModel(n=n, m=n, A=lambda i, W: Z, B=lambda i, W: Z, C=lambda i, W: Z,
                             D=lambda i, W: Z, Q=lambda i, W: Z, R=lambda i, W: np.eye(n),
                             G=lambda W: np.eye(n), kind="deterministic")
    grid = make_grid(1.0, 4)
    batch = sample_brownian(grid, 3, seed=1)
    theta = np.broadcast_to(-0.5 * np.ones((n, n)), (grid.N + 1, 1, n, n))
    law = FeedbackLaw(theta=PathArray(theta), source=None)
    _, u = simulate_closed_loop(model, law, InitialCondition(0, np.zeros(n)), batch)
    assert np.signbit(u.values).all()


def test_terminal_weight_is_evaluated_once_per_batch():
    base = scenario_example1(1.0)
    calls = []

    def counted_G(W):
        calls.append(W.shape)
        return base.G(W)

    model = dataclasses.replace(base, G=counted_G)
    grid = make_grid(1.0, 16)
    batch = sample_brownian(grid, 200, seed=1)
    sol = closed_form_example1(grid, batch)
    law = synthesize(sol, model)
    value_identity_check(sol, law, model, INIT, batch)
    _, u_fb = simulate_closed_loop(model, law, INIT, batch)
    completion_of_squares_check(sol, law, model, u_fb, INIT, batch)
    optimality_sweep(sol, law, model, INIT, batch)
    assert calls == [(grid.N + 1, 200)]


# ---------------------------------------------------------------------------
# Value identity and completion of squares
# ---------------------------------------------------------------------------

def test_value_identity_exact_for_deterministic_instance():
    model = scenario_deterministic(0, 0, 0, 0, 2.0, 1.0, 3.0, T=1.0)
    grid = make_grid(1.0, 16)
    batch = sample_brownian(grid, 4, seed=1)
    sol = solve_deterministic(model, grid)
    law = synthesize(sol, model)
    res = value_identity_check(sol, law, model, INIT, batch)
    # P(0) = g + qT = 5, so the value form 2.5 matches the realized cost to
    # integrator precision; tolerance is the pure sqrt(h) allowance.
    assert res.residual <= 1e-10
    assert res.tolerance == pytest.approx(0.5 * math.sqrt(grid.h), abs=1e-12)
    assert res.passed


def test_value_identity_example1_passes_at_unit_scale():
    grid, batch, model, sol, law = _example1_setup()
    res = value_identity_check(sol, law, model, INIT, batch)
    assert res.name == "value_identity"
    assert res.passed
    assert res.residual <= res.tolerance
    assert res.details["n_paths"] == 500
    assert res.details["seed"] == 1
    assert res.details["value_quadratic_form"] == pytest.approx(0.1375, abs=1e-12)


def test_an_overflowing_cost_is_an_escape_not_a_failed_identity():
    # At eta = 1e200 the states stay finite but every quadratic form
    # overflows; the identities used to fail with a NaN residual, as if the
    # paper's identities did not hold.
    grid, batch, model, sol, law = _example1_setup(N=16, n_paths=50)
    huge = InitialCondition(0, np.array([1e200]))
    with pytest.raises(FiniteEscapeError, match="cost became non-finite, first path 0"):
        value_identity_check(sol, law, model, huge, batch)
    x, u = simulate_closed_loop(model, law, huge, batch)
    assert np.isfinite(x.values).all()
    with pytest.raises(FiniteEscapeError, match="cost became non-finite"):
        completion_of_squares_check(sol, law, model, u, huge, batch)
    with pytest.raises(FiniteEscapeError, match="cost became non-finite"):
        cost(model, x, u, huge, grid, batch)
    # The first path is named across arms, on the last axis.
    with pytest.raises(FiniteEscapeError, match="penalty became non-finite, first path 2"):
        evaluate._finite("penalty", np.array([[0.0, 1.0, 2.0], [0.0, 1.0, np.inf]]))


def test_checks_reject_a_solution_of_another_path_count():
    grid, batch, model, sol, law = _example1_setup(N=16, n_paths=50)
    three = dataclasses.replace(sol, P=PathArray(sol.P.values[:, :3]),
                                Lambda=PathArray(sol.Lambda.values[:, :3]))
    with pytest.raises(InvalidArgumentError, match="solution has 3 paths, expected 1 or 50"):
        value_identity_check(three, law, model, INIT, batch)
    _, u_fb = simulate_closed_loop(model, law, INIT, batch)
    with pytest.raises(InvalidArgumentError, match="solution has 3 paths, expected 1 or 50"):
        completion_of_squares_check(three, law, model, u_fb, INIT, batch)
    # A solution on another grid would be read at the wrong times.
    finer = make_grid(1.0, 32)
    other_steps = closed_form_example1(finer, sample_brownian(finer, 50, seed=1))
    other_horizon = dataclasses.replace(sol, grid=make_grid(2.0, 16))
    for other, match in ((other_steps, "32 steps.*16 steps"),
                         (other_horizon, "T = 2.0.*T = 1.0")):
        with pytest.raises(InvalidArgumentError, match=match):
            value_identity_check(other, law, model, INIT, batch)
        with pytest.raises(InvalidArgumentError, match=match):
            completion_of_squares_check(other, law, model, u_fb, INIT, batch)


def test_checks_refuse_a_solution_of_another_grid_before_simulating(monkeypatch):
    grid, batch, model, sol, law = _example1_setup(N=32, n_paths=2000)
    finer = make_grid(1.0, 64)
    other = closed_form_example1(finer, sample_brownian(finer, 2000, seed=1))
    u = _zero_control(grid, 2000)
    calls = []
    arm_pass = evaluate._arm_pass

    def counting_arm_pass(*args, **kwargs):
        calls.append(1)
        return arm_pass(*args, **kwargs)

    monkeypatch.setattr(evaluate, "_arm_pass", counting_arm_pass)
    with pytest.raises(InvalidArgumentError, match="64 steps.*32 steps"):
        value_identity_check(other, law, model, INIT, batch)
    with pytest.raises(InvalidArgumentError, match="64 steps.*32 steps"):
        completion_of_squares_check(other, law, model, u, INIT, batch)
    assert calls == []
    # The guards pass on the solution of the batch's own grid.
    value_identity_check(sol, law, model, INIT, batch)
    assert calls == [1]


@pytest.mark.parametrize("n_se,disc_coeff,name", [
    (math.inf, 0.5, "n_se"), (math.nan, 0.5, "n_se"), (-1.0, 0.5, "n_se"),
    (3.0, math.inf, "disc_coeff"), (3.0, -0.5, "disc_coeff"),
])
def test_checks_refuse_a_non_finite_or_negative_pass_line_before_simulating(
        monkeypatch, n_se, disc_coeff, name):
    # An infinite n_se made every tolerance infinite, so any gain passed.
    grid, batch, model, sol, law = _example1_setup(N=32, n_paths=200)
    u = _zero_control(grid, 200)
    calls = []
    monkeypatch.setattr(evaluate, "_arm_pass", lambda *args, **kwargs: calls.append(1))
    for run in (
            lambda: value_identity_check(sol, law, model, INIT, batch, n_se, disc_coeff),
            lambda: completion_of_squares_check(sol, law, model, u, INIT, batch, n_se, disc_coeff),
            lambda: optimality_sweep(sol, law, model, INIT, batch, n_se=n_se,
                                     disc_coeff=disc_coeff)):
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be a finite real >= 0"):
            run()
    assert calls == []


def test_a_deterministic_model_whose_weight_moves_with_the_path_is_refused():
    # Q = 1 + W_i^2 declared "deterministic": solved on the zero path it
    # looks constant, but costing or checking it on a batch refuses it.
    model = dataclasses.replace(scenario_deterministic(0, 1, 0, 0, 0, 1, 1, T=1.0),
                                Q=lambda i, W: (1.0 + W[i] ** 2)[:, None, None])
    grid = make_grid(1.0, 16)
    batch = sample_brownian(grid, 200, seed=1)
    sol = solve_deterministic(model, grid)
    law = synthesize(sol, model)
    zero = _zero_control(grid, 200)
    match = "^Q of a 'deterministic' model differs across paths at index 1, path 1$"
    with pytest.raises(InvalidArgumentError, match=match):
        cost(model, zero, zero, INIT, grid, batch)
    with pytest.raises(InvalidArgumentError, match=match):
        value_identity_check(sol, law, model, INIT, batch)


def test_a_synthesized_gain_and_its_shared_closed_loop_are_read_only():
    grid, batch, model, sol, law = _example1_setup(N=16, n_paths=20)
    J = evaluate._closed_loop(model, law, INIT, batch)
    assert evaluate._closed_loop(model, law, INIT, batch) is J
    for values in (law.theta.values, J.per_path[:, None, None, None]):
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0, 0, 0, 0] = 1.0


def test_a_writable_gain_gets_a_fresh_closed_loop_on_every_call():
    # A hand-built gain may change between calls: no stale closed loop is read.
    grid, batch, model, sol, law = _example1_setup(N=16, n_paths=200)
    theta = law.theta.values.copy()
    hand = FeedbackLaw(theta=PathArray(theta), source=sol)
    first = value_identity_check(sol, hand, model, INIT, batch)
    assert first.residual == value_identity_check(sol, law, model, INIT, batch).residual
    theta *= 0.5
    second = value_identity_check(sol, hand, model, INIT, batch)
    halved = FeedbackLaw(theta=PathArray(0.5 * law.theta.values), source=sol)
    assert second.residual == value_identity_check(sol, halved, model, INIT, batch).residual
    assert second.residual != first.residual


@pytest.mark.parametrize("drop", ["law", "batch"])
def test_a_shared_closed_loop_goes_with_its_gain_or_its_batch(drop):
    # The memo holds neither the gain nor the paths: freeing either drops
    # the entry at once, with no garbage-collection pass.
    grid, batch, model, sol, law = _example1_setup(N=16, n_paths=20)
    value_identity_check(sol, law, model, INIT, batch)
    ids = (id(batch.W), id(law.theta.values))
    assert ids in _SHARED
    if drop == "law":
        del law
    else:
        del batch
    assert ids not in _SHARED


def test_a_shared_closed_loop_holds_its_per_path_cost_alone():
    # The memo keeps no state or control history: its entry's arrays hold at
    # most one float per path.
    grid, batch, model, sol, law = _example1_setup(N=64, n_paths=50)
    J = evaluate._closed_loop(model, law, INIT, batch)
    (_, entries), = [v for ids, v in _SHARED.items() if ids == (id(batch.W), id(law.theta.values))]
    values = [value for _, value in entries.values()]
    assert values == [J]
    arrays = [getattr(J, f.name) for f in dataclasses.fields(J)]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    assert arrays and all(a.size <= batch.n_paths for a in arrays)


def test_the_memo_leaves_no_finalizer_behind_a_freed_batch():
    # A read-only gain outlives its batches; each batch's memo entry must take
    # its finalizers with it when the batch is freed.
    model = scenario_deterministic(0, 1, 0, 0, 0, 1, 1, T=1.0)
    grid = make_grid(1.0, 16)
    sol = solve_deterministic(model, grid)
    law = synthesize(sol, model)
    assert not law.theta.values.flags.writeable
    before = len(weakref.finalize._registry)
    for seed in range(50):
        batch = sample_brownian(grid, 10, seed)
        value_identity_check(sol, law, model, INIT, batch)
        del batch
    assert len(weakref.finalize._registry) == before


def test_batches_sharing_paths_on_other_grids_get_their_own_closed_loops():
    grid, batch, model, sol, law = _example1_setup(N=16, n_paths=20)
    longer = BrownianBatch(grid=make_grid(2.0, 16), seed=1, W=batch.W)
    J = evaluate._closed_loop(model, law, INIT, batch)
    J_long = evaluate._closed_loop(model, law, INIT, longer)
    assert evaluate._closed_loop(model, law, INIT, longer) is J_long
    assert J_long.mean != J.mean
    for b, J_b in ((longer, J_long), (batch, J)):
        x, u = simulate_closed_loop(model, law, INIT, b)
        np.testing.assert_array_equal(J_b.per_path, cost(model, x, u, INIT, b.grid, b).per_path)


def test_completion_of_squares_replay_is_exactly_zero():
    grid, batch, model, sol, law = _example1_setup()
    _, u_fb = simulate_closed_loop(model, law, INIT, batch)
    res = completion_of_squares_check(sol, law, model, u_fb, INIT, batch)
    assert res.residual == 0.0
    assert res.details["penalty_mean"] == 0.0
    assert res.passed


def test_completion_of_squares_perturbed_control_passes():
    grid, batch, model, sol, law = _example1_setup()
    _, u_fb = simulate_closed_loop(model, law, INIT, batch)
    v = make_perturbations(grid, batch, model.m)[0][1]
    res = completion_of_squares_check(
        sol, law, model, PathArray(u_fb.values + v), INIT, batch)
    assert res.passed
    assert res.details["J_u"] > res.details["J_feedback"]


def test_completion_of_squares_deterministic_residual_halves():
    # On a noise-free instance the identity's residual is pure first-order
    # discretization error: it halves as N doubles.
    model = scenario_deterministic(0, 1, 0, 0, 0, 1, 1, T=1.0)
    resid = {}
    for N in (32, 64, 128):
        grid = make_grid(1.0, N)
        batch = sample_brownian(grid, 4, seed=1)
        sol = solve_deterministic(model, grid)
        law = synthesize(sol, model)
        _, u_fb = simulate_closed_loop(model, law, INIT, batch)
        res = completion_of_squares_check(
            sol, law, model, PathArray(u_fb.values + 1.0), INIT, batch)
        assert res.passed
        resid[N] = res.residual
    assert 0.35 <= resid[64] / resid[32] <= 0.65
    assert 0.35 <= resid[128] / resid[64] <= 0.65


# ---------------------------------------------------------------------------
# Perturbations and optimality sweep
# ---------------------------------------------------------------------------

def test_make_perturbations_library_shape():
    grid = make_grid(1.0, 8)
    batch = sample_brownian(grid, 5, seed=1)
    perts = make_perturbations(grid, batch, m=2)
    assert len(perts) == 10
    assert perts[0][0] == "const_one"
    ids = [pid for pid, _ in perts]
    assert len(set(ids)) == 10
    w_dependent = {"sign_w", "sign_w_sin_t", "clip_w"}
    for pid, v in perts:
        # Time-only entries are rows that broadcast over the paths.
        assert v.shape == ((9, 5, 2, 1) if pid in w_dependent else (9, 1, 2, 1))
        assert np.abs(v).max() <= 1.0 + 1e-12
        assert np.isfinite(v).all()


def test_make_perturbations_refuses_another_grid():
    batch = sample_brownian(make_grid(1.0, 16), 5, seed=1)
    with pytest.raises(InvalidArgumentError, match="8 steps.*16 steps"):
        make_perturbations(make_grid(1.0, 8), batch)
    with pytest.raises(InvalidArgumentError, match="T = 2.0.*T = 1.0"):
        make_perturbations(make_grid(2.0, 16), batch)


def test_make_perturbations_refuses_a_non_integer_width():
    grid = make_grid(1.0, 8)
    batch = sample_brownian(grid, 5, seed=1)
    for bad in (1.5, 0, -1, True, "2", None):
        with pytest.raises(InvalidArgumentError, match="m must be a positive integer"):
            make_perturbations(grid, batch, bad)
    assert make_perturbations(grid, batch, np.int64(2))[0][1].shape == (9, 1, 2, 1)


def test_make_perturbations_adapted_in_w():
    # The W-dependent entries at index i only read W up to i.
    grid = make_grid(1.0, 8)
    batch = sample_brownian(grid, 5, seed=1)
    inc2 = batch.increments.copy()
    inc2[4:] *= -1.0
    batch2 = BrownianBatch.from_increments(grid, inc2)
    p1 = dict(make_perturbations(grid, batch, 1))
    p2 = dict(make_perturbations(grid, batch2, 1))
    for pid in ("sign_w", "sign_w_sin_t", "clip_w"):
        np.testing.assert_array_equal(p1[pid][:5], p2[pid][:5])


def test_sweep_zero_direction_is_trivially_optimal():
    grid, batch, model, sol, law = _example1_setup(N=16, n_paths=30)
    zero_v = np.zeros((grid.N + 1, batch.n_paths, 1, 1))
    sweep = optimality_sweep(sol, law, model, INIT, batch,
                             perturbations=[("zero", zero_v)])
    assert sweep.passed
    assert sweep.min_gap == 0.0
    assert sweep.quad_ratios == {}  # 0/0 arms are skipped, not inf
    for row in sweep.rows:
        assert row.J_minus_Jfb == 0.0
        assert row.odd_fd == 0.0
        assert row.gap_ok


def test_sweep_example1_feedback_is_a_minimum():
    grid, batch, model, sol, law = _example1_setup()
    perts = make_perturbations(grid, batch, model.m)
    sweep = optimality_sweep(sol, law, model, INIT, batch,
                             perturbations=[perts[0], perts[7]])
    assert sweep.passed
    assert sweep.gaps_ok and sweep.first_order_ok and sweep.quad_ok
    # Quadratic cost in epsilon: the even gap ratio between eps 0.1 and 0.01
    # is pinned at 100 (common random numbers make this nearly exact).
    for ratio in sweep.quad_ratios.values():
        assert ratio == pytest.approx(100.0, abs=1e-6)
    assert sweep.min_gap >= -min(r.gap_tolerance for r in sweep.rows)
    # Rows: 2 perturbations x 3 epsilons.
    assert len(sweep.rows) == 6


@pytest.mark.parametrize("kwargs,name", [
    ({"perturbations": []}, "perturbations"),
    ({"epsilons": ()}, "epsilons"),
    ({"epsilons": (0.0,)}, "epsilons"),
    ({"epsilons": (1.0, -0.0)}, "epsilons"),
    ({"epsilons": (float("nan"),)}, "epsilons"),
    ({"epsilons": (0.1, float("inf"))}, "epsilons"),
    ({"epsilons": (1.0,)}, "epsilons"),
    ({"epsilons": (0.5, -0.5)}, "epsilons"),
    ({"epsilons": (True, 0.1)}, "epsilons"),
])
def test_sweep_rejects_degenerate_inputs(kwargs, name):
    # Each of these used to pass vacuously (no arm, or odd_fd = nan).
    grid, batch, model, sol, law = _example1_setup(N=16, n_paths=200)
    with pytest.raises(InvalidArgumentError, match=name):
        optimality_sweep(sol, law, model, INIT, batch, **kwargs)


@pytest.mark.parametrize("epsilons,target", [((0.5, 0.05), 100.0), ((-1.0, 0.5, 2.0), 4.0)])
def test_sweep_quadratic_leg_takes_the_two_smallest_epsilons(epsilons, target):
    # The leg compares the two smallest distinct |eps|, whatever they are.
    grid, batch, model, sol, law = _example1_setup(N=16, n_paths=200)
    sweep = optimality_sweep(sol, law, model, INIT, batch, epsilons=epsilons)
    assert len(sweep.quad_ratios) == 10 and sweep.quad_ok
    for ratio in sweep.quad_ratios.values():
        assert ratio == pytest.approx(target, rel=1e-6)


def _weighted_2x2(Q=np.eye(2), R=np.eye(2), G=np.eye(2)):
    A = np.array([[0.1, 0.2], [0.0, -0.3]])
    return CoefficientModel(
        n=2, m=2, A=lambda j, W: A, B=lambda j, W: np.eye(2),
        C=lambda j, W: 0.2 * np.eye(2), D=lambda j, W: 0.3 * np.eye(2),
        Q=lambda j, W: Q, R=lambda j, W: R, G=lambda W: G, kind="deterministic",
    )


@pytest.mark.parametrize("name", ["Q", "R", "G"])
def test_sweep_rejects_asymmetric_weights_before_simulating(name, monkeypatch):
    grid = make_grid(1.0, 16)
    batch = sample_brownian(grid, 200, seed=1)
    sol = solve_deterministic(_weighted_2x2(), grid)
    law = synthesize(sol, _weighted_2x2())
    model = _weighted_2x2(**{name: np.array([[1.0, 0.6], [-0.2, 0.5]])})

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the symmetry guard")

    monkeypatch.setattr(evaluate, "_arm_pass", no_simulation)
    init = InitialCondition(0, np.array([1.0, -0.5]))
    with pytest.raises(InvalidArgumentError, match=f"^{name} is not symmetric"):
        optimality_sweep(sol, law, model, init, batch)


def test_sweep_superposition_matches_direct_arms():
    grid, batch, model, sol, law = _example1_setup()
    sweep = optimality_sweep(sol, law, model, INIT, batch)
    assert sweep.superposition_ok and sweep.passed
    assert 0.0 < sweep.superposition_error <= evaluate.SUPERPOSITION_RTOL
    # The sweep's rows equal direct simulations of both arms up to rounding.
    x_fb, u_fb = simulate_closed_loop(model, law, INIT, batch)
    J_fb = cost(model, x_fb, u_fb, INIT, grid, batch).per_path
    perts = dict(make_perturbations(grid, batch, model.m))
    for row in sweep.rows[::7]:
        costs = []
        for eps in (row.epsilon, -row.epsilon):
            u = PathArray(u_fb.values + eps * perts[row.perturbation_id])
            x = simulate_open_loop(model, u, INIT, batch)
            costs.append(cost(model, x, u, INIT, grid, batch).per_path)
        assert row.J == pytest.approx(costs[0].mean(), rel=1e-13)
        gap = (costs[0] - J_fb).mean()
        assert row.J_minus_Jfb == pytest.approx(gap, rel=1e-9, abs=1e-15)
        odd = ((costs[0] - costs[1]) / (2 * row.epsilon)).mean()
        assert row.odd_fd == pytest.approx(odd, rel=1e-6, abs=1e-12)


def test_sweep_independent_leg_catches_a_wrong_prediction(monkeypatch):
    grid, batch, model, sol, law = _example1_setup(N=32, n_paths=200)
    exact = evaluate._sweep_arms

    def off_by_a_part_per_million(*args):
        parts, cross, J0, J_dir = exact(*args)
        return parts, cross, J0 * (1 + 1e-6), J_dir

    monkeypatch.setattr(evaluate, "_sweep_arms", off_by_a_part_per_million)
    sweep = optimality_sweep(sol, law, model, INIT, batch)
    # Gaps, odd part and eps-scaling cannot see a 1e-6 error in J0; the
    # direct arms do.
    assert sweep.gaps_ok and sweep.first_order_ok and sweep.quad_ok
    assert sweep.superposition_error > 1e3 * evaluate.SUPERPOSITION_RTOL
    assert not sweep.superposition_ok and not sweep.passed


def test_an_escaping_arm_raises_where_the_per_arm_route_does():
    # The state is 0 until a control moves it; then a = 1e155 overflows it
    # at step 4.  Two loud directions escape at that step from paths 2 and 1;
    # one at a time, the first of them raises, and so does the arm pass.
    model = scenario_deterministic(1e155, 1, 0, 0, 0, 1, 1, T=1.0)
    grid = make_grid(1.0, 8)
    batch = sample_brownian(grid, 4, seed=1)
    init = InitialCondition(0, np.zeros(1))
    law = FeedbackLaw(theta=PathArray(np.zeros((9, 1, 1, 1))), source=None)
    loud_2, loud_1 = np.zeros((2, 9, 4, 1, 1))
    loud_2[:, 2:], loud_1[:, 1:] = 1.0, 1.0
    library = [("quiet", np.zeros((9, 1, 1, 1))), ("loud_2", loud_2), ("loud_1", loud_1)]
    u_fb = simulate_closed_loop(model, law, init, batch)[1].values
    with pytest.raises(FiniteEscapeError) as per_arm:
        for _, v in library:
            simulate_open_loop(model, PathArray(u_fb + 0.1 * v), init, batch)
    assert str(per_arm.value) == "state became non-finite at step 4, first path 2"
    with pytest.raises(FiniteEscapeError) as stacked:
        evaluate._completion_of_squares(_constant_solution(model, grid, 0.0), law, model,
                                        [(True, 0.1, v) for _, v in library], init, batch,
                                        3.0, 0.5)
    assert str(stacked.value) == str(per_arm.value)
    zero = InitialCondition(0, np.zeros(1))
    with pytest.raises(FiniteEscapeError) as per_arm:
        for _, v in library:  # its zero-start response, then its direct arm
            simulate_open_loop(model, PathArray(v), zero, batch)
            simulate_open_loop(model, PathArray(u_fb + v), init, batch)
    with pytest.raises(FiniteEscapeError) as stacked:
        optimality_sweep(None, law, model, init, batch, perturbations=library)
    assert str(stacked.value) == str(per_arm.value)


def test_arm_passes_hold_less_than_one_batch_array(traced_peak):
    # No arm's (N+1, P) history is stored: at 512 x 2000 the sweep's 20 arms
    # and the 11 completion-of-squares arms each peak below one path array.
    grid = make_grid(1.0, 512)
    batch = sample_brownian(grid, 2000, seed=1)
    model = scenario_example1(1.0)
    sol = closed_form_example1(grid, batch)
    law = synthesize(sol, model)
    evaluate._closed_loop(model, law, INIT, batch)
    library = make_perturbations(grid, batch, model.m)
    controls = [(True, 0.1, v) for _, v in library]
    sweep, peak = traced_peak(lambda: optimality_sweep(sol, law, model, INIT, batch, library))
    assert sweep.passed
    assert peak < batch.W.nbytes
    results, peak = traced_peak(lambda: evaluate._completion_of_squares(
        sol, law, model, controls, INIT, batch, 3.0, 0.5))
    assert all(r.passed for r in results) and results[0].residual == 0.0
    assert peak < batch.W.nbytes


def test_completion_of_squares_reads_K_one_node_at_a_time(traced_peak):
    # The public check derives K = R + D^T P D per node as its penalty reads
    # it, never the (N+1, P, m, m) array, which is as large as the batch.
    grid = make_grid(1.0, 512)
    batch = sample_brownian(grid, 2000, seed=1)
    model = scenario_example1(1.0)
    sol = closed_form_example1(grid, batch)
    law = synthesize(sol, model)
    _, u_fb = simulate_closed_loop(model, law, INIT, batch)
    sign_w = dict(make_perturbations(grid, batch, model.m))["sign_w"]
    u = PathArray(u_fb.values + 0.1 * sign_w)
    res, peak = traced_peak(lambda: completion_of_squares_check(sol, law, model, u, INIT, batch))
    assert res.passed
    assert peak < batch.W.nbytes


def test_completion_of_squares_refuses_a_non_finite_K():
    # K = r + d^2 P overflows on a finite P = 1e308: the check refuses it as
    # the PathArray of K does, rather than return a non-finite penalty.
    model = scenario_deterministic(0, 1, 0, 2, 1, 1, 1, T=1.0)
    grid = make_grid(1.0, 8)
    batch = sample_brownian(grid, 4, seed=1)
    law = FeedbackLaw(theta=PathArray(np.zeros((9, 1, 1, 1))), source=None)
    with pytest.raises(InvalidArgumentError, match="^PathArray values contain non-finite entries$"):
        completion_of_squares_check(_constant_solution(model, grid, 1e308), law, model,
                                    _zero_control(grid, 1), INIT, batch)


def test_closed_loop_cost_from_arm_0_equals_the_one_arm_pass(monkeypatch):
    # A completion-of-squares pass with feedback arms steps the closed loop as
    # its arm 0 and fills the empty memo entry from arm 0's parts: byte for
    # byte the one-arm pass, and the value identity then reads it, no pass.
    model = scenario_example1(1.0)
    grid = make_grid(1.0, 16)
    batch = sample_brownian(grid, 50, seed=2)
    sol = closed_form_example1(grid, batch)
    law = synthesize(sol, model)
    controls = [(True, 0.1, v) for _, v in make_perturbations(grid, batch)]
    evaluate._completion_of_squares(sol, law, model, controls, INIT, batch, 3.0, 0.5)
    passes = []
    arm_pass = evaluate._arm_pass
    monkeypatch.setattr(evaluate, "_arm_pass", lambda *args: passes.append(1) or arm_pass(*args))
    shared = evaluate._closed_loop(model, law, INIT, batch)
    value_identity_check(sol, law, model, INIT, batch)
    assert passes == []
    # A writable gain is never memoized: this is a one-arm pass of its own.
    own = evaluate._closed_loop(model, FeedbackLaw(PathArray(law.theta.values.copy()), sol),
                                INIT, batch)
    assert passes == [1]
    assert shared.per_path.tobytes() == own.per_path.tobytes()
    assert (shared.mean, shared.std_error, shared.components) == (
        own.mean, own.std_error, own.components)


def test_a_sweep_on_a_fresh_batch_steps_the_closed_loop_once(monkeypatch):
    # The sweep's feedback pass steps the closed loop as its arm 0 and fills
    # the empty memo entry from it: no pass of the closed loop alone, and the
    # value identity then reads the memo with no pass.
    grid, batch, model, sol, law = _example1_setup(N=16, n_paths=50)
    assert not law.theta.values.flags.writeable
    passes = []
    arm_pass = evaluate._arm_pass
    monkeypatch.setattr(evaluate, "_arm_pass", lambda *args: passes.append(1) or arm_pass(*args))
    assert optimality_sweep(sol, law, model, INIT, batch).passed
    value_identity_check(sol, law, model, INIT, batch)
    assert passes == [1]
    x, u = simulate_closed_loop(model, law, INIT, batch)
    assert (evaluate._closed_loop(model, law, INIT, batch).per_path.tobytes()
            == cost(model, x, u, INIT, grid, batch).per_path.tobytes())


# ---------------------------------------------------------------------------
# Divergence probe
# ---------------------------------------------------------------------------

def test_probe_small_ladder_statistics():
    probe = counterexample_divergence_probe(1.0, [64, 128], [100, 200], seed=1)
    assert probe.seed == 1
    assert len(probe.rows) == 2
    r0, r1 = probe.rows
    assert (r0.steps, r0.n_paths) == (64, 100)
    assert (r1.steps, r1.n_paths) == (128, 200)
    assert r0.h == pytest.approx(1.0 / 64)
    assert r0.delta_grid == pytest.approx(3.0 * (1.0 / 64) ** 0.4)
    for r in probe.rows:
        assert r.median_theta_sqint <= r.max_theta_sqint
        assert r.max_zeta_sqint > 0.0
        assert not r.exp_overflow
        assert np.isfinite(r.mean_exp_zeta_sqint)
        # Stopped-envelope overshoot is present already at desk scale and the
        # two envelope readings flag identical path sets.
        assert r.ito_violations == r.y_violations
    assert probe.growth_ratio == pytest.approx(
        r1.max_theta_sqint / r0.max_theta_sqint)
    # Measured at seed 1: a handful of late-crossing paths overshoot.
    assert not probe.bounds_ok


def test_probe_chunking_is_bit_identical():
    one = counterexample_divergence_probe(1.0, [64], [120], seed=1, chunk_size=10**9)
    many = counterexample_divergence_probe(1.0, [64], [120], seed=1, chunk_size=17)
    a, b = one.rows[0], many.rows[0]
    assert a.max_theta_sqint == b.max_theta_sqint
    assert a.median_theta_sqint == b.median_theta_sqint
    assert a.max_abs_ito == b.max_abs_ito
    assert a.min_Y == b.min_Y and a.max_Y == b.max_Y
    assert a.ito_violations == b.ito_violations
    assert a.y_violations == b.y_violations
    assert a.mean_exp_zeta_sqint == pytest.approx(b.mean_exp_zeta_sqint, rel=1e-12)


def test_probe_leaves_no_thread_behind(monkeypatch):
    monkeypatch.setattr(evaluate, "_PROBE_WORKERS", 3)
    before = set(threading.enumerate())
    counterexample_divergence_probe(1.0, [64, 128], [100, 200], seed=1, chunk_size=30)
    assert set(threading.enumerate()) == before

    # A block that raises: its exception reaches the caller as it was
    # raised, and no worker is left running.
    boom = RuntimeError("block failed")
    block = evaluate._probe_block

    def failing_block(grid, n_paths, seed, path_offset, buffers):
        if grid.N == 128 and path_offset >= 60:
            raise boom
        return block(grid, n_paths, seed, path_offset, buffers)

    monkeypatch.setattr(evaluate, "_probe_block", failing_block)
    with pytest.raises(RuntimeError) as exc:
        counterexample_divergence_probe(1.0, [64, 128], [100, 200], seed=1, chunk_size=30)
    assert exc.value is boom
    assert set(threading.enumerate()) == before


def test_probe_working_set_does_not_grow_with_the_chunk(monkeypatch):
    # Two workers, each with one buffer set of at most 2**18 entries per
    # array (6.5 MB): 4000 paths of 1024 steps as one chunk would be 102 MB.
    monkeypatch.setattr(evaluate, "_PROBE_WORKERS", 2)
    tracemalloc.start()
    try:
        counterexample_divergence_probe(1.0, [1024], [4000], seed=1, chunk_size=10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_probe_rows_hold_with_more_workers_than_cores(monkeypatch):
    args = (1.0, [32, 64, 96], [40, 90, 150], 5)
    want = counterexample_divergence_probe(*args, chunk_size=10**9).rows
    monkeypatch.setattr(evaluate, "_PROBE_WORKERS", 9)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = counterexample_divergence_probe(*args, chunk_size=23).rows
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_probe_guards():
    with pytest.raises(InvalidArgumentError):
        counterexample_divergence_probe(1.0, [], [], seed=1)
    with pytest.raises(InvalidArgumentError):
        counterexample_divergence_probe(1.0, [64, 64], [100, 200], seed=1)
    with pytest.raises(InvalidArgumentError):
        counterexample_divergence_probe(1.0, [64, 128], [200, 100], seed=1)
    with pytest.raises(InvalidArgumentError):
        counterexample_divergence_probe(1.0, [64], [100, 200], seed=1)
    for bad in (0, -5, 2.5, True, None):
        with pytest.raises(InvalidArgumentError, match="chunk_size"):
            counterexample_divergence_probe(1.0, [64], [100], seed=1, chunk_size=bad)
    with pytest.raises(InvalidArgumentError, match="paths_seq"):
        counterexample_divergence_probe(1.0, [64, 128], [0, 100], seed=1)
    for seed in (1.5, True):
        with pytest.raises(InvalidArgumentError, match="seed"):
            counterexample_divergence_probe(1.0, [64], [100], seed=seed)
    for bad in (64.7, 64.0, True, "64", None):
        with pytest.raises(InvalidArgumentError, match="steps_seq"):
            counterexample_divergence_probe(1.0, [bad], [100], seed=1)
        with pytest.raises(InvalidArgumentError, match="paths_seq"):
            counterexample_divergence_probe(1.0, [64], [bad], seed=1)
    row = counterexample_divergence_probe(1.0, [np.int64(8)], [np.int32(5)], seed=1).rows[0]
    assert (row.steps, row.n_paths) == (8, 5) and type(row.steps) is int
