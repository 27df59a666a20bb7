"""Tests for simulation, cost evaluation, verification checks, and the probe."""

import dataclasses
import math
import sys
import threading

import numpy as np
import pytest

from slqkit.errors import FiniteEscapeError, InvalidArgumentError
from slqkit.feedback import FeedbackLaw, synthesize
from slqkit.grid import BrownianBatch, PathArray, make_grid, sample_brownian
from slqkit.problem import (
    CoefficientModel,
    InitialCondition,
    scenario_deterministic,
    scenario_example1,
)
from slqkit.riccati import RiccatiSolution, closed_form_example1, solve_deterministic
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
    with pytest.raises(InvalidArgumentError, match="batch does not match"):
        cost(model, x, _zero_control(grid, 4), INIT, grid,
             batch=sample_brownian(make_grid(2.0, 8), 4, seed=1))


def test_cost_without_batch_needs_a_deterministic_model():
    # A path-dependent G evaluated on an all-zero path would be silently wrong.
    model = scenario_example1(1.0)
    grid = make_grid(1.0, 8)
    x = PathArray(np.ones((9, 4, 1, 1)))
    with pytest.raises(InvalidArgumentError):
        cost(model, x, _zero_control(grid, 4), INIT, grid)
    batch = sample_brownian(grid, 4, seed=1)
    assert math.isfinite(cost(model, x, _zero_control(grid, 4), INIT, grid, batch).mean)


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
    sol = RiccatiSolution(grid=grid, P=PathArray(P_path), Lambda=PathArray(np.zeros_like(P_path)),
                          K=PathArray(K_row), L=PathArray(np.zeros((grid.N + 1, 1, m, n))))
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


def test_checks_reject_a_solution_of_another_path_count():
    grid, batch, model, sol, law = _example1_setup(N=16, n_paths=50)
    three = dataclasses.replace(sol, P=PathArray(sol.P.values[:, :3]),
                                K=PathArray(sol.K.values[:, :3]))
    with pytest.raises(InvalidArgumentError, match="path dimension mismatch"):
        value_identity_check(three, law, model, INIT, batch)
    _, u_fb = simulate_closed_loop(model, law, INIT, batch)
    with pytest.raises(InvalidArgumentError, match="path dimension mismatch"):
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

    monkeypatch.setattr(evaluate, "_simulate", no_simulation)
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
    exact = evaluate._superposition

    def off_by_a_part_per_million(*args):
        cross, J0 = exact(*args)
        return cross, J0 * (1 + 1e-6)

    monkeypatch.setattr(evaluate, "_superposition", off_by_a_part_per_million)
    sweep = optimality_sweep(sol, law, model, INIT, batch)
    # Gaps, odd part and eps-scaling cannot see a 1e-6 error in J0; the
    # direct arms do.
    assert sweep.gaps_ok and sweep.first_order_ok and sweep.quad_ok
    assert sweep.superposition_error > 1e3 * evaluate.SUPERPOSITION_RTOL
    assert not sweep.superposition_ok and not sweep.passed


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
