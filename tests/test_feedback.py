"""Tests for gain synthesis, regularity diagnostics, and stationarity."""

import numpy as np
import pytest

from slqkit.errors import InvalidArgumentError, SynthesisInfeasibleError
from slqkit.grid import PathArray, make_grid, sample_brownian
from slqkit.problem import scenario_counterexample, scenario_deterministic, scenario_example1
from slqkit.feedback import (
    FeedbackLaw,
    RegularityReport,
    regularity_diagnostics,
    stationarity_residual,
    synthesize,
)
from slqkit.riccati import (
    RiccatiSolution,
    closed_form_counterexample,
    closed_form_example1,
    solve_deterministic,
)


def _example1_setup(N=64, n_paths=200, seed=1):
    grid = make_grid(1.0, N)
    batch = sample_brownian(grid, n_paths, seed=seed)
    sol = closed_form_example1(grid, batch)
    model = scenario_example1(1.0)
    return grid, batch, sol, model


def _manual_solution(grid, K, L, n_paths=1):
    """Hand-built scalar solution with constant K, L at every sample."""
    shape = (grid.N + 1, n_paths, 1, 1)
    z = PathArray(np.zeros(shape))
    return RiccatiSolution(
        grid=grid,
        P=z, Lambda=z,
        K=PathArray(np.full(shape, float(K))),
        L=PathArray(np.full(shape, float(L))),
        solver_tag="deterministic_ode",
    )


def _matrix_problem(grid, Kv, Lv):
    """A solution with the given ``(N+1, n_paths, m, m)`` K and
    ``(N+1, n_paths, m, n)`` L, and a zero model of matching dimensions."""
    m, n = Lv.shape[2:]
    z = PathArray(np.zeros(Lv.shape[:2] + (n, n)))
    sol = RiccatiSolution(grid=grid, P=z, Lambda=z, K=PathArray(Kv), L=PathArray(Lv))
    model = scenario_deterministic(0, 0, 0, 0, 0, 0, 0, T=1.0)
    model = type(model)(
        n=n, m=m,
        A=lambda i, W: np.zeros((n, n)), B=lambda i, W: np.zeros((n, m)),
        C=lambda i, W: np.zeros((n, n)), D=lambda i, W: np.zeros((n, m)),
        Q=lambda i, W: np.zeros((n, n)), R=lambda i, W: np.eye(m),
        G=lambda W: np.zeros((n, n)),
    )
    return sol, model


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------

def test_synthesize_example1_gain_values():
    grid, batch, sol, model = _example1_setup()
    law = synthesize(sol, model)
    # Theta = -L/K; at t=0 this is 0.16/0.4 = 0.4 exactly.
    assert law.theta.values[0, 0, 0, 0] == pytest.approx(0.4, abs=1e-15)
    expected = -sol.L.values / sol.K.values
    np.testing.assert_allclose(law.theta.values, expected, rtol=0.0, atol=1e-14)
    assert law.source is sol
    assert law.diagnostics is None


def test_synthesize_invariant_to_theta_free_when_K_invertible():
    grid, batch, sol, model = _example1_setup()
    base = synthesize(sol, model)
    shifted = synthesize(sol, model, theta_free=np.full((1, 1), 7.5))
    assert np.abs(base.theta.values - shifted.theta.values).max() <= 1e-12


def test_synthesize_null_direction_passes_theta_free_through():
    # K = L = 0 everywhere: the projector (1 - K^+ K) is the identity, so
    # Theta equals theta_free exactly (zero by default).
    grid = make_grid(1.0, 4)
    sol = _manual_solution(grid, K=0.0, L=0.0, n_paths=3)
    model = scenario_deterministic(0, 0, 0, 0, 0, 0, 0, T=1.0)
    law = synthesize(sol, model)
    np.testing.assert_array_equal(law.theta.values, 0.0)
    law = synthesize(sol, model, theta_free=np.full((1, 1), -2.5))
    np.testing.assert_array_equal(law.theta.values, -2.5)


def test_synthesize_psd_violation_lists_offenders():
    # The counterexample's discrete Y dips below zero on overshoot paths at
    # this scale, so K = 1/Y loses positivity at known (t, path) samples.
    grid = make_grid(1.0, 128)
    batch = sample_brownian(grid, 500, seed=1)
    sol = closed_form_counterexample(grid, batch)
    with pytest.raises(SynthesisInfeasibleError) as exc:
        synthesize(sol, scenario_counterexample(1.0))
    err = exc.value
    assert err.reason == "psd"
    assert err.total_offenders == 4
    assert err.offenders[0] == (0.9921875, 50)
    assert set(err.offenders) == {(0.9921875, 50), (1.0, 39), (1.0, 50), (1.0, 480)}


def test_synthesize_range_violation():
    # K = 0 with L != 0 is solvable nowhere: the projector residual equals L.
    grid = make_grid(1.0, 4)
    sol = _manual_solution(grid, K=0.0, L=1.0)
    model = scenario_deterministic(0, 0, 0, 0, 0, 0, 0, T=1.0)
    with pytest.raises(SynthesisInfeasibleError) as exc:
        synthesize(sol, model)
    assert exc.value.reason == "range"
    assert exc.value.total_offenders == (grid.N + 1)


def test_synthesize_matrix_branch_solves_normal_equations():
    # 2x2 SPD K with L in range: K Theta = -L at every sample.
    rng = np.random.default_rng(6)
    grid = make_grid(1.0, 3)
    steps, n_paths, m, n = grid.N + 1, 2, 2, 2
    Kv = np.empty((steps, n_paths, m, m))
    Lv = np.empty((steps, n_paths, m, n))
    for i in range(steps):
        for p in range(n_paths):
            S = rng.uniform(-1.0, 1.0, (m, m))
            Kv[i, p] = S @ S.T + 0.5 * np.eye(m)
            Lv[i, p] = rng.uniform(-1.0, 1.0, (m, n))
    law = synthesize(*_matrix_problem(grid, Kv, Lv))
    resid = Lv + np.einsum("tpij,tpjk->tpik", Kv, law.theta.values)
    assert np.abs(resid).max() <= 1e-10


def test_synthesize_matrix_offenders_in_time_then_path_order():
    grid = make_grid(1.0, 3)
    t = grid.points
    Kv = np.broadcast_to(np.eye(2), (grid.N + 1, 50, 2, 2)).copy()
    Lv = np.ones((grid.N + 1, 50, 2, 1))
    # Range offenders: K = diag(1, 0) with L outside its range; at (1, 1) L
    # lies inside it and the rank-deficient K is fine.
    for i, p in ((0, 5), (2, 9), (2, 1), (1, 1)):
        Kv[i, p] = np.diag([1.0, 0.0])
    Lv[1, 1] = [[1.0], [0.0]]
    # PSD offenders: a negative eigenvalue; (2, 9) is out of range as well.
    bad_psd = ((3, 2), (1, 30), (1, 7), (2, 9))
    psd_Kv = Kv.copy()
    for i, p in bad_psd:
        psd_Kv[i, p] = np.diag([-1.0, 0.0]) if (i, p) == (2, 9) else np.diag([1.0, -1.0])

    with pytest.raises(SynthesisInfeasibleError) as exc:
        synthesize(*_matrix_problem(grid, psd_Kv, Lv))
    assert exc.value.reason == "psd"
    assert exc.value.total_offenders == 4
    assert exc.value.offenders == [(t[1], 7), (t[1], 30), (t[2], 9), (t[3], 2)]

    # With K PSD everywhere the range offenders surface, and only they.
    with pytest.raises(SynthesisInfeasibleError) as exc:
        synthesize(*_matrix_problem(grid, Kv, Lv))
    assert exc.value.reason == "range"
    assert exc.value.total_offenders == 3
    assert exc.value.offenders == [(t[0], 5), (t[2], 1), (t[2], 9)]

    # The offender list stops at 100; the count does not.
    psd_Kv[:] = np.diag([1.0, -1.0])
    with pytest.raises(SynthesisInfeasibleError) as exc:
        synthesize(*_matrix_problem(grid, psd_Kv, Lv))
    assert exc.value.total_offenders == (grid.N + 1) * 50
    assert len(exc.value.offenders) == 100
    assert exc.value.offenders[0] == (t[0], 0) and exc.value.offenders[-1] == (t[1], 49)


def test_synthesize_guards():
    # The counterexample batch has 4 PSD offenders (see above); a NaN
    # tolerance must not switch the check off, nor a negative one flag all.
    grid = make_grid(1.0, 128)
    cex = closed_form_counterexample(grid, sample_brownian(grid, 500, seed=1))
    Kv = np.broadcast_to(np.eye(2), (5, 3, 2, 2)).copy()
    matrix = _matrix_problem(make_grid(1.0, 4), Kv, np.ones((5, 3, 2, 2)))
    for sol, model in ((cex, scenario_counterexample(1.0)), matrix):
        for tol in (np.nan, np.inf, -1.0):
            with pytest.raises(InvalidArgumentError, match="tol"):
                synthesize(sol, model, tol=tol)
    Kv[2, 1] = [[1.0, 1.0], [0.0, 1.0]]
    with pytest.raises(InvalidArgumentError, match="symmetric"):
        synthesize(*_matrix_problem(make_grid(1.0, 4), Kv, np.ones((5, 3, 2, 2))))
    grid, batch, sol, model = _example1_setup(N=8, n_paths=4)
    with pytest.raises(InvalidArgumentError, match="theta_free"):
        synthesize(sol, model, theta_free=np.zeros((3, 3)))
    with pytest.raises(InvalidArgumentError, match="theta_free"):
        synthesize(*matrix, theta_free=np.zeros((2, 3)))


def test_synthesize_dimension_guard():
    grid, batch, sol, model = _example1_setup(N=8, n_paths=4)
    wrong = scenario_deterministic(0, 0, 0, 0, 0, 0, 0, T=1.0)
    two_dim = type(wrong)(
        n=2, m=1,
        A=lambda i, W: np.zeros((2, 2)), B=lambda i, W: np.zeros((2, 1)),
        C=lambda i, W: np.zeros((2, 2)), D=lambda i, W: np.zeros((2, 1)),
        Q=lambda i, W: np.zeros((2, 2)), R=lambda i, W: np.eye(1),
        G=lambda W: np.zeros((2, 2)),
    )
    with pytest.raises(InvalidArgumentError):
        synthesize(sol, two_dim)


# ---------------------------------------------------------------------------
# regularity_diagnostics
# ---------------------------------------------------------------------------

def test_regularity_left_point_norm_formula():
    grid = make_grid(1.0, 4)
    theta = PathArray(np.arange(10.0).reshape(5, 2, 1, 1))
    law = FeedbackLaw(theta=theta, source=None)
    report = regularity_diagnostics(law, grid, bound_threshold=100.0)
    # Left-point rule over running indices 0..N-1.
    v = theta.values[:, :, 0, 0]
    expected = grid.h * (v[:-1] ** 2).sum(axis=0)
    np.testing.assert_allclose(report.pathwise_sqnorm, expected, rtol=0.0, atol=1e-14)
    assert report.max == expected.max()
    assert report.mean == pytest.approx(expected.mean())
    assert set(report.quantiles) == {0.5, 0.9, 0.99}
    assert report.qualified
    assert law.diagnostics is report


def test_regularity_default_threshold_is_ten_medians():
    grid, batch, sol, model = _example1_setup()
    law = synthesize(sol, model)
    report = regularity_diagnostics(law, grid)
    assert report.bound_threshold == pytest.approx(
        10.0 * np.median(report.pathwise_sqnorm))
    # |Theta| = |cos W|/y <= 1, so the sqnorm is <= T and the verdict holds.
    assert report.max <= 1.0 + 1e-12
    assert report.qualified


def test_regularity_explicit_threshold_can_fail():
    grid, batch, sol, model = _example1_setup()
    law = synthesize(sol, model)
    report = regularity_diagnostics(law, grid)
    # A threshold strictly below the observed max flips the verdict.
    tight = regularity_diagnostics(law, grid, bound_threshold=0.5 * report.max)
    assert not tight.qualified
    assert isinstance(tight, RegularityReport)


def test_regularity_step_count_guard():
    grid = make_grid(1.0, 4)
    theta = PathArray(np.zeros((3, 2, 1, 1)))
    law = FeedbackLaw(theta=theta, source=None)
    with pytest.raises(InvalidArgumentError):
        regularity_diagnostics(law, grid)


# ---------------------------------------------------------------------------
# stationarity_residual
# ---------------------------------------------------------------------------

def test_stationarity_zero_problem_is_exact():
    model = scenario_deterministic(0, 0, 0, 0, 0, 0, 0, T=1.0)
    grid = make_grid(1.0, 8)
    sol = solve_deterministic(model, grid)
    law = synthesize(sol, model)
    res = stationarity_residual(law, sol, model)
    assert res.max_residual == 0.0
    assert res.pi_form_residual == 0.0


def test_stationarity_classical_instance_is_exact():
    # K = 1 exactly, so Theta = -L and the residual cancels bit for bit.
    model = scenario_deterministic(0, 1, 0, 0, 0, 1, 1, T=1.0)
    grid = make_grid(1.0, 32)
    sol = solve_deterministic(model, grid)
    law = synthesize(sol, model)
    res = stationarity_residual(law, sol)
    assert res.max_residual == 0.0
    assert res.pi_form_residual is None


def test_stationarity_example1_roundoff_scale():
    grid, batch, sol, model = _example1_setup()
    law = synthesize(sol, model)
    res = stationarity_residual(law, sol, model, batch.W)
    assert res.max_residual <= 1e-12
    assert res.pi_form_residual <= 1e-12


def test_stationarity_refuses_a_path_array_of_another_shape():
    grid, batch, sol, model = _example1_setup(N=16, n_paths=20)
    law = synthesize(sol, model)
    finer = sample_brownian(make_grid(1.0, 32), 20, seed=1)
    for W in (finer.W, batch.W[:9], batch.W[:, 0], batch.W[..., None]):
        with pytest.raises(InvalidArgumentError, match="W must be 2-D with 17 rows"):
            stationarity_residual(law, sol, model, W)
