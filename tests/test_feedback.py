"""Tests for gain synthesis, regularity diagnostics, and stationarity."""

import dataclasses

import numpy as np
import pytest

from slqkit.errors import InvalidArgumentError, SynthesisInfeasibleError
from slqkit.grid import PathArray, _time_blocks, make_grid, sample_brownian
from slqkit.pinv import solvability
from slqkit.problem import (
    CoefficientModel,
    CoefficientTable,
    scenario_counterexample,
    scenario_deterministic,
    scenario_example1,
)
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
    solve_bsre_regression,
    solve_deterministic,
)


def _example1_setup(N=64, n_paths=200, seed=1):
    grid = make_grid(1.0, N)
    batch = sample_brownian(grid, n_paths, seed=seed)
    sol = closed_form_example1(grid, batch)
    model = scenario_example1(1.0)
    return grid, batch, sol, model


def _solution_with(grid, Kv, Lv):
    """A solution whose derived K and L are exactly the ``(N+1, k, m, m)``
    ``Kv`` and ``(N+1, k, m, n)`` ``Lv``: ``P = I``, ``Lambda = 0`` and a
    per-path table with ``D = 0``, ``R = K`` and ``B = L^T``, so that
    ``R + D^T P D = K`` and ``B^T P + D^T (P C + Lambda) = L``."""
    m, n = Lv.shape[2:]
    lead = (grid.N + 1, max(Kv.shape[1], Lv.shape[1]))

    def zero(i, W):
        return np.zeros((n, n))

    model = CoefficientModel(
        n=n, m=m, A=zero, C=zero, Q=zero, D=lambda i, W: np.zeros((n, m)),
        B=lambda i, W: np.broadcast_to(Lv[i], lead[1:] + (m, n)).swapaxes(-1, -2),
        R=lambda i, W: np.broadcast_to(Kv[i], lead[1:] + (m, m)), G=lambda W: np.zeros((n, n)),
        kind="path_dependent")
    return RiccatiSolution(grid=grid, P=PathArray(np.broadcast_to(np.eye(n), lead + (n, n))),
                           Lambda=PathArray(np.zeros(lead + (n, n))),
                           table=CoefficientTable(model, np.zeros(lead)))


def _manual_solution(grid, K, L, n_paths=1):
    """Hand-built scalar solution with constant K, L at every sample."""
    shape = (grid.N + 1, n_paths, 1, 1)
    return _solution_with(grid, np.full(shape, float(K)), np.full(shape, float(L)))


def _zero_model(n, m):
    return CoefficientModel(
        n=n, m=m,
        A=lambda i, W: np.zeros((n, n)), B=lambda i, W: np.zeros((n, m)),
        C=lambda i, W: np.zeros((n, n)), D=lambda i, W: np.zeros((n, m)),
        Q=lambda i, W: np.zeros((n, n)), R=lambda i, W: np.eye(m),
        G=lambda W: np.zeros((n, n)),
    )


def _matrix_problem(grid, Kv, Lv):
    """A solution with the given ``(N+1, n_paths, m, m)`` K and
    ``(N+1, n_paths, m, n)`` L, and a zero model of matching dimensions."""
    m, n = Lv.shape[2:]
    return _solution_with(grid, Kv, Lv), _zero_model(n, m)


def _asymmetric_K_problem(grid, Kv):
    """A solution whose derived K is the ``(N+1, k, m, m)`` ``Kv``, symmetric or
    not, on a table the admission rule accepts, and a zero model of matching
    dimensions: ``D = I``, ``B = -I``, ``C = 0``, ``Lambda = 0``,
    ``P = I + antisym(Kv)`` and the symmetric ``R = sym(Kv) - I``, so that
    ``R + D^T P D = Kv``; no table rule reads ``P``."""
    m = Kv.shape[-1]
    eye = np.eye(m)
    sym, anti = 0.5 * (Kv + Kv.swapaxes(-1, -2)), 0.5 * (Kv - Kv.swapaxes(-1, -2))
    zero = _zero_model(m, m)
    model = dataclasses.replace(zero, B=lambda i, W: -eye, D=lambda i, W: eye,
                                R=lambda i, W: sym[i] - eye, kind="path_dependent")
    sol = RiccatiSolution(grid=grid, P=PathArray(eye + anti), Lambda=PathArray(np.zeros(Kv.shape)),
                          table=CoefficientTable(model, np.zeros(Kv.shape[:2])))
    return sol, zero


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


def _constant_solution(model, grid, p):
    """A one-path solution of ``model`` with ``P = p`` and ``Lambda = 0`` everywhere."""
    P = np.full((grid.N + 1, 1, model.n, model.n), p)
    return RiccatiSolution(grid=grid, P=PathArray(P), Lambda=PathArray(np.zeros_like(P)),
                           table=CoefficientTable(model, np.zeros((grid.N + 1, 1))))


def test_synthesize_range_violation_is_seen_at_any_scale():
    # K = 0 and L = P: L is off K's range also where ||L||^2 overflows.
    model = scenario_deterministic(0, 1, 0, 0, 0, 0, 1, T=1.0)
    grid = make_grid(1.0, 8)
    for p in (1.0, 1e160):
        with pytest.raises(SynthesisInfeasibleError) as exc:
            synthesize(_constant_solution(model, grid, p), model)
        assert exc.value.reason == "range"


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


def test_blocked_synthesis_equals_the_whole_batch_formulas():
    # Rank-one 2x2 K with L = K X in its range, on a stack of several blocks.
    rng = np.random.default_rng(8)
    grid = make_grid(1.0, 16)
    lead = (grid.N + 1, 4000)
    v = rng.normal(size=lead + (2, 1))
    Kv = rng.uniform(0.5, 2.0, lead + (1, 1)) * v * v.swapaxes(-1, -2)
    Lv = Kv @ rng.normal(size=lead + (2, 3))
    assert len(_time_blocks(Kv, Lv)) >= 3
    sol, model = _matrix_problem(grid, Kv, Lv)
    Kd, psd, in_range = solvability(Kv, Lv)
    assert psd.all() and in_range.all()
    free = rng.normal(size=Lv.shape)
    for theta_free, expected in ((None, -(Kd @ Lv)),
                                 (free, -(Kd @ Lv) + (np.eye(2) - Kd @ Kv) @ free)):
        law = synthesize(sol, model, theta_free=theta_free)
        assert law.theta.values.tobytes() == expected.tobytes()
        resid = Lv + np.einsum("tpij,tpjk->tpik", Kv, expected)
        assert (stationarity_residual(law, sol).max_residual
                == float(np.sqrt(np.sum(resid * resid, axis=(2, 3))).max()))


def test_offenders_across_blocks_keep_time_then_path_order():
    grid = make_grid(1.0, 8)
    t = grid.points
    Kv = np.ones((grid.N + 1, 40000, 1, 1))
    assert len(_time_blocks(Kv)) == grid.N + 1
    Kv[5, :70] = -1.0  # a later block, at lower path indices
    Kv[2, 100:160] = -1.0
    sol = _solution_with(grid, Kv, np.zeros_like(Kv))
    with pytest.raises(SynthesisInfeasibleError) as exc:
        synthesize(sol, scenario_deterministic(0, 0, 0, 0, 0, 0, 0, T=1.0))
    assert exc.value.reason == "psd"
    assert exc.value.total_offenders == 130
    assert exc.value.offenders == ([(t[2], p) for p in range(100, 160)]
                                   + [(t[5], p) for p in range(40)])


def test_asymmetry_error_names_the_largest_asymmetry_of_all_blocks():
    grid = make_grid(1.0, 8)
    Kv = np.broadcast_to(np.eye(2), (grid.N + 1, 20000, 2, 2)).copy()
    assert len(_time_blocks(Kv)) == grid.N + 1
    Kv[1, 5, 0, 1] = 0.5
    Kv[6, 7, 0, 1] = 2.0
    problem = _asymmetric_K_problem(grid, Kv)  # the table admits it: only K is asymmetric
    with pytest.raises(InvalidArgumentError,
                       match=r"not symmetric within tolerance \(max asymmetry 2\.000e\+00\)"):
        synthesize(*problem)


def test_synthesis_and_stationarity_hold_no_batch_sized_temporary(traced_peak):
    rng = np.random.default_rng(4)
    grid = make_grid(1.0, 63)
    shape = (grid.N + 1, 50_000, 1, 1)
    z = PathArray(np.zeros(shape))
    sol = _solution_with(grid, rng.uniform(0.5, 2.0, shape), rng.normal(size=shape))
    model = scenario_deterministic(0, 0, 0, 1, 0, 1, 0, T=1.0)

    def synthesize_and_check():
        law = synthesize(sol, model)
        return law, stationarity_residual(law, sol, model)

    (law, st), peak = traced_peak(synthesize_and_check)
    assert st.max_residual <= 1e-12
    assert peak < law.theta.values.nbytes + 0.25 * z.values.nbytes


def test_regression_solution_feeds_synthesis_without_batch_sized_temporaries(traced_peak):
    # A solution holds its pair and table; synthesis and the residual derive
    # K and L one block of time rows at a time.
    assert [f.name for f in dataclasses.fields(RiccatiSolution)] == [
        "grid", "P", "Lambda", "table", "solver_tag"]
    grid = make_grid(1.0, 64)
    batch = sample_brownian(grid, 50_000, seed=1)
    model = scenario_example1(1.0)
    sol = solve_bsre_regression(model, grid, batch)

    def synthesize_and_check():
        law = synthesize(sol, model)
        return law, stationarity_residual(law, sol, model, batch.W)

    (law, st), peak = traced_peak(synthesize_and_check)
    assert st.max_residual <= 1e-12
    assert peak < law.theta.values.nbytes + 0.25 * batch.W.nbytes


def test_synthesize_guards():
    # The counterexample batch has 4 PSD offenders (see above); a NaN
    # tolerance must not switch the check off, nor a negative one flag all.
    grid = make_grid(1.0, 128)
    cex = closed_form_counterexample(grid, sample_brownian(grid, 500, seed=1))
    Kv = np.broadcast_to(np.eye(2), (5, 3, 2, 2)).copy()
    matrix = _matrix_problem(make_grid(1.0, 4), Kv, np.ones((5, 3, 2, 2)))
    for sol, model in ((cex, scenario_counterexample(1.0)), matrix):
        for tol in (np.nan, np.inf, -1.0, True):
            with pytest.raises(InvalidArgumentError, match="tol"):
                synthesize(sol, model, tol=tol)
    Kv[2, 1] = [[1.0, 1.0], [0.0, 1.0]]
    asymmetric = _asymmetric_K_problem(make_grid(1.0, 4), Kv)
    with pytest.raises(InvalidArgumentError, match="symmetric"):
        synthesize(*asymmetric)
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


@pytest.mark.parametrize("shape", [(64, 50_000, 1, 1), (32, 3000, 2, 3), (40_001, 1, 1, 1)])
def test_regularity_sums_blocks_as_the_whole_batch_formula(shape, traced_peak):
    # Several paths sum their rows in time order, one path pairwise, both as
    # the whole-batch formula does; with many paths no batch-sized temporary.
    theta = np.random.default_rng(5).normal(size=shape)
    grid = make_grid(1.0, shape[0] - 1)
    law = FeedbackLaw(theta=PathArray(theta), source=None)
    report, peak = traced_peak(lambda: regularity_diagnostics(law, grid))
    expected = grid.h * np.sum(theta[:-1] ** 2, axis=(2, 3)).sum(axis=0)
    assert report.pathwise_sqnorm.tobytes() == expected.tobytes()
    if shape[1] > 1:
        assert len(_time_blocks(theta)) > 1
        assert peak < 0.25 * theta.nbytes


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


def test_regularity_refuses_a_non_finite_or_negative_threshold():
    # An infinite threshold marked any gain qualified.
    grid, batch, sol, model = _example1_setup(N=8, n_paths=4)
    law = synthesize(sol, model)
    for bad in (np.inf, np.nan, -1.0, True):
        with pytest.raises(InvalidArgumentError, match="^bound_threshold must be a finite real"):
            regularity_diagnostics(law, grid, bound_threshold=bad)
    assert not regularity_diagnostics(law, grid, bound_threshold=0).qualified


def test_regularity_step_count_guard():
    grid = make_grid(1.0, 4)
    theta = PathArray(np.zeros((3, 2, 1, 1)))
    law = FeedbackLaw(theta=theta, source=None)
    with pytest.raises(InvalidArgumentError, match="gain has 3 time rows, expected 5"):
        regularity_diagnostics(law, grid)
    # The same step count to another horizon used to rescale every pathwise norm.
    grid, batch, sol, model = _example1_setup(N=32, n_paths=50)
    law = synthesize(sol, model)
    with pytest.raises(InvalidArgumentError, match="the law's solution 32 steps to T = 1.0"):
        regularity_diagnostics(law, make_grid(2.0, 32))


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


def test_stationarity_residual_whose_squares_overflow_is_finite():
    # A zero gain leaves both forms at L = B P = 1e200, whose square overflows.
    model = scenario_deterministic(0, 1, 0, 2, 1, 1, 1, T=1.0)
    grid = make_grid(1.0, 8)
    sol = _constant_solution(model, grid, 1e200)
    law = FeedbackLaw(theta=PathArray(np.zeros((grid.N + 1, 1, 1, 1))), source=sol)
    res = stationarity_residual(law, sol, model)
    assert res.max_residual == res.pi_form_residual == 1e200


def test_stationarity_form_of_a_random_model_needs_its_batch():
    # Example 1 with a path-dependent R: on the zero path its pi-form reads
    # the wrong R and would come out near zero.
    grid, batch, sol, model = _example1_setup(N=16, n_paths=50)
    law = synthesize(sol, model)
    random_R = dataclasses.replace(model, R=lambda i, W: 0.125 * (1.0 + 0.5 * np.sin(W[i])))
    with pytest.raises(InvalidArgumentError, match="^stationarity_residual of a 'path_dependent' "
                                                   "model needs the batch its weights depend on$"):
        stationarity_residual(law, sol, random_R)
    assert stationarity_residual(law, sol, random_R, batch.W).pi_form_residual > 1e-3
    assert stationarity_residual(law, sol, model, batch.W).pi_form_residual <= 1e-12


def test_stationarity_refuses_a_path_array_of_another_shape():
    grid, batch, sol, model = _example1_setup(N=16, n_paths=20)
    law = synthesize(sol, model)
    finer = sample_brownian(make_grid(1.0, 32), 20, seed=1)
    for W in (finer.W, batch.W[:9], batch.W[:, 0], batch.W[..., None]):
        with pytest.raises(InvalidArgumentError, match="W must be 2-D with 17 rows"):
            stationarity_residual(law, sol, model, W)
    # A law, a solution or W of another grid or path count used to raise a bare NumPy error.
    finer_law = synthesize(closed_form_example1(finer.grid, finer), model)
    with pytest.raises(InvalidArgumentError, match="gain has 33 time rows, expected 17"):
        stationarity_residual(finer_law, sol, model, batch.W)
    with pytest.raises(InvalidArgumentError, match="W has 3 paths, expected 1 or 20"):
        stationarity_residual(law, sol, model, batch.W[:, :3])
    few = closed_form_example1(grid, sample_brownian(grid, 3, seed=1))
    with pytest.raises(InvalidArgumentError, match="solution has 3 paths, expected 1 or 20"):
        stationarity_residual(law, few, model, batch.W)
