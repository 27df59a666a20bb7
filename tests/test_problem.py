"""Tests for the coefficient-model data layer and the built-in scenarios."""

import dataclasses
import gc
import math
import re
import weakref

import numpy as np
import pytest

from slqkit.errors import InvalidArgumentError
from slqkit import grid as grid_module
from slqkit.grid import BrownianBatch, _time_blocks, make_grid, sample_brownian
from slqkit.problem import (
    Y_SHIFT,
    Y_UPPER,
    ZETA_SCALE,
    CoefficientModel,
    CoefficientTable,
    InitialCondition,
    coefficient_table,
    counterexample_paths,
    delta_grid,
    example1_y,
    scenario_counterexample,
    scenario_deterministic,
    scenario_example1,
)


def _zero_path_batch(grid, n_paths=3):
    return BrownianBatch.from_increments(grid, np.zeros((grid.N, n_paths)))


# ---------------------------------------------------------------------------
# CoefficientModel / InitialCondition plumbing
# ---------------------------------------------------------------------------

def test_model_guards():
    model = scenario_deterministic(0, 1, 0, 0, 0, 1, 1, T=1.0)
    with pytest.raises(InvalidArgumentError):
        CoefficientModel(n=0, m=1, A=model.A, B=model.B, C=model.C, D=model.D,
                         Q=model.Q, R=model.R, G=model.G)
    with pytest.raises(InvalidArgumentError):
        CoefficientModel(n=1, m=1, A=model.A, B=model.B, C=model.C, D=model.D,
                         Q=model.Q, R=model.R, G=model.G, kind="mystery")
    # A bool or non-integer dimension is refused here, not by a bare
    # TypeError when the first table is allocated.
    for dims, name in (({"n": True}, "n"), ({"m": True}, "m"), ({"n": 1.0}, "n"),
                       ({"m": "1"}, "m")):
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be a positive integer"):
            dataclasses.replace(model, **dims)
    assert dataclasses.replace(model, n=np.int64(1)).n == 1


def test_coeff_normalizes_shapes():
    model = scenario_deterministic(0.5, 1, 0, 0, 0, 1, 1, T=1.0)
    W = np.zeros((3, 4))
    out = model.coeff("A", 2, W, 4)
    assert out.shape == (1, 1, 1)  # a path-constant value is one row
    np.testing.assert_array_equal(out, 0.5)
    # So is a Python scalar for a 1x1 slot.
    out = dataclasses.replace(model, A=lambda i, W: 0.5).coeff("A", 2, W, 4)
    assert out.shape == (1, 1, 1)
    np.testing.assert_array_equal(out, 0.5)
    # Per-path 3-d and per-path-scalar 1-d returns are accepted for 1x1.
    per_path = CoefficientModel(
        n=1, m=1,
        A=lambda i, W: W[i],  # (n_paths,) scalars
        B=model.B, C=model.C, D=model.D, Q=model.Q, R=model.R, G=model.G,
        kind="markov_in_W",
    )
    W = np.arange(12.0).reshape(3, 4)
    out = per_path.coeff("A", 1, W[:2], 4)
    assert out.shape == (4, 1, 1)
    np.testing.assert_array_equal(out[:, 0, 0], W[1])


def test_coeff_rejects_wrong_shapes():
    base = scenario_deterministic(0, 1, 0, 0, 0, 1, 1, T=1.0)
    bad = CoefficientModel(
        n=2, m=1,
        A=lambda i, W: np.zeros((3, 3)),
        B=lambda i, W: np.zeros((2, 1)),
        C=lambda i, W: np.zeros((2, 2)),
        D=lambda i, W: np.zeros((2, 1)),
        Q=lambda i, W: np.zeros((2, 2)),
        R=lambda i, W: np.zeros((1, 1)),
        G=base.G,
    )
    with pytest.raises(InvalidArgumentError):
        bad.coeff("A", 0, np.zeros((1, 2)), 2)
    with pytest.raises(InvalidArgumentError):
        # Scalar return for a 2x2 slot.
        CoefficientModel(
            n=2, m=1,
            A=lambda i, W: 1.0, B=bad.B, C=bad.C, D=bad.D, Q=bad.Q, R=bad.R, G=bad.G,
        ).coeff("A", 0, np.zeros((1, 2)), 2)
    # A per-path stack of another path count, and a 4-d return.
    for A, match in ((lambda i, W: np.zeros((3, 1, 1)), "shape (3, 1, 1), expected (4,1,1)"),
                     (lambda i, W: np.zeros((4, 1, 1, 1)), "ndim=4 output")):
        with pytest.raises(InvalidArgumentError, match=re.escape(f"A evaluator returned {match}")):
            dataclasses.replace(base, A=A).coeff("A", 0, np.zeros((1, 4)), 4)


def test_initial_condition_shapes_and_guards():
    init = InitialCondition(start_index=0, eta=np.array([2.0]))
    col = init.eta_column(1, 5)
    assert col.shape == (5, 1, 1)
    np.testing.assert_array_equal(col, 2.0)

    per_path = InitialCondition(start_index=1, eta=np.arange(10.0).reshape(5, 2))
    col = per_path.eta_column(2, 5)
    assert col.shape == (5, 2, 1)

    with pytest.raises(InvalidArgumentError):
        InitialCondition(start_index=-1, eta=np.array([1.0]))
    for bad in (True, 1.5, 1.0, "1"):
        with pytest.raises(InvalidArgumentError, match="start_index"):
            InitialCondition(start_index=bad, eta=np.array([1.0]))
    assert InitialCondition(start_index=np.int64(1), eta=np.array([1.0])).start_index == 1
    with pytest.raises(InvalidArgumentError):
        InitialCondition(start_index=0, eta=np.array([np.nan]))
    assert InitialCondition(start_index=0, eta=np.float64(2.0)).eta.shape == (1,)
    with pytest.raises(InvalidArgumentError, match=re.escape(
            "eta must be a vector or (n_paths, n) array, got shape (2, 2, 1)")):
        InitialCondition(start_index=0, eta=np.zeros((2, 2, 1)))
    with pytest.raises(InvalidArgumentError):
        init.eta_column(3, 5)  # length mismatch
    with pytest.raises(InvalidArgumentError):
        per_path.eta_column(2, 4)  # path-count mismatch


# ---------------------------------------------------------------------------
# Coefficient tables
# ---------------------------------------------------------------------------

def test_table_keeps_constants_as_one_row_and_widens_path_dependent_ones():
    base = scenario_deterministic(0.5, 1, 0, 0, 0, 1, 2, T=1.0)
    model = CoefficientModel(
        n=1, m=1, A=base.A, B=base.B, D=base.D, Q=base.Q, R=base.R,
        # constant for the first three nodes, then path-dependent
        C=lambda i, W: np.full((1, 1), 0.2) if i < 3 else 0.5 * W[i],
        G=base.G, kind="path_dependent",
    )
    grid = make_grid(1.0, 8)
    batch = sample_brownian(grid, 5, seed=2)
    tab = coefficient_table(model, batch.W)
    assert tab.A.shape == (9, 1, 1, 1)
    assert tab.G.shape == (1, 1, 1)
    assert tab.C.shape == (9, 5, 1, 1)
    np.testing.assert_array_equal(tab.C[:3], 0.2)
    np.testing.assert_array_equal(tab.C[3:, :, 0, 0], 0.5 * batch.W[3:])
    assert not tab.A.flags.writeable and not tab.C.flags.writeable


def test_table_is_memoized_per_read_only_batch_only():
    model = scenario_example1(1.0)
    grid = make_grid(1.0, 8)
    batch = sample_brownian(grid, 4, seed=1)
    assert coefficient_table(model, batch.W) is coefficient_table(model, batch.W)
    assert coefficient_table(model, batch.W) is not coefficient_table(
        scenario_example1(1.0), batch.W)
    writable = batch.W.copy()
    assert coefficient_table(model, writable) is not coefficient_table(model, writable)


def test_table_memo_does_not_outlive_its_batch():
    # The memo is bound to the batch's paths, never to the model: a model
    # kept across batches must not keep a dead batch alive.
    model = scenario_example1(1.0)
    batch = sample_brownian(make_grid(1.0, 8), 4, seed=1)
    coefficient_table(model, batch.W).G
    ref = weakref.ref(batch.W)
    del batch
    gc.collect()
    assert ref() is None


def test_table_stays_usable_after_its_batch_is_freed():
    # A table is a plain value: it holds no reference to the paths it was
    # built on, and its G was evaluated with the rest of it.
    model = scenario_example1(1.0)
    batch = sample_brownian(make_grid(1.0, 8), 4, seed=1)
    W = batch.W
    paths = W.copy()
    tab = coefficient_table(model, W)
    ref = weakref.ref(W)
    del batch, W
    gc.collect()
    assert ref() is None
    np.testing.assert_array_equal(tab.G, model.terminal(paths, 4))


# ---------------------------------------------------------------------------
# Admission rule of the coefficient table
# ---------------------------------------------------------------------------

def _with(base, **evaluators):
    return dataclasses.replace(base, kind="path_dependent", **evaluators)


@pytest.mark.parametrize("name", ["A", "B", "C", "D", "Q", "R"])
def test_table_refuses_a_non_finite_coefficient_naming_index_and_path(name):
    # 5000 paths make blocks of three time rows, so index 7 sits in the third.
    W = np.zeros((9, 5000))
    assert len(_time_blocks(np.empty((9, 5000, 1, 1)))) == 3

    def nan_at_7_on_path_2(i, W):
        v = np.full(W.shape[1], 0.5)
        v[2] = np.nan if i == 7 else 0.5
        return v

    model = _with(scenario_deterministic(0, 1, 0, 0, 0, 1, 1, T=1.0),
                  **{name: nan_at_7_on_path_2})
    with pytest.raises(InvalidArgumentError,
                       match=f"^{name} has a non-finite entry at index 7, path 2$"):
        CoefficientTable(model, W)


def test_table_refuses_a_non_finite_terminal_naming_the_path():
    # G's blocks run over paths: 20000 paths of 1x1 make two.
    def G(W):
        g = np.ones((W.shape[1], 1, 1))
        g[17000] = np.inf
        return g

    model = _with(scenario_deterministic(0, 1, 0, 0, 0, 1, 1, T=1.0), G=G)
    with pytest.raises(InvalidArgumentError, match="^G has a non-finite entry at path 17000$"):
        coefficient_table(model, np.zeros((9, 20000)))


def test_table_refuses_a_deterministic_model_whose_rows_differ_across_paths():
    base = scenario_deterministic(0, 1, 0, 0, 0, 1, 1, T=1.0)
    W = np.zeros((9, 5000))
    W[7, 4321] = 1.0

    def moves_at_7(i, W):
        return 0.5 + W[i]

    for name in ("A", "B", "C", "D", "Q", "R"):
        model = dataclasses.replace(base, **{name: moves_at_7})
        with pytest.raises(InvalidArgumentError, match=f"^{name} of a 'deterministic' model "
                                                       "differs across paths at index 7, path 4321$"):
            CoefficientTable(model, W)
        # Declared path-dependent, the same rows are admitted.
        CoefficientTable(dataclasses.replace(model, kind="path_dependent"), W)
    model = dataclasses.replace(base, G=lambda W: 1.0 + W[-1] ** 2)
    paths = np.zeros((9, 20000))
    paths[-1, 17000] = 2.0
    with pytest.raises(InvalidArgumentError, match="^G of a 'deterministic' model differs "
                                                   "across paths at path 17000$"):
        CoefficientTable(model, paths)
    # A per-path stack of equal rows is still admitted.
    stacked = dataclasses.replace(base, Q=lambda i, W: np.full((W.shape[1], 1, 1), 2.0),
                                  G=lambda W: np.ones(W.shape[1]))
    tab = CoefficientTable(stacked, W)
    assert tab.Q.shape == (9, 5000, 1, 1) and (tab.Q == 2.0).all()


def test_table_refuses_an_asymmetric_weight_naming_its_asymmetry():
    def model_with(R):
        return CoefficientModel(n=1, m=2, A=lambda i, W: np.zeros((1, 1)),
                                B=lambda i, W: np.zeros((1, 2)), C=lambda i, W: np.zeros((1, 1)),
                                D=lambda i, W: np.zeros((1, 2)), Q=lambda i, W: np.zeros((1, 1)),
                                R=lambda i, W: R, G=lambda W: np.eye(1))

    W = sample_brownian(make_grid(1.0, 8), 5, seed=1).W
    with pytest.raises(InvalidArgumentError,
                       match=r"^R is not symmetric within tolerance \(max asymmetry 1\.000e\+00\)$"):
        coefficient_table(model_with(np.array([[0.0, 1.0], [0.0, 0.0]])), W)
    # Only finiteness and symmetry are admitted: R may be indefinite.
    indefinite = np.diag([1.0, -1.0])
    assert (coefficient_table(model_with(indefinite), W).R[3, 0] == indefinite).all()


def test_example1_terminal_stays_in_its_band():
    model = scenario_example1(1.0)
    batch = sample_brownian(make_grid(1.0, 64), 500, seed=1)
    g = coefficient_table(model, batch.W).G
    assert g.min() >= 0.125 - 1e-12
    assert g.max() <= 0.875 + 1e-12


def test_admitting_a_per_path_weight_holds_no_batch_sized_temporary(traced_peak):
    S = np.random.default_rng(1).normal(size=(50_000, 2, 2))
    Q = S + S.swapaxes(-1, -2)
    eye = np.eye(2)
    model = CoefficientModel(n=2, m=2, A=lambda i, W: eye, B=lambda i, W: eye,
                             C=lambda i, W: eye, D=lambda i, W: eye, Q=lambda i, W: Q,
                             R=lambda i, W: eye, G=lambda W: eye, kind="path_dependent")
    W = np.zeros((16, 50_000))
    tab, peak = traced_peak(lambda: CoefficientTable(model, W))
    assert tab.Q.shape == (16, 50_000, 2, 2)
    # Tabulating allocates the (N+1, 50k, 2, 2) array itself; admitting it adds
    # less than a quarter of it.
    assert peak < 1.25 * tab.Q.nbytes


# ---------------------------------------------------------------------------
# Scenario: solvable scalar instance
# ---------------------------------------------------------------------------

def test_example1_terminal_equals_y_at_the_horizon_bit_for_bit():
    T = 1.5
    R = 1.0 / (2.0 * (3.0 + T))
    grid = make_grid(T, 64)
    W = sample_brownian(grid, 5000, seed=2).W
    assert len(_time_blocks(W[1:])) >= 3
    for paths in (W, np.zeros((grid.N + 1, 1))):
        expected = 1.0 / example1_y(grid, paths)[-1] - R
        assert scenario_example1(T).G(paths)[:, 0, 0].tobytes() == expected.tobytes()


def test_example1_terminal_holds_no_batch_sized_temporary(traced_peak):
    batch = sample_brownian(make_grid(1.0, 256), 10000, seed=1)
    model = scenario_example1(1.0)
    G, peak = traced_peak(lambda: model.terminal(batch.W, batch.n_paths))
    assert G.shape == (10000, 1, 1)
    assert peak < 0.25 * batch.W.nbytes


def test_example1_coefficients():
    model = scenario_example1(1.0)
    assert model.n == 1 and model.m == 1
    # G depends on the running integral of sin W, not on W_T alone.
    assert model.kind == "path_dependent"
    W = np.zeros((1, 2))
    assert model.coeff("R", 0, W, 2)[0, 0, 0] == 0.125
    for name in ("A", "B", "C", "Q"):
        np.testing.assert_array_equal(model.coeff(name, 0, W, 2), 0.0)
    np.testing.assert_array_equal(model.coeff("D", 0, W, 2), 1.0)
    # R = 1/(2(3+T)) for general T.
    assert scenario_example1(2.0).coeff("R", 0, W, 2)[0, 0, 0] == pytest.approx(0.1)
    for T in (0.0, True, "1"):
        with pytest.raises(InvalidArgumentError, match="^T must be a finite real > 0"):
            scenario_example1(T)


def test_example1_features_are_sin_and_its_integral():
    # y = 2 + T/2 + sin W + (1/2) * integral, so the features determine y.
    grid = make_grid(1.0, 32)
    batch = sample_brownian(grid, 40, seed=4)
    sin_w, integral = scenario_example1(1.0).features(batch.W)
    np.testing.assert_array_equal(sin_w, np.sin(batch.W))
    np.testing.assert_array_equal(integral[0], 0.0)
    np.testing.assert_array_equal(2.5 + sin_w + 0.5 * integral,
                                  example1_y(grid, batch.W))
    assert sin_w.flags.c_contiguous and integral.flags.c_contiguous


def test_example1_zero_path_values():
    grid = make_grid(1.0, 8)
    batch = _zero_path_batch(grid)
    model = scenario_example1(1.0)
    y = example1_y(grid, batch.W)
    np.testing.assert_allclose(y, 2.5, rtol=0.0, atol=1e-15)
    g = model.terminal(batch.W, batch.n_paths)
    np.testing.assert_allclose(g, 1.0 / 2.5 - 0.125, rtol=0.0, atol=1e-15)


def test_example1_y_range_on_sampled_paths():
    grid = make_grid(1.0, 64)
    batch = sample_brownian(grid, 500, seed=1)
    y = example1_y(grid, batch.W)
    assert y.min() >= 1.0 - 1e-12
    assert y.max() <= 4.0 + 1e-12


def test_example1_y_prefix_consistency():
    # y on a prefix equals the prefix of y on the full path (adaptedness).
    grid = make_grid(1.0, 16)
    batch = sample_brownian(grid, 10, seed=2)
    full = example1_y(grid, batch.W)
    for k in (0, 5, 16):
        np.testing.assert_array_equal(example1_y(grid, batch.W[: k + 1]), full[: k + 1])


def test_example1_ito_identity_residual_shrinks_with_h():
    # sin W_T = sum cos(W_i) dW_i - (1/2) sum sin(W_i) h + O(h^{1/2}) pathwise;
    # the median residual scales like sqrt(h): it roughly halves per 4x
    # refinement and stays below 0.5 sqrt(h).
    medians = {}
    for N in (64, 256, 1024):
        grid = make_grid(1.0, N)
        b = sample_brownian(grid, 2000, seed=1)
        resid = np.abs(
            np.sin(b.W[-1])
            - (np.cos(b.W[:-1]) * b.increments).sum(axis=0)
            + 0.5 * grid.h * np.sin(b.W[:-1]).sum(axis=0)
        )
        medians[N] = float(np.median(resid))
        assert medians[N] <= 0.5 * math.sqrt(grid.h)
    assert medians[64] > medians[256] > medians[1024]
    assert 0.35 <= medians[256] / medians[64] <= 0.65
    assert 0.35 <= medians[1024] / medians[256] <= 0.65


# ---------------------------------------------------------------------------
# Scenario: counterexample
# ---------------------------------------------------------------------------

def test_counterexample_constants():
    assert ZETA_SCALE == pytest.approx(math.pi / (2.0 * math.sqrt(2.0)), abs=1e-15)
    assert Y_SHIFT == pytest.approx(1.0 + ZETA_SCALE, abs=1e-15)
    assert Y_UPPER == pytest.approx(1.0 + math.pi / math.sqrt(2.0), abs=1e-15)
    assert delta_grid(0.25) == pytest.approx(3.0 * 0.25**0.4, abs=1e-15)


def test_counterexample_model_coefficients():
    model = scenario_counterexample(1.0)
    W = np.zeros((1, 2))
    assert model.coeff("R", 0, W, 2)[0, 0, 0] == 0.25
    np.testing.assert_array_equal(model.coeff("D", 0, W, 2), 1.0)
    for name in ("A", "B", "C", "Q"):
        np.testing.assert_array_equal(model.coeff(name, 0, W, 2), 0.0)
    with pytest.raises(InvalidArgumentError):
        scenario_counterexample(-1.0)


def test_counterexample_zero_path():
    # W = 0 never crosses: tau = T, zeta active on the whole truncated grid,
    # Y frozen at its additive constant, G = Y_SHIFT^{-1} - 1/4.
    grid = make_grid(1.0, 8)
    batch = _zero_path_batch(grid, n_paths=2)
    aux = counterexample_paths(grid, batch)
    np.testing.assert_array_equal(aux.M, 0.0)
    np.testing.assert_array_equal(aux.tau_index, 8)
    expected = np.broadcast_to((ZETA_SCALE / np.sqrt(1.0 - grid.points[:8]))[:, None], (8, 2))
    np.testing.assert_allclose(aux.zeta[:8], expected, rtol=0.0, atol=1e-15)
    np.testing.assert_array_equal(aux.zeta[8], 0.0)
    np.testing.assert_array_equal(aux.Y, Y_SHIFT)
    g = scenario_counterexample(1.0).terminal(batch.W, 2)
    np.testing.assert_allclose(g, 1.0 / Y_SHIFT - 0.25, rtol=0.0, atol=1e-15)


def test_counterexample_forced_crossing():
    # One crafted path: dW_0 = 1.2 makes |M_1| = 1.2 > 1, so tau is grid
    # index 1.  zeta stays active *through* the crossing index (the
    # indicator compares t_i <= tau) and shuts off strictly after it.
    grid = make_grid(1.0, 4)
    inc = np.array([[1.2], [0.5], [-0.3], [0.1]])
    batch = BrownianBatch.from_increments(grid, inc)
    aux = counterexample_paths(grid, batch)
    assert aux.tau_index[0] == 1
    inv_sqrt = 1.0 / np.sqrt(1.0 - grid.points[:4])
    assert aux.zeta[0, 0] == pytest.approx(ZETA_SCALE * inv_sqrt[0])
    assert aux.zeta[1, 0] == pytest.approx(ZETA_SCALE * inv_sqrt[1])
    assert aux.zeta[2, 0] == 0.0
    assert aux.zeta[3, 0] == 0.0
    assert aux.zeta[4, 0] == 0.0
    # Y accumulates zeta dW through index 2, then freezes.
    y2 = Y_SHIFT + aux.zeta[0, 0] * 1.2 + aux.zeta[1, 0] * 0.5
    assert aux.Y[2, 0] == pytest.approx(y2, abs=1e-14)
    assert aux.Y[3, 0] == pytest.approx(y2, abs=1e-14)
    assert aux.Y[4, 0] == pytest.approx(y2, abs=1e-14)


def test_counterexample_stopped_sum_identity():
    # The accumulated sum of zeta dW is exactly the scaled stopped M:
    # Y_i = Y_SHIFT + ZETA_SCALE * M_{min(i, tau+1)} on every path.
    grid = make_grid(1.0, 64)
    batch = sample_brownian(grid, 200, seed=1)
    aux = counterexample_paths(grid, batch)
    idx = np.minimum(np.arange(grid.N + 1)[:, None], aux.tau_index[None, :] + 1)
    stopped_M = np.take_along_axis(aux.M, idx, axis=0)
    np.testing.assert_allclose(aux.Y, Y_SHIFT + ZETA_SCALE * stopped_M,
                               rtol=0.0, atol=1e-12)


def test_counterexample_envelope_on_non_crossing_paths():
    # Paths that never cross satisfy the sharp bound |sum zeta dW| <=
    # ZETA_SCALE with no grid slack at all; crossing paths can overshoot by
    # one increment, which stays a small fraction of the batch here.
    grid = make_grid(1.0, 64)
    batch = sample_brownian(grid, 200, seed=1)
    aux = counterexample_paths(grid, batch)
    ito = aux.Y - Y_SHIFT
    never = ~(np.abs(aux.M) > 1.0).any(axis=0)
    assert never.any()
    assert np.abs(ito[:, never]).max() <= ZETA_SCALE + 1e-12
    dg = delta_grid(grid.h)
    ito_viol = (np.abs(ito) > ZETA_SCALE + dg).any(axis=0)
    y_viol = ((aux.Y < 1.0 - dg) | (aux.Y > Y_UPPER + dg)).any(axis=0)
    # The two envelope readings flag exactly the same paths, and the
    # violating fraction is small at this scale (measured 16/200 at seed 1).
    np.testing.assert_array_equal(ito_viol, y_viol)
    assert ito_viol.sum() <= 20


def test_counterexample_paths_grid_mismatch_guard():
    grid = make_grid(1.0, 8)
    other = make_grid(1.0, 16)
    batch = sample_brownian(other, 4, seed=1)
    with pytest.raises(InvalidArgumentError, match="8 steps to T = 1.0, the batch 16 steps"):
        counterexample_paths(grid, batch)


@pytest.mark.parametrize("entries", [1, 5 * 64, 1 << 18])
def test_counterexample_G_walks_path_blocks_bit_for_bit(monkeypatch, entries):
    # Blocks of 1 path, of 5 paths with a short last block, and one block.
    monkeypatch.setattr(grid_module, "_PATH_BLOCK_ENTRIES", entries)
    grid = make_grid(1.0, 64)
    batch = sample_brownian(grid, 37, seed=4)
    want = 1.0 / counterexample_paths(grid, batch).Y[-1] - 0.25
    got = scenario_counterexample(1.0).G(batch.W)
    assert got.shape == (37, 1, 1)
    np.testing.assert_array_equal(got[:, 0, 0], want)


# ---------------------------------------------------------------------------
# Adaptedness
# ---------------------------------------------------------------------------

def test_adaptedness_under_suffix_perturbation():
    # Changing the path strictly after index i must not change any
    # coefficient evaluation at i, nor any auxiliary process value up to i.
    grid = make_grid(1.0, 16)
    batch = sample_brownian(grid, 8, seed=3)
    rng = np.random.default_rng(7)
    i = 9
    inc2 = batch.increments.copy()
    inc2[i:] = rng.normal(size=inc2[i:].shape)  # rewrite the future
    batch2 = BrownianBatch.from_increments(grid, inc2)
    np.testing.assert_array_equal(batch.W[: i + 1], batch2.W[: i + 1])

    state_dep = CoefficientModel(
        n=1, m=1,
        A=lambda j, W: np.sin(W[j]),
        B=lambda j, W: np.cos(W[j]),
        C=lambda j, W: 0.5 * W[j],
        D=lambda j, W: np.ones((1, 1)),
        Q=lambda j, W: W[j] ** 2,
        R=lambda j, W: np.ones((1, 1)),
        G=lambda W: np.ones((W.shape[1], 1, 1)),
        kind="path_dependent",
    )
    for name in ("A", "B", "C", "Q"):
        a = state_dep.coeff(name, i, batch.W[: i + 1], 8)
        b = state_dep.coeff(name, i, batch2.W[: i + 1], 8)
        np.testing.assert_array_equal(a, b)
    # The same holds for every row 0..i of the coefficient tables.
    tab1 = coefficient_table(state_dep, batch.W)
    tab2 = coefficient_table(state_dep, batch2.W)
    for name in ("A", "B", "C", "D", "Q", "R"):
        np.testing.assert_array_equal(getattr(tab1, name)[: i + 1],
                                      getattr(tab2, name)[: i + 1])

    aux1 = counterexample_paths(grid, batch)
    aux2 = counterexample_paths(grid, batch2)
    np.testing.assert_array_equal(aux1.zeta[: i + 1], aux2.zeta[: i + 1])
    np.testing.assert_array_equal(aux1.Y[: i + 1], aux2.Y[: i + 1])
    np.testing.assert_array_equal(
        example1_y(grid, batch.W[: i + 1]), example1_y(grid, batch2.W[: i + 1])
    )
    # Example 1's declared regression features, rows 0..i.
    ex1 = scenario_example1(1.0)
    for f1, f2 in zip(ex1.features(batch.W), ex1.features(batch2.W), strict=True):
        np.testing.assert_array_equal(f1[: i + 1], f2[: i + 1])
        assert not np.array_equal(f1[i + 1:], f2[i + 1:])


# ---------------------------------------------------------------------------
# Deterministic scenario
# ---------------------------------------------------------------------------

def test_scenario_deterministic_values_and_guards():
    model = scenario_deterministic(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, T=2.0)
    W = np.zeros((1, 3))
    for name, v in (("A", 1.0), ("B", 2.0), ("C", 3.0), ("D", 4.0),
                    ("Q", 5.0), ("R", 6.0)):
        np.testing.assert_array_equal(model.coeff(name, 0, W, 3), v)
    np.testing.assert_array_equal(model.terminal(W, 3), 7.0)
    assert model.kind == "deterministic"
    with pytest.raises(InvalidArgumentError):
        scenario_deterministic(np.inf, 0, 0, 0, 0, 1, 1, T=1.0)
    with pytest.raises(InvalidArgumentError):
        scenario_deterministic(0, 0, 0, 0, 0, 1, 1, T=0.0)
