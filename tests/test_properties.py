"""Property tests (hypothesis) for path sampling and coefficient tables."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from slqkit.grid import make_grid, sample_brownian
from slqkit.problem import CoefficientModel, coefficient_table

SETTINGS = settings(max_examples=40, deadline=None)


@SETTINGS
@given(
    N=st.integers(2, 12),
    n_paths=st.integers(1, 24),
    seed=st.integers(0, 2**64 - 1),
    cuts=st.lists(st.integers(1, 23), max_size=5),
)
def test_sample_brownian_any_chunking_reproduces_the_batch(N, n_paths, seed, cuts):
    grid = make_grid(1.0, N)
    whole = sample_brownian(grid, n_paths, seed)
    bounds = sorted({0, n_paths, *(c for c in cuts if c < n_paths)})
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = sample_brownian(grid, hi - lo, seed, path_offset=lo)
        np.testing.assert_array_equal(chunk.W, whole.W[:, lo:hi])
        np.testing.assert_array_equal(chunk.increments, whole.increments[:, lo:hi])


# How an evaluator may depend on the path: a constant matrix, per-path
# scalars, per-path matrices, or constant early and per-path later.
FORMS = ("const", "scalars", "matrices", "switch")


def _evaluator(form, rows, cols, k):
    M = np.arange(1.0, rows * cols + 1).reshape(rows, cols) / (k + 1)
    if form == "const":
        return lambda i, W: M
    if form == "scalars" and rows == cols == 1:
        return lambda i, W: np.sin(W[i] + k)
    if form == "switch":
        return lambda i, W: M if i < 2 else M * np.cos(W[i])[:, None, None]
    return lambda i, W: M * (1.0 + W[i] ** 2)[:, None, None]


@SETTINGS
@given(
    n=st.integers(1, 2),
    m=st.integers(1, 2),
    N=st.integers(2, 6),
    n_paths=st.integers(1, 5),
    forms=st.lists(st.sampled_from(FORMS), min_size=6, max_size=6),
)
def test_every_table_row_equals_the_evaluator(n, m, N, n_paths, forms):
    shapes = {"A": (n, n), "B": (n, m), "C": (n, n), "D": (n, m), "Q": (n, n), "R": (m, m)}
    evaluators = {name: _evaluator(form, *shapes[name], k)
                  for k, (name, form) in enumerate(zip(shapes, forms))}
    model = CoefficientModel(n=n, m=m, G=lambda W: np.eye(n), kind="path_dependent",
                             **evaluators)
    W = sample_brownian(make_grid(1.0, N), n_paths, seed=N).W
    tab = coefficient_table(model, W)
    for name in shapes:
        for i in range(N + 1):
            np.testing.assert_array_equal(tab.at(name, i, n_paths),
                                          model.coeff(name, i, W[: i + 1], n_paths))
