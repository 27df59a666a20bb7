"""Tests for time grids, Brownian batches, and the PathArray container."""

import math
import tracemalloc

import numpy as np
import pytest

from slqkit.errors import InvalidArgumentError
from slqkit.grid import BrownianBatch, PathArray, make_grid, sample_brownian


def test_make_grid_basic_layout():
    grid = make_grid(1.0, 4)
    assert grid.T == 1.0
    assert grid.N == 4
    assert grid.h == 0.25
    assert grid.points.shape == (5,)
    np.testing.assert_array_equal(grid.points, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_make_grid_endpoint_pinned_exactly():
    # 1/3-sized steps do not accumulate to T exactly; the last node must
    # still equal T bit-for-bit.
    grid = make_grid(1.0, 3)
    assert grid.points[-1] == 1.0
    grid = make_grid(0.7, 7)
    assert grid.points[-1] == 0.7


def test_make_grid_points_read_only():
    grid = make_grid(1.0, 4)
    with pytest.raises(ValueError):
        grid.points[0] = 1.0


def test_make_grid_rejects_bad_arguments():
    with pytest.raises(InvalidArgumentError):
        make_grid(0.0, 4)
    with pytest.raises(InvalidArgumentError):
        make_grid(-1.0, 4)
    with pytest.raises(InvalidArgumentError):
        make_grid(math.inf, 4)
    with pytest.raises(InvalidArgumentError):
        make_grid(1.0, 1)
    with pytest.raises(InvalidArgumentError):
        make_grid(1.0, 2.5)
    with pytest.raises(InvalidArgumentError):
        make_grid(1.0, True)
    # Too long for repr, which used to raise a plain ValueError from the message.
    with pytest.raises(InvalidArgumentError, match="got an integer of 5001 digits$"):
        make_grid(10**5000, 4)
    # More nodes than a NumPy array can size: refused before anything is allocated,
    # not a bare ValueError from np.arange or an OverflowError from T / N.
    for N in (10**20, 10**400):
        with pytest.raises(InvalidArgumentError, match="^step count N must be an integer <= "):
            make_grid(1.0, N)
    # A bool or a string horizon is refused, not read as T = 1.0 or T = 2.0.
    for T in (True, "2"):
        with pytest.raises(InvalidArgumentError, match="horizon T"):
            make_grid(T, 4)


def test_sample_brownian_shapes_and_start():
    grid = make_grid(1.0, 8)
    batch = sample_brownian(grid, 5, seed=1)
    assert batch.W.shape == (9, 5)
    assert batch.increments.shape == (8, 5)
    np.testing.assert_array_equal(batch.W[0], 0.0)
    assert batch.n_paths == 5
    assert batch.seed == 1


def test_sample_brownian_increments_are_exact_differences():
    grid = make_grid(1.0, 16)
    batch = sample_brownian(grid, 7, seed=3)
    np.testing.assert_array_equal(batch.increments, np.diff(batch.W, axis=0))


def test_sample_brownian_deterministic_in_seed():
    grid = make_grid(1.0, 8)
    a = sample_brownian(grid, 6, seed=42)
    b = sample_brownian(grid, 6, seed=42)
    np.testing.assert_array_equal(a.W, b.W)
    c = sample_brownian(grid, 6, seed=43)
    assert not np.array_equal(a.W, c.W)
    # NumPy integers key the same streams as the Python ints they equal.
    for seed, offset in ((np.int64(42), np.int64(0)), (np.int64(-7), np.int64(4)),
                         (np.uint64(2**63 + 5), 2)):
        np.testing.assert_array_equal(
            sample_brownian(grid, 6, seed=seed, path_offset=offset).W,
            sample_brownian(grid, 6, seed=int(seed), path_offset=int(offset)).W)


def test_sample_brownian_path_is_function_of_seed_and_index():
    # Path p must depend only on (seed, global index p), never on batch size.
    grid = make_grid(1.0, 8)
    small = sample_brownian(grid, 2, seed=9)
    large = sample_brownian(grid, 10, seed=9)
    np.testing.assert_array_equal(small.W, large.W[:, :2])


def test_sample_brownian_chunking_bit_identical():
    grid = make_grid(1.0, 8)
    whole = sample_brownian(grid, 10, seed=5)
    first = sample_brownian(grid, 4, seed=5, path_offset=0)
    second = sample_brownian(grid, 6, seed=5, path_offset=4)
    glued = np.concatenate([first.W, second.W], axis=1)
    np.testing.assert_array_equal(whole.W, glued)


def test_sample_brownian_argument_guards():
    grid = make_grid(1.0, 4)
    with pytest.raises(InvalidArgumentError):
        sample_brownian(grid, 0, seed=1)
    with pytest.raises(InvalidArgumentError):
        sample_brownian(grid, 4, seed=1, path_offset=-1)
    # A bool seed is refused, not read as the stream of 0 or 1.
    for seed in (1.5, True):
        with pytest.raises(InvalidArgumentError, match="seed"):
            sample_brownian(grid, 4, seed=seed)
    # A non-integer offset is refused, not truncated to another stream.
    for offset in (2.7, 2.0, True, "2"):
        with pytest.raises(InvalidArgumentError, match="path_offset"):
            sample_brownian(grid, 4, seed=1, path_offset=offset)
    np.testing.assert_array_equal(sample_brownian(grid, 4, seed=1, path_offset=np.int64(2)).W,
                                  sample_brownian(grid, 4, seed=1, path_offset=2).W)
    # More path entries than a NumPy array can size: refused before anything is
    # allocated, not a bare ValueError from the buffer of normals.
    with pytest.raises(InvalidArgumentError, match="^n_paths must be an integer <= "):
        sample_brownian(make_grid(1.0, 2), 10**20, seed=1)


def test_sample_brownian_moment_sanity():
    # Terminal mean ~ 0 and variance ~ T, judged against Monte Carlo
    # standard errors at a fixed seed (never resampled).
    grid = make_grid(1.0, 16)
    batch = sample_brownian(grid, 20000, seed=1)
    wT = batch.W[-1]
    n = wT.size
    mean_se = wT.std(ddof=1) / math.sqrt(n)
    assert abs(wT.mean()) <= 5.0 * mean_se
    var = wT.var(ddof=1)
    var_se = math.sqrt(2.0 / (n - 1))  # SE of the sample variance of N(0,1)
    assert abs(var - grid.T) <= 5.0 * var_se


def test_from_increments_round_trip_and_canonicalization():
    grid = make_grid(1.0, 4)
    inc = np.array([[0.1, -0.2], [0.3, 0.0], [-0.1, 0.5], [0.2, -0.4]])
    batch = BrownianBatch.from_increments(grid, inc)
    assert batch.W.shape == (5, 2)
    np.testing.assert_allclose(batch.W[-1], inc.sum(axis=0), rtol=0.0, atol=1e-15)
    np.testing.assert_array_equal(batch.increments, np.diff(batch.W, axis=0))


def test_batches_are_read_only():
    # A coefficient table memoized per batch is only valid on immutable paths.
    grid = make_grid(1.0, 4)
    for batch in (sample_brownian(grid, 3, seed=1),
                  BrownianBatch.from_increments(grid, np.zeros((4, 3)))):
        with pytest.raises(ValueError):
            batch.W[1, 0] = 1.0
        with pytest.raises(ValueError):
            batch.increments[0] += 1.0


def test_sample_brownian_holds_at_most_two_batch_arrays(traced_peak):
    # At the peak only the path-major normals and the cumulative paths are live.
    grid = make_grid(1.0, 128)
    batch, peak = traced_peak(lambda: sample_brownian(grid, 8000, seed=1))
    assert peak < 2.1 * batch.W.nbytes
    np.testing.assert_array_equal(batch.increments, np.diff(batch.W, axis=0))


def test_a_batch_keeps_one_batch_sized_array():
    # The increments are derived on read, not stored next to W.
    grid = make_grid(1.0, 128)
    sample_brownian(grid, 2, seed=1)  # the first call also counts lazy imports
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        batch = sample_brownian(grid, 8000, seed=1)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 1.05 * batch.W.nbytes
    assert batch.n_paths == 8000


def test_from_increments_guards():
    grid = make_grid(1.0, 4)
    with pytest.raises(InvalidArgumentError):
        BrownianBatch.from_increments(grid, np.zeros((3, 2)))
    with pytest.raises(InvalidArgumentError):
        BrownianBatch.from_increments(grid, np.full((4, 2), np.nan))
    # A zero-path batch is refused here, not later by whatever first reads it.
    with pytest.raises(InvalidArgumentError, match="n_paths"):
        BrownianBatch.from_increments(grid, np.zeros((4, 0)))
    # The seed follows sample_brownian's rule: no bool, no truncated float.
    for seed in (True, 2.7, "x"):
        with pytest.raises(InvalidArgumentError, match="seed"):
            BrownianBatch.from_increments(grid, np.zeros((4, 2)), seed=seed)
    assert BrownianBatch.from_increments(grid, np.zeros((4, 2)), seed=np.int64(3)).seed == 3


def test_brownian_batch_admits_W_as_documented():
    # A hand-built batch is admitted where it is built.  Each of these used to pass
    # and end a value identity check in a bare IndexError or, for NaN paths, in a
    # FiniteEscapeError blaming the state.
    grid = make_grid(1.0, 8)
    for W, match in ((np.zeros((5, 3)), r"shape \(9, n_paths\), got \(5, 3\)$"),
                     (np.zeros(9), r"shape \(9, n_paths\), got \(9,\)$"),
                     (np.full((9, 2), np.nan), "W contains non-finite entries"),
                     (np.ones((9, 2)), r"W\[0\] must be 0"),
                     (np.zeros((9, 0)), "n_paths must be a positive integer"),
                     ([[0.0]] * 9, "got list")):
        with pytest.raises(InvalidArgumentError, match=match):
            BrownianBatch(grid, 0, W)
    W = np.zeros((9, 2))
    W[5, 1] = np.inf
    with pytest.raises(InvalidArgumentError, match="non-finite"):
        BrownianBatch(grid, 0, W)
    with pytest.raises(InvalidArgumentError, match="^seed must be an integer, got True"):
        BrownianBatch(grid, True, np.zeros((9, 2)))
    # Batches from both constructors are admitted as before, and W is read in
    # place: the memo keys on its identity.
    for batch in (sample_brownian(grid, 3, seed=2),
                  BrownianBatch.from_increments(grid, np.ones((8, 3)), seed=np.int64(2))):
        again = BrownianBatch(grid, batch.seed, batch.W)
        assert again.W is batch.W and type(again.seed) is int and again.seed == 2


def test_path_array_shape_and_accessors():
    values = np.zeros((5, 3, 2, 2))
    pa = PathArray(values)
    assert pa.n_paths == 3
    assert pa.rows == 2


def test_path_array_rejects_bad_input():
    with pytest.raises(InvalidArgumentError):
        PathArray(np.zeros((5, 3, 2)))
    with pytest.raises(InvalidArgumentError):
        PathArray(np.full((5, 3, 2, 2), np.inf))


def test_path_array_checks_finiteness_in_blocks(traced_peak):
    # The check holds no mask of the whole array, and still sees its last entry.
    values = np.zeros((64, 50000, 1, 1))
    pa, peak = traced_peak(lambda: PathArray(values))
    assert pa.values is values
    assert peak < values.nbytes / 16
    values[-1, -1] = np.nan
    with pytest.raises(InvalidArgumentError, match="non-finite"):
        PathArray(values)


def test_grids_at_different_resolutions_are_not_nested():
    # Streams are consumed at native resolution: the 2N-step batch is a
    # fresh draw, not a refinement of the N-step batch.
    coarse = sample_brownian(make_grid(1.0, 8), 4, seed=1)
    fine = sample_brownian(make_grid(1.0, 16), 4, seed=1)
    assert not np.allclose(coarse.W[-1], fine.W[-1])
