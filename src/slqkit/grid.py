"""Uniform time grids, Brownian path batches, and process storage.

Conventions used across the package:

* time is discretized on a uniform grid ``t_i = i*h``, ``h = T/N``, with the
  final point pinned to ``T`` exactly;
* all sampled quantities are time-major: a batch stores only its cumulative
  paths ``(N+1, n_paths)``, and its increments ``(N, n_paths)`` are derived
  from them on read;
* path batches are reproducible from ``(seed, path_index)`` alone.  Path
  ``p`` reads the counter-based Philox stream keyed by
  ``(seed mod 2**64, p mod 2**64)`` from a zero counter (Salmon et al.,
  "Parallel random numbers: as easy as 1, 2, 3", SC'11).  One generator per
  call is re-keyed for every path, so generating paths in chunks
  (``path_offset``) yields bit-identical results to one monolithic call.

A batch sampled at ``2N`` steps is *not* a pathwise refinement of the batch
sampled at ``N`` steps with the same seed: streams are consumed per path at
native resolution, and no nesting across step counts is promised.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, _integer, _real

__all__ = [
    "TimeGrid",
    "BrownianBatch",
    "PathArray",
    "make_grid",
    "sample_brownian",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of ``[0, T]`` into ``N`` steps.

    Attributes
    ----------
    T : float
        Horizon, strictly positive.
    N : int
        Number of steps (``>= 2``).
    h : float
        Step size ``T / N``.
    points : numpy.ndarray
        Grid nodes ``t_0 .. t_N``, shape ``(N+1,)``; ``points[-1] == T``
        exactly.
    """

    T: float
    N: int
    h: float
    points: np.ndarray = field(repr=False)


# The most float64 entries NumPy can size in one array (its byte count must fit an intp):
# a grid's N + 1 nodes and a batch's (N + 1) * n_paths path entries are held to it.
_MAX_ENTRIES = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


def _step_count(N, name: str = "step count N") -> int:
    """``N`` by the integer rule, ``>= 2``, with its ``N + 1`` nodes within ``_MAX_ENTRIES``."""
    return _integer(N, name, 2, _MAX_ENTRIES - 1)


def _path_count(n_paths, name: str, N: int) -> int:
    """``n_paths`` by the integer rule, ``>= 1``, with the ``(N + 1) * n_paths`` entries
    of a batch on an ``N``-step grid within ``_MAX_ENTRIES``."""
    return _integer(n_paths, name, 1, _MAX_ENTRIES // (N + 1))


def make_grid(T: float, N: int) -> TimeGrid:
    """Build the uniform grid with ``N`` steps on ``[0, T]``.

    Parameters
    ----------
    T : float
        Horizon; must be finite and ``> 0``.
    N : int
        Step count; must be an integer ``>= 2``.

    Returns
    -------
    TimeGrid

    Raises
    ------
    InvalidArgumentError
        If ``T`` is not a positive finite real or ``N < 2`` or ``N`` is not
        integral, or if ``N + 1`` nodes exceed ``_MAX_ENTRIES``.
    """
    T, N = _real(T, "horizon T", 0.0, strict=True), _step_count(N)
    h = T / N
    points = h * np.arange(N + 1, dtype=np.float64)
    points[N] = T  # pin the endpoint exactly
    points.setflags(write=False)
    return TimeGrid(T=T, N=N, h=h, points=points)


@dataclass(frozen=True)
class BrownianBatch:
    """A batch of scalar Brownian paths on a :class:`TimeGrid`.

    Attributes
    ----------
    grid : TimeGrid
    seed : int
        Seed the batch was drawn from (0 for hand-built batches).
    W : numpy.ndarray
        Shape ``(N+1, n_paths)`` cumulative paths with ``W[0] == 0``; the
        batch's one stored array.

    ``n_paths`` and ``increments`` are derived from ``W`` on read.  Batches
    built by :func:`sample_brownian` and :meth:`from_increments` are
    immutable: ``W`` is read-only, which lets its coefficient tables and
    closed loops be shared per batch (:func:`_shared`).  Every batch is
    admitted where it is built: ``seed`` by the integer rule, and ``W`` as
    stated above, finite, read in place and never copied, since the shared
    entries key on its identity.
    """

    grid: TimeGrid
    seed: int
    W: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        W, N = self.W, self.grid.N
        if not isinstance(W, np.ndarray) or W.ndim != 2 or len(W) != N + 1:
            raise InvalidArgumentError(f"W must be an array of shape ({N + 1}, n_paths), "
                                       f"got {getattr(W, 'shape', type(W).__name__)}")
        _integer(W.shape[1], "n_paths", 1)
        if not all(np.isfinite(W[b]).all() for b in _time_blocks(W)):
            raise InvalidArgumentError("W contains non-finite entries")
        if W[0].any():
            raise InvalidArgumentError("W[0] must be 0 on every path")

    @property
    def n_paths(self) -> int:
        return self.W.shape[1]

    @property
    def increments(self) -> np.ndarray:
        """Shape ``(N, n_paths)``; ``increments[i]`` is ``W[i+1] - W[i]``,
        exactly.  A fresh read-only array on each read."""
        inc = np.diff(self.W, axis=0)
        inc.setflags(write=False)
        return inc

    @staticmethod
    def from_increments(grid: TimeGrid, increments: np.ndarray, seed: int = 0) -> "BrownianBatch":
        """Wrap externally supplied increments (e.g. forced test paths).

        ``increments`` must have shape ``(grid.N, n_paths)`` and be finite;
        the batch itself admits ``n_paths >= 1`` and ``seed``.  Only their
        cumulative sums are kept, so the batch's increments are read back as
        the exact differences of ``W``.
        """
        inc = np.asarray(increments, dtype=np.float64)
        if inc.ndim != 2 or inc.shape[0] != grid.N:
            raise InvalidArgumentError(
                f"increments must have shape ({grid.N}, n_paths), got {inc.shape}"
            )
        if not np.isfinite(inc).all():
            raise InvalidArgumentError("increments contain non-finite entries")
        W = np.zeros((grid.N + 1, inc.shape[1]), dtype=np.float64)
        np.cumsum(inc, axis=0, out=W[1:])
        W.setflags(write=False)
        return BrownianBatch(grid=grid, seed=seed, W=W)


# The arrays' ids -> (one finalizer per array, {key: (pin, value)}).
_SHARED: dict[tuple[int, ...], tuple[list, dict]] = {}


def _shared(arrays: tuple, key, pin, build):
    """``build()``, built once per ``key`` on read-only ``arrays`` that own
    their data, and kept until any of the arrays is freed.  An entry holds
    ``pin`` (the objects whose ids are in ``key``) and no reference to its
    arrays; a value is a pure function of its key, so sharing it changes no
    result.  A writable or view array gets a fresh ``build()`` on every call."""
    if any(a.flags.writeable or a.base is not None for a in arrays):
        return build()
    ids = tuple(map(id, arrays))
    if ids not in _SHARED:
        _SHARED[ids] = ([weakref.finalize(a, _drop, ids) for a in arrays], {})
    entries = _SHARED[ids][1]
    if key not in entries:
        entries[key] = (pin, build())
    return entries[key][1]


def _drop(ids: tuple) -> None:
    """Drop the entries on ``ids`` when the first of their arrays is freed,
    with the finalizers of the others, which would otherwise outlive it."""
    for f in _SHARED.pop(ids)[0]:
        f.detach()


def _require_grid(what: str, grid: TimeGrid, batch, of: str = "the batch") -> None:
    """``grid`` must have the step count and horizon of ``batch.grid``, ``of``'s grid."""
    if grid.N != batch.grid.N or grid.T != batch.grid.T:
        raise InvalidArgumentError(f"{what} has {grid.N} steps to T = {grid.T}, {of} "
                                   f"{batch.grid.N} steps to T = {batch.grid.T}")


def _require_process(what: str, v: np.ndarray, N: int, n_paths: int, entries: tuple) -> None:
    """A process on an ``N``-step grid is ``(N+1, k, r, c)``, with ``(r, c)`` its
    ``entries`` and ``k`` 1 or ``n_paths``; else :class:`InvalidArgumentError` naming ``what``."""
    if v.shape[0] != N + 1:
        raise InvalidArgumentError(f"{what} has {v.shape[0]} time rows, expected {N + 1}")
    if v.shape[2:] != entries:
        raise InvalidArgumentError(
            f"{what} entries must be {entries} for the model, got {v.shape[2:]}")
    if v.shape[1] not in (1, n_paths):
        raise InvalidArgumentError(f"{what} has {v.shape[1]} paths, expected 1 or {n_paths}")


_BLOCK_ENTRIES = 1 << 14  # entries per array in one block of _time_blocks (128 KB of float64)
# Entries per array in one block of _path_blocks (2 MB of float64): a path block is one
# task of a worker pool, and its hand-off made blocks of 1 << 14 slow the probe 45% on 2 CPUs.
_PATH_BLOCK_ENTRIES = 1 << 18


def _time_blocks(*arrays: np.ndarray) -> list[slice]:
    """The arrays' leading (time) axis as slices in order, each spanning at most
    ``_BLOCK_ENTRIES`` entries of every array and at least one row."""
    step = max(1, _BLOCK_ENTRIES // max(1, *(math.prod(a.shape[1:]) for a in arrays)))
    return [slice(lo, lo + step) for lo in range(0, max(1, *map(len, arrays)), step)]


def _path_blocks(n_paths: int, N: int, cap: int) -> list[slice]:
    """Paths ``[0, n_paths)`` as slices in order, each at most ``cap`` paths,
    at most ``_PATH_BLOCK_ENTRIES`` entries of a path-major ``(paths, N)``
    array, and at least one path."""
    step = max(1, min(cap, _PATH_BLOCK_ENTRIES // N))
    return [slice(lo, min(lo + step, n_paths)) for lo in range(0, n_paths, step)]


def _scaled_normals(grid: TimeGrid, n_paths: int, seed: int, path_offset: int = 0,
                    out: np.ndarray | None = None) -> np.ndarray:
    """``sqrt(h)`` times the standard normals of paths ``[path_offset,
    path_offset + n_paths)``, path-major ``(n_paths, N)``, written to ``out``
    when given (C-contiguous, that shape).  One Philox is re-keyed per path,
    far cheaper than building one, which reads OS entropy."""
    rows = np.empty((n_paths, grid.N), dtype=np.float64) if out is None else out
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    key = np.array([int(seed) & 2**64 - 1, 0], dtype=np.uint64)
    zero = np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": zero, "key": key},
             "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for p in range(n_paths):
        key[1] = (int(path_offset) + p) & 2**64 - 1
        bitgen.state = state
        gen.standard_normal(out=rows[p])
    rows *= math.sqrt(grid.h)
    return rows


def _path_major_increments(grid: TimeGrid, n_paths: int, seed: int, path_offset: int = 0,
                           work: np.ndarray | None = None,
                           out: np.ndarray | None = None) -> np.ndarray:
    """``sample_brownian(grid, n_paths, seed, path_offset=path_offset)
    .increments.T`` bit for bit, built path-major; arguments are not checked.
    ``work`` (left holding ``W_1 .. W_N``) and ``out`` are optional
    C-contiguous ``(n_paths, N)`` buffers."""
    W = _scaled_normals(grid, n_paths, seed, path_offset, out=work)
    np.cumsum(W, axis=1, out=W)  # W_1 .. W_N
    dW = np.empty_like(W) if out is None else out
    dW[:, 0] = W[:, 0]
    np.subtract(W[:, 1:], W[:, :-1], out=dW[:, 1:])
    return dW


def sample_brownian(
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    path_offset: int = 0,
) -> BrownianBatch:
    """Draw ``n_paths`` independent Brownian paths on ``grid``.

    Parameters
    ----------
    grid : TimeGrid
    n_paths : int
        Number of paths, ``>= 1``.
    seed : int
        64-bit reproducibility seed.  Path ``p`` is a pure function of
        ``(seed, p)``.
    path_offset : int, optional
        Global index of the first path in this batch.  Sampling
        ``[offset, offset + n_paths)`` in chunks reproduces the corresponding
        columns of a single monolithic batch bit-for-bit.

    Returns
    -------
    BrownianBatch

    Raises
    ------
    InvalidArgumentError
        On a non-positive ``n_paths`` or one whose ``(N + 1) * n_paths``
        entries exceed ``_MAX_ENTRIES``, a bool or non-integer ``seed``, or a
        negative or non-integer ``path_offset``.
    """
    n_paths, seed = _path_count(n_paths, "n_paths", grid.N), _integer(seed, "seed")
    rows = _scaled_normals(grid, n_paths, seed, _integer(path_offset, "path_offset", 0))
    W = np.zeros((grid.N + 1, n_paths), dtype=np.float64)
    np.cumsum(rows.T, axis=0, out=W[1:])
    W.setflags(write=False)
    return BrownianBatch(grid=grid, seed=seed, W=W)


@dataclass(frozen=True)
class PathArray:
    """Time-indexed batch of matrices, shape ``(N+1, n_paths, rows, cols)``.

    The container used for Riccati solutions, gains, states and controls.
    All entries must be finite.
    """

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 4:
            raise InvalidArgumentError(
                f"PathArray values must be 4-d (time, path, rows, cols), got shape {v.shape}"
            )
        if not all(np.isfinite(v[b]).all() for b in _time_blocks(v)):
            raise InvalidArgumentError("PathArray values contain non-finite entries")
        object.__setattr__(self, "values", v)

    @property
    def n_paths(self) -> int:
        return self.values.shape[1]

    @property
    def rows(self) -> int:
        return self.values.shape[2]
