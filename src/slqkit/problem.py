"""Problem data for the stochastic linear-quadratic control problem.

A :class:`CoefficientModel` packages the dynamics/cost coefficients

    dx = (A x + B u) dt + (C x + D u) dW,
    J(u) = 1/2 E[ integral of <Qx,x> + <Ru,u> dt  +  <G x(T), x(T)> ]

as *adapted evaluators*: each coefficient is a callable ``(i, W_prefix) ->
matrix`` receiving only the Brownian prefix ``W_0..W_i`` (shape
``(i+1, n_paths)``), so anticipating evaluations are impossible by
construction.  The terminal weight ``G`` receives the full path, and so do
the optional regression ``features``, whose row ``i`` may depend only on
``W_0..W_i``.

A :class:`CoefficientTable` holds every coefficient of one model evaluated
once on one path batch (:func:`coefficient_table`); the solvers, the
simulator, the cost quadrature, synthesis and every check read it instead
of calling the evaluators at every step.  It is also where data is
admitted: a table refuses non-finite coefficients and ``Q``, ``R`` or ``G``
that are not symmetric (see :class:`CoefficientTable`), so every reader
refuses them at this one place.

Built-in scenarios:

* :func:`scenario_example1` — the solvable scalar instance with closed-form
  Riccati pair (see :mod:`slqkit.riccati`);
* :func:`scenario_counterexample` — the scalar instance whose optimal gain
  exists pathwise but fails the uniform-in-scenarios regularity bar (its
  diffusion-gain process has exploding pathwise L2 norm as the grid refines);
* :func:`scenario_deterministic` — constant scalar coefficients for ODE-level
  oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidArgumentError, _integer, _real
from .grid import (BrownianBatch, TimeGrid, _path_blocks, _require_grid, _shared, _time_blocks,
                   make_grid)

__all__ = [
    "CoefficientModel",
    "CoefficientTable",
    "InitialCondition",
    "CounterexamplePaths",
    "coefficient_table",
    "scenario_example1",
    "scenario_counterexample",
    "scenario_deterministic",
    "example1_y",
    "counterexample_paths",
    "delta_grid",
    "ZETA_SCALE",
    "Y_SHIFT",
    "Y_UPPER",
]

# pi/(2*sqrt(2)): scale of the stopped integrand and additive constant in Y.
ZETA_SCALE = math.pi / (2.0 * math.sqrt(2.0))
# Y starts at 1 + pi/(2*sqrt(2)) and stays in [1, 1 + pi/sqrt(2)] in the
# continuum.  On the grid, zeta is still on at the crossing index tau, so a
# path that crosses before N - 1 ends at Y_SHIFT + ZETA_SCALE * M[tau + 1]:
# the grid version can overshoot either end by up to two increments.
Y_SHIFT = 1.0 + ZETA_SCALE
Y_UPPER = 1.0 + 2.0 * ZETA_SCALE


def delta_grid(h: float) -> float:
    """Discretization slack for stopped-envelope checks: ``3 * h**0.4``.

    The stopped integrals can overshoot their continuum envelopes by up to
    two increments: the one that carries ``M`` across the threshold at
    ``tau``, and the one after it, because ``zeta`` is still on at ``tau``
    itself.  This empirically calibrated allowance is meant to absorb that
    on both sides of the envelope.
    """
    return 3.0 * float(h) ** 0.4


Evaluator = Callable[[int, np.ndarray], np.ndarray]
Features = Callable[[np.ndarray], Sequence[np.ndarray]]


@dataclass(frozen=True)
class CoefficientModel:
    """Adapted coefficient data of a scalar-noise linear-quadratic problem.

    Attributes
    ----------
    n, m : int
        State and control dimensions, each a positive integer (not a bool).
    A, C, Q : callable
        ``(i, W_prefix) -> (n, n)`` (or ``(n_paths, n, n)``) evaluators.
    B, D : callable
        ``(i, W_prefix) -> (n, m)`` evaluators.
    R : callable
        ``(i, W_prefix) -> (m, m)`` evaluator.
    G : callable
        ``(W_full) -> (n, n)`` or ``(n_paths, n, n)`` terminal weight.
    kind : str
        One of ``"deterministic"`` (coefficients and G constant in the path,
        which :class:`CoefficientTable` checks on every batch),
        ``"markov_in_W"`` (functions of ``(t, W_t)``), ``"path_dependent"``.
    features : callable or None
        ``(W_full) -> sequence of (N+1, n_paths) arrays``, one per feature:
        a Markov state of the problem for the regression solver
        (:func:`slqkit.riccati.solve_bsre_regression`).  Row ``i`` of each
        array may depend only on ``W_0..W_i``.  ``None`` means the Brownian
        level ``W_t`` alone, which is only a Markov state for the first two
        kinds.
    """

    n: int
    m: int
    A: Evaluator = field(repr=False)
    B: Evaluator = field(repr=False)
    C: Evaluator = field(repr=False)
    D: Evaluator = field(repr=False)
    Q: Evaluator = field(repr=False)
    R: Evaluator = field(repr=False)
    G: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    kind: str = "deterministic"
    features: Features | None = field(default=None, repr=False)

    _SHAPES = {"A": ("n", "n"), "B": ("n", "m"), "C": ("n", "n"),
               "D": ("n", "m"), "Q": ("n", "n"), "R": ("m", "m"),
               "G": ("n", "n")}

    def __post_init__(self):
        _integer(self.n, "n", 1)
        _integer(self.m, "m", 1)
        if self.kind not in ("deterministic", "markov_in_W", "path_dependent"):
            raise InvalidArgumentError(f"unknown model kind {self.kind!r}")

    def _shape_of(self, name: str) -> tuple[int, int]:
        r, c = self._SHAPES[name]
        dims = {"n": self.n, "m": self.m}
        return dims[r], dims[c]

    def coeff(self, name: str, i: int, W_prefix: np.ndarray, n_paths: int) -> np.ndarray:
        """Evaluate coefficient ``name`` at index ``i`` as rows
        ``(1 or n_paths, rows, cols)``: one row when the value is the same
        on every path (see :func:`_normalize_eval`)."""
        rows, cols = self._shape_of(name)
        raw = np.asarray(getattr(self, name)(i, W_prefix), dtype=np.float64)
        return _normalize_eval(raw, name, n_paths, rows, cols)

    def terminal(self, W_full: np.ndarray, n_paths: int) -> np.ndarray:
        """Evaluate G on the full path as rows ``(1 or n_paths, n, n)``,
        normalized as :meth:`coeff`."""
        raw = np.asarray(self.G(W_full), dtype=np.float64)
        return _normalize_eval(raw, "G", n_paths, self.n, self.n)


def _normalize_eval(raw: np.ndarray, name: str, n_paths: int, rows: int, cols: int) -> np.ndarray:
    """One evaluation as rows ``(1 or n_paths, rows, cols)``.  A scalar or a
    ``(rows, cols)`` matrix is one row; so is a path-constant (stride-0)
    ``(n_paths, rows, cols)`` stack, which keeps its first row.  Per-path
    values, including ``(n_paths,)`` scalars of a 1x1 slot, keep their rows."""
    if raw.ndim == 0:
        if (rows, cols) != (1, 1):
            raise InvalidArgumentError(
                f"{name} evaluator returned a scalar but shape ({rows},{cols}) is required"
            )
        raw = raw.reshape(1, 1)
    if raw.ndim == 1 and rows == 1 and cols == 1:
        # per-path scalars for a 1x1 coefficient
        raw = raw.reshape(-1, 1, 1)
    if raw.ndim == 2:
        if raw.shape != (rows, cols):
            raise InvalidArgumentError(
                f"{name} evaluator returned shape {raw.shape}, expected ({rows},{cols})"
            )
        return raw.reshape(1, rows, cols)
    if raw.ndim == 3:
        if raw.shape != (n_paths, rows, cols):
            raise InvalidArgumentError(
                f"{name} evaluator returned shape {raw.shape}, expected "
                f"({n_paths},{rows},{cols})"
            )
        return raw[:1] if raw.strides[0] == 0 else raw
    raise InvalidArgumentError(f"{name} evaluator returned ndim={raw.ndim} output")


_TABLE_NAMES = ("A", "B", "C", "D", "Q", "R")
SYMMETRY_TOL = 1e-8  # relative tolerance of the symmetry rule for Q, R and G


class CoefficientTable:
    """Every coefficient of one model evaluated once on one path array.

    ``A, B, C, D, Q, R`` are read-only ``(N+1, k, rows, cols)`` arrays whose
    row ``i`` is the model's ``coeff(name, i, W[:i+1], n_paths)``, with ``k = 1``
    when that evaluation was one row at every index and ``k = n_paths``
    otherwise.  ``G`` is the terminal weight ``terminal(W, n_paths)``,
    ``(1 or n_paths, n, n)``, evaluated with the rest.  All evaluation goes
    through :meth:`CoefficientModel.coeff` and
    :meth:`CoefficientModel.terminal`, so shapes are validated there.  The
    table holds no reference to ``W``.

    The table is where data enters the problem class, so it admits only
    finite coefficients and symmetric weights: every entry of ``A..R`` and
    ``G`` must be finite, and each of ``Q``, ``R`` and ``G`` must satisfy
    ``max|v - v^T| <= SYMMETRY_TOL (1 + max|v|)`` over the whole array
    (``R`` may be indefinite).  A ``"deterministic"`` model's rows must
    also be the same on every path (a per-path stack of equal rows is
    admitted).  Otherwise construction raises :class:`InvalidArgumentError`
    naming the coefficient and the index and path of the first non-finite
    entry or of the first row that differs from path 0's, or the largest
    asymmetry.
    """

    def __init__(self, model: CoefficientModel, W: np.ndarray):
        self.model = model
        self.n_paths = W.shape[1]
        for name in _TABLE_NAMES:
            setattr(self, name, self._tabulate(name, W))
        self.G = model.terminal(W, self.n_paths)
        for name in _TABLE_NAMES + ("G",):
            _admit(name, getattr(self, name), model.kind == "deterministic")

    def _tabulate(self, name: str, W: np.ndarray) -> np.ndarray:
        N, P = W.shape[0] - 1, self.n_paths
        out = np.empty((N + 1, 1) + self.model._shape_of(name))
        for i in range(N + 1):
            v = self.model.coeff(name, i, W[: i + 1], P)
            if v.shape[0] > out.shape[1]:
                # First path-dependent value: widen, keeping the rows so far.
                out = np.repeat(out, P, axis=1)
            out[i] = v
        out.setflags(write=False)
        return out


def _admit(name: str, v: np.ndarray, path_constant: bool) -> None:
    """The table's admission rule for coefficient ``name``, read one block of
    leading rows at a time (time rows; paths for ``G``).  ``path_constant``
    requires each row to equal the first path's."""
    asym = scale = 0.0
    for b in _time_blocks(v):
        block = v[b]
        if not np.isfinite(block).all():
            _refuse(name, b, ~np.isfinite(block), "has a non-finite entry")
        if path_constant:
            moved = block != (v[:1] if name == "G" else block[:, :1])
            if moved.any():
                _refuse(name, b, moved, "of a 'deterministic' model differs across paths")
        if name in ("Q", "R", "G"):
            asym = max(asym, float(np.abs(block - block.swapaxes(-1, -2)).max()))
            scale = max(scale, float(np.abs(block).max()))
    if asym > SYMMETRY_TOL * (1.0 + scale):
        raise InvalidArgumentError(
            f"{name} is not symmetric within tolerance (max asymmetry {asym:.3e})")


def _refuse(name: str, b: slice, bad: np.ndarray, what: str):
    """Raise for the first entry of ``bad``, a mask of the rows ``b`` of ``name``."""
    at = np.argwhere(bad)[0]
    where = f"path {b.start + at[0]}" if name == "G" else f"index {b.start + at[0]}, path {at[1]}"
    raise InvalidArgumentError(f"{name} {what} at {where}")


def _zero_prefix(grid: TimeGrid) -> np.ndarray:
    """One all-zero path ``(N+1, 1)`` on ``grid``: the paths on which a model
    whose coefficients are constants is tabulated."""
    return np.zeros((grid.N + 1, 1))


def _table_for(what: str, model: CoefficientModel, grid: TimeGrid,
               W: np.ndarray | None) -> CoefficientTable:
    """The table ``what`` reads: on ``W`` when given, else on the zero prefix of
    ``grid``, which only a ``"deterministic"`` model may take."""
    if W is not None:
        return coefficient_table(model, W)
    if model.kind != "deterministic":
        raise InvalidArgumentError(
            f"{what} of a {model.kind!r} model needs the batch its weights depend on")
    return coefficient_table(model, _zero_prefix(grid))


def coefficient_table(model: CoefficientModel, W: np.ndarray) -> CoefficientTable:
    """The :class:`CoefficientTable` of ``model`` on the paths ``W`` (shape
    ``(N+1, n_paths)``).  A read-only ``W`` that owns its data, as every
    batch's does, gets one table per model, shared by :func:`slqkit.grid._shared`
    until ``W`` is freed; any other array gets a fresh table on every call."""
    return _shared((W,), id(model), model, lambda: CoefficientTable(model, W))


@dataclass(frozen=True)
class InitialCondition:
    """Start pair (s, eta): the grid index of s and the initial state.

    ``eta`` may be a fixed length-``n`` vector or a per-path ``(n_paths, n)``
    array (measurable at the start index).
    """

    start_index: int
    eta: np.ndarray

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=np.float64)
        if eta.ndim == 0:
            eta = eta.reshape(1)
        if eta.ndim not in (1, 2):
            raise InvalidArgumentError(f"eta must be a vector or (n_paths, n) array, got shape {eta.shape}")
        if not np.isfinite(eta).all():
            raise InvalidArgumentError("eta contains non-finite entries")
        _integer(self.start_index, "start_index", 0)
        object.__setattr__(self, "eta", eta)

    def eta_column(self, n: int, n_paths: int) -> np.ndarray:
        """Initial state as a ``(n_paths, n, 1)`` column batch."""
        eta = self.eta
        if eta.ndim == 1:
            if eta.shape[0] != n:
                raise InvalidArgumentError(f"eta has length {eta.shape[0]}, state dimension is {n}")
            return np.broadcast_to(eta.reshape(1, n, 1), (n_paths, n, 1)).copy()
        if eta.shape != (n_paths, n):
            raise InvalidArgumentError(
                f"per-path eta has shape {eta.shape}, expected ({n_paths}, {n})"
            )
        return eta[:, :, None].copy()


def _const(value: float, rows: int = 1, cols: int = 1) -> Evaluator:
    mat = np.full((rows, cols), float(value))
    mat.setflags(write=False)
    return lambda i, W: mat


def example1_y(grid: TimeGrid, W: np.ndarray) -> np.ndarray:
    """The auxiliary process y of the solvable scenario on a path batch.

    ``y_i = 2 + T/2 + sin(W_i) + (1/2) * trapezoid of sin(W) over [0, t_i]``.
    Satisfies ``1 <= y <= 3 + T`` exactly on the grid (the trapezoid average
    of values in [-1, 1] over [0, t_i] is bounded by t_i/2 <= T/2).

    Parameters
    ----------
    grid : TimeGrid
    W : numpy.ndarray
        Path prefix, shape ``(k+1, n_paths)`` for any ``k <= N``.

    Returns
    -------
    numpy.ndarray of the same shape as ``W``.
    """
    s, trap = _sin_and_integral(grid, W)
    return (2.0 + 0.5 * grid.T) + s + 0.5 * trap


def _sin_and_integral(grid: TimeGrid, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``sin(W)`` and its trapezoid integral over ``[0, t_i]``, each a fresh
    contiguous array of ``W``'s shape; row ``i`` of both reads ``W[:i+1]``."""
    s = np.sin(W)
    trap = np.zeros_like(s)
    steps = s[:-1] + s[1:]
    steps *= 0.5 * grid.h
    np.cumsum(steps, axis=0, out=trap[1:])
    return s, trap


def scenario_example1(T: float) -> CoefficientModel:
    """The solvable scalar scenario: A=B=C=Q=0, D=1, R = 1/(2(3+T)),
    G = y(T)^{-1} - R with y from :func:`example1_y`.

    Its Riccati pair has the closed form P = 1/y - R, and the associated
    state weight G stays inside [1/(3+T) - R, 1 - R] on every path.

    ``G`` depends on the running integral of ``sin(W)``, so the model is
    ``path_dependent``; its declared features ``(sin W_t, trapezoid of
    sin W over [0, t])`` are a Markov state of the problem (``P`` is a
    function of them).
    """
    T = _real(T, "T", 0.0, strict=True)
    R = 1.0 / (2.0 * (3.0 + T))

    def G(W: np.ndarray) -> np.ndarray:
        # example1_y(...)[-1] bit for bit: the trapezoid runs in time order over blocks.
        h, trap, s = make_grid(T, W.shape[0] - 1).h, np.zeros(W.shape[1]), np.sin(W[:1])
        for rows in _time_blocks(W[1:]):
            s = np.concatenate((s[-1:], np.sin(W[1:][rows])))  # the row before, then the block
            steps = (s[:-1] + s[1:]) * (0.5 * h)
            steps[0] += trap
            trap = np.cumsum(steps, axis=0, out=steps)[-1]
        return (1.0 / ((2.0 + 0.5 * T) + s[-1] + 0.5 * trap) - R)[:, None, None]

    def features(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _sin_and_integral(make_grid(T, W.shape[0] - 1), W)

    return CoefficientModel(
        n=1, m=1,
        A=_const(0.0), B=_const(0.0), C=_const(0.0), D=_const(1.0),
        Q=_const(0.0), R=_const(R), G=G, kind="path_dependent",
        features=features,
    )


@dataclass(frozen=True)
class CounterexamplePaths:
    """Pathwise auxiliary processes of the counterexample scenario.

    Attributes
    ----------
    M : numpy.ndarray
        ``(N+1, n_paths)`` left-point Ito sums of ``(T - t)^{-1/2} dW``.
    tau_index : numpy.ndarray
        ``(n_paths,)`` first grid index where ``|M| > 1`` (``N`` when never).
    zeta : numpy.ndarray
        ``(N+1, n_paths)``; ``zeta_i = (pi/(2 sqrt 2)) (T-t_i)^{-1/2}`` while
        no crossing happened strictly before ``i``, zero after, and
        ``zeta_N = 0`` (the final interval is excluded from the support: the
        integrand is singular at T).
    Y : numpy.ndarray
        ``(N+1, n_paths)``; ``Y_i = sum_{j<i} zeta_j dW_j + 1 + pi/(2 sqrt 2)``.
    """

    M: np.ndarray
    tau_index: np.ndarray
    zeta: np.ndarray
    Y: np.ndarray


def _stopped_processes(grid: TimeGrid, dW: np.ndarray,
                       out: tuple[np.ndarray, ...] | None = None) -> tuple[np.ndarray, ...]:
    """The counterexample's stopping rule, stated once: from path-major
    increments ``dW`` ``(n_paths, N)``, ``(M_1..M_N, tau_index,
    zeta_0..zeta_{N-1}, Y_1..Y_N)`` of :class:`CounterexamplePaths`, each
    process path-major ``(n_paths, N)``, then the per-path ``integral
    zeta^2 dt``.  Sums run in time order.

    ``out`` optionally gives the buffers ``(M, zeta, Y, mask)``: C-contiguous
    ``(n_paths, N)`` arrays, float64 but for the boolean ``mask`` scratch.
    ``Y`` may be ``dW`` itself, which is then overwritten: it is written
    after the last read of ``dW``."""
    N = grid.N
    if out is None:
        out = (np.empty(dW.shape), np.empty(dW.shape), np.empty(dW.shape),
               np.empty(dW.shape, dtype=bool))
    M, zeta, Y, mask = out
    inv_sqrt = 1.0 / np.sqrt(grid.T - grid.points[:N])  # (N,), finite: t_i < T
    np.multiply(inv_sqrt, dW, out=M)
    np.cumsum(M, axis=1, out=M)
    crossed = np.greater(np.abs(M, out=zeta), 1.0, out=mask)  # zeta as scratch
    # M_0 = 0 never crosses: tau is 1 + the first crossing among M_1..M_N.
    tau_index = np.where(crossed.any(axis=1), crossed.argmax(axis=1) + 1, N)
    # zeta is still on at the crossing index itself.
    last_on, on = np.minimum(tau_index, N - 1), ZETA_SCALE * inv_sqrt
    np.multiply(on, np.less_equal(np.arange(N), last_on[:, None], out=mask), out=zeta)
    np.multiply(zeta, dW, out=Y)
    np.cumsum(Y, axis=1, out=Y)
    Y += Y_SHIFT
    # Adding zeros is exact, so each path's time-order sum of zeta^2 is the
    # one prefix sum of the switched-on values read at its last on-index.
    return M, tau_index, zeta, Y, grid.h * np.cumsum(on * on)[last_on]


def counterexample_paths(grid: TimeGrid, batch: BrownianBatch) -> CounterexamplePaths:
    """Evaluate the counterexample's stopped processes on a batch.

    The stopping rule is the first grid index where the accumulated
    ``(T - t)^{-1/2}`` Ito sum exits (-1, 1); the singular final interval
    ``[t_{N-1}, T]``'s right endpoint is never evaluated.  All quantities are
    adapted: the indicator at index ``i`` only looks at sums up to ``i - 1``.
    """
    _require_grid("grid", grid, batch)
    M_t, tau_index, zeta_t, Y_t, _ = _stopped_processes(grid, np.diff(batch.W, axis=0).T)
    M = np.zeros((grid.N + 1, batch.n_paths))
    M[1:] = M_t.T
    zeta = np.zeros_like(M)
    zeta[:-1] = zeta_t.T
    Y = np.full_like(M, Y_SHIFT)
    Y[1:] = Y_t.T
    return CounterexamplePaths(M=M, tau_index=tau_index, zeta=zeta, Y=Y)


def scenario_counterexample(T: float) -> CoefficientModel:
    """The scalar scenario with no qualified feedback: A=B=C=Q=0, D=1,
    R = 1/4, and G = Y(T)^{-1} - 1/4 built from the stopped singular
    integrand (see :func:`counterexample_paths`).

    The optimal gain exists on every sampled path, but its pathwise squared
    L2 norm grows without bound as the grid refines — the divergence probe in
    :mod:`slqkit.evaluate` quantifies this.
    """
    T = _real(T, "T", 0.0, strict=True)
    R = 0.25

    def G(W: np.ndarray) -> np.ndarray:
        grid, P = make_grid(T, W.shape[0] - 1), W.shape[1]
        Y_N = [_stopped_processes(grid, np.diff(W[:, b], axis=0).T)[3][:, -1]
               for b in _path_blocks(P, grid.N, P)]
        return (1.0 / np.concatenate(Y_N) - R)[:, None, None]

    return CoefficientModel(
        n=1, m=1,
        A=_const(0.0), B=_const(0.0), C=_const(0.0), D=_const(1.0),
        Q=_const(0.0), R=_const(R), G=G, kind="markov_in_W",
    )


def scenario_deterministic(a: float, b: float, c: float, d: float,
                           q: float, r: float, g: float, T: float) -> CoefficientModel:
    """Constant-coefficient scalar model (used by the ODE solvers/oracles)."""
    _real(T, "T", 0.0, strict=True)
    a, b, c, d, q, r, g = (_real(v, f"coefficient {k}")
                           for k, v in zip("abcdqrg", (a, b, c, d, q, r, g)))
    gmat = np.array([[g]])
    return CoefficientModel(
        n=1, m=1,
        A=_const(a), B=_const(b), C=_const(c), D=_const(d),
        Q=_const(q), R=_const(r),
        G=lambda W: gmat,
        kind="deterministic",
    )
