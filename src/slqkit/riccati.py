"""Backward Riccati solvers.

The backward equation solved here, written for the scalar case as

    dP = -(2 A P + 2 C Lam + C^2 P + Q - L^2 K^+) dt + Lam dW,   P(T) = G,
    K = R + D^T P D,   L = B^T P + D^T (P C + Lam),

is handled by four routes:

* :func:`solve_deterministic` — backward Runge-Kutta integration of the matrix ODE (``Lam = 0``);
* :func:`discrete_recursion_oracle` — the *exact* dynamic-programming
  recursion of the Euler-discretized problem, kept as an independent oracle
  for the ODE solver (both discretize the same continuous problem and must
  agree at first order in the step).  Each states its one-step map once,
  over the product, transpose, finiteness test and identity of its stage,
  and one backward sweep, :func:`_sweep`, runs both (on Python floats for a
  1x1 model, on 2-D arrays otherwise) and judges their stages by one
  batched verdict, whether it completes or a step raises;
* :func:`solve_bsre_regression` — least-squares Monte Carlo backward
  induction for scalar problems, regressing on a Markov state (the model's
  declared features, else ``W_t``), each step judged as a sweep's stage;
* :func:`closed_form_example1` / :func:`closed_form_counterexample` — direct
  evaluation of the two known closed-form solution pairs, used as ground
  truth everywhere else.

Each returns the pair ``(P, Lam)`` and its coefficient table, from which
:func:`_gain` derives ``K`` or ``L`` where it is read.  The solvers read the
table's rows once per solve and symmetrize by one rule, :func:`_sym`.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter

import numpy as np

from .errors import (
    DriverSingularError,
    FiniteEscapeError,
    InvalidArgumentError,
    RegressionSingularError,
    RiccatiSingularError,
    _finite,
    _integer,
    _moments,
)
from .grid import (BrownianBatch, PathArray, TimeGrid, _require_grid, _require_process,
                   _time_blocks)
from .pinv import SOLVE_TOL, _product, _pseudo_inverse, _verdicts, solvability
from .problem import (
    CoefficientModel,
    CoefficientTable,
    _zero_prefix,
    coefficient_table,
    counterexample_paths,
    example1_y,
    scenario_counterexample,
    scenario_example1,
)

__all__ = [
    "RiccatiSolution",
    "RegressionBasis",
    "solve_deterministic",
    "discrete_recursion_oracle",
    "solve_bsre_regression",
    "closed_form_example1",
    "closed_form_counterexample",
]

# Rank thresholds of the regression fit (see _whiten and _projector).
SPREAD_FLOOR = 1e-12
WHITEN_TOL = 1e-10
GRAM_RANK_TOL = 1e-12


@dataclass(frozen=True)
class RiccatiSolution:
    """A (pathwise) solution pair and the coefficient table it was solved on.

    Attributes
    ----------
    grid : TimeGrid
    P, Lambda : PathArray
        ``(N+1, n_paths, n, n)`` symmetric matrices; deterministic solvers
        emit a single path and exact-zero ``Lambda``.
    table : CoefficientTable
        The coefficients it was solved on: ``N+1`` time rows, ``1`` or ``n_paths`` path rows.
    solver_tag : str
        One of ``deterministic_ode``, ``regression_mc``,
        ``closed_form_example1``, ``closed_form_counterexample``.
    K, L : PathArray
        ``R + D^T P D`` (``m x m``) and ``B^T P + D^T (P C + Lambda)``
        (``m x n``), each derived alone from the pair by :func:`_gain` on each read.
    """

    grid: TimeGrid
    P: PathArray = field(repr=False)
    Lambda: PathArray = field(repr=False)
    table: CoefficientTable = field(repr=False)
    solver_tag: str = "deterministic_ode"

    def __post_init__(self):
        # The table is read as its A at the table's path count.
        A, n = self.table.A, (self.table.model.n,) * 2
        table = np.broadcast_to(A, A.shape[:1] + (self.table.n_paths,) + n)
        for what, v in (("P", self.P.values), ("Lambda", self.Lambda.values),
                        ("coefficient table", table)):
            _require_process(what, v, self.grid.N, self.P.n_paths, n)

    K = property(lambda self: PathArray(_gain(self, "K")))
    L = property(lambda self: PathArray(_gain(self, "L")))


@dataclass(frozen=True)
class RegressionBasis:
    """Per-slice polynomial basis for the regression solver: every monomial
    of total degree at most ``degree`` in the whitened regression features
    (the model's declared ``features``, else the Brownian level ``W_t``).
    With ``r`` independent features a slice has ``C(r + degree, degree)``
    basis functions."""

    degree: int = 3

    def __post_init__(self):
        _integer(self.degree, "basis degree", 0)


def _gains(sol: RiccatiSolution, rows: slice = slice(None), paths: slice = slice(None)) -> tuple:
    """``(K, L)`` of ``sol`` on time rows ``rows`` and paths ``paths``: see :func:`_gain`."""
    return _gain(sol, "K", rows, paths), _gain(sol, "L", rows, paths)


def _gain(sol: RiccatiSolution, name: str, rows: slice = slice(None),
          paths: slice = slice(None)) -> np.ndarray:
    """``K = R + D^T P D`` or ``L = B^T P + D^T (P C + Lambda)`` (``name``) of
    ``sol`` on time rows ``rows`` and paths ``paths``, as a read-only array,
    each product by :func:`slqkit.pinv._product` on the rows of
    :func:`_product_rows`."""
    Pv, Lv = sol.P.values[rows, paths], sol.Lambda.values[rows, paths]
    model = sol.table.model
    out = np.empty(Pv.shape[:2] + ((model.m, model.m) if name == "K" else (model.m, model.n)))
    B, C, D, R = (v if v.shape[1] == 1 else v[:, paths]
                  for v in (getattr(sol.table, c)[rows] for c in "BCDR"))
    for j in _product_rows(model, out, Pv):
        if name == "K":
            out[j] = R[j] + _product(_DT_P_D, D[j], Pv[j], D[j])
        else:
            out[j] = (_product(_AT_B, B[j], Pv[j])
                      + _product(_AT_B, D[j], _product(np.matmul, Pv[j], C[j]) + Lv[j]))
    out.setflags(write=False)
    return out


def _product_rows(model: CoefficientModel, *arrays: np.ndarray):
    """The time rows on which :func:`slqkit.pinv._product` takes ``arrays``: a
    1x1 model's products are elementwise, so a block of rows of
    :func:`slqkit.grid._time_blocks` at a time; a matrix model's einsum rounds
    a stack by its shape, so one node index at a time."""
    if model.n == model.m == 1:
        return _time_blocks(*arrays)
    return range(max(map(len, arrays)))


# The contractions D^T P D and A^T B of stacks, each summed as one einsum.
_DT_P_D = partial(np.einsum, "...nm,...nk,...kl->...ml")
_AT_B = partial(np.einsum, "...nm,...nk->...mk")


def _sym(X, T: Callable = partial(np.swapaxes, axis1=-1, axis2=-2)):
    """``(X + T(X)) / 2``, the one symmetrization of every route: ``T`` is the
    transpose of ``X``'s algebra (the identity on a Python float)."""
    return 0.5 * (X + T(X))


def _sweep(route: str, model: CoefficientModel, grid: TimeGrid, stages: int,
           messages: tuple[str, str, str], step: Callable) -> RiccatiSolution:
    """The deterministic backward sweep of ``route``: ``P_N = sym(G)``, then
    ``P_i = step(i, P_{i+1}, coeffs_i, record, ops)`` for ``i = N-1 ... 0``,
    with zero ``Lambda``.  ``coeffs_i`` is the table's ``(A, B, C, D, Q, R)``
    at node ``i``, and ``ops = (dot, T, finite, eye)`` the algebra the step is
    written in: the matrix product, the transpose, the finiteness test and
    the identity.  A 1x1 model steps on Python floats (``dot`` is
    ``a * b + 0.0``, since NumPy's 1x1 ``matmul`` sums from ``+0.0``), any
    other on 2-D arrays (``ndarray.dot``, ``.T``), with the same bits.
    ``record(K, L, t)`` keeps one of at most ``stages`` pairs and returns
    ``K^+``.  Whether the sweep completes or a step raises, the recorded
    stages before the first with a non-finite ``K`` or ``L`` (the bound) are
    judged in one batch: an asymmetric ``K`` among them raises the asymmetry
    error, else the first that fails raises the PSD or range error of
    ``messages``, else a bound raises the escape error at its stage, else a
    step's own error propagates.  A stage whose decomposition raised is
    judged by its finiteness alone."""
    if model.kind != "deterministic":
        raise InvalidArgumentError(f'{route} needs kind="deterministic", got {model.kind!r}')
    N, n, m = grid.N, model.n, model.m
    tab = coefficient_table(model, _zero_prefix(grid))
    Pv = np.empty((N + 1, 1, n, n))
    rows = [getattr(tab, name)[:, 0] for name in "ABCDQR"]
    K, Kd = np.empty((2, stages, m, m))
    L = np.empty((stages, m, n))
    lam_min, t = np.empty((2, stages))
    size, error = 0, None
    escape, not_psd, off_range = messages

    def record(K_j, L_j, t_j: float):
        nonlocal size
        j, size = size, size + 1  # counted before the decomposition, which can raise
        K[j], L[j], t[j] = K_j, L_j, t_j
        K_d, lam_min[j] = _pseudo_inverse(K_j)
        Kd[j] = K_d
        return K_d

    # Overflow on escaping instances surfaces as FiniteEscapeError: silence its warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        Pv[N] = _sym(tab.G)
        if n == m == 1:
            rows = [v[:, 0, 0].tolist() for v in rows]
            ops = (lambda a, b: a * b + 0.0), (lambda a: a), math.isfinite, 1.0
            P = float(Pv[N, 0, 0, 0])
        else:
            ops = np.ndarray.dot, attrgetter("T"), lambda M: np.isfinite(M).all(), np.eye(n)
            P = Pv[N, 0]
        rows = list(zip(*rows))
        try:
            for i in range(N - 1, -1, -1):
                P = Pv[i] = step(i, P, rows[i], record, ops)
        except (FiniteEscapeError, np.linalg.LinAlgError) as exc:
            error = exc
        finite = np.isfinite(K[:size]).all(axis=(1, 2)) & np.isfinite(L[:size]).all(axis=(1, 2))
        bound = int(np.argmin(np.append(finite, False)))  # the first non-finite stage, or size
        judged = slice(min(bound, size - isinstance(error, np.linalg.LinAlgError)))
        psd, in_range = _verdicts(K[judged], Kd[judged], lam_min[judged], L[judged], SOLVE_TOL)
    if not (ok := psd & in_range).all():
        j = int(np.argmin(ok))
        raise RiccatiSingularError((off_range if psd[j] else not_psd).format(t=t[j]), time=t[j])
    if bound < size:
        raise FiniteEscapeError(escape.format(t=t[bound]), time=t[bound])
    if error is not None:
        raise error
    return RiccatiSolution(grid, PathArray(Pv), PathArray(np.zeros_like(Pv)), tab)


def solve_deterministic(model: CoefficientModel, grid: TimeGrid) -> RiccatiSolution:
    """Integrate the deterministic backward Riccati ODE on ``grid``.

    Its step is fourth-order Runge-Kutta with four internal substeps per cell
    (coefficients held at the cell's left node), run from ``G`` by :func:`_sweep`,
    which judges every stage on the solvability conditions (``K = R + D^T P D``
    PSD, the range of ``L`` in that of ``K``) in one batched call per solve;
    the first failing stage raises.

    Raises
    ------
    RiccatiSingularError
        If a solvability condition fails; carries the failure time.
    FiniteEscapeError
        If the solution, ``K`` or ``L`` blows up before reaching ``t = 0``.
    InvalidArgumentError
        If ``model.kind != "deterministic"``.
    """
    escape = "Riccati solution blew up near t={t:.6g}"

    def rhs(P, coeffs: tuple, t: float, record: Callable, ops: tuple):
        dot, T, finite, _ = ops
        if not finite(P):
            raise FiniteEscapeError(escape.format(t=t), time=t)
        A, B, C, D, Q, R, At, Bt, Ct, Dt = coeffs
        K = R + dot(dot(Dt, P), D)
        L = dot(Bt, P) + dot(Dt, dot(P, C))
        Kd = record(K, L, t)
        return -(dot(P, A) + dot(At, P) + dot(dot(Ct, P), C) + Q - dot(T(L), dot(Kd, L)))

    def step(i: int, P, coeffs: tuple, record: Callable, ops: tuple):
        _, T, finite, _ = ops
        coeffs += tuple(map(T, coeffs[:4]))  # transposed once per node

        dt, t = -grid.h / 4.0, grid.points[i + 1]
        for _ in range(4):
            k1 = rhs(P, coeffs, t, record, ops)
            k2 = rhs(_sym(P + 0.5 * dt * k1, T), coeffs, t + 0.5 * dt, record, ops)
            k3 = rhs(_sym(P + 0.5 * dt * k2, T), coeffs, t + 0.5 * dt, record, ops)
            k4 = rhs(_sym(P + dt * k3, T), coeffs, t + dt, record, ops)
            P = _sym(P + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), T)
            t += dt
            if not finite(P):
                raise FiniteEscapeError(escape.format(t=t), time=t)
        return P

    return _sweep("solve_deterministic", model, grid, 16 * grid.N, (
        escape, "control weight lost positive semidefiniteness at t={t:.6g}",
        "range condition failed at t={t:.6g}"), step)


def discrete_recursion_oracle(model: CoefficientModel, grid: TimeGrid) -> RiccatiSolution:
    """Exact dynamic-programming recursion for the Euler-discretized problem.

    One-step quadratic minimization of the discretized cost gives

        Phi = I + h A,
        H   = h R + h^2 B^T P' B + h D^T P' D,
        M   = h (B^T P' Phi + D^T P' C),
        P   = Phi^T P' Phi + h C^T P' C + h Q - M^T H^+ M,

    the step this route states; :func:`_sweep` runs it backward from
    ``P_N = G``.  Independent of the ODE route; the two agree at ``t = 0``
    to first order in ``h``; its steps are judged as the ODE's stages.

    Raises
    ------
    RiccatiSingularError
        If ``H`` is not PSD or ``M``'s rows leave its range.
    FiniteEscapeError
        If ``H``, ``M`` or ``P`` blows up before reaching ``t = 0``.
    """
    h = grid.h
    escape = "discrete recursion blew up at t={t:.6g}"

    def step(i: int, Pn, coeffs: tuple, record: Callable, ops: tuple):
        dot, T, finite, eye = ops
        A, B, C, D, Q, R = coeffs
        Phi = eye + h * A
        BtPn, DtPn = dot(T(B), Pn), dot(T(D), Pn)
        H = h * R + h * h * dot(BtPn, B) + h * dot(DtPn, D)
        M = h * (dot(BtPn, Phi) + dot(DtPn, C))
        t = grid.points[i]
        Hd = record(H, M, t)
        P = dot(dot(T(Phi), Pn), Phi) + h * dot(dot(T(C), Pn), C) + h * Q - dot(T(M), dot(Hd, M))
        P = _sym(P, T)
        if not finite(P):
            raise FiniteEscapeError(escape.format(t=t), time=t)
        return P

    return _sweep("discrete_recursion_oracle", model, grid, grid.N, (
        escape, "discrete control weight not PSD at t={t:.6g}",
        "discrete range condition failed at t={t:.6g}"), step)


def _regression_features(model: CoefficientModel, W: np.ndarray) -> tuple[np.ndarray, ...]:
    """The model's declared features on ``W``, checked to be finite
    ``(N+1, n_paths)`` arrays, or ``(W,)`` for a model without them."""
    if model.features is None:
        if model.kind == "path_dependent":
            raise InvalidArgumentError(
                "regression solver needs declared features for a path_dependent model: "
                "W_t alone is not a Markov state of it"
            )
        return (W,)
    feats = tuple(np.ascontiguousarray(f, dtype=np.float64) for f in model.features(W))
    if not feats:
        raise InvalidArgumentError("declared features are empty")
    for j, f in enumerate(feats):
        if f.shape != W.shape:
            raise InvalidArgumentError(
                f"feature {j} has shape {f.shape}, expected {W.shape}")
        if not np.isfinite(f).all():
            raise InvalidArgumentError(f"feature {j} has non-finite entries")
    return feats


def _whiten(rows: list[np.ndarray]) -> np.ndarray:
    """Whitened coordinates ``(r, n_paths)`` of one slice's feature rows.

    Features whose spread (standard deviation over the paths) is below
    ``SPREAD_FLOOR = 1e-12`` are constant at this slice and dropped (at the
    initial time every feature is).  The others are standardized, and the
    result is their projection on the eigen-directions of their correlation
    matrix with eigenvalue above ``WHITEN_TOL = 1e-10`` times the largest,
    each scaled to unit variance.  So the rank of the features is the number
    of such directions, and exactly collinear features (example 1's two at
    ``t_1``) count once.
    """
    kept = [(f - ms[0]) / ms[1] for f in rows if (ms := _moments(f))[1] >= SPREAD_FLOOR]
    if not kept:
        return np.empty((0, rows[0].shape[0]))
    S = np.stack(kept)
    lam, V = np.linalg.eigh(S @ S.T / S.shape[1])
    keep = lam > WHITEN_TOL * lam[-1]
    return (V[:, keep].T @ S) / np.sqrt(lam[keep])[:, None]


def _design_matrix(Z: np.ndarray, degree: int) -> np.ndarray:
    """The non-constant columns of one slice's design, as centered rows.

    Every monomial of total degree ``1..degree`` in the whitened
    coordinates ``Z`` (``(r, n_paths)``, see :func:`_whiten`), centered
    over the paths: shape ``(C(r + degree, degree) - 1, n_paths)``.  The
    constant column is implicit (see :func:`_projector`).  A degenerate
    slice (``r = 0``) or ``degree = 0`` gives no rows, and the fit is the
    plain mean: the conditional expectation there *is* the mean.
    """
    # Monomials of one degree, each with the index of its last variable;
    # the next degree multiplies each by the variables from that index on.
    level = [(z, j) for j, z in enumerate(Z)] if degree > 0 else []
    cols = [c for c, _ in level]
    for _ in range(degree - 1):
        level = [(c * Z[j], j) for c, last in level for j in range(last, len(Z))]
        cols.extend(c for c, _ in level)
    X = np.array(cols).reshape(len(cols), Z.shape[1])
    X -= X.mean(axis=1, keepdims=True)
    return X


def _projector(X: np.ndarray, step: int) -> Callable[[np.ndarray], np.ndarray]:
    """Least-squares fit on the design ``[1, X]`` of one slice, as a
    function of the target; its targets share one factorization.

    ``X`` holds centered columns as rows (:func:`_design_matrix`), so the
    fit is the target's mean plus its projection on ``X``, computed from
    the eigendecomposition of the Gram matrix ``X X^T``.  The design is
    rank-deficient when an eigenvalue is at most ``GRAM_RANK_TOL = 1e-12``
    times the largest, i.e. when the centered design's condition number is
    ``1e6`` or more.

    Raises
    ------
    RegressionSingularError
        Rank-deficient design.
    """
    if X.shape[0] == 0:
        return lambda y: np.full_like(y, np.mean(y))
    s, U = np.linalg.eigh(X @ X.T)
    rank = 1 + int(np.count_nonzero(s > GRAM_RANK_TOL * s[-1]))
    if rank < X.shape[0] + 1:
        raise RegressionSingularError(
            f"regression design matrix rank-deficient at step {step} "
            f"(rank {rank} < {X.shape[0] + 1})",
            step=step,
        )
    gram_inv = (U / s) @ U.T

    def fit(y: np.ndarray) -> np.ndarray:
        mean = np.mean(y)
        return mean + ((X @ (y - mean)) @ gram_inv) @ X

    return fit


def solve_bsre_regression(
    model: CoefficientModel,
    grid: TimeGrid,
    batch: BrownianBatch,
    basis: RegressionBasis | None = None,
) -> RiccatiSolution:
    """Least-squares Monte Carlo backward induction for the scalar equation.

    Each time slice is regressed on a Markov state of the problem (Gobet,
    Lemor & Warin, Ann. Appl. Probab. 15(3), 2005): the model's declared
    ``features`` (see :class:`~slqkit.problem.CoefficientModel`), or the
    Brownian level ``W_t`` for a ``deterministic`` or ``markov_in_W`` model
    that declares none.  The basis is every monomial of total degree at
    most ``basis.degree`` in the slice's whitened features
    (:class:`RegressionBasis`), and the three fits of a slice share one
    factorization of its design.  The features live only for the solve.

    At each step ``i`` (backward): the martingale coefficient is fitted by
    regressing the *centered* increment target
    ``(P_{i+1} - m_i) * dW_i / h`` on the slice basis, where ``m_i`` is
    the fitted conditional mean of ``P_{i+1}`` — same estimand as the plain
    ``P_{i+1} dW_i / h`` target (the subtracted term is measurable at
    ``t_i`` and multiplies a mean-zero increment) with orders of magnitude
    less variance.  The drift is evaluated explicitly at the step-``i+1``
    fitted solution, and ``P_i`` is the fitted conditional expectation of
    ``P_{i+1} + h * drift``.  The martingale coefficient at the terminal
    index has no forward increment and is stored as exact zero.

    Raises
    ------
    RegressionSingularError
        Rank-deficient design at some interior slice (thresholds in
        :func:`_whiten` and :func:`_projector`), or a basis with more
        functions than the batch has paths, refused before it is built.
    FiniteEscapeError
        ``K`` or ``L`` (judged first) or the fitted ``P_i`` is non-finite; carries ``t_i``.
    DriverSingularError
        ``K = R + D^2 P`` not PSD, or ``L`` off its range, by :func:`slqkit.pinv.solvability`
        (read where some ``K <= 0``); carries the step.  ``K^+`` is ``1/K``, ``0`` at 0.
    InvalidArgumentError
        Non-scalar model, incompatible batch, a ``path_dependent`` model
        without declared features, or malformed features.
    """
    if model.n != 1 or model.m != 1:
        raise InvalidArgumentError(
            f"regression solver handles scalar problems only, got n={model.n}, m={model.m}"
        )
    _require_grid("grid", grid, batch)
    if basis is None:
        basis = RegressionBasis()
    N, h = grid.N, grid.h
    W = batch.W
    n_paths = batch.n_paths
    feats = _regression_features(model, W)
    tab = coefficient_table(model, W)
    Pv = np.empty((N + 1, n_paths))
    Lv = np.zeros((N + 1, n_paths))
    Pv[N] = tab.G[:, 0, 0]
    rows = list(zip(*(getattr(tab, name)[:, :, 0, 0] for name in "ABCDQR")))
    for i in range(N - 1, -1, -1):
        Z = _whiten([f[i] for f in feats])
        if math.comb(len(Z) + basis.degree, basis.degree) > n_paths:  # rank-deficient, unbuilt
            raise RegressionSingularError(
                f"regression design matrix rank-deficient at step {i} (a degree-{basis.degree} "
                f"basis in {len(Z)} features outnumbers {n_paths} paths)", step=i)
        fit = _projector(_design_matrix(Z, basis.degree), i)
        p_next, t = Pv[i + 1], grid.points[i]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow escapes below
            m_hat = fit(p_next)
            lam = fit((p_next - m_hat) * (W[i + 1] - W[i]) / h)
            a, b, c, d, q, r = rows[i]
            K = r + d * d * p_next
            L = b * p_next + d * (p_next * c + lam)
            _finite(f"regression K or L at step {i}", np.stack((K, L)), t)
            if np.any(K <= 0.0):  # a positive 1x1 K passes both verdicts
                _, psd, in_range = solvability(K[:, None, None], L[:, None, None])
                if not (psd & in_range).all():
                    bad = int(np.argmin(psd & in_range))
                    failed = "range condition failed" if psd[bad] else "control weight not PSD"
                    raise DriverSingularError(
                        f"regression {failed} at step {i} (path {bad}, K={K[bad]:.3e})", step=i)
            LKL = np.divide(L * L, K, out=np.zeros_like(K), where=K != 0.0)  # K^+ = 1/K, 0 at 0
            Pv[i] = fit(p_next + h * (2.0 * a * p_next + 2.0 * c * lam + c * c * p_next + q - LKL))
            _finite(f"regression solution at step {i}", Pv[i], t)
        Lv[i] = lam
    return RiccatiSolution(grid, PathArray(Pv[:, :, None, None]), PathArray(Lv[:, :, None, None]),
                           tab, "regression_mc")


def closed_form_example1(grid: TimeGrid, batch: BrownianBatch) -> RiccatiSolution:
    """Exact solution pair of the solvable scenario on sampled paths:
    ``P = 1/y - R`` and ``Lambda = -cos(W)/y^2`` with ``y`` from
    :func:`slqkit.problem.example1_y`.  The coefficients are constants, so
    they are read from the one-path zero prefix."""
    _require_grid("grid", grid, batch)
    tab = coefficient_table(scenario_example1(grid.T), _zero_prefix(grid))
    y = example1_y(grid, batch.W)
    Pv = (1.0 / y - tab.R[0, 0, 0, 0])[:, :, None, None]
    with np.errstate(over="ignore"):
        y2 = y * y
    Lv = -np.cos(batch.W) / y2
    big = np.isinf(y2)  # where Lambda rounds to a subnormal or 0, taken as -cos(W) / y / y
    Lv[big] = -np.cos(batch.W[big]) / y[big] / y[big]
    return RiccatiSolution(grid, PathArray(Pv), PathArray(Lv[:, :, None, None]), tab,
                           "closed_form_example1")


def closed_form_counterexample(grid: TimeGrid, batch: BrownianBatch) -> RiccatiSolution:
    """Exact solution pair of the counterexample scenario:
    ``P = 1/Y - 1/4`` and ``Lambda = -zeta/Y^2`` from the stopped singular
    integrand (:func:`slqkit.problem.counterexample_paths`).  The
    coefficients are read as in :func:`closed_form_example1`."""
    _require_grid("grid", grid, batch)
    tab = coefficient_table(scenario_counterexample(grid.T), _zero_prefix(grid))
    aux = counterexample_paths(grid, batch)
    Pv = (1.0 / aux.Y - tab.R[0, 0, 0, 0])[:, :, None, None]
    Lv = (-aux.zeta / (aux.Y * aux.Y))[:, :, None, None]
    return RiccatiSolution(grid, PathArray(Pv), PathArray(Lv), tab, "closed_form_counterexample")
