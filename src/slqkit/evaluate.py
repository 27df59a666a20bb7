"""Forward simulation, Monte Carlo cost evaluation, and verification checks.

Every identity check here follows common-random-numbers discipline: all cost
terms entering one residual are evaluated on the same Brownian batch, so the
Monte Carlo noise largely cancels in the differences and the reported
standard error is that of the *difference*, not of the individual costs.

Open- and closed-loop simulation share one Euler driver; replaying the
recorded closed-loop control through the open-loop simulator reproduces the
closed-loop states bit for bit.  The driver and the cost quadrature read the
model's coefficient table (:func:`slqkit.problem.coefficient_table`), built
once per (model, batch) and shared by every check on that batch.  The three
Monte Carlo checks read one closed loop: :func:`_closed_loop` simulates
``u = Theta x`` and costs it, and the checks' private bodies take its
result, so a caller running all three (the CLI) simulates it once.  One
quadrature kernel (:func:`_running`, left-point, in time order) takes every
running quadratic form: the cost, the sweep's cross terms and the
completion-of-squares penalty.  Path-constant data (coefficient rows, a
one-path solution, time-only perturbations) stay ``(1, r, c)`` rows that
broadcast.  One Euler step and one quadratic form serve every dimension, on
per-entry views (:func:`_entries`), with each sum in index order, so results
do not depend on the BLAS build.  The Euler step is linear in ``(x, u)`` and
the cost is one bilinear quadrature ``B`` taken on ``(x, u), (x, u)``, so
``J(u_fb + eps v) = J_fb + eps B((x_fb, u_fb), (x_v, v)) + eps^2 B((x_v, v),
(x_v, v)) / 2`` per path up to rounding, with ``x_v`` the response to ``v``
from a zero state (Q, R and G are symmetric).  The optimality sweep
uses this superposition in place of one simulation per arm, and checks it
against a direct simulation of one arm per perturbation.  :func:`_tolerance`
is the pass line of every Monte Carlo check.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import FiniteEscapeError, InvalidArgumentError
from .feedback import FeedbackLaw
from .grid import BrownianBatch, PathArray, TimeGrid, _path_major_increments, make_grid
from .problem import (
    CoefficientModel,
    InitialCondition,
    SYMMETRY_TOL,
    Y_SHIFT,
    Y_UPPER,
    ZETA_SCALE,
    _asymmetry,
    _stopped_processes,
    _zero_prefix,
    coefficient_table,
    delta_grid,
)
from .riccati import RiccatiSolution

__all__ = [
    "CostEstimate",
    "CheckResult",
    "SweepRow",
    "SweepResult",
    "ProbeRow",
    "ProbeResult",
    "simulate_closed_loop",
    "simulate_open_loop",
    "cost",
    "value_identity_check",
    "completion_of_squares_check",
    "optimality_sweep",
    "make_perturbations",
    "counterexample_divergence_probe",
]

# Default standard-error multiplier of every Monte Carlo check.
N_SE = 3.0

# Frozen coefficient of the h^(1/2) discretization allowance used by all
# identity checks (calibrated once on the deterministic instance, where the
# measured discretization bias is a small fraction of 0.5*sqrt(h)).
DISC_ALLOWANCE = 0.5

# Bound on max_p |J_direct - J_pred| / max_p |J_direct| in the sweep's
# independent leg; the rounding measured up to N = 4096 stays below 3e-14.
SUPERPOSITION_RTOL = 1e-10

_EPSILONS = (1.0, 0.1, 0.01)  # the sweep's default epsilons

# Worker threads of the divergence probe: the CPUs this process may run on.
_PROBE_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count() or 1)


@dataclass(frozen=True)
class CostEstimate:
    """Monte Carlo estimate of the quadratic cost.

    ``mean`` equals the sum of the three component means (running state,
    running control, terminal); ``std_error`` is the sample standard
    deviation of the per-path cost over ``sqrt(n_paths)``.  The per-path
    values are kept so differences of estimates on common random numbers can
    be formed without re-simulation.
    """

    mean: float
    std_error: float
    n_paths: int
    components: dict
    per_path: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class CheckResult:
    """One verification check: residual vs tolerance."""

    name: str
    residual: float
    tolerance: float
    passed: bool
    details: dict


def _require_paths(n_paths: int, *arrays: np.ndarray) -> None:
    """Each ``(N+1, k, r, c)`` array must have ``k`` 1 or ``n_paths``."""
    for arr in arrays:
        if arr.shape[1] not in (1, n_paths):
            raise InvalidArgumentError(
                f"path dimension mismatch: have {arr.shape[1]}, batch has {n_paths}")


def _require_grid(what: str, grid: TimeGrid, batch: BrownianBatch) -> None:
    """``grid`` must have the batch's step count and horizon."""
    if grid.N != batch.grid.N or grid.T != batch.grid.T:
        raise InvalidArgumentError(f"{what} has {grid.N} steps to T = {grid.T}, the batch "
                                   f"{batch.grid.N} steps to T = {batch.grid.T}")


def _entries(a: np.ndarray) -> list:
    """Views ``E[j][l][i] = a[i, ..., j, l]`` of an ``(I, ..., r, c)`` array,
    listed once so that loops over ``i`` only look them up."""
    return [[list(a[..., j, l]) for l in range(a.shape[-1])] for j in range(a.shape[-2])]


def _column(a: np.ndarray) -> list:
    """The views ``E[j][i] = a[i, ..., j, 0]`` of an ``(I, ..., r, 1)`` column array."""
    return [row[0] for row in _entries(a)]


def _dot(row: list, v: list, i: int) -> np.ndarray:
    """``sum_l row_l v_l`` at index ``i`` of entry lists, in index order from
    its first term."""
    total = row[0][i] * v[0][i]
    for l in range(1, len(v)):
        total = total + row[l][i] * v[l][i]
    return total


def _simulate(model: CoefficientModel, init: InitialCondition, batch: BrownianBatch,
              theta: np.ndarray | None = None, control: np.ndarray | None = None):
    """Shared Euler driver: the closed loop ``u_i = theta_i x_i`` when
    ``theta`` (``(N+1, k, m, n)``) is given, else the open loop under
    ``control`` (``(N+1, k, m, 1)``), with ``k`` 1 or the batch's path count.

    Coefficients come from the model's table on ``batch``.  A step takes
    ``x_j + h (sum_l A_jl x_l + sum_l B_jl u_l) + (sum_l C_jl x_l + sum_l
    D_jl u_l) dW`` on entry lists (:func:`_dot`).  Returns ``(x, u)``: the
    states ``(N+1, P, n, 1)`` and the closed loop's recorded ``(N+1, P, m,
    1)`` control, or the open loop's given one, which it steps on as it is.
    """
    grid = batch.grid
    N, h = grid.N, grid.h
    P = batch.n_paths
    s = init.start_index
    if s >= N:
        raise InvalidArgumentError(f"start_index {s} must be < N = {N}")
    closed = theta is not None
    given = theta if closed else control
    _require_paths(P, given)
    tab = coefficient_table(model, batch.W)
    x = np.empty((N + 1, P, model.n, 1))
    u = np.zeros((N + 1, P, model.m, 1)) if closed else given
    x[: s + 1] = init.eta_column(model.n, P)
    xs, us = _column(x), _column(u)
    A, B, C, D = (_entries(v) for v in (tab.A, tab.B, tab.C, tab.D))
    gain = _entries(theta) if closed else None
    dW = batch.increments
    # Overflow inside a step is expected on escaping instances; it is raised
    # as FiniteEscapeError after the loop, so silence the warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(s, N + 1):
            if closed:
                for u_j, row in zip(us, gain):
                    u_j[i][...] = _dot(row, xs, i)
            if i < N:
                dw = dW[i]
                for j, x_j in enumerate(xs):
                    drift = _dot(A[j], xs, i) + _dot(B[j], us, i)
                    diffusion = _dot(C[j], xs, i) + _dot(D[j], us, i)
                    np.add(x_j[i] + h * drift, diffusion * dw, out=x_j[i + 1])
    # A step keeps a non-finite entry non-finite, so the first non-finite
    # state is the one a check after every step would stop at.
    finite = np.isfinite(x[s + 1:])
    if not finite.all():
        i, p = np.argwhere(~finite)[0, :2]
        raise FiniteEscapeError(f"state became non-finite at step {s + 1 + i}, first path {p}",
                                time=None)
    return x, u


def simulate_closed_loop(
    model: CoefficientModel,
    law: FeedbackLaw,
    init: InitialCondition,
    batch: BrownianBatch,
) -> tuple[PathArray, PathArray]:
    """Run ``dx = (A + B Theta) x dt + (C + D Theta) x dW`` from the start
    index, recording ``u = Theta x`` along the way.

    The state is advanced by the same kernel as :func:`simulate_open_loop`
    applied to the recorded control, so replaying that control open-loop
    reproduces these states exactly.

    Raises
    ------
    FiniteEscapeError
        If the state overflows; the message carries the first offending
        (step, path).
    """
    th = law.theta.values
    if th.shape[0] != batch.grid.N + 1:
        raise InvalidArgumentError("feedback law and batch have inconsistent step counts")
    x, u = _simulate(model, init, batch, theta=th)
    return PathArray(x), PathArray(u)


def simulate_open_loop(
    model: CoefficientModel,
    u: PathArray,
    init: InitialCondition,
    batch: BrownianBatch,
) -> PathArray:
    """Run ``dx = (A x + B u) dt + (C x + D u) dW`` for a given adapted
    control process."""
    uv = u.values
    if uv.shape[0] != batch.grid.N + 1:
        raise InvalidArgumentError("control and batch have inconsistent step counts")
    if uv.shape[2:] != (model.m, 1):
        raise InvalidArgumentError(
            f"control entries must be ({model.m}, 1) columns, got {uv.shape[2:]}")
    x, _ = _simulate(model, init, batch, control=uv)
    return PathArray(x)


def _form(M: list, x: list, y: list, i: int) -> np.ndarray:
    """Per-path ``<M x, y> = sum_j sum_l (x_j M_jl) y_l`` at index ``i`` of
    entry lists, summed over ``(j, l)`` in index order from the first term."""
    total = None
    for x_j, row in zip(x, M):
        for M_jl, y_l in zip(row, y):
            term = x_j[i] * M_jl[i] * y_l[i]
            total = term if total is None else total + term
    return total


def _running(M: list, s: int, h: float, x: list, y: list) -> np.ndarray:
    """Left-point quadrature ``sum_{i=s}^{N-1} h <M_i x_i, y_i>`` per path,
    summed in time order, of :func:`_form` on entry lists."""
    total = np.zeros(max(len(v[0]) for v in (M[0][0], x[0], y[0])))
    for i in range(s, len(x[0]) - 1):
        total += h * _form(M, x, y, i)
    return total


def _bilinear(tab, s: int, h: float, x, u, y, w) -> tuple[np.ndarray, ...]:
    """The cost's bilinear form on ``(N+1, k, ., 1)`` arrays, per path:
    ``B((x, u), (y, w)) = sum_{i=s}^{N-1} h (<Q x, y> + <R u, w>) + <G x_N,
    y_N>``, returned as its state, control and terminal parts.  ``G`` gets a
    one-long leading axis, so index -1 reads it with ``x_N`` and ``y_N``."""
    x, u, y, w = (_column(v) for v in (x, u, y, w))
    return (_running(_entries(tab.Q), s, h, x, y), _running(_entries(tab.R), s, h, u, w),
            _form(_entries(tab.G[None]), x, y, -1))


def cost(
    model: CoefficientModel,
    x: PathArray,
    u: PathArray,
    init: InitialCondition,
    grid: TimeGrid,
    batch: BrownianBatch | None = None,
) -> CostEstimate:
    """Left-point quadrature of the quadratic cost from the start index:

    ``J_p = 1/2 [ sum_{i=s}^{N-1} h (<Q x, x> + <R u, u>) + <G x_N, x_N> ]``.

    ``batch`` supplies the Brownian paths to the coefficient table; only a
    ``"deterministic"`` model may omit it, and is then tabulated on a
    one-path zero prefix.

    Raises
    ------
    InvalidArgumentError
        On mismatched shapes, or on a missing ``batch`` for a model whose
        kind is not ``"deterministic"``.
    """
    xv, uv = x.values, u.values
    N = grid.N
    if xv.shape[0] != N + 1 or uv.shape[0] != N + 1:
        raise InvalidArgumentError("state/control arrays do not span the grid")
    if xv.shape[1] != uv.shape[1]:
        raise InvalidArgumentError("state and control have different path counts")
    P = xv.shape[1]
    if batch is not None:
        if batch.grid.N != N or batch.grid.T != grid.T or batch.n_paths != P:
            raise InvalidArgumentError("batch does not match the state arrays")
        W = batch.W
    elif model.kind == "deterministic":
        W = _zero_prefix(grid)
    else:
        raise InvalidArgumentError(
            f"cost of a {model.kind!r} model needs the batch its weights depend on"
        )
    tab = coefficient_table(model, W)
    run_state, run_ctrl, term = _bilinear(tab, init.start_index, grid.h, xv, uv, xv, uv)
    per_path = 0.5 * (run_state + run_ctrl + term)
    se = float(per_path.std(ddof=1) / math.sqrt(P)) if P > 1 else 0.0
    return CostEstimate(
        mean=float(per_path.mean()),
        std_error=se,
        n_paths=P,
        components={
            "running_state": float(0.5 * run_state.mean()),
            "running_control": float(0.5 * run_ctrl.mean()),
            "terminal": float(0.5 * term.mean()),
        },
        per_path=per_path,
    )


def _combined(diff: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of a per-path difference (CRN discipline)."""
    P = diff.shape[0]
    se = float(diff.std(ddof=1) / math.sqrt(P)) if P > 1 else 0.0
    return float(diff.mean()), se


def _tolerance(se: float, n_se: float, disc_coeff: float, h: float) -> float:
    """The pass line of every Monte Carlo check: ``n_se * se + disc_coeff * sqrt(h)``."""
    return n_se * se + disc_coeff * math.sqrt(h)


def _identity_result(name: str, diff: np.ndarray, batch: BrownianBatch, n_se: float,
                     disc_coeff: float, terms: dict) -> CheckResult:
    """An identity check on the per-path difference ``diff``: its absolute
    mean against :func:`_tolerance`, with ``terms`` leading the details."""
    mean, se = _combined(diff)
    residual, tolerance = abs(mean), _tolerance(se, n_se, disc_coeff, batch.grid.h)
    details = {**terms, "std_error": se, "n_paths": batch.n_paths, "seed": batch.seed}
    return CheckResult(name=name, residual=residual, tolerance=tolerance,
                       passed=residual <= tolerance, details=details)


def value_identity_check(
    sol: RiccatiSolution,
    law: FeedbackLaw,
    model: CoefficientModel,
    init: InitialCondition,
    batch: BrownianBatch,
    n_se: float = N_SE,
    disc_coeff: float = DISC_ALLOWANCE,
) -> CheckResult:
    """Check that the closed-loop cost matches ``1/2 E <P(s) eta, eta>``.

    The residual is the absolute mean of the per-path difference between the
    realized cost and the quadratic form in the initial state; the tolerance
    is ``n_se`` standard errors of that difference plus the frozen
    ``disc_coeff * sqrt(h)`` discretization allowance.
    """
    J = _closed_loop(model, law, init, batch)[2]
    return _value_identity(sol, model, init, batch, J, n_se, disc_coeff)


def _closed_loop(model, law, init, batch) -> tuple[PathArray, PathArray, CostEstimate]:
    """The closed loop ``(x, u)`` under ``law`` on ``batch`` and its cost
    ``J``: the one triple that the three Monte Carlo checks read."""
    x, u = simulate_closed_loop(model, law, init, batch)
    return x, u, cost(model, x, u, init, batch.grid, batch)


def _value_identity(sol, model, init, batch, J: CostEstimate, n_se: float,
                    disc_coeff: float) -> CheckResult:
    """:func:`value_identity_check` on a given closed-loop cost ``J``."""
    _require_grid("solution grid", sol.grid, batch)
    _require_paths(batch.n_paths, sol.P.values)
    eta = _column(init.eta_column(model.n, batch.n_paths)[None])
    quad = 0.5 * _form(_entries(sol.P.values[init.start_index][None]), eta, eta, 0)
    return _identity_result("value_identity", J.per_path - quad, batch, n_se, disc_coeff,
                            {"closed_loop_cost": J.mean,
                             "value_quadratic_form": float(quad.mean())})


def completion_of_squares_check(
    sol: RiccatiSolution,
    law: FeedbackLaw,
    model: CoefficientModel,
    u: PathArray,
    init: InitialCondition,
    batch: BrownianBatch,
    n_se: float = N_SE,
    disc_coeff: float = DISC_ALLOWANCE,
) -> CheckResult:
    """Check ``J(u) = J(Theta x) + 1/2 E sum h <K (u - Theta x), u - Theta x>``
    with ``x`` the open-loop state under ``u`` (all terms on one batch).

    For ``u`` equal to the recorded closed-loop control the residual is
    exactly zero: the open-loop replay reproduces the closed-loop states bit
    for bit and the penalty vanishes identically.
    """
    J_fb = _closed_loop(model, law, init, batch)[2]
    return _completion_of_squares(sol, law, model, u, init, batch, J_fb, n_se, disc_coeff)


def _completion_of_squares(sol, law, model, u, init, batch, J_fb: CostEstimate,
                           n_se: float, disc_coeff: float) -> CheckResult:
    """:func:`completion_of_squares_check` against a given closed-loop cost
    ``J_fb``, so several controls share one closed loop."""
    _require_grid("solution grid", sol.grid, batch)
    th, Kv = law.theta.values, sol.K.values
    _require_paths(batch.n_paths, th, Kv)
    x_u = simulate_open_loop(model, u, init, batch)
    J_u = cost(model, x_u, u, init, batch.grid, batch)
    xs = _column(x_u.values)
    gap = [[u_j[i] - _dot(row, xs, i) for i in range(len(u_j))]
           for u_j, row in zip(_column(u.values), _entries(th))]
    penalty = 0.5 * _running(_entries(Kv), init.start_index, batch.grid.h, gap, gap)
    return _identity_result("completion_of_squares", J_u.per_path - J_fb.per_path - penalty,
                            batch, n_se, disc_coeff,
                            {"J_u": J_u.mean, "J_feedback": J_fb.mean,
                             "penalty_mean": float(penalty.mean())})


def make_perturbations(grid: TimeGrid, batch: BrownianBatch, m: int = 1) -> list:
    """The bounded adapted perturbation library used by the sweeps.

    Ten processes: constants, sinusoids and steps in t, a ramp, and
    sign/clip functions of the Brownian level (adapted by construction).
    Each entry is ``(perturbation_id, values)``.  The seven that depend on
    ``t`` only (``const_one`` to ``ramp_t``) are ``(N+1, 1, m, 1)`` rows that
    broadcast over the paths; ``sign_w``, ``sign_w_sin_t`` and ``clip_w``
    are ``(N+1, n_paths, m, 1)``.  ``grid`` must be the batch's grid.
    """
    _require_grid("grid", grid, batch)
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
        raise InvalidArgumentError(f"m must be a positive integer, got {m!r}")
    t = grid.points[:, None]
    T = grid.T
    W = batch.W
    fields = [
        ("const_one", np.ones_like(t)),
        ("const_neg_half", np.full_like(t, -0.5)),
        ("sin_2pi_t", np.sin(2.0 * math.pi * t / T)),
        ("cos_pi_t", np.cos(math.pi * t / T)),
        ("step_after_half", 1.0 * (t >= 0.5 * T)),
        ("step_first_quarter", 1.0 * (t < 0.25 * T)),
        ("ramp_t", t / T),
        ("sign_w", np.sign(W)),
        ("sign_w_sin_t", np.sign(W) * np.sin(math.pi * t / T)),
        ("clip_w", np.clip(W, -1.0, 1.0)),
    ]
    return [(pid, np.repeat(f[:, :, None, None], m, axis=2)) for pid, f in fields]


@dataclass(frozen=True)
class SweepRow:
    """One (perturbation, epsilon) arm of the optimality sweep."""

    perturbation_id: str
    epsilon: float
    J: float
    J_minus_Jfb: float
    std_err: float
    even_gap: float
    odd_fd: float
    odd_fd_std_err: float
    gap_tolerance: float
    gap_ok: bool


@dataclass(frozen=True)
class SweepResult:
    """Optimality sweep outcome.

    ``rows`` carries every arm; ``min_gap`` is the most negative cost gap
    observed.  ``first_order_ok`` certifies that the epsilon-odd finite
    difference ``[J(+eps v) - J(-eps v)] / (2 eps)`` is statistically zero
    (the cost is exactly quadratic in epsilon along feedback perturbations,
    so the odd part carries no signal, only noise and O(sqrt(h)) bias).
    ``quad_ratios`` maps perturbation id to the even-gap ratio between the
    two smallest distinct ``|eps|`` (``eps_a > eps_b``), which the quadratic
    structure pins at ``(eps_a / eps_b)^2`` (100 for the default epsilons).
    ``superposition_error`` is the worst max-norm relative deviation of a
    direct arm from its prediction; ``superposition_ok`` bounds it.
    """

    rows: list
    min_gap: float
    first_order_ok: bool
    quad_ratios: dict
    quad_ok: bool
    gaps_ok: bool
    superposition_error: float
    superposition_ok: bool
    passed: bool


def _superposition(model, x_fb, u_fb, v, init, batch) -> tuple[np.ndarray, np.ndarray]:
    """Per-path ``cross = B((x_fb, u_fb), (x_v, v))`` and ``J0 = B((x_v, v),
    (x_v, v)) / 2``, with ``B`` the quadrature of :func:`cost` and ``x_v``
    the Euler response to ``v`` from a zero state at the start index."""
    zero = InitialCondition(init.start_index, np.zeros(model.n))
    x_v = simulate_open_loop(model, PathArray(v), zero, batch).values
    tab = coefficient_table(model, batch.W)
    s, h = init.start_index, batch.grid.h
    cross = sum(_bilinear(tab, s, h, x_fb, u_fb, x_v, v))
    return cross, 0.5 * sum(_bilinear(tab, s, h, x_v, v, x_v, v))


def optimality_sweep(
    sol: RiccatiSolution,
    law: FeedbackLaw,
    model: CoefficientModel,
    init: InitialCondition,
    batch: BrownianBatch,
    perturbations: list | None = None,
    epsilons: tuple = _EPSILONS,
    n_se: float = N_SE,
    disc_coeff: float = DISC_ALLOWANCE,
) -> SweepResult:
    """Probe optimality of the feedback law along perturbation directions.

    For each perturbation ``v`` and each ``eps``, evaluates
    ``J(u_fb + eps v)`` and ``J(u_fb - eps v)`` on the common batch and
    checks (a) the one-sided gap ``J(+) - J(fb) >= -(n_se*SE + c*sqrt(h))``,
    (b) the epsilon-odd finite difference is statistically zero, and (c) the
    epsilon-even gap scales quadratically: its ratio between the two
    smallest distinct ``|eps|`` lies within 10% of ``(eps_a / eps_b)^2``.

    Each arm's per-path cost is ``J_fb +- eps cross + eps^2 J0`` (one
    zero-start response per ``v``, see the module notes), so (c) holds by
    construction and stays asserted.  The independent leg simulates the
    ``+eps`` arm of the largest ``|eps|`` directly for each ``v``; it must
    match its prediction within ``SUPERPOSITION_RTOL`` relative, max norm.
    An empty ``perturbations``, a zero or non-finite epsilon, fewer than two
    distinct ``|eps|``, or a ``Q``, ``R`` or ``G`` that breaks the symmetry
    rule of :func:`slqkit.problem.validate` (the superposition needs
    symmetric weights) raises ``InvalidArgumentError`` before any simulation.
    ``sol`` is not read (``law`` carries the gain); it stays in the
    signature, which the acceptance criteria call.
    """
    return _sweep(law, model, init, batch, None, perturbations, epsilons, n_se, disc_coeff)


def _sweep(law, model, init, batch, loop: tuple | None, perturbations: list | None,
           epsilons: tuple, n_se: float, disc_coeff: float) -> SweepResult:
    """:func:`optimality_sweep` on the :func:`_closed_loop` triple ``loop``.
    The inputs are checked first, and a ``None`` loop is built only after
    they pass, so bad inputs are refused before anything is simulated."""
    grid = batch.grid
    if perturbations is None:
        perturbations = make_perturbations(grid, batch, model.m)
    if len(perturbations) == 0:
        raise InvalidArgumentError("perturbations must be non-empty")
    if not all(math.isfinite(eps) and eps != 0.0 for eps in epsilons):
        raise InvalidArgumentError(f"epsilons must be finite and non-zero, got {epsilons!r}")
    mags = sorted({abs(eps) for eps in epsilons})
    if len(mags) < 2:
        raise InvalidArgumentError(
            "epsilons need at least two distinct |eps| for the quadratic-scaling leg, "
            f"got {epsilons!r}")
    tab = coefficient_table(model, batch.W)
    for name in ("Q", "R", "G"):
        asym, broken = _asymmetry(getattr(tab, name), SYMMETRY_TOL)
        if broken:
            raise InvalidArgumentError(f"{name} is not symmetric (max asymmetry {asym:.3e}); "
                                       "the sweep's superposition needs symmetric weights")
    x_fb, u_fb, J_fb = _closed_loop(model, law, init, batch) if loop is None else loop
    eps_direct = max(epsilons, key=abs)
    rows: list[SweepRow] = []
    even_by_arm: dict[tuple[str, float], float] = {}
    direct_errors = []
    first_order_ok = True
    gaps_ok = True
    for pid, v in perturbations:
        cross, J0 = _superposition(model, x_fb.values, u_fb.values, v, init, batch)

        def arm(eps):
            return J_fb.per_path + eps * cross + eps * eps * J0

        for eps in epsilons:
            J_p, J_m = arm(eps), arm(-eps)
            gap, gap_se = _combined(J_p - J_fb.per_path)
            odd, odd_se = _combined((J_p - J_m) / (2.0 * eps))
            even, _ = _combined(0.5 * (J_p + J_m) - J_fb.per_path)
            gap_tol = _tolerance(gap_se, n_se, disc_coeff, grid.h)
            ok = gap >= -gap_tol
            gaps_ok &= ok
            if abs(odd) > _tolerance(odd_se, n_se, disc_coeff, grid.h):
                first_order_ok = False
            even_by_arm[(pid, abs(eps))] = even
            rows.append(SweepRow(
                perturbation_id=pid, epsilon=eps, J=float(J_p.mean()),
                J_minus_Jfb=gap, std_err=gap_se, even_gap=even,
                odd_fd=odd, odd_fd_std_err=odd_se,
                gap_tolerance=gap_tol, gap_ok=ok,
            ))
        u_dir = PathArray(u_fb.values + eps_direct * v)
        x_dir = simulate_open_loop(model, u_dir, init, batch)
        J_dir = cost(model, x_dir, u_dir, init, grid, batch).per_path
        scale = max(np.abs(J_dir).max(), np.finfo(np.float64).tiny)
        direct_errors.append(np.abs(J_dir - arm(eps_direct)).max() / scale)
    eps_b, eps_a = mags[:2]
    target = (eps_a / eps_b) ** 2
    quad_ratios = {pid: even_by_arm[(pid, eps_a)] / even_by_arm[(pid, eps_b)]
                   for pid, _ in perturbations if even_by_arm[(pid, eps_b)] != 0.0}
    quad_ok = all(0.9 * target <= ratio <= 1.1 * target for ratio in quad_ratios.values())
    superposition_error = float(np.max(direct_errors))  # NaN propagates
    superposition_ok = superposition_error <= SUPERPOSITION_RTOL
    return SweepResult(
        rows=rows,
        min_gap=min(r.J_minus_Jfb for r in rows),
        first_order_ok=first_order_ok,
        quad_ratios=quad_ratios,
        quad_ok=quad_ok,
        gaps_ok=gaps_ok,
        superposition_error=superposition_error,
        superposition_ok=superposition_ok,
        passed=gaps_ok and first_order_ok and quad_ok and superposition_ok,
    )


@dataclass(frozen=True)
class ProbeRow:
    """Divergence-probe statistics for one (steps, n_paths) configuration."""

    steps: int
    n_paths: int
    h: float
    delta_grid: float
    max_zeta_sqint: float
    mean_exp_zeta_sqint: float
    exp_overflow: bool
    max_theta_sqint: float
    median_theta_sqint: float
    max_abs_ito: float
    min_Y: float
    max_Y: float
    ito_violations: int
    y_violations: int


@dataclass(frozen=True)
class ProbeResult:
    """Growth table of the counterexample's gain norm across refinements.

    ``growth_ratio`` compares the max pathwise squared gain L2-norm of the
    last row against the first; the theoretical object is infinite, so
    unbounded growth (not convergence) is the expected finding.
    ``bounds_ok`` certifies the stopped-envelope checks
    (``|ito sum| <= pi/(2 sqrt 2) + delta`` and
    ``1 - delta <= Y <= 1 + pi/sqrt(2) + delta``) on every sampled path.
    """

    rows: list
    seed: int
    growth_ratio: float
    growth_monotone: bool
    bounds_ok: bool


def _probe_block(grid: TimeGrid, n_paths: int, seed: int, path_offset: int,
                 buffers: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """Per-path ``integral zeta^2 dt``, ``integral Theta^2 dt``, min Y and
    max Y of paths ``[path_offset, path_offset + n_paths)``, computed in
    ``buffers``: three float64 and one boolean flat array, each of at least
    ``n_paths * N`` elements."""
    shape = (n_paths, grid.N)
    a, dW, zeta, mask = (buf[:n_paths * grid.N].reshape(shape) for buf in buffers)
    _path_major_increments(grid, n_paths, seed, path_offset, work=a, out=dW)
    # M takes the normals' buffer and Y overwrites dW: neither is read again.
    _, _, zeta, Y = _stopped_processes(grid, dW, out=(a, zeta, dW, mask))
    # Time integrals add in time order (an in-place cumsum), as np.sum(axis=0)
    # does on counterexample_paths' time-major arrays.
    sq = np.multiply(zeta, zeta, out=a)
    zsq = grid.h * np.cumsum(sq, axis=1, out=sq)[:, -1]
    theta = sq  # Theta_i = zeta_i / Y_i, with Y_0 = Y_SHIFT
    np.divide(zeta[:, 0], Y_SHIFT, out=theta[:, 0])
    np.divide(zeta[:, 1:], Y[:, :-1], out=theta[:, 1:])
    theta *= theta
    theta_sq = grid.h * np.cumsum(theta, axis=1, out=theta)[:, -1]
    return (zsq, theta_sq, np.minimum(Y.min(axis=1), Y_SHIFT),
            np.maximum(Y.max(axis=1), Y_SHIFT))


def _probe_paths(pool, buffers: list, grid: TimeGrid, n_paths: int, seed: int,
                 chunk_size: int) -> tuple[np.ndarray, ...]:
    """:func:`_probe_block`'s per-path arrays for paths ``[0, n_paths)``: each
    chunk of ``chunk_size`` paths is split into one block per buffer set,
    reduced on ``pool``'s threads, and the blocks are joined in path order."""
    parts = []
    for lo in range(0, n_paths, chunk_size):
        hi = min(lo + chunk_size, n_paths)
        block = -(-(hi - lo) // len(buffers))
        futures = [pool.submit(_probe_block, grid, min(block, hi - start), seed, start, buf)
                   for start, buf in zip(range(lo, hi, block), buffers)]
        parts += [f.result() for f in futures]
    return tuple(np.concatenate(p) for p in zip(*parts))


def counterexample_divergence_probe(
    T: float,
    steps_seq,
    paths_seq,
    seed: int,
    chunk_size: int = 5000,
) -> ProbeResult:
    """Measure the counterexample's blow-up across (steps, paths) ladders.

    Paths are sampled path-major in chunks of ``chunk_size``, and each chunk
    is reduced straight to per-path scalars by :func:`counterexample_paths`'
    stopping rule, time integrals summed in time order: the max/median
    pathwise gain norm ``integral of |Theta|^2 dt`` with ``Theta = zeta / Y``
    (signs drop out of the square), the max stopped-integrand norm
    ``integral of zeta^2 dt``, the mean of its exponential (saturated at
    float-max and flagged on overflow — that *is* the divergence finding at
    large step counts), the extremes of Y and of the Ito sums, and
    envelope-violation counts beyond the two-sided ``3 h^0.4`` grid
    allowance.

    Each chunk is split into one block of paths per worker thread (as many
    as the CPUs this process may run on), and at most ``chunk_size`` paths'
    arrays are live at once across them.  Each worker computes in its own
    buffers, allocated once per call and reused across chunks and rungs.
    Streams are per path and blocks are joined in path order, so the rows do
    not depend on the worker count or on ``chunk_size``.
    """
    steps_seq, paths_seq = list(steps_seq), list(paths_seq)
    for name, seq in (("steps_seq", steps_seq), ("paths_seq", paths_seq)):
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in seq):
            raise InvalidArgumentError(f"{name} must hold integers, got {seq!r}")
    steps_seq, paths_seq = [int(v) for v in steps_seq], [int(v) for v in paths_seq]
    if len(steps_seq) != len(paths_seq):
        raise InvalidArgumentError("steps_seq and paths_seq must have equal length")
    if not steps_seq:
        raise InvalidArgumentError("probe needs at least one configuration")
    if any(b <= a for a, b in zip(steps_seq, steps_seq[1:])):
        raise InvalidArgumentError("steps_seq must be strictly increasing")
    if paths_seq[0] < 1 or any(b <= a for a, b in zip(paths_seq, paths_seq[1:])):
        raise InvalidArgumentError("paths_seq must be positive and strictly increasing")
    if isinstance(chunk_size, bool) or not isinstance(chunk_size, (int, np.integer)) \
            or chunk_size < 1:
        raise InvalidArgumentError(f"chunk_size must be a positive integer, got {chunk_size!r}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise InvalidArgumentError(f"seed must be an integer, got {seed!r}")
    grids = [make_grid(T, N) for N in steps_seq]
    workers = min(_PROBE_WORKERS, chunk_size)
    size = max(-(-min(chunk_size, P) // workers) * N for N, P in zip(steps_seq, paths_seq))
    buffers = [(np.empty(size), np.empty(size), np.empty(size), np.empty(size, dtype=bool))
               for _ in range(workers)]
    # Imported here, not at module level, to keep it off the package's import.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        per_path = [_probe_paths(pool, buffers, grid, n_paths, seed, chunk_size)
                    for grid, n_paths in zip(grids, paths_seq)]
    rows: list[ProbeRow] = []
    for N, n_paths, grid, (zsq, theta_sq, y_lo, y_hi) in zip(steps_seq, paths_seq, grids,
                                                             per_path):
        delta = delta_grid(grid.h)
        # max_i |Y_i - Y_SHIFT| exactly: rounded subtraction is monotone and
        # Y_0 = Y_SHIFT lies between the extremes.
        ito = np.maximum(y_hi - Y_SHIFT, Y_SHIFT - y_lo)
        with np.errstate(over="ignore"):
            ez = np.exp(zsq)
        rows.append(ProbeRow(
            steps=N, n_paths=n_paths, h=grid.h, delta_grid=delta,
            max_zeta_sqint=float(zsq.max()),
            mean_exp_zeta_sqint=float(np.minimum(ez, np.finfo(np.float64).max).mean()),
            exp_overflow=bool(np.isinf(ez).any()),
            max_theta_sqint=float(theta_sq.max()),
            median_theta_sqint=float(np.median(theta_sq)),
            max_abs_ito=float(ito.max()),
            min_Y=float(y_lo.min()), max_Y=float(y_hi.max()),
            ito_violations=int((ito > ZETA_SCALE + delta).sum()),
            y_violations=int(((y_lo < 1.0 - delta) | (y_hi > Y_UPPER + delta)).sum()),
        ))
    growth_ratio = rows[-1].max_theta_sqint / rows[0].max_theta_sqint if rows else 0.0
    growth_monotone = all(
        b.max_theta_sqint >= a.max_theta_sqint for a, b in zip(rows, rows[1:])
    )
    bounds_ok = all(r.ito_violations == 0 and r.y_violations == 0 for r in rows)
    return ProbeResult(
        rows=rows, seed=int(seed), growth_ratio=float(growth_ratio),
        growth_monotone=growth_monotone, bounds_ok=bounds_ok,
    )
