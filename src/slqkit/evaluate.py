"""Forward simulation, Monte Carlo cost evaluation, and verification checks.

Every identity check here follows common-random-numbers discipline: all cost
terms entering one residual are evaluated on the same Brownian batch, so the
Monte Carlo noise largely cancels in the differences and the reported
standard error is that of the *difference*, not of the individual costs.

One Euler driver runs every simulation: the arm pass (:func:`_arm_pass`)
steps a stack of arms with one Euler step (:func:`_step`) and stores no
history.  Given a gain, its arm 0 is the closed loop ``u = Theta x``; every
other arm steps on ``u_fb + eps v`` or on ``eps v``.  The public simulators
record a one-arm pass, so replaying the recorded closed-loop control through
the open-loop simulator reproduces the closed-loop states bit for bit.  The
step and the cost quadrature read the model's coefficient table
(:func:`slqkit.problem.coefficient_table`), built once per (model, batch)
and shared by every check on that batch.  The three Monte Carlo checks read
one closed-loop cost, memoized like the table with one float per path by
:func:`_closed_loop`: it is always arm 0 of a pass, of the
completion-of-squares pass or of the feedback pass (:func:`_sweep_arms`),
which with no directions is the closed loop alone.  Every other run of a
check is an arm of one of these passes: all completion-of-squares controls
in one, and all the sweep's responses and direct arms in the other.
One quadrature (:class:`_Quadrature`, left point, in time order) takes every
quadratic form one index at a time: the cost, the sweep's cross terms and the
completion-of-squares penalty, as the arm pass yields each index.
Path-constant data (coefficient rows, a one-path solution,
time-only perturbations) stay ``(1, r, c)`` rows that broadcast.
One Euler step and one quadratic form (:func:`_form`) serve every dimension,
on per-entry views (:func:`_entries`), with each sum in index order, so
results do not depend on the BLAS build or on the number of arms in a pass.
An entry that is ``+-0`` at every index is absent and its terms skipped:
adding ``+-0`` to a nonzero value is exact, so every nonzero result keeps
its bits, and the sign of a zero sum is kept for the terms that remain.
The Euler step is linear in ``(x, u)`` and the cost is one bilinear
quadrature ``B`` taken on ``(x, u), (x, u)``, so ``J(u_fb + eps v) = J_fb +
eps B((x_fb, u_fb), (x_v, v)) + eps^2 B((x_v, v), (x_v, v)) / 2`` per path
up to rounding, with ``x_v`` the response to ``v`` from a zero state (Q, R
and G are symmetric).  The optimality sweep uses this superposition in place
of one simulation per arm, and checks it against a direct arm per
perturbation.  :func:`_tolerance` is the pass line of every Monte Carlo
check.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .errors import FiniteEscapeError, InvalidArgumentError, _finite, _integer, _real
from .feedback import FeedbackLaw
from .grid import (BrownianBatch, PathArray, TimeGrid, _path_blocks, _path_major_increments,
                   _require_grid, _require_process, _shared, make_grid)
from .problem import (
    CoefficientModel,
    InitialCondition,
    Y_SHIFT,
    Y_UPPER,
    ZETA_SCALE,
    _stopped_processes,
    _table_for,
    coefficient_table,
    delta_grid,
)
from .riccati import RiccatiSolution, _gain

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


def _entries(a: np.ndarray) -> list:
    """Views ``E[j][l][i] = a[i, ..., j, l]`` of an ``(I, ..., r, c)`` array,
    listed once so that loops over ``i`` only look them up.  An entry that is
    ``+-0`` at every index is ``None``, absent: every sum skips its terms."""
    return [[list(v) if v.any() else None for v in (a[..., j, l] for l in range(a.shape[-1]))]
            for j in range(a.shape[-2])]


def _sum(terms) -> np.ndarray | None:
    """The sum of the ``terms`` that are not ``None``, in order from the first;
    ``None`` if there is none."""
    total = None
    for term in terms:
        if term is not None:
            total = term if total is None else total + term
    return total


def _dot(row: list, v: list, i: int) -> np.ndarray | None:
    """``sum_l row_l v_l`` of the entry list ``row`` at index ``i`` and one
    index's entries ``v``, over the present entries of ``row`` (:func:`_sum`)."""
    return _sum(r_l[i] * v_l for r_l, v_l in zip(row, v) if r_l is not None)


def _step(coeffs: list, i: int, h: float, dw: np.ndarray, x: list, u: list) -> list:
    """The Euler step from index ``i``: the new entries ``x_j + h (sum_l A_jl
    x_l + sum_l B_jl u_l) + (sum_l C_jl x_l + sum_l D_jl u_l) dW`` of the
    ``(A, P)`` entries ``x`` and ``u`` of a stack of arms, with ``coeffs`` the
    entry lists of ``A, B, C, D`` (:func:`_dot`).  A term with no present
    coefficient is not added."""
    A, B, C, D = coeffs
    x_next = []
    for j, x_j in enumerate(x):
        for on_x, on_u, scale in ((A, B, h), (C, D, dw)):
            total = _sum((_dot(on_x[j], x, i), _dot(on_u[j], u, i)))
            if total is not None:
                x_j = x_j + scale * total
        x_next.append(x_j)
    return x_next


def _start(init: InitialCondition, n: int, P: int) -> np.ndarray:
    """The start state of a one-arm stack of :func:`_arm_pass`, ``(n, 1, P)``."""
    return init.eta_column(n, P)[..., 0].T[:, None]


def _recorded(model: CoefficientModel, init: InitialCondition, batch: BrownianBatch,
              arms: list, theta: np.ndarray | None = None) -> list:
    """The ``(N+1, P, n, 1)`` states of a one-arm pass of :func:`_arm_pass`
    from the start index, and with ``theta`` its ``(N+1, P, m, 1)`` controls,
    as histories: ``x = eta`` up to the start and ``u = 0`` before it.  A
    control ``Theta x`` that overflows while every state stays finite (it
    enters no present entry of ``B`` or ``D``) raises
    :class:`FiniteEscapeError` naming its first index and path."""
    N, P, s = batch.grid.N, batch.n_paths, init.start_index
    hist = [np.empty((N + 1, P, model.n, 1))]
    if theta is not None:
        hist.append(np.zeros((N + 1, P, model.m, 1)))
    hist[0][: s + 1] = init.eta_column(model.n, P)
    tab = coefficient_table(model, batch.W)
    for i, *entries in _arm_pass(tab, batch, s, _start(init, model.n, P), arms, theta):
        for v, e in zip(hist, entries):
            for j, e_j in enumerate(e):
                v[i, :, j, 0] = e_j[0]
    if theta is not None:
        bad = ~np.isfinite(hist[1]).all(axis=(2, 3))
        if bad.any():
            i = bad.any(axis=1).argmax()
            raise FiniteEscapeError(f"control became non-finite at step {i}, first path "
                                    f"{bad[i].argmax()}")
    return hist


def simulate_closed_loop(
    model: CoefficientModel,
    law: FeedbackLaw,
    init: InitialCondition,
    batch: BrownianBatch,
) -> tuple[PathArray, PathArray]:
    """Run ``dx = (A + B Theta) x dt + (C + D Theta) x dW`` from the start
    index, recording ``u = Theta x`` along the way.

    The run is arm 0 of a one-arm pass of :func:`_arm_pass`, recorded index
    by index; replaying the recorded control through
    :func:`simulate_open_loop` reproduces these states exactly.

    Raises
    ------
    InvalidArgumentError
        If the gain's step count or its ``(m, n)`` entries do not fit the
        batch and the model, or the start index is not below ``N``.
    FiniteEscapeError
        If the state or the recorded control overflows; the message carries
        the first offending (step, path).
    """
    x, u = _recorded(model, init, batch, [], law.theta.values)
    return PathArray(x), PathArray(u)


def simulate_open_loop(
    model: CoefficientModel,
    u: PathArray,
    init: InitialCondition,
    batch: BrownianBatch,
) -> PathArray:
    """Run ``dx = (A x + B u) dt + (C x + D u) dW`` for a given adapted
    control process."""
    x, = _recorded(model, init, batch, [(False, 1.0, u.values)])
    return PathArray(x)


def _arm_pass(tab, batch: BrownianBatch, s: int, x0: np.ndarray, arms: list,
              theta: np.ndarray | None = None):
    """Step a stack of ``A`` arms on ``batch`` from index ``s``, yielding
    ``(i, x_i, u_i)`` for ``i = s..N``: lists of the ``n`` state and ``m``
    control entries, each ``(A, P)``, fresh at every index.  No arm's history
    is stored.

    With ``theta`` (``(N+1, k, m, n)``, ``k`` 1 or ``P``), arm 0 is the closed
    loop, stepped ahead of ``arms`` on ``u_fb,i = theta_i x_i`` formed from its
    own state at index ``i``, and ``A = 1 + len(arms)``; else ``A =
    len(arms)``.  ``x0`` broadcasts to ``(n, A, P)``: the arms' start states.
    An arm of ``arms`` is a triple ``(on_fb, eps, v)``: it steps on ``u_fb,i
    + eps v_i`` when ``on_fb``, else on ``eps v_i``, with ``v`` an ``(N+1, k,
    m, 1)`` control, and a given control ``u`` runs as ``(False, 1.0, u)``;
    the closed loop's own replay is arm 0 itself.  Every arm takes
    :func:`_step` on the model's table ``tab``, elementwise, so an arm's
    entries do not depend on the stack it runs in, bit for bit.  A start
    index not below ``N`` raises :class:`InvalidArgumentError` before any
    step; a non-finite state raises :class:`FiniteEscapeError` at the first
    step that has one, naming the first path of the first arm that has one
    there.
    """
    N, h, P = batch.grid.N, batch.grid.h, batch.n_paths
    n, m = tab.model.n, tab.model.m
    if theta is not None:
        _require_process("gain", theta, N, P, (m, n))
    for _, _, v in arms:
        _require_process("control", v, N, P, (m, 1))
    if s >= N:
        raise InvalidArgumentError(f"start_index {s} must be < N = {N}")
    coeffs = [_entries(c) for c in (tab.A, tab.B, tab.C, tab.D)]
    gain = None if theta is None else _entries(theta)
    lead = int(gain is not None)
    runs = _runs(arms, lead)
    W = batch.W
    x = list(np.broadcast_to(x0, (n, lead + len(arms), P)))
    for i in range(s, N + 1):
        u = np.empty((m, lead + len(arms), P))
        # Overflow in Theta x or in a step is expected on escaping instances;
        # it is raised as FiniteEscapeError from the next state, so silence it.
        with np.errstate(over="ignore", invalid="ignore"):
            if gain is not None:
                x_fb = [x_j[0] for x_j in x]
                for u_k, row in zip(u, gain):
                    total = _dot(row, x_fb, i)
                    u_k[0] = 0.0 if total is None else total
            for on_fb, eps, rows, at in runs:
                u_run = u[:, at]
                np.multiply(rows[i], eps, out=u_run)
                if on_fb:
                    np.add(u[:, :1], u_run, out=u_run)
            u = list(u)
            # Index i is yielded once the step from it is known finite, so no
            # caller reads the control of an escaping step.
            x_next = x if i == N else _step(coeffs, i, h, W[i + 1] - W[i], x, u)
        if not all(np.isfinite(x_j).all() for x_j in x_next):
            bad = np.logical_or.reduce([~np.isfinite(x_j) for x_j in x_next])
            raise FiniteEscapeError(f"state became non-finite at step {i + 1}, first path "
                                    f"{bad[bad.any(axis=1).argmax()].argmax()}", time=None)
        yield i, x, u
        x = x_next


def _runs(arms: list, lead: int) -> list:
    """The arms of :func:`_arm_pass` as runs ``(on_fb, eps, rows, at)`` of
    consecutive arms, the slice ``at`` of the stack, whose controls are
    ``rows[i]``, broadcasting to ``(m, A_run, P)``.  The time-only controls of
    neighbouring arms with one ``(on_fb, eps)`` (``eps`` by its bits, so
    ``0.0`` and ``-0.0`` stay apart) are one stacked ``(N+1, m, A_run, 1)``
    row; a path-dependent control is a run of one, read as an ``(N+1, m, 1,
    P)`` view."""
    def key(arm):
        on_fb, eps, v = arm
        return ((on_fb, np.float64(eps).tobytes()) if v.shape[1] == 1
                else object())  # equal to no other key

    runs, start = [], lead
    for _, group in groupby(arms, key):
        (on_fb, eps, v), *rest = group
        rows = v.transpose(0, 2, 3, 1)
        if rest:
            rows = np.concatenate([rows] + [w.transpose(0, 2, 3, 1) for _, _, w in rest], axis=2)
        runs.append((on_fb, eps, rows, slice(start, start + 1 + len(rest))))
        start += 1 + len(rest)
    return runs


def _form(M: list, x: list, y: list, i: int) -> np.ndarray | None:
    """Per-path ``<M_i x, y> = sum_j sum_l (x_j M_jl) y_l`` of the entry lists
    ``M`` at index ``i`` and one index's entries ``x`` and ``y``, summed over
    ``(j, l)`` in index order, over the terms whose factors are all present
    (:func:`_sum`)."""
    return _sum(x_j * M_jl[i] * y_l for x_j, row in zip(x, M) if x_j is not None
                for M_jl, y_l in zip(row, y) if M_jl is not None and y_l is not None)


class _Quadrature:
    """The cost's bilinear form ``B((x, u), (y, w)) = sum_{i=s}^{N-1} h (<Q_i
    x_i, y_i> + <R_i u_i, w_i>) + <G x_N, y_N>`` per path, taken one index at
    a time by :meth:`add` (left point, in time order, from zero) into
    ``parts``: its state, control and terminal terms.  A part that receives
    no term is ``+0.0``; at the terminal index every part is broadcast to the
    shape of the forms' operands.  A form that overflows raises
    :class:`FiniteEscapeError` at the terminal index (:func:`_finite`)."""

    def __init__(self, tab, h: float):
        self.Q, self.R, self.G = (_entries(v) for v in (tab.Q, tab.R, tab.G[None]))
        self.N, self.h = tab.Q.shape[0] - 1, h
        self.parts = [np.zeros(()), np.zeros(()), np.zeros(())]

    def add(self, i: int, x: list, u: list, y: list, w: list) -> None:
        """Add index ``i``'s term of the entries ``(x, u)`` and ``(y, w)``."""
        with np.errstate(over="ignore", invalid="ignore"):  # see _finite
            if i < self.N:
                for k, form in enumerate((_form(self.Q, x, y, i), _form(self.R, u, w, i))):
                    if form is not None:
                        self.parts[k] = self.parts[k] + self.h * form
                return
            form = _form(self.G, x, y, 0)
            if form is not None:
                self.parts[2] = form
            shape = np.broadcast_shapes(*(v.shape for v in (*self.parts, *x, *u, *y, *w)
                                          if v is not None))
            self.parts = [np.broadcast_to(part, shape) for part in self.parts]
            _finite("cost", sum(self.parts))


def _bilinear(tab, s: int, h: float, x, u, y, w) -> list:
    """:class:`_Quadrature` from index ``s`` of ``(N+1, k, ., 1)`` histories."""
    q = _Quadrature(tab, h)
    cols = [[row[0] for row in _entries(v)] for v in (x, u, y, w)]
    for i in range(s, len(x)):
        q.add(i, *([None if e is None else e[i] for e in c] for c in cols))
    return q.parts


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
    one-path zero prefix.  The state and the control each have 1 path or the
    batch's count (the state's without a batch): a control row broadcasts.

    Raises
    ------
    InvalidArgumentError
        On mismatched shapes, or on a missing ``batch`` for a model whose
        kind is not ``"deterministic"``.
    FiniteEscapeError
        If the cost of some path overflows.
    """
    xv, uv = x.values, u.values
    P = xv.shape[1] if batch is None else batch.n_paths
    if batch is not None:
        _require_grid("grid", grid, batch)
    _require_process("state", xv, grid.N, P, (model.n, 1))
    _require_process("control", uv, grid.N, P, (model.m, 1))
    tab = _table_for("cost", model, grid, None if batch is None else batch.W)
    parts = _bilinear(tab, init.start_index, grid.h, xv, uv, xv, uv)
    return _estimate(*(np.broadcast_to(part, (P,)) for part in parts))


def _estimate(run_state: np.ndarray, run_ctrl: np.ndarray, term: np.ndarray) -> CostEstimate:
    """The :class:`CostEstimate` of the per-path parts ``(P,)`` of the cost's
    :class:`_Quadrature` taken on ``(x, u), (x, u)``."""
    per_path = 0.5 * (run_state + run_ctrl + term)
    mean, se = _combined(per_path)
    components = {"running_state": float(0.5 * run_state.mean()),
                  "running_control": float(0.5 * run_ctrl.mean()),
                  "terminal": float(0.5 * term.mean())}
    return CostEstimate(mean=mean, std_error=se, n_paths=per_path.shape[0],
                        components=components, per_path=per_path)


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
    ``disc_coeff * sqrt(h)`` discretization allowance.  ``n_se`` and
    ``disc_coeff`` must be finite reals ``>= 0``, as in every Monte Carlo check.
    """
    n_se, disc_coeff = _real(n_se, "n_se", 0.0), _real(disc_coeff, "disc_coeff", 0.0)
    _require_grid("solution grid", sol.grid, batch)
    _require_process("solution", sol.P.values, batch.grid.N, batch.n_paths, (model.n, model.n))
    J = _closed_loop(model, law, init, batch)
    eta = _start(init, model.n, batch.n_paths)[:, 0]
    form = _form(_entries(sol.P.values[init.start_index][None]), eta, eta, 0)
    quad = 0.5 * (np.zeros(batch.n_paths) if form is None else form)
    return _identity_result("value_identity", J.per_path - quad, batch, n_se, disc_coeff,
                            {"closed_loop_cost": J.mean,
                             "value_quadratic_form": float(quad.mean())})


def _closed_loop(model, law, init, batch, parts: list | None = None) -> CostEstimate:
    """The cost ``J_fb`` of the closed loop ``u = Theta x`` under ``law`` on
    ``batch``, which the three Monte Carlo checks read: arm 0 of the
    :class:`_Quadrature` ``parts`` of a pass whose arm 0 is this closed loop,
    or else of the feedback pass :func:`_sweep_arms` with no directions, equal
    bit for bit to :func:`cost` of :func:`simulate_closed_loop`.  It is
    shared by :func:`slqkit.grid._shared` on ``(batch.W, law.theta.values)``
    and the model, grid and start, so a synthesized gain is simulated once per
    batch and start; the entry holds ``P`` floats, its read-only
    ``per_path``, and ``parts`` only fill an empty entry."""
    grid, eta = batch.grid, init.eta

    def build():
        q = parts if parts is not None else _sweep_arms(
            coefficient_table(model, batch.W), law.theta.values, [], 0.0, init, batch)[0]
        J = _estimate(*(part[0] for part in q))
        J.per_path.setflags(write=False)
        return J

    key = (id(model), grid.T, grid.N, init.start_index, eta.shape, eta.tobytes())
    return _shared((batch.W, law.theta.values), key, model, build)


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

    ``u`` (``(N+1, 1 or n_paths, m, 1)``) runs as the one arm ``(False,
    1.0, u)`` of :func:`_arm_pass`, which adds its cost and penalty as it
    steps, so its state history is not stored; ``J(Theta x)`` is the
    memoized :func:`_closed_loop`.  For ``u`` equal to the control recorded
    by :func:`simulate_closed_loop` the residual is exactly zero: the replay
    reproduces the closed-loop states bit for bit and the penalty vanishes
    identically.
    """
    n_se, disc_coeff = _real(n_se, "n_se", 0.0), _real(disc_coeff, "disc_coeff", 0.0)
    _require_grid("solution grid", sol.grid, batch)
    _require_process("solution", sol.P.values, batch.grid.N, batch.n_paths, (model.n, model.n))
    return _completion_of_squares(sol, law, model, [(False, 1.0, u.values)], init,
                                  batch, n_se, disc_coeff)[0]


def _completion_of_squares(sol: RiccatiSolution, law, model, controls: list, init, batch,
                           n_se: float, disc_coeff: float) -> list:
    """:func:`completion_of_squares_check` of each of ``controls`` (arms of
    :func:`_arm_pass`): they share the :func:`_closed_loop` and one arm pass,
    which adds each arm's cost and penalty as it goes, and the penalty reads
    ``K`` one node at a time, as a finite ``PathArray``.  The pass steps the
    closed loop as its arm 0 only when some control is ``on_fb``; then its
    arm-0 parts fill an empty memo entry of :func:`_closed_loop`, and arm 0's
    own identity, the replay ``J_fb - J_fb - 0`` (exactly ``0.0``), is
    reported first."""
    tab = coefficient_table(model, batch.W)
    N, h = batch.grid.N, batch.grid.h
    gain = _entries(law.theta.values)
    q, penalty = _Quadrature(tab, h), np.zeros(())
    lead = any(on_fb for on_fb, _, _ in controls)
    # Without arm 0 the closed loop is a pass of its own, read first, so an
    # escape of the closed loop is the one raised.
    J_fb = None if lead else _closed_loop(model, law, init, batch)
    for i, x, u in _arm_pass(tab, batch, init.start_index, _start(init, model.n, batch.n_paths),
                             controls, law.theta.values if lead else None):
        q.add(i, x, u, x, u)
        if i < N:
            K = _entries(PathArray(_gain(sol, "K", slice(i, i + 1))).values)
            with np.errstate(over="ignore", invalid="ignore"):  # see _finite
                gap = [u_j if fb is None else u_j - fb
                       for u_j, fb in zip(u, (_dot(row, x, i) for row in gain))]
                form = _form(K, gap, gap, 0)
                if form is not None:
                    penalty = penalty + h * form
        else:
            _finite("completion-of-squares penalty", penalty)
    if J_fb is None:
        J_fb = _closed_loop(model, law, init, batch, q.parts)
    J_u = 0.5 * sum(q.parts)
    penalty = 0.5 * np.broadcast_to(penalty, J_u.shape)
    return [_identity_result("completion_of_squares", J_u[a] - J_fb.per_path - penalty[a],
                             batch, n_se, disc_coeff,
                             {"J_u": float(J_u[a].mean()), "J_feedback": J_fb.mean,
                              "penalty_mean": float(penalty[a].mean())})
            for a in range(lead + len(controls))]


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
    m = _integer(m, "m", 1)
    # Every field is computed at its final width from broadcast views, so no
    # path field is held twice.
    t = np.broadcast_to(grid.points[:, None, None, None], (grid.N + 1, 1, m, 1))
    T = grid.T
    W = np.broadcast_to(batch.W[:, :, None, None], (grid.N + 1, batch.n_paths, m, 1))
    return [
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


def _sweep_arms(tab, theta: np.ndarray, directions: list, eps_direct: float, init,
                batch) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
    """The feedback pass: the closed loop ``(x_fb, u_fb)`` under the gain
    ``theta`` as arm 0 and, for each direction ``v``, the response ``x_v`` to
    ``v`` from a zero state at the start index and the direct arm ``u_fb +
    eps_direct v``, in one arm pass.  It returns the stack's
    :class:`_Quadrature` parts, whose arm 0 is the closed loop's, and per
    direction and path ``cross = B((x_fb, u_fb), (x_v, v))``, ``J0 = B((x_v,
    v), (x_v, v)) / 2`` and the cost ``J_dir`` of the direct arm, each ``(V,
    P)``, with ``B`` the cost's quadrature.  Arm 0's entries at each index are
    the cross terms' operands; with no directions the pass is the closed loop
    alone and takes no cross form."""
    V, h = len(directions), batch.grid.h
    x0 = np.zeros((tab.model.n, 1 + 2 * V, batch.n_paths))
    x0[:, :1] = x0[:, V + 1:] = _start(init, tab.model.n, batch.n_paths)
    arms = [(False, 1.0, v) for v in directions] + [(True, eps_direct, v) for v in directions]
    own, cross = _Quadrature(tab, h), _Quadrature(tab, h)
    for i, x, u in _arm_pass(tab, batch, init.start_index, x0, arms, theta):
        own.add(i, x, u, x, u)
        if V:
            cross.add(i, [x_j[0] for x_j in x], [u_j[0] for u_j in u],
                      [x_j[1:V + 1] for x_j in x], [u_j[1:V + 1] for u_j in u])
    J = 0.5 * sum(own.parts)
    return own.parts, sum(cross.parts), J[1:V + 1], J[V + 1:]


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
    The closed loop (arm 0, whose entries give the cross terms), the
    responses and the direct arms ``(True, eps, v)`` run as one feedback
    pass (:func:`_sweep_arms`) that adds their forms as it steps, so no arm's
    history is stored; ``J_fb`` is the memoized :func:`_closed_loop`, which
    arm 0's parts fill when its entry is empty.
    The superposition needs symmetric weights.  An empty ``perturbations``,
    an epsilon that is zero or not a finite real, fewer than two distinct
    ``|eps|``, a negative or non-finite ``n_se`` or ``disc_coeff``, or a
    model whose coefficient table refuses its data (a non-finite coefficient,
    or a ``Q``, ``R`` or ``G`` that breaks the table's symmetry rule, see
    :class:`slqkit.problem.CoefficientTable`) raises
    ``InvalidArgumentError`` before any simulation.
    ``sol`` is not read (``law`` carries the gain); it stays in the
    signature, which the acceptance criteria call.
    """
    n_se, disc_coeff = _real(n_se, "n_se", 0.0), _real(disc_coeff, "disc_coeff", 0.0)
    epsilons = tuple(_real(eps, f"epsilons[{k}]") for k, eps in enumerate(epsilons))
    grid = batch.grid
    if perturbations is None:
        perturbations = make_perturbations(grid, batch, model.m)
    if len(perturbations) == 0:
        raise InvalidArgumentError("perturbations must be non-empty")
    if 0.0 in epsilons:
        raise InvalidArgumentError(f"epsilons must be non-zero, got {epsilons!r}")
    mags = sorted({abs(eps) for eps in epsilons})
    if len(mags) < 2:
        raise InvalidArgumentError(
            "epsilons need at least two distinct |eps| for the quadratic-scaling leg, "
            f"got {epsilons!r}")
    tab = coefficient_table(model, batch.W)  # admits the weights before anything is simulated
    eps_direct = max(epsilons, key=abs)
    parts, cross, J0, J_dir = _sweep_arms(tab, law.theta.values, [v for _, v in perturbations],
                                          eps_direct, init, batch)
    J_fb = _closed_loop(model, law, init, batch, parts)
    rows: list[SweepRow] = []
    even_by_arm: dict[tuple[str, float], float] = {}
    direct_errors = []
    first_order_ok = True
    gaps_ok = True
    for k, (pid, _) in enumerate(perturbations):

        def arm(eps):
            return J_fb.per_path + eps * cross[k] + eps * eps * J0[k]

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
        scale = max(np.abs(J_dir[k]).max(), np.finfo(np.float64).tiny)
        direct_errors.append(np.abs(J_dir[k] - arm(eps_direct)).max() / scale)
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
    _, _, zeta, Y, zsq = _stopped_processes(grid, dW, out=(a, zeta, dW, mask))
    theta = a  # Theta_i = zeta_i / Y_i, with Y_0 = Y_SHIFT
    np.divide(zeta[:, 0], Y_SHIFT, out=theta[:, 0])
    np.divide(zeta[:, 1:], Y[:, :-1], out=theta[:, 1:])
    theta *= theta
    # Time integrals add in time order (an in-place cumsum), as np.sum(axis=0)
    # does on counterexample_paths' time-major arrays.
    theta_sq = grid.h * np.cumsum(theta, axis=1, out=theta)[:, -1]
    return (zsq, theta_sq, np.minimum(Y.min(axis=1), Y_SHIFT),
            np.maximum(Y.max(axis=1), Y_SHIFT))


def _probe_task(free, grid: TimeGrid, seed: int, block: slice) -> tuple[np.ndarray, ...]:
    """:func:`_probe_block` on ``block``'s paths, in a buffer set borrowed from ``free``."""
    buffers = free.get()
    try:
        return _probe_block(grid, block.stop - block.start, seed, block.start, buffers)
    finally:
        free.put(buffers)


def counterexample_divergence_probe(
    T: float,
    steps_seq,
    paths_seq,
    seed: int,
    chunk_size: int = 5000,
) -> ProbeResult:
    """Measure the counterexample's blow-up across (steps, paths) ladders.

    Paths are sampled path-major in blocks, and each block is reduced
    straight to per-path scalars by :func:`counterexample_paths`' stopping
    rule, time integrals summed in time order: the max/median
    pathwise gain norm ``integral of |Theta|^2 dt`` with ``Theta = zeta / Y``
    (signs drop out of the square), the max stopped-integrand norm
    ``integral of zeta^2 dt``, the mean of its exponential (saturated at
    float-max and flagged on overflow — that *is* the divergence finding at
    large step counts), the extremes of Y and of the Ito sums, and
    envelope-violation counts beyond the two-sided ``3 h^0.4`` grid
    allowance.

    A rung of ``N`` steps and ``P`` paths is cut into blocks of at most
    ``_PATH_BLOCK_ENTRIES // N`` paths (at least one) and ``ceil(min(chunk_size,
    P) / workers)``, all submitted at once to one thread per usable CPU.  A
    block borrows one of ``workers`` buffer sets (three float64 and one boolean
    array) from a queue, so the working set stays near ``workers * 25 B *
    _PATH_BLOCK_ENTRIES`` whatever ``P`` or ``chunk_size``.  Blocks are joined
    in path order: the worker count and block sizes change no bit of the rows.
    """
    steps_seq = [_integer(v, f"steps_seq[{k}]") for k, v in enumerate(steps_seq)]
    paths_seq = [_integer(v, f"paths_seq[{k}]", 1) for k, v in enumerate(paths_seq)]
    if len(steps_seq) != len(paths_seq):
        raise InvalidArgumentError("steps_seq and paths_seq must have equal length")
    if not steps_seq:
        raise InvalidArgumentError("probe needs at least one configuration")
    if any(b <= a for a, b in zip(steps_seq, steps_seq[1:])):
        raise InvalidArgumentError("steps_seq must be strictly increasing")
    if any(b <= a for a, b in zip(paths_seq, paths_seq[1:])):
        raise InvalidArgumentError("paths_seq must be strictly increasing")
    chunk_size, seed = _integer(chunk_size, "chunk_size", 1), _integer(seed, "seed")
    grids = [make_grid(T, N) for N in steps_seq]
    workers = min(_PROBE_WORKERS, chunk_size)
    blocks = [_path_blocks(P, N, -(-min(chunk_size, P) // workers))
              for N, P in zip(steps_seq, paths_seq)]
    size = max(rung[0].stop * N for rung, N in zip(blocks, steps_seq))
    # Imported here, not at module level, to keep them off the package's import.
    from concurrent.futures import ThreadPoolExecutor
    from queue import SimpleQueue

    free = SimpleQueue()
    for _ in range(workers):
        free.put((np.empty(size), np.empty(size), np.empty(size), np.empty(size, dtype=bool)))
    pool = ThreadPoolExecutor(workers)
    try:
        futures = [[pool.submit(_probe_task, free, grid, seed, b) for b in rung]
                   for grid, rung in zip(grids, blocks)]
        per_path = [tuple(map(np.concatenate, zip(*(f.result() for f in rung))))
                    for rung in futures]
    finally:
        pool.shutdown(cancel_futures=True)  # after a raise, no queued block runs
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
        rows=rows, seed=seed, growth_ratio=float(growth_ratio),
        growth_monotone=growth_monotone, bounds_ok=bounds_ok,
    )
