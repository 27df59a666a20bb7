"""Feedback gain synthesis and its regularity diagnostics.

The gain is the pseudoinverse formula

    Theta = -K^+ L + (I - K^+ K) theta_free

evaluated pointwise in (time, path), with ``theta_free = 0`` unless the
caller supplies one.  It is well defined — and the resulting control
optimal — exactly where ``K`` is PSD and the columns of ``L`` lie in the
range of ``K``.  Both conditions and ``K^+`` come from batched calls of
:func:`slqkit.pinv.solvability`, one per block of time rows; violations
abort synthesis with the offending sample points.  Whether the gain is *usable*
is a separate question answered by :func:`regularity_diagnostics`: the
pathwise squared L2 time-norm of Theta must stay bounded across scenarios,
and the report quantifies its sampled distribution and flags the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import InvalidArgumentError, SynthesisInfeasibleError, _real
from .grid import PathArray, TimeGrid, _require_grid, _require_process, _time_blocks
from .pinv import SOLVE_TOL, _frobenius, _product, solvability
from .problem import CoefficientModel, _table_for
from .riccati import _AT_B, RiccatiSolution, _gains, _product_rows

__all__ = [
    "FeedbackLaw",
    "RegularityReport",
    "StationarityResult",
    "synthesize",
    "regularity_diagnostics",
    "stationarity_residual",
]


@dataclass(frozen=True)
class RegularityReport:
    """Distribution of the pathwise squared L2 time-norm of the gain.

    ``pathwise_sqnorm[p] = sum_i ||Theta_{i,p}||_F^2 * h`` over the running
    indices.  ``qualified`` is the desk-scale verdict ``max <= bound_threshold``
    — finite-sample evidence, not a proof of membership in the
    essential-supremum class; read it together with the growth trend across
    grid refinements.
    """

    pathwise_sqnorm: np.ndarray = field(repr=False)
    max: float
    mean: float
    quantiles: dict
    bound_threshold: float
    qualified: bool


@dataclass
class FeedbackLaw:
    """A synthesized feedback gain and its provenance.

    Attributes
    ----------
    theta : PathArray
        ``(N+1, n_paths, m, n)`` gain matrices, read-only from :func:`synthesize`.
    source : RiccatiSolution
    diagnostics : RegularityReport or None
        Populated by :func:`regularity_diagnostics`.
    """

    theta: PathArray
    source: RiccatiSolution
    diagnostics: RegularityReport | None = None


def synthesize(
    sol: RiccatiSolution,
    model: CoefficientModel,
    theta_free: PathArray | np.ndarray | None = None,
    tol: float = SOLVE_TOL,
) -> FeedbackLaw:
    """Build the gain ``-K^+ L + (I - K^+ K) theta_free`` from a solution.

    Solvability is checked at every (time, path) sample: ``K`` PSD within
    ``tol`` and ``L`` in the range of ``K`` within ``tol``-scale, by
    :func:`slqkit.pinv.solvability` on one block of time rows at a time,
    each derived from the solution's pair and its gain written straight into
    the gain array.  ``theta_free`` must broadcast to the gain's shape;
    without it the null-space term is zero.  When ``K`` is invertible
    everywhere the result does not depend on ``theta_free``.

    Raises
    ------
    SynthesisInfeasibleError
        Listing up to 100 offending ``(t, path)`` pairs in time-then-path
        order, with ``reason="psd"``, else ``reason="range"``.
    InvalidArgumentError
        Bad ``tol`` or ``theta_free``, or solution and model of different sizes.
    """
    m, n = sol.table.model.m, sol.table.model.n
    if model.m != m or model.n != n:
        raise InvalidArgumentError(f"model dimensions (n={model.n}, m={model.m}) do not match "
                                   f"solution (n={n}, m={m})")
    theta = np.empty(sol.P.values.shape[:2] + (m, n))
    if theta_free is not None:
        free = np.asarray(theta_free.values if isinstance(theta_free, PathArray)
                          else theta_free, dtype=np.float64)
        try:
            free = np.broadcast_to(free, theta.shape)
        except ValueError:
            raise InvalidArgumentError(
                f"theta_free of shape {free.shape} does not broadcast to {theta.shape}") from None
    offenders = {"psd": [], "range": []}  # (t, path) pairs in time-then-path order
    counts = dict.fromkeys(offenders, 0)
    try:
        for rows in _time_blocks(theta, sol.P.values):
            K, L = _gains(sol, rows)
            Kd, psd, in_range = solvability(K, L, tol)
            for reason, ok in (("psd", psd), ("range", in_range)):
                idx_t, idx_p = np.nonzero(~ok)
                counts[reason] += idx_t.size
                offenders[reason] += zip(sol.grid.points[rows][idx_t[:100]].tolist(),
                                         idx_p[:100].tolist())
            if not any(counts.values()):  # else synthesis fails: no gain is formed
                gain = np.negative(_product(np.matmul, Kd, L), out=theta[rows])
                if theta_free is not None:
                    gain += (np.eye(m) - Kd @ K) @ free[rows]
    except InvalidArgumentError:
        solvability(*_gains(sol), tol)  # raises it again, with the whole batch's shapes and maxima
        raise
    for reason, pts in offenders.items():
        if counts[reason]:
            label = ("control weight not positive semidefinite"
                     if reason == "psd" else "range condition violated")
            raise SynthesisInfeasibleError(
                f"{label} at {counts[reason]} sample point(s); first offenders (t, path): "
                f"{pts[:5]}", reason=reason, offenders=pts[:100], total_offenders=counts[reason])
    theta.setflags(write=False)  # an immutable gain lets the checks share its closed loop
    return FeedbackLaw(theta=PathArray(theta), source=sol)


def regularity_diagnostics(
    law: FeedbackLaw,
    grid: TimeGrid,
    bound_threshold: float | None = None,
) -> RegularityReport:
    """Distribution of the pathwise squared L2 time-norm of the gain.

    Parameters
    ----------
    law : FeedbackLaw
    grid : TimeGrid
    bound_threshold : float, optional
        Threshold for the ``qualified`` verdict.  Default:
        ``10 * median(pathwise_sqnorm)`` of this run — callers comparing runs
        across grids should calibrate it once on the coarsest run and pass it
        explicitly; else a finite real ``>= 0``.

    The gain must span ``grid``, and so must the law's solution, in ``N`` and
    ``T``.  The report is also attached to ``law.diagnostics``.
    """
    th = law.theta.values
    if law.source is not None:
        _require_grid("grid", grid, law.source, "the law's solution")
    _require_process("gain", th, grid.N, th.shape[1], th.shape[2:])
    # NumPy sums the rows of one path pairwise, and of several in time order.
    sq = np.empty((0, th.shape[1]))
    for rows in [slice(None)] if th.shape[1] == 1 else _time_blocks(th[:-1]):
        sq = np.concatenate((sq, np.sum(th[:-1][rows] ** 2, axis=(2, 3)))).sum(0, keepdims=True)
    sq = grid.h * sq[0]
    bound_threshold = (10.0 * float(np.median(sq)) if bound_threshold is None
                       else _real(bound_threshold, "bound_threshold", 0.0))
    qs = np.quantile(sq, [0.5, 0.9, 0.99])
    report = RegularityReport(
        pathwise_sqnorm=sq,
        max=float(sq.max()),
        mean=float(sq.mean()),
        quantiles={0.5: float(qs[0]), 0.9: float(qs[1]), 0.99: float(qs[2])},
        bound_threshold=bound_threshold,
        qualified=bool(sq.max() <= bound_threshold),
    )
    law.diagnostics = report
    return report


@dataclass(frozen=True)
class StationarityResult:
    """Max-norm residuals of the pointwise optimality (stationarity) identity.

    ``max_residual`` is ``max ||L + K Theta||_F`` over all samples; when the
    model is supplied, ``pi_form_residual`` re-evaluates the same identity
    through the adjoint form ``B^T P + D^T Pi + R Theta`` with
    ``Pi = Lambda + P (C + D Theta)`` as an independent float path.
    """

    max_residual: float
    pi_form_residual: float | None


def stationarity_residual(
    law: FeedbackLaw,
    sol: RiccatiSolution,
    model: CoefficientModel | None = None,
    W: np.ndarray | None = None,
) -> StationarityResult:
    """Maximum over (time, path) of ``||L + K Theta||_F``.

    Zero (to rounding) wherever the range condition holds — this is the
    first-order condition the gain was built to satisfy, with ``K`` and ``L``
    derived one block of time rows at a time.  A model adds the identity's
    adjoint-process form, read on the batch's ``W``; only a ``"deterministic"``
    model may omit ``W``, and is then tabulated on a one-path zero prefix.
    The gain, the solution and ``W`` span its grid, on paths that broadcast.
    Both norms are taken by :func:`slqkit.pinv._frobenius`, so a residual
    whose squares overflow is still finite.
    """
    N, m, n = sol.grid.N, sol.table.model.m, sol.table.model.n
    if W is not None and (np.ndim(W) != 2 or np.shape(W)[0] != N + 1):
        raise InvalidArgumentError(f"W must be 2-D with {N + 1} rows, got {np.shape(W)}")
    th, Pv = law.theta.values, sol.P.values
    processes = [("gain", th, (m, n)), ("solution", Pv, (n, n))] + (
        [] if W is None else [("W", np.asarray(W)[:, :, None, None], (1, 1))])
    widest = max(v.shape[1] for _, v, _ in processes)
    for what, v, entries in processes:
        _require_process(what, v, N, widest, entries)
    block_max = []
    for rows in _time_blocks(th, Pv):
        K, L = _gains(sol, rows)
        resid = L + _product(partial(np.einsum, "tpij,tpjk->tpik"), K, th[rows])
        block_max.append(_frobenius(resid).max())
    max_resid = float(np.max(block_max))
    pi_resid = None
    if model is not None:
        worst = 0.0
        Lam = sol.Lambda.values
        tab = _table_for("stationarity_residual", model, sol.grid, W)
        for i in _product_rows(model, th, Pv, Lam, tab.B):
            B, C, D, R = (getattr(tab, name)[i] for name in ("B", "C", "D", "R"))
            Pi = Lam[i] + _product(np.matmul, Pv[i], C + _product(np.matmul, D, th[i]))
            r = (_product(_AT_B, B, Pv[i]) + _product(_AT_B, D, Pi)
                 + _product(np.matmul, R, th[i]))
            worst = max(worst, float(_frobenius(r).max()))
        pi_resid = worst
    return StationarityResult(max_residual=max_resid, pi_form_residual=pi_resid)
