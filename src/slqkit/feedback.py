"""Feedback gain synthesis and its regularity diagnostics.

The gain is the pseudoinverse formula

    Theta = -K^+ L + (I - K^+ K) theta_free

evaluated pointwise in (time, path).  It is well defined — and the resulting
control optimal — exactly where ``K`` is PSD and the columns of ``L`` lie in
the range of ``K``; violations abort synthesis with the offending sample
points.  Whether the gain is *usable* is a separate question answered by
:func:`regularity_diagnostics`: the pathwise squared L2 time-norm of Theta
must stay bounded across scenarios, and the report quantifies its sampled
distribution and flags the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, SynthesisInfeasibleError
from .grid import PathArray, TimeGrid
from .pinv import pinv, psd_check, range_inclusion
from .problem import CoefficientModel, coefficient_table
from .riccati import RiccatiSolution

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
        ``(N+1, n_paths, m, n)`` gain matrices.
    theta_free : PathArray
        The free component used in the null directions of K (zero default).
    source : RiccatiSolution
    diagnostics : RegularityReport or None
        Populated by :func:`regularity_diagnostics`.
    """

    theta: PathArray
    theta_free: PathArray
    source: RiccatiSolution
    diagnostics: RegularityReport | None = None


def synthesize(
    sol: RiccatiSolution,
    model: CoefficientModel,
    theta_free: PathArray | np.ndarray | None = None,
    tol: float = 1e-8,
) -> FeedbackLaw:
    """Build the gain ``-K^+ L + (I - K^+ K) theta_free`` from a solution.

    Solvability is checked at every (time, path) sample: ``K`` PSD within
    ``tol`` and ``L`` in the range of ``K`` within ``tol``-scale.  When ``K``
    is invertible everywhere the result does not depend on ``theta_free``.

    Raises
    ------
    SynthesisInfeasibleError
        Listing up to 100 offending ``(t, path)`` pairs, with
        ``reason="psd"`` or ``reason="range"``.
    """
    Kv = sol.K.values
    Lv = sol.L.values
    steps, n_paths, m, _ = Kv.shape
    n = Lv.shape[3]
    if Lv.shape[:2] != (steps, n_paths) or Lv.shape[2] != m:
        raise InvalidArgumentError("K and L arrays of the solution are inconsistent")
    if model.m != m or model.n != n:
        raise InvalidArgumentError(
            f"model dimensions (n={model.n}, m={model.m}) do not match solution "
            f"(n={n}, m={m})"
        )
    if theta_free is None:
        free = np.zeros((steps, n_paths, m, n))
    elif isinstance(theta_free, PathArray):
        free = np.broadcast_to(theta_free.values, (steps, n_paths, m, n))
    else:
        free = np.broadcast_to(np.asarray(theta_free, dtype=np.float64),
                               (steps, n_paths, m, n))

    times = sol.grid.points

    if m == 1 and n == 1:
        k = Kv[:, :, 0, 0]
        ell = Lv[:, :, 0, 0]
        th_free = free[:, :, 0, 0]
        psd_bad = k < -tol * (1.0 + np.abs(k))
        kd = np.where(k != 0.0, 1.0 / np.where(k != 0.0, k, 1.0), 0.0)
        proj_resid = np.abs(ell - k * kd * ell)
        range_bad = ~psd_bad & (proj_resid > tol * (1.0 + np.abs(ell)))
        _raise_if_any(psd_bad, "psd", times)
        _raise_if_any(range_bad, "range", times)
        theta = -kd * ell + (1.0 - kd * k) * th_free
        theta_arr = theta[:, :, None, None]
    else:
        theta_arr = np.empty((steps, n_paths, m, n))
        psd_bad_pts: list[tuple[float, int]] = []
        range_bad_pts: list[tuple[float, int]] = []
        for i in range(steps):
            for p in range(n_paths):
                K = Kv[i, p]
                L = Lv[i, p]
                if not psd_check(K, tol):
                    psd_bad_pts.append((float(times[i]), p))
                    continue
                if not range_inclusion(K, L, tol):
                    range_bad_pts.append((float(times[i]), p))
                    continue
                Kd = pinv(K).pinv
                theta_arr[i, p] = -Kd @ L + (np.eye(m) - Kd @ K) @ free[i, p]
        if psd_bad_pts:
            _raise_points(psd_bad_pts, "psd")
        if range_bad_pts:
            _raise_points(range_bad_pts, "range")

    return FeedbackLaw(theta=PathArray(theta_arr), theta_free=PathArray(free),
                       source=sol)


def _raise_if_any(bad: np.ndarray, reason: str, times: np.ndarray) -> None:
    if not bad.any():
        return
    idx_t, idx_p = np.nonzero(bad)
    pts = [(float(times[i]), int(p)) for i, p in zip(idx_t[:100], idx_p[:100])]
    _raise_points(pts, reason, total=int(bad.sum()))


def _raise_points(pts, reason: str, total: int | None = None) -> None:
    total = len(pts) if total is None else total
    label = ("control weight not positive semidefinite"
             if reason == "psd" else "range condition violated")
    raise SynthesisInfeasibleError(
        f"{label} at {total} sample point(s); first offenders (t, path): {pts[:5]}",
        reason=reason, offenders=pts, total_offenders=total,
    )


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
        explicitly.

    The report is also attached to ``law.diagnostics``.
    """
    th = law.theta.values
    if th.shape[0] != grid.N + 1:
        raise InvalidArgumentError("law and grid have inconsistent step counts")
    sq = grid.h * np.sum(th[:-1] ** 2, axis=(2, 3)).sum(axis=0)
    if bound_threshold is None:
        bound_threshold = 10.0 * float(np.median(sq))
    qs = np.quantile(sq, [0.5, 0.9, 0.99])
    report = RegularityReport(
        pathwise_sqnorm=sq,
        max=float(sq.max()),
        mean=float(sq.mean()),
        quantiles={0.5: float(qs[0]), 0.9: float(qs[1]), 0.99: float(qs[2])},
        bound_threshold=float(bound_threshold),
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
    first-order condition the gain was built to satisfy.  Passing the model
    (and, for path-dependent coefficients, the batch's ``W``) additionally
    evaluates the adjoint-process form of the same identity.
    """
    Kv = sol.K.values
    Lv = sol.L.values
    th = law.theta.values
    resid = Lv + np.einsum("tpij,tpjk->tpik", Kv, th)
    max_resid = float(np.sqrt(np.sum(resid * resid, axis=(2, 3))).max())
    pi_resid = None
    if model is not None:
        n_paths = th.shape[1]
        worst = 0.0
        Pv = sol.P.values
        Lam = sol.Lambda.values
        tab = coefficient_table(model, np.zeros((sol.grid.N + 1, 1)) if W is None else W)
        for i in range(sol.grid.N + 1):
            B, C, D, R = (tab.at(name, i, n_paths) for name in ("B", "C", "D", "R"))
            Pi = Lam[i] + Pv[i] @ (C + D @ th[i])
            r = (np.einsum("pnm,pnk->pmk", B, Pv[i])
                 + np.einsum("pnm,pnk->pmk", D, Pi)
                 + R @ th[i])
            worst = max(worst, float(np.sqrt(np.sum(r * r, axis=(1, 2))).max()))
        pi_resid = worst
    return StationarityResult(max_residual=max_resid, pi_form_residual=pi_resid)
