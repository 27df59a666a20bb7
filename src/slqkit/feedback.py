"""Feedback gain synthesis and its regularity diagnostics.

The gain is the pseudoinverse formula

    Theta = -K^+ L + (I - K^+ K) theta_free

evaluated pointwise in (time, path), with ``theta_free = 0`` unless the
caller supplies one.  It is well defined — and the resulting control
optimal — exactly where ``K`` is PSD and the columns of ``L`` lie in the
range of ``K``.  Both conditions and ``K^+`` come from one batched call of
:func:`slqkit.pinv.solvability` over every sample; violations abort
synthesis with the offending sample points.  Whether the gain is *usable*
is a separate question answered by :func:`regularity_diagnostics`: the
pathwise squared L2 time-norm of Theta must stay bounded across scenarios,
and the report quantifies its sampled distribution and flags the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, SynthesisInfeasibleError
from .grid import PathArray, TimeGrid
from .pinv import solvability
from .problem import CoefficientModel, _zero_prefix, coefficient_table
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
    tol: float = 1e-8,
) -> FeedbackLaw:
    """Build the gain ``-K^+ L + (I - K^+ K) theta_free`` from a solution.

    Solvability is checked at every (time, path) sample: ``K`` PSD within
    ``tol`` and ``L`` in the range of ``K`` within ``tol``-scale, by one
    call of :func:`slqkit.pinv.solvability`.  ``theta_free`` must broadcast
    to the gain's shape; without it the null-space term is zero.  When ``K``
    is invertible everywhere the result does not depend on ``theta_free``.

    Raises
    ------
    SynthesisInfeasibleError
        Listing up to 100 offending ``(t, path)`` pairs in time-then-path
        order, with ``reason="psd"``, else ``reason="range"``.
    InvalidArgumentError
        Bad ``tol`` or ``theta_free``, or solution and model of different sizes.
    """
    K = sol.K.values
    L = sol.L.values
    m, n = L.shape[2:]
    if model.m != m or model.n != n:
        raise InvalidArgumentError(
            f"model dimensions (n={model.n}, m={model.m}) do not match solution "
            f"(n={n}, m={m})"
        )
    if theta_free is not None:
        free = np.asarray(theta_free.values if isinstance(theta_free, PathArray)
                          else theta_free, dtype=np.float64)
        try:
            free = np.broadcast_to(free, L.shape)
        except ValueError:
            raise InvalidArgumentError(
                f"theta_free of shape {free.shape} does not broadcast to {L.shape}") from None
    Kd, psd, in_range = solvability(K, L, tol)
    _raise_if_any(~psd, "psd", sol.grid.points)
    _raise_if_any(~in_range, "range", sol.grid.points)
    theta = Kd @ L
    np.negative(theta, out=theta)
    if theta_free is not None:
        theta += (np.eye(m) - Kd @ K) @ free
    return FeedbackLaw(theta=PathArray(theta), source=sol)


def _raise_if_any(bad: np.ndarray, reason: str, times: np.ndarray) -> None:
    if not bad.any():
        return
    idx_t, idx_p = np.nonzero(bad)
    pts = [(float(times[i]), int(p)) for i, p in zip(idx_t[:100], idx_p[:100])]
    label = ("control weight not positive semidefinite"
             if reason == "psd" else "range condition violated")
    raise SynthesisInfeasibleError(
        f"{label} at {idx_t.size} sample point(s); first offenders (t, path): {pts[:5]}",
        reason=reason, offenders=pts, total_offenders=idx_t.size,
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
    if W is not None and (np.ndim(W) != 2 or np.shape(W)[0] != sol.grid.N + 1):
        raise InvalidArgumentError(f"W must be 2-D with {sol.grid.N + 1} rows, got {np.shape(W)}")
    Kv = sol.K.values
    Lv = sol.L.values
    th = law.theta.values
    resid = Lv + np.einsum("tpij,tpjk->tpik", Kv, th)
    max_resid = float(np.sqrt(np.sum(resid * resid, axis=(2, 3))).max())
    pi_resid = None
    if model is not None:
        worst = 0.0
        Pv = sol.P.values
        Lam = sol.Lambda.values
        tab = coefficient_table(model, _zero_prefix(sol.grid) if W is None else W)
        for i in range(sol.grid.N + 1):
            B, C, D, R = (getattr(tab, name)[i] for name in ("B", "C", "D", "R"))
            Pi = Lam[i] + Pv[i] @ (C + D @ th[i])
            r = (np.einsum("...nm,...nk->...mk", B, Pv[i])
                 + np.einsum("...nm,...nk->...mk", D, Pi)
                 + R @ th[i])
            worst = max(worst, float(np.sqrt(np.sum(r * r, axis=(1, 2))).max()))
        pi_resid = worst
    return StationarityResult(max_residual=max_resid, pi_form_residual=pi_resid)
