"""Moore-Penrose pseudoinverse with explicit rank control, the
regularized-limit construction, and the solvability kernel built on them.

:func:`pinv` is SVD-based: singular values at or below the cutoff are
treated as exact zeros.  ``pinv_limit`` computes the Tikhonov approximation
``(M^T M + delta I)^{-1} M^T``, which converges to the pseudoinverse as
``delta -> 0+``; both routes are kept available so each can check the other.
:func:`solvability` is the one statement of the pointwise conditions (``K``
PSD, ``L`` in its range) and of ``K^+`` used by the solvers and synthesis,
batched over stacks, with ``K^+`` from one ``eigh`` of each ``K`` (``1/k``
when ``m = 1``); ``psd_check`` and ``range_inclusion`` are its single-matrix
views.  Its range residual ``(K K^+) L - L`` is taken through the projector
``K K^+``, so a tiny ``K`` with a large ``L`` in its range does not overflow
in ``K^+ L``.  :func:`_product` is the one matrix-product rule of 1x1
readers: the elementwise product, bit for bit NumPy's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import InvalidArgumentError, SlqError, _real

__all__ = ["PinvResult", "pinv", "pinv_limit", "solvability", "range_inclusion", "psd_check"]

SOLVE_TOL = 1e-8  # the tolerance of solvability(), read by every route and by synthesis
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class PinvResult:
    """Outcome of a pseudoinverse computation.

    Attributes
    ----------
    pinv : numpy.ndarray
        The pseudoinverse, shape ``(cols, rows)`` of the input.
    rank : int
        Number of singular values strictly above the cutoff.
    singular_values : numpy.ndarray
        All singular values, descending.
    tol_used : float
        The cutoff actually applied.
    """

    pinv: np.ndarray = field(repr=False)
    rank: int
    singular_values: np.ndarray = field(repr=False)
    tol_used: float


def _as_matrix(M, name: str) -> np.ndarray:
    A = np.asarray(M, dtype=np.float64)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    elif A.ndim == 1:
        A = A.reshape(-1, 1)
    if A.ndim != 2:
        raise InvalidArgumentError(f"{name} must be at most 2-dimensional, got shape {A.shape}")
    return _as_stack(A, name)


def _as_stack(M, name: str) -> np.ndarray:
    """``M`` as a non-empty, finite float64 array of matrices ``(..., rows, cols)``."""
    A = np.asarray(M, dtype=np.float64)
    if A.ndim < 2:
        raise InvalidArgumentError(f"{name} must be a stack of matrices, got shape {A.shape}")
    if A.size == 0:
        raise InvalidArgumentError(f"{name} must be non-empty")
    if not np.isfinite(A).all():
        raise InvalidArgumentError(f"{name} contains non-finite entries")
    return A


def pinv(M, tol: float | None = None) -> PinvResult:
    """SVD pseudoinverse with an explicit singular-value cutoff.

    Parameters
    ----------
    M : array_like
        Real matrix (scalars and vectors are promoted to 2-d).
    tol : float, optional
        Absolute singular-value cutoff.  Defaults to
        ``max(rows, cols) * machine_eps * sigma_max``, the conventional
        rank-revealing threshold.  Singular values ``<= tol`` are dropped.

    Returns
    -------
    PinvResult
    """
    A = _as_matrix(M, "M")
    tol = None if tol is None else _real(tol, "tol", 0.0)
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    tol_used = tol if tol is not None else max(A.shape) * _EPS * s[0]
    keep = s > tol_used
    rank = int(np.count_nonzero(keep))
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    Ainv = (Vt.T * inv_s) @ U.T
    return PinvResult(pinv=Ainv, rank=rank, singular_values=s, tol_used=float(tol_used))


def pinv_limit(M, delta: float) -> np.ndarray:
    """Tikhonov-regularized pseudoinverse ``(M^T M + delta I)^{-1} M^T``.

    Converges to ``pinv(M)`` monotonically as ``delta -> 0+``.  Raises
    :class:`SlqError` if the (theoretically SPD) normal-equation matrix fails
    to factorize numerically.
    """
    A = _as_matrix(M, "M")
    delta = _real(delta, "delta", 0.0, strict=True)
    n = A.shape[1]
    G = A.T @ A + delta * np.eye(n)
    try:
        return np.linalg.solve(G, A.T)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise SlqError(f"regularized normal equations failed to factorize: {exc}") from exc


def solvability(K, L, tol: float = SOLVE_TOL) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(K^+, psd, in_range)`` for stacks ``K (..., m, m)`` and ``L (..., m, n)``.

    ``K^+`` is the pseudoinverse of the symmetrized ``K``; ``K`` whose
    asymmetry exceeds ``tol * (1 + max|K|)`` is rejected.  The boolean
    verdicts, of the leading shape, are ``lambda_min(K) >= -tol * (1 + max|K|)``
    and ``||(I - K K^+) L||_F <= tol * (1 + ||L||_F)``.  Each ``K`` is
    decomposed once by ``eigh``, with eigenvalues of modulus at most
    ``m * eps * max|lambda|`` taken as zero (the cutoff of :func:`pinv`); for
    ``m = 1`` the closed form ``K^+ = 1/k`` (``0`` at ``k = 0``) replaces it.

    Raises :class:`InvalidArgumentError` on a ``tol`` that is not finite and
    non-negative, on empty or non-finite input, and on mismatched shapes.
    """
    tol = _real(tol, "tol", 0.0)
    K = _as_stack(K, "K")
    L = _as_stack(L, "L")
    m = K.shape[-1]
    if K.shape[-2] != m:
        raise InvalidArgumentError(f"K must be square, got shape {K.shape}")
    if L.shape[:-1] != K.shape[:-1]:
        raise InvalidArgumentError(f"L of shape {L.shape} does not match K of shape {K.shape}")
    Kd, lam_min = _pseudo_inverse(K)
    return (Kd, *_verdicts(K, Kd, lam_min, L, tol))


def _pseudo_inverse(K: float | np.ndarray) -> tuple:
    """``(K^+, lambda_min)`` of the symmetrized stack of finite ``K``, from one
    decomposition: the cutoff and closed form of :func:`solvability`.

    A Python float is a 1x1 ``K`` and gets float results by the same closed
    form.  One 2-D ``K`` reads its cutoff on Python floats; its results equal
    those of the stack ``K[None]``, bit for bit."""
    if isinstance(K, float):
        return (1.0 / K if K != 0.0 else 0.0), K
    m = K.shape[-1]
    if m == 1:
        return np.divide(1.0, K, out=np.zeros_like(K), where=K != 0.0), K[..., 0, 0]
    lam, V = np.linalg.eigh(0.5 * (K + K.swapaxes(-1, -2)))
    if K.ndim == 2:
        lam = lam.tolist()
        cut = m * _EPS * max(map(abs, lam))
        return (V * [1.0 / x if abs(x) > cut else 0.0 for x in lam]).dot(V.T), lam[0]
    lam_abs = np.abs(lam)
    keep = lam_abs > m * _EPS * lam_abs.max(axis=-1, keepdims=True)
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=keep)
    return (V * inv[..., None, :]) @ V.swapaxes(-1, -2), lam[..., 0]


def _verdicts(K, Kd, lam_min, L, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """``(psd, in_range)`` of :func:`solvability` for finite ``K`` with its ``K^+``
    and ``lambda_min`` given; decomposes nothing, and raises on asymmetry."""
    if K.shape[-1] == 1:
        k_max = np.abs(lam_min)
    else:
        asym = np.abs(K - K.swapaxes(-1, -2)).max(axis=(-2, -1))
        if np.any(asym > tol * (1.0 + np.abs(K).max(axis=(-2, -1)))):
            raise InvalidArgumentError(
                f"K is not symmetric within tolerance (max asymmetry {asym.max():.3e})"
            )
        K = 0.5 * (K + K.swapaxes(-1, -2))
        k_max = np.abs(K).max(axis=(-2, -1))
    psd = lam_min >= -tol * (1.0 + k_max)
    residual = _product(np.matmul, _product(np.matmul, K, Kd), L) - L
    return psd, _frobenius(residual) <= tol * (1.0 + _frobenius(L))


def _product(general, *factors):
    """The matrix product ``general(*factors)`` (``np.matmul`` or an
    ``np.einsum`` contraction) of stacks of matrices, by one rule: where every
    factor is 1x1 it is their elementwise product, left to right, plus
    ``0.0``, since both sum from ``+0.0``.  That equals NumPy's product bit for
    bit, signed zeros too, at a fraction of its cost.  Overflow to ``inf`` is
    left unreported there, as einsum leaves it."""
    if all(f.shape[-2:] == (1, 1) for f in factors):
        with np.errstate(over="ignore", invalid="ignore"):
            out = reduce(np.multiply, factors)
            return np.add(out, 0.0, out=out)
    return general(*factors)


def _frobenius(M: np.ndarray) -> np.ndarray:
    """Frobenius norms of the stack ``M (..., i, j)``.  Where the sum of squares
    overflows on finite entries, the norm is taken on ``M / max|M|`` and scaled
    back; every other norm is the plain one."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.sqrt(np.einsum("...ij,...ij->...", M, M))
        if not np.isfinite(norm.max(initial=0.0)):  # a reduction: no mask of the stack's size
            scale = np.abs(M).max(axis=(-2, -1))
            S = M / scale[..., None, None]
            norm = np.where(np.isinf(norm) & np.isfinite(scale),
                            scale * np.sqrt(np.einsum("...ij,...ij->...", S, S)), norm)
    return norm


def range_inclusion(K, L, tol: float = SOLVE_TOL) -> bool:
    """Whether the columns of ``L`` lie in the range of symmetric ``K``
    within ``tol``: the single-matrix ``in_range`` of :func:`solvability`."""
    return bool(solvability(_as_matrix(K, "K"), _as_matrix(L, "L"), tol)[2])


def psd_check(K, tol: float = SOLVE_TOL) -> bool:
    """Whether symmetric ``K`` is positive semidefinite within ``tol``: the
    single-matrix ``psd`` of :func:`solvability`."""
    K = _as_matrix(K, "K")
    return bool(solvability(K, np.zeros((K.shape[0], 1)), tol)[1])
