"""Reference values the benchmark computes without calling slqkit.

Each function rebuilds a quantity from its mathematical definition so that
a workload can compare slqkit's output against it.  Only NumPy is used here;
nothing in this module imports slqkit.
"""

from __future__ import annotations

import math

import numpy as np

# Example 1 on [0, 1]: R = 1/(2(3+T)) and P(0) = 1/y(0) - R = 1/2.5 - 1/8.
EX1_P0 = 1.0 / 2.5 - 1.0 / 8.0
EX1_VALUE = 0.5 * EX1_P0

# Counterexample constants: the stopped integrand is ZETA_SCALE (T-t)^{-1/2}
# and Y starts at 1 + ZETA_SCALE.
ZETA_SCALE = math.pi / (2.0 * math.sqrt(2.0))
Y_SHIFT = 1.0 + ZETA_SCALE


def brownian_paths(T: float, N: int, n_paths: int, seed: int) -> np.ndarray:
    """Cumulative Brownian paths ``(N+1, n_paths)`` of slqkit's sampling
    contract: path ``p`` is ``sqrt(h)`` times the first ``N`` standard
    normals of a Philox generator keyed by ``(seed, p)``."""
    mask = 0xFFFFFFFFFFFFFFFF
    sqrt_h = math.sqrt(T / N)
    rows = np.empty((n_paths, N))
    for p in range(n_paths):
        key = np.array([seed & mask, p & mask], dtype=np.uint64)
        rows[p] = np.random.Generator(np.random.Philox(key=key)).standard_normal(N)
    rows *= sqrt_h
    W = np.zeros((N + 1, n_paths))
    np.cumsum(rows.T, axis=0, out=W[1:])
    return W


def example1_theta_sqnorm(T: float, W: np.ndarray) -> np.ndarray:
    """Per-path ``h * sum_{i<N} Theta_i^2`` with the closed-form example-1
    gain ``Theta = cos(W) / y`` and
    ``y_i = 2 + T/2 + sin W_i + (1/2) * trapezoid of sin W over [0, t_i]``."""
    N = W.shape[0] - 1
    h = T / N
    s = np.sin(W)
    trap = np.zeros_like(s)
    trap[1:] = np.cumsum(0.5 * h * (s[:-1] + s[1:]), axis=0)
    y = 2.0 + 0.5 * T + s + 0.5 * trap
    theta = np.cos(W[:N]) / y[:N]
    return h * np.sum(theta * theta, axis=0)


def harmonic(N: int) -> float:
    """``H_N = sum_{k=1}^N 1/k``, which equals ``h * sum_{i<N} 1/(T - t_i)``
    on a uniform grid."""
    return math.fsum(1.0 / k for k in range(1, N + 1))


def counterexample_stats(T: float, W: np.ndarray) -> dict:
    """The divergence probe's per-rung statistics, from the definitions.

    ``M`` is the left-point Ito sum of ``(T-t)^{-1/2} dW``; the integrand
    ``zeta_i = ZETA_SCALE (T-t_i)^{-1/2}`` is switched off from the index
    after the first ``|M| > 1``; ``Y = Y_SHIFT + sum zeta dW``; and the gain
    is ``Theta = zeta / Y``.
    """
    N = W.shape[0] - 1
    h = T / N
    dW = np.diff(W, axis=0)
    inv_sqrt = 1.0 / np.sqrt(T - h * np.arange(N))
    M = np.zeros_like(W)
    M[1:] = np.cumsum(inv_sqrt[:, None] * dW, axis=0)
    crossed = np.abs(M[:N]) > 1.0
    alive = np.ones_like(crossed)
    alive[1:] = ~np.logical_or.accumulate(crossed, axis=0)[:-1]
    zeta = ZETA_SCALE * inv_sqrt[:, None] * alive
    Y = np.full_like(W, Y_SHIFT)
    Y[1:] += np.cumsum(zeta * dW, axis=0)
    theta_sq = h * np.sum((zeta / Y[:N]) ** 2, axis=0)
    return {
        "max_theta_sqint": float(theta_sq.max()),
        "median_theta_sqint": float(np.median(theta_sq)),
        "min_Y": float(Y.min()),
        "max_Y": float(Y.max()),
        "max_abs_ito": float(np.abs(Y - Y_SHIFT).max()),
    }


def rel_close(a: float, b: float, rtol: float) -> bool:
    """``|a - b| <= rtol * max(|a|, |b|)``; equal values always pass."""
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))
