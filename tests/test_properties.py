"""Property tests (hypothesis) for path sampling, coefficient tables, the
``K`` and ``L`` derived from a solution pair, the divergence probe, the
batched solvability kernel, the deterministic Riccati solvers against a
per-stage reference loop, the sweep's superposition, the simulator's entry
kernel against batched matrix products, and the CLI's config round trip."""

import dataclasses
import itertools
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from slqkit import evaluate, riccati
from slqkit import grid as grid_module
from slqkit.cli import CHECKS, SOLVERS, TOLERANCE_DEFAULTS, load_config, main
from slqkit.errors import FiniteEscapeError, InvalidArgumentError, RiccatiSingularError, SlqError
from slqkit.evaluate import (
    SUPERPOSITION_RTOL,
    cost,
    counterexample_divergence_probe,
    make_perturbations,
    optimality_sweep,
    simulate_closed_loop,
    simulate_open_loop,
)
from slqkit.feedback import FeedbackLaw, stationarity_residual, synthesize
from slqkit.grid import PathArray
from slqkit.grid import _path_major_increments, _time_blocks, make_grid, sample_brownian
from slqkit.pinv import _frobenius, _pseudo_inverse, _verdicts, pinv, solvability
from slqkit.problem import (
    Y_SHIFT,
    Y_UPPER,
    ZETA_SCALE,
    CoefficientModel,
    InitialCondition,
    _stopped_processes,
    coefficient_table,
    counterexample_paths,
    delta_grid,
    scenario_deterministic,
)
from slqkit.riccati import (
    SOLVE_TOL,
    RiccatiSolution,
    _gains,
    discrete_recursion_oracle,
    solve_deterministic,
)

SETTINGS = settings(max_examples=40, deadline=None)


@SETTINGS
@given(
    N=st.integers(2, 12),
    n_paths=st.integers(1, 24),
    seed=st.integers(0, 2**64 - 1),
    cuts=st.lists(st.integers(1, 23), max_size=5),
)
def test_sample_brownian_any_chunking_reproduces_the_batch(N, n_paths, seed, cuts):
    grid = make_grid(1.0, N)
    whole = sample_brownian(grid, n_paths, seed)
    bounds = sorted({0, n_paths, *(c for c in cuts if c < n_paths)})
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = sample_brownian(grid, hi - lo, seed, path_offset=lo)
        np.testing.assert_array_equal(chunk.W, whole.W[:, lo:hi])
        np.testing.assert_array_equal(chunk.increments, whole.increments[:, lo:hi])


def _fresh_philox_paths(grid, n_paths, seed, path_offset):
    """Reference sampler: a new Philox keyed by ``(seed, path)`` mod 2**64
    for every path, its first N standard normals scaled by sqrt(h)."""
    mask = 2**64 - 1
    rows = np.empty((n_paths, grid.N))
    for p in range(n_paths):
        key = np.array([seed & mask, (path_offset + p) & mask], dtype=np.uint64)
        rows[p] = np.random.Generator(np.random.Philox(key=key)).standard_normal(grid.N)
    rows *= math.sqrt(grid.h)
    W = np.zeros((grid.N + 1, n_paths))
    np.cumsum(rows.T, axis=0, out=W[1:])
    return W


@SETTINGS
@given(
    N=st.integers(2, 40),
    n_paths=st.integers(1, 24),
    seed=st.one_of(st.integers(-(2**63), -1), st.integers(2**63, 2**64 - 1),
                   st.integers(0, 2**64 - 1)),
    offset=st.one_of(st.just(0), st.integers(1, 2**66)),
)
def test_sample_brownian_matches_a_fresh_philox_per_path(N, n_paths, seed, offset):
    grid = make_grid(1.0, N)
    batch = sample_brownian(grid, n_paths, seed, path_offset=offset)
    W = _fresh_philox_paths(grid, n_paths, seed, offset)
    np.testing.assert_array_equal(batch.W, W)
    np.testing.assert_array_equal(batch.increments, np.diff(W, axis=0))
    np.testing.assert_array_equal(_path_major_increments(grid, n_paths, seed, offset),
                                  batch.increments.T)


# Relative bound on the probe's two time integrals: the sums of at most 64
# non-negative terms agree within 64 * 2**-52 whatever their order (the
# probe adds in time order, as the reductions below do, so they are equal
# in practice).
INTEGRAL_RTOL = 64 * 2.0**-52


@SETTINGS
@given(
    N=st.integers(2, 64),
    n_paths=st.integers(1, 40),
    chunk_size=st.integers(1, 50),
    seed=st.integers(0, 2**64 - 1),
)
def test_probe_rows_equal_reductions_of_counterexample_paths(N, n_paths, chunk_size, seed):
    row = counterexample_divergence_probe(1.0, [N], [n_paths], seed,
                                          chunk_size=chunk_size).rows[0]
    grid = make_grid(1.0, N)
    aux = counterexample_paths(grid, sample_brownian(grid, n_paths, seed))
    zeta_sq = grid.h * np.sum(aux.zeta[:N] ** 2, axis=0)
    theta_sq = grid.h * np.sum((aux.zeta[:N] / aux.Y[:N]) ** 2, axis=0)
    ito = np.abs(aux.Y - Y_SHIFT).max(axis=0)
    y_lo, y_hi = aux.Y.min(axis=0), aux.Y.max(axis=0)
    delta = delta_grid(grid.h)
    assert row.max_abs_ito == ito.max()
    assert (row.min_Y, row.max_Y) == (y_lo.min(), y_hi.max())
    assert row.ito_violations == int((ito > ZETA_SCALE + delta).sum())
    assert row.y_violations == int(((y_lo < 1.0 - delta) | (y_hi > Y_UPPER + delta)).sum())
    for got, want in ((row.max_zeta_sqint, zeta_sq.max()),
                      (row.max_theta_sqint, theta_sq.max()),
                      (row.median_theta_sqint, np.median(theta_sq))):
        assert math.isclose(got, want, rel_tol=INTEGRAL_RTOL, abs_tol=0.0)
    # The probe adds the exponentials chunk by chunk, so only their grouping
    # differs from one mean over the batch.
    assert math.isclose(row.mean_exp_zeta_sqint, np.exp(zeta_sq).mean(), rel_tol=1e-12)


def _serial_probe_row(grid, n_paths, seed):
    """The probe's row from :func:`counterexample_paths` on the whole batch,
    time integrals accumulated node by node in time order."""
    N, h = grid.N, grid.h
    aux = counterexample_paths(grid, sample_brownian(grid, n_paths, seed))
    zeta_sq, theta_sq = np.zeros(n_paths), np.zeros(n_paths)
    for i in range(N):
        zeta_sq += aux.zeta[i] ** 2
        theta_sq += (aux.zeta[i] / aux.Y[i]) ** 2
    zeta_sq, theta_sq = h * zeta_sq, h * theta_sq
    ito = np.abs(aux.Y - Y_SHIFT).max(axis=0)
    y_lo, y_hi = aux.Y.min(axis=0), aux.Y.max(axis=0)
    delta = delta_grid(h)
    with np.errstate(over="ignore"):
        ez = np.exp(zeta_sq)
    return {
        "steps": N, "n_paths": n_paths, "h": h, "delta_grid": delta,
        "max_zeta_sqint": zeta_sq.max(),
        "mean_exp_zeta_sqint": np.minimum(ez, np.finfo(np.float64).max).mean(),
        "exp_overflow": bool(np.isinf(ez).any()),
        "max_theta_sqint": theta_sq.max(),
        "median_theta_sqint": np.median(theta_sq),
        "max_abs_ito": ito.max(),
        "min_Y": y_lo.min(), "max_Y": y_hi.max(),
        "ito_violations": int((ito > ZETA_SCALE + delta).sum()),
        "y_violations": int(((y_lo < 1.0 - delta) | (y_hi > Y_UPPER + delta)).sum()),
    }


@SETTINGS
@given(
    N=st.integers(2, 48),
    n_paths=st.integers(1, 30),
    more=st.tuples(st.integers(1, 48), st.integers(1, 30)),
    chunk_size=st.integers(1, 40),
    block_entries=st.integers(1, 2000),
    seed=st.integers(0, 2**64 - 1),
)
def test_probe_rows_do_not_depend_on_the_worker_count(N, n_paths, more, chunk_size,
                                                      block_entries, seed):
    # Two rungs, so the second reuses the buffers the first wrote.
    steps, paths = [N, N + more[0]], [n_paths, n_paths + more[1]]
    rows = []
    for workers in (1, 2, 3):
        with mock.patch.object(evaluate, "_PROBE_WORKERS", workers), \
                mock.patch.object(grid_module, "_PATH_BLOCK_ENTRIES", block_entries):
            probe = counterexample_divergence_probe(1.0, steps, paths, seed,
                                                    chunk_size=chunk_size)
        rows.append([dataclasses.asdict(r) for r in probe.rows])
    assert rows[0] == rows[1] == rows[2]
    for row, N_k, P_k in zip(rows[0], steps, paths):
        assert row == _serial_probe_row(make_grid(1.0, N_k), P_k, seed)


@SETTINGS
@given(
    N=st.integers(2, 40),
    n_paths=st.integers(1, 20),
    seed=st.integers(0, 2**64 - 1),
    offset=st.integers(0, 2**40),
)
def test_output_buffers_change_no_bit(N, n_paths, seed, offset):
    grid = make_grid(1.0, N)
    shape = (n_paths, N)
    # Buffers start as NaN and True, so a stale read would show.
    work, out = np.full(shape, np.nan), np.full(shape, np.nan)
    dW = _path_major_increments(grid, n_paths, seed, offset)
    got = _path_major_increments(grid, n_paths, seed, offset, work=work, out=out)
    assert got is out
    np.testing.assert_array_equal(got, dW)
    want = _stopped_processes(grid, dW)
    bufs = (np.full(shape, np.nan), np.full(shape, np.nan), np.full(shape, np.nan),
            np.ones(shape, dtype=bool))
    for Y_buf in (bufs[2], out):  # Y in its own buffer, or written over dW
        got = _stopped_processes(grid, out, out=(bufs[0], bufs[1], Y_buf, bufs[3]))
        assert got[0] is bufs[0] and got[2] is bufs[1] and got[3] is Y_buf
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        out[...] = dW


# How an evaluator may depend on the path: a constant matrix, a constant
# matrix broadcast to every path, per-path scalars, per-path matrices,
# constant early and per-path later, or +0, -0 and a matrix on alternate paths.
FORMS = ("const", "broadcast", "scalars", "matrices", "switch", "signed_zeros")


def _evaluator(form, rows, cols, k, symmetric=False):
    M = np.arange(1.0, rows * cols + 1).reshape(rows, cols) / (k + 1)
    if symmetric:  # the weights Q and R must pass the table's symmetry rule
        M = M + M.T
    if form == "const":
        return lambda i, W: M
    if form == "broadcast":
        return lambda i, W: np.broadcast_to(M, (W.shape[1], rows, cols))
    if form == "scalars" and rows == cols == 1:
        return lambda i, W: np.sin(W[i] + k)
    if form == "switch":
        return lambda i, W: M if i < 2 else M * np.cos(W[i])[:, None, None]
    if form == "signed_zeros":
        return lambda i, W: M * np.resize([0.0, -0.0, 1.0], W.shape[1])[:, None, None]
    return lambda i, W: M * (1.0 + W[i] ** 2)[:, None, None]


@SETTINGS
@given(
    n=st.integers(1, 2),
    m=st.integers(1, 2),
    N=st.integers(2, 6),
    n_paths=st.integers(1, 5),
    forms=st.lists(st.sampled_from(FORMS), min_size=6, max_size=6),
)
def test_every_table_row_equals_the_evaluator(n, m, N, n_paths, forms):
    shapes = {"A": (n, n), "B": (n, m), "C": (n, n), "D": (n, m), "Q": (n, n), "R": (m, m)}
    evaluators = {name: _evaluator(form, *shapes[name], k, name in ("Q", "R"))
                  for k, (name, form) in enumerate(zip(shapes, forms))}
    model = CoefficientModel(n=n, m=m, G=lambda W: np.eye(n), kind="path_dependent",
                             **evaluators)
    W = sample_brownian(make_grid(1.0, N), n_paths, seed=N).W
    tab = coefficient_table(model, W)
    for name, form in zip(shapes, forms):
        if form in ("const", "broadcast"):
            assert getattr(tab, name).shape[1] == 1  # path-constant: one row
        for i in range(N + 1):
            row = getattr(tab, name)[i]
            np.testing.assert_array_equal(
                row, np.broadcast_to(model.coeff(name, i, W[: i + 1], n_paths), row.shape))


def _reference_gains(tab, Pv, Lv):
    """``K = R + D^T P D`` and ``L = B^T P + D^T (P C + Lambda)`` at every
    node, by the per-node expression a solution once stored them with."""
    steps, n_paths, n, _ = Pv.shape
    m = tab.model.m
    K = np.empty((steps, n_paths, m, m))
    L = np.empty((steps, n_paths, m, n))
    for i in range(steps):
        B, C, D, R = (getattr(tab, name)[i] for name in "BCDR")
        Pi = Pv[i]
        K[i] = R + np.einsum("...nm,...nk,...kl->...ml", D, Pi, D)
        L[i] = (np.einsum("...nm,...nk->...mk", B, Pi)
                + np.einsum("...nm,...nk->...mk", D, Pi @ C + Lv[i]))
    return K, L


@SETTINGS
@given(
    n=st.integers(1, 3),
    m=st.integers(1, 3),
    N=st.integers(2, 6),
    n_paths=st.integers(1, 5),
    forms=st.lists(st.sampled_from(FORMS), min_size=6, max_size=6),
    block_entries=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
# 1x1 models whose B, C, D and R are +0, -0 and nonzero on alternate paths.
@example(n=1, m=1, N=4, n_paths=3, forms=["signed_zeros"] * 6, block_entries=2, seed=1)
@example(n=1, m=1, N=3, n_paths=5, forms=["const", "signed_zeros", "scalars", "signed_zeros",
                                          "const", "signed_zeros"], block_entries=64, seed=2)
def test_derived_gains_equal_the_per_node_reference(n, m, N, n_paths, forms, block_entries,
                                                     seed):
    shapes = {"A": (n, n), "B": (n, m), "C": (n, n), "D": (n, m), "Q": (n, n), "R": (m, m)}
    evaluators = {name: _evaluator(form, *shapes[name], k, name in ("Q", "R"))
                  for k, (name, form) in enumerate(zip(shapes, forms))}
    model = CoefficientModel(n=n, m=m, G=lambda W: np.eye(n), kind="path_dependent",
                             **evaluators)
    grid = make_grid(1.0, N)
    tab = coefficient_table(model, sample_brownian(grid, n_paths, seed=N).W)
    rng = np.random.default_rng(seed)
    S, T = rng.normal(size=(2, N + 1, n_paths, n, n))
    Pv, Lam = S + S.swapaxes(-1, -2), T + T.swapaxes(-1, -2)  # a nonzero Lambda
    sol = RiccatiSolution(grid, PathArray(Pv), PathArray(Lam), tab)
    reference = _reference_gains(tab, Pv, Lam)

    theta = np.empty((N + 1, n_paths, m, n))
    with mock.patch.object(grid_module, "_BLOCK_ENTRIES", block_entries):
        blocks = [_gains(sol, rows) for rows in _time_blocks(theta, Pv)]
    derived = [np.concatenate(arrays) for arrays in zip(*blocks)]
    k = int(rng.integers(1, n_paths + 1))
    for got, ref, whole, first in zip(derived, reference, (sol.K.values, sol.L.values),
                                      _gains(sol, paths=slice(k))):
        assert got.tobytes() == ref.tobytes()
        assert whole.tobytes() == ref.tobytes()
        # The first k paths may round apart: einsum takes another loop for a
        # batch of one path (seen at n = 2, m = 1).
        np.testing.assert_allclose(first, ref[:, :k], rtol=0.0,
                                   atol=1e-14 * (1.0 + np.abs(ref).max()))
        assert not (whole.flags.writeable or first.flags.writeable)
    assert not any(a.flags.writeable for pair in blocks for a in pair)


def test_1x1_products_keep_the_bits_of_matmul_and_einsum():
    # The 1x1 product rule is elementwise plus 0.0: K and L, the gain
    # -K^+ L and both forms of the stationarity residual equal the matmul and
    # einsum contractions they replace, byte for byte, on signed zeros in B,
    # C, D, P and Lambda (R > 0 keeps K invertible for synthesis).
    grid = make_grid(1.0, 6)
    batch = sample_brownian(grid, 6, seed=3)
    N, P = grid.N, batch.n_paths
    signs = np.array([0.0, -0.0, 1.5, -2.0, -0.0, 0.5])

    def rolled(scale):
        return lambda i, W: (scale * np.roll(signs, i))[:, None, None]

    model = CoefficientModel(n=1, m=1, A=rolled(0.0), B=rolled(0.7), C=rolled(-1.3),
                             D=rolled(0.4), Q=rolled(0.0),
                             R=lambda i, W: 1.0 + np.abs(rolled(0.25)(i, W)),
                             G=lambda W: np.ones((W.shape[1], 1, 1)), kind="path_dependent")
    tab = coefficient_table(model, batch.W)
    rng = np.random.default_rng(5)
    zeros = rng.choice([0.0, -0.0, 1.0], (2, N + 1, P, 1, 1))
    Pv = np.abs(rng.normal(size=(N + 1, P, 1, 1))) * zeros[0]
    Lam = rng.normal(size=(N + 1, P, 1, 1)) * zeros[1]
    sol = RiccatiSolution(grid, PathArray(Pv), PathArray(Lam), tab)
    K, L = _reference_gains(tab, Pv, Lam)
    assert [g.tobytes() for g in _gains(sol)] == [K.tobytes(), L.tobytes()]

    law = synthesize(sol, model)
    theta = np.negative(np.matmul(solvability(K, L)[0], L))
    assert law.theta.values.tobytes() == theta.tobytes()
    assert (L == 0.0).any() and np.signbit(theta[L == 0.0]).all()  # -(K^+ L + 0.0) is -0.0

    res = stationarity_residual(law, sol, model, batch.W)
    resid = _frobenius(L + np.einsum("tpij,tpjk->tpik", K, theta)).max()
    worst = 0.0
    for i in range(N + 1):
        B, C, D, R = (getattr(tab, name)[i] for name in "BCDR")
        Pi = Lam[i] + Pv[i] @ (C + D @ theta[i])
        r = (np.einsum("...nm,...nk->...mk", B, Pv[i]) + np.einsum("...nm,...nk->...mk", D, Pi)
             + R @ theta[i])
        worst = max(worst, float(_frobenius(r).max()))
    assert np.float64(res.max_residual).tobytes() == np.float64(resid).tobytes()
    assert np.float64(res.pi_form_residual).tobytes() == np.float64(worst).tobytes()


def _solvability_pair(rng, m, n, rank, negatives, in_range):
    """A symmetric ``K`` of the given rank, with ``negatives`` of its nonzero
    eigenvalues negative, and an ``L`` in its range or drawn freely.

    The nonzero eigenvalues have moduli in ``[0.1, 10]``, so ``K`` is at most
    100-conditioned on its range.  The null space is exact: ``K`` is a
    random ``rank x rank`` block padded with zeros and moved by a signed
    permutation, which keeps it exactly symmetric.  Rotating an exact null
    space by a general orthogonal matrix instead rounds its eigenvalues to
    about the default cutoff, where no rank decision is reproducible.
    """
    r = min(rank, m)
    lam = rng.uniform(0.1, 10.0, r)
    lam[:negatives] *= -1.0
    K = np.zeros((m, m))
    if r:
        Q = np.linalg.qr(rng.normal(size=(r, r)))[0]
        block = (Q * lam) @ Q.T
        K[:r, :r] = 0.5 * (block + block.T)
    perm = rng.permutation(m)
    signs = rng.choice([-1.0, 1.0], m)
    K = K[np.ix_(perm, perm)] * signs * signs[:, None]
    L = K @ rng.normal(size=(m, n)) if in_range else rng.normal(size=(m, n))
    kappa = np.abs(lam).max() / np.abs(lam).min() if r else 1.0
    return K, L, kappa


# Bound on the Penrose residuals and on the distance to the SVD pinv, in
# units of m * eps * kappa (kappa: condition number of K on its range).  The
# worst of 20000 random draws of this construction was 9 units.
PENROSE_UNITS = 64


@SETTINGS
@given(
    m=st.integers(1, 4),
    n=st.integers(1, 3),
    specs=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.booleans()),
                   min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    k_exp=st.integers(-20, 20),
    l_exp=st.integers(-20, 20),
    tol=st.sampled_from([1e-10, 1e-8, 1e-6]),
)
def test_solvability_kernel_matches_svd_references(m, n, specs, seed, k_exp, l_exp, tol):
    rng = np.random.default_rng(seed)
    pairs = [_solvability_pair(rng, m, n, *spec) for spec in specs]
    K = np.stack([p[0] for p in pairs]) * 2.0**k_exp
    L = np.stack([p[1] for p in pairs]) * 2.0**l_exp
    Kd, psd, in_range = solvability(K, L, tol)
    assert Kd.shape == K.shape and psd.shape == in_range.shape == (len(specs),)
    eps = np.finfo(np.float64).eps
    norm = np.linalg.norm
    for j, (_, _, kappa) in enumerate(pairs):
        A, Ad, Lj = K[j], Kd[j], L[j]
        bound = PENROSE_UNITS * m * eps * kappa
        assert norm(A @ Ad @ A - A) <= bound * norm(A)
        assert norm(Ad @ A @ Ad - Ad) <= bound * norm(Ad)
        assert norm((A @ Ad).T - A @ Ad) <= bound
        assert norm((Ad @ A).T - Ad @ A) <= bound
        assert norm(Ad - pinv(A).pinv) <= bound * norm(Ad)
        # Independent references for the verdicts, on draws at least a
        # factor 2 away from either threshold.
        lam_min = np.linalg.eigvalsh(A)[0]
        psd_floor = -tol * (1.0 + np.abs(A).max())
        assume(abs(lam_min - psd_floor) > 0.5 * abs(psd_floor))
        assert psd[j] == (lam_min >= psd_floor)
        U, s, _ = np.linalg.svd(A)
        Ur = U[:, s > m * eps * s[0]]
        resid = norm(Lj - Ur @ (Ur.T @ Lj))
        range_bound = tol * (1.0 + norm(Lj))
        assume(not 0.5 * range_bound <= resid <= 2.0 * range_bound)
        assert in_range[j] == (resid <= range_bound)


@SETTINGS
@given(
    m=st.integers(1, 3),
    rank=st.integers(0, 3),
    negatives=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-150, 1.0, 1e150]),
    negative_zeros=st.integers(0, 2**9 - 1),
)
def test_one_matrix_decomposes_as_its_stack(m, rank, negatives, seed, scale, negative_zeros):
    # PSD (no negatives), indefinite, rank-deficient and zero K; the zero
    # entries of K take the sign given by the bits of negative_zeros.
    r = min(rank, m)
    K = _solvability_pair(np.random.default_rng(seed), m, 1, r, min(negatives, r), True)[0]
    K = K * scale
    signs = (negative_zeros >> np.arange(m * m).reshape(m, m)) & 1
    K[(K == 0.0) & (signs == 1)] = -0.0
    stack_Kd, stack_lam = _pseudo_inverse(K[None])
    one = [_pseudo_inverse(K)] + ([_pseudo_inverse(float(K[0, 0]))] if m == 1 else [])
    for Kd, lam_min in one:
        assert np.asarray(Kd, dtype=np.float64).tobytes() == stack_Kd[0].tobytes()
        assert np.float64(lam_min).tobytes() == stack_lam[0].tobytes()


# ---------------------------------------------------------------------------
# Deterministic solvers against a per-stage reference loop
# ---------------------------------------------------------------------------

def _checked(K, L, t, escape, not_psd, off_range, judge=True):
    """``K^+`` of one stage, judged on the spot by the public kernel."""
    try:
        Kd, psd, in_range = solvability(K, L, SOLVE_TOL)
    except InvalidArgumentError as exc:
        if np.isfinite(K).all() and np.isfinite(L).all():
            raise
        raise FiniteEscapeError(escape.format(t=t), time=t) from exc
    if judge and not psd:
        raise RiccatiSingularError(not_psd.format(t=t), time=t)
    if judge and not in_range:
        raise RiccatiSingularError(off_range.format(t=t), time=t)
    return Kd


def _reference_ode(model, grid, judge=True):
    """RK4 with four substeps per cell, every stage checked as it is reached;
    ``judge=False`` drops the PSD and range verdicts, keeping the escapes."""
    tab = coefficient_table(model, np.zeros((grid.N + 1, 1)))
    msgs = ("Riccati solution blew up near t={t:.6g}",
            "control weight lost positive semidefiniteness at t={t:.6g}",
            "range condition failed at t={t:.6g}")

    def rhs(P, A, B, C, D, Q, R, t):
        if not np.isfinite(P).all():
            raise FiniteEscapeError(msgs[0].format(t=t), time=t)
        K = R + D.T @ P @ D
        L = B.T @ P + D.T @ (P @ C)
        Kd = _checked(K, L, t, *msgs, judge=judge)
        return -(P @ A + A.T @ P + C.T @ P @ C + Q - L.T @ (Kd @ L))

    def sym(M):
        return 0.5 * (M + M.T)

    P = sym(tab.G[0])
    Ps = [P]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(grid.N - 1, -1, -1):
            c = [getattr(tab, name)[i][0] for name in "ABCDQR"]
            dt = -grid.h / 4.0
            t = grid.points[i + 1]
            for _ in range(4):
                k1 = rhs(P, *c, t)
                k2 = rhs(sym(P + 0.5 * dt * k1), *c, t + 0.5 * dt)
                k3 = rhs(sym(P + 0.5 * dt * k2), *c, t + 0.5 * dt)
                k4 = rhs(sym(P + dt * k3), *c, t + dt)
                P = sym(P + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
                t += dt
                if not np.isfinite(P).all():
                    raise FiniteEscapeError(msgs[0].format(t=t), time=t)
            Ps.append(P)
    return np.stack(Ps[::-1])


def _reference_recursion(model, grid):
    """The discrete dynamic-programming recursion, every step checked as it
    is reached."""
    tab = coefficient_table(model, np.zeros((grid.N + 1, 1)))
    h = grid.h
    msgs = ("discrete recursion blew up at t={t:.6g}",
            "discrete control weight not PSD at t={t:.6g}",
            "discrete range condition failed at t={t:.6g}")
    Pn = 0.5 * (tab.G[0] + tab.G[0].T)
    Ps = [Pn]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(grid.N - 1, -1, -1):
            A, B, C, D, Q, R = (getattr(tab, name)[i][0] for name in "ABCDQR")
            Phi = np.eye(model.n) + h * A
            H = h * R + h * h * (B.T @ Pn @ B) + h * (D.T @ Pn @ D)
            M = h * (B.T @ Pn @ Phi + D.T @ Pn @ C)
            t = grid.points[i]
            Hd = _checked(H, M, t, *msgs)
            P = Phi.T @ Pn @ Phi + h * (C.T @ Pn @ C) + h * Q - M.T @ (Hd @ M)
            Pn = 0.5 * (P + P.T)
            if not np.isfinite(Pn).all():
                raise FiniteEscapeError(msgs[0].format(t=t), time=t)
            Ps.append(Pn)
    return np.stack(Ps[::-1])


def _outcome(solve, model, grid):
    """``P`` as bytes, or the raised error's class, message and time."""
    try:
        P = solve(model, grid)
    except SlqError as exc:
        return type(exc), str(exc), getattr(exc, "time", None)
    return (P.P.values[:, 0] if hasattr(P, "P") else P).tobytes()


def _singular_constant_model(rng, n, m, dead, dead_B, rank_R, shift):
    """A constant instance whose ``K`` can be singular: ``D``'s columns in
    ``dead`` are zero and ``R`` vanishes on them, so ``K`` has exact zero
    rows there, and ``L`` lies in its range only if ``dead_B`` zeroes the
    same columns of ``B``.  The rest of ``R`` has rank ``rank_R`` and is
    shifted by ``shift * I``; a negative shift can make ``K`` indefinite."""
    s = float(max(n, m))
    A, C = rng.uniform(-1.0, 1.0, (2, n, n)) / s
    B, D = rng.uniform(-1.0, 1.0, (2, n, m)) / s
    S = rng.uniform(-1.0, 1.0, (m, rank_R))
    R = 0.45 * S @ S.T + shift * np.eye(m)
    live = np.ones(m, dtype=bool)
    live[list(dead)] = False
    R[~live, :] = R[:, ~live] = 0.0
    D[:, ~live] = 0.0
    if dead_B:
        B[:, ~live] = 0.0
    Q, G = (M @ M.T / n for M in rng.uniform(-1.0, 1.0, (2, n, n)))

    def const(M):
        return lambda i, W, M=M: M

    return CoefficientModel(n=n, m=m, A=const(A), B=const(B), C=const(C), D=const(D),
                            Q=const(Q), R=const(R), G=lambda W, G=G: G, kind="deterministic")


@SETTINGS
@given(
    n=st.integers(1, 3),
    m=st.integers(1, 3),
    N=st.integers(2, 10),
    dead=st.sets(st.integers(0, 2), max_size=3),
    dead_B=st.booleans(),
    rank_R=st.integers(0, 3),
    shift=st.sampled_from([0.0, 0.0, 0.1, -0.05, -0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_deterministic_solvers_equal_the_per_stage_reference(n, m, N, dead, dead_B, rank_R,
                                                             shift, seed):
    rng = np.random.default_rng(seed)
    model = _singular_constant_model(rng, n, m, {j for j in dead if j < m}, dead_B,
                                     min(rank_R, m), shift)
    grid = make_grid(1.0, N)
    assert _outcome(solve_deterministic, model, grid) == _outcome(_reference_ode, model, grid)
    assert (_outcome(discrete_recursion_oracle, model, grid)
            == _outcome(_reference_recursion, model, grid))


@pytest.mark.parametrize("r", [1.0, 0.0, -0.0])
def test_1x1_solvers_equal_the_per_stage_reference_on_signed_zeros(r):
    # A 1x1 model steps on Python floats; the reference steps on 1x1 arrays,
    # whose products sum from +0.0.  _outcome compares bytes, so the sign of
    # every zero counts.
    grid = make_grid(1.0, 4)
    for a, c, d, q, g in itertools.product(*((0.0, -0.0, v) for v in (0.3, -0.4, 0.7, 0.5, 1.0))):
        model = scenario_deterministic(a, 1.0, c, d, q, r, g, T=1.0)
        assert (_outcome(solve_deterministic, model, grid)
                == _outcome(_reference_ode, model, grid))
        assert (_outcome(discrete_recursion_oracle, model, grid)
                == _outcome(_reference_recursion, model, grid))


def test_a_1x1_sweep_records_python_floats_and_a_matrix_sweep_2d_arrays(monkeypatch):
    seen = []
    pseudo_inverse = riccati._pseudo_inverse

    def noting(K):
        seen.append((type(K), np.ndim(K)))
        return pseudo_inverse(K)

    monkeypatch.setattr(riccati, "_pseudo_inverse", noting)
    scalar = scenario_deterministic(0.1, 1.0, 0.2, 0.3, 1.0, 1.0, 1.0, T=1.0)
    matrix = _singular_constant_model(np.random.default_rng(5), 2, 2, set(), False, 2, 0.1)
    for model, kind in ((scalar, (float, 0)), (matrix, (np.ndarray, 2))):
        for solve in (solve_deterministic, discrete_recursion_oracle):
            seen.clear()
            solve(model, make_grid(1.0, 4))
            assert set(seen) == {kind}


@pytest.mark.parametrize("coeffs,message,escapes", [
    # L = 0, and a negative running weight drives P below -1 fast enough
    # that K = 1 + P turns indefinite mid-horizon and P overflows later.
    ((700, 0, 0, 1, -1e-60, 1, 0),
     "control weight lost positive semidefiniteness at t=0.871094", True),
    # K = 0 while L = P: L leaves K's range at the first stage.
    ((0, 1, 0, 0, 0, 0, 1), "range condition failed at t=1", False),
], ids=["indefinite", "range"])
def test_first_failing_stage_raises_what_the_reference_raises(coeffs, message, escapes):
    model = scenario_deterministic(*coeffs, T=1.0)
    grid = make_grid(1.0, 64)
    got = _outcome(solve_deterministic, model, grid)
    assert got == _outcome(_reference_ode, model, grid)
    assert got[:2] == (RiccatiSingularError, message)
    assert (_outcome(discrete_recursion_oracle, model, grid)
            == _outcome(_reference_recursion, model, grid))
    if escapes:
        # Past the failing stage the sweep overflows, so the stages are
        # judged on the sweep's escape, not on a completed sweep.
        with pytest.raises(FiniteEscapeError):
            _reference_ode(model, grid, judge=False)


def test_asymmetric_weight_raises_what_the_reference_raises():
    R = np.array([[1.0, 0.5], [0.0, 1.0]])
    eye = np.eye(2)
    model = CoefficientModel(n=2, m=2, A=lambda i, W: 0.1 * eye, B=lambda i, W: eye,
                             C=lambda i, W: 0.0 * eye, D=lambda i, W: eye,
                             Q=lambda i, W: eye, R=lambda i, W: R, G=lambda W: eye,
                             kind="deterministic")
    grid = make_grid(1.0, 8)
    for solve, reference in ((solve_deterministic, _reference_ode),
                             (discrete_recursion_oracle, _reference_recursion)):
        got = _outcome(solve, model, grid)
        assert got == _outcome(reference, model, grid)
        assert got[0] is InvalidArgumentError and "not symmetric" in got[1]


def test_verdicts_decompose_nothing_and_solves_decompose_once_per_stage(monkeypatch):
    decomposed = []
    eigh = np.linalg.eigh

    def counting_eigh(K):
        decomposed.append(K.size // (K.shape[-1] * K.shape[-2]))
        return eigh(K)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    rng = np.random.default_rng(3)
    K = np.stack([S @ S.T for S in rng.normal(size=(5, 2, 2))])
    L = rng.normal(size=(5, 2, 3))
    Kd, psd, in_range = solvability(K, L)
    assert decomposed == [5]
    assert [v.tolist() for v in _verdicts(K, Kd, np.linalg.eigvalsh(K)[:, 0], L, 1e-8)] \
        == [psd.tolist(), in_range.tolist()]
    assert decomposed == [5]
    model = _singular_constant_model(rng, 2, 2, set(), False, 2, 0.1)
    grid = make_grid(1.0, 8)
    decomposed.clear()
    solve_deterministic(model, grid)
    assert decomposed == [1] * 16 * grid.N
    decomposed.clear()
    discrete_recursion_oracle(model, grid)
    assert decomposed == [1] * grid.N


def _random_model(rng, n, path_dependent, m=None):
    """An ``n``-state, ``m``-control problem (``m = n`` by default) with
    symmetric positive definite weights; ``A`` and ``R`` vary with the path
    when ``path_dependent``."""
    m = n if m is None else m
    A, B, C, D = (0.5 * rng.normal(size=shape) for shape in [(n, n), (n, m)] * 2)
    Q, R, G = (M @ M.T + 0.1 * np.eye(len(M))
               for M in (rng.normal(size=(k, k)) for k in (n, m, n)))

    def const(M):
        return lambda i, W: M

    def varying(M):
        return lambda i, W: M * (1.5 + np.cos(W[i]))[:, None, None]

    vary = varying if path_dependent else const
    return CoefficientModel(n=n, m=m, A=vary(A), B=const(B), C=const(C), D=const(D),
                            Q=const(Q), R=vary(R), G=lambda W: G,
                            kind="path_dependent" if path_dependent else "deterministic")


@SETTINGS
@given(
    n=st.sampled_from([1, 2]),
    path_dependent=st.booleans(),
    N=st.integers(2, 16),
    n_paths=st.integers(1, 8),
    start=st.integers(0, 15),
    eps=st.floats(1e-3, 1e2) | st.floats(-1e2, -1e-3),
    seed=st.integers(0, 2**32 - 1),
)
def test_superposition_predicts_directly_simulated_costs(n, path_dependent, N, n_paths,
                                                         start, eps, seed):
    rng = np.random.default_rng(seed)
    model = _random_model(rng, n, path_dependent)
    grid = make_grid(1.0, N)
    batch = sample_brownian(grid, n_paths, seed)
    init = InitialCondition(start % N, rng.normal(size=n))
    theta = rng.uniform(-1.0, 1.0, (N + 1, n_paths, n, n))
    law = FeedbackLaw(theta=PathArray(theta), source=None)
    v = rng.normal(size=(N + 1, n_paths, n, 1))
    x_fb, u_fb = simulate_closed_loop(model, law, init, batch)
    J_fb = cost(model, x_fb, u_fb, init, grid, batch).per_path
    _, (cross,), (J0,), _ = evaluate._sweep_arms(coefficient_table(model, batch.W), theta, [v],
                                                 eps, init, batch)
    u = PathArray(u_fb.values + eps * v)
    J = cost(model, simulate_open_loop(model, u, init, batch), u, init, grid, batch).per_path
    predicted = J_fb + eps * cross + eps * eps * J0
    assert np.abs(J - predicted).max() <= SUPERPOSITION_RTOL * np.abs(J).max()


@SETTINGS
@given(
    n=st.sampled_from([1, 2]),
    path_dependent=st.booleans(),
    N=st.integers(2, 16),
    n_paths=st.integers(1, 8),
    start=st.integers(0, 15),
    seed=st.integers(0, 2**32 - 1),
)
def test_open_loop_on_a_broadcast_row_equals_its_dense_copy(n, path_dependent, N, n_paths,
                                                            start, seed):
    # The open loop steps on the given control as it is; a time-only row
    # must give the states of its materialized per-path copy, bit for bit,
    # and cost the same.
    rng = np.random.default_rng(seed)
    model = _random_model(rng, n, path_dependent)
    if path_dependent:  # B and D per path as well, so B u broadcasts both ways
        B, D = rng.normal(size=(2, n, n))
        model = dataclasses.replace(
            model, B=lambda i, W: B * np.sin(W[i])[:, None, None],
            D=lambda i, W: D * np.cos(W[i])[:, None, None])
    grid = make_grid(1.0, N)
    batch = sample_brownian(grid, n_paths, seed)
    init = InitialCondition(min(start, N - 1), rng.normal(size=n))
    row = rng.normal(size=(N + 1, 1, n, 1))
    dense = np.broadcast_to(row, (N + 1, n_paths, n, 1)).copy()
    x_row, x_dense = (simulate_open_loop(model, PathArray(u), init, batch).values
                      for u in (row, dense))
    np.testing.assert_array_equal(x_row, x_dense)
    J_row, J_dense = (cost(model, PathArray(x_row), PathArray(u), init, grid, batch)
                      for u in (row, dense))
    np.testing.assert_array_equal(J_row.per_path, J_dense.per_path)
    assert (J_row.mean, J_row.std_error, J_row.n_paths, J_row.components) == (
        J_dense.mean, J_dense.std_error, J_dense.n_paths, J_dense.components)


@SETTINGS
@given(
    n=st.sampled_from([1, 2]),
    path_dependent=st.booleans(),
    N=st.integers(2, 16),
    n_paths=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_sweep_on_broadcast_rows_equals_the_dense_library(n, path_dependent, N, n_paths,
                                                          seed):
    rng = np.random.default_rng(seed)
    model = _random_model(rng, n, path_dependent)
    grid = make_grid(1.0, N)
    batch = sample_brownian(grid, n_paths, seed)
    init = InitialCondition(0, rng.normal(size=n))
    theta = rng.uniform(-1.0, 1.0, (N + 1, n_paths, n, n))
    law = FeedbackLaw(theta=PathArray(theta), source=None)
    library = make_perturbations(grid, batch, n)
    dense = [(pid, np.broadcast_to(v, (N + 1, n_paths, n, 1)).copy()) for pid, v in library]
    rows, dense_rows = (optimality_sweep(None, law, model, init, batch, perturbations=p).rows
                        for p in (library, dense))
    if n == 1:
        assert rows == dense_rows
        return
    x_fb, u_fb = simulate_closed_loop(model, law, init, batch)
    J_fb = cost(model, x_fb, u_fb, init, grid, batch).mean
    eps = np.finfo(np.float64).eps
    for row, ref in zip(rows, dense_rows):
        bound = 64 * eps * max(abs(ref.J), abs(J_fb))
        assert abs(row.J - ref.J) <= bound
        assert abs(row.J_minus_Jfb - ref.J_minus_Jfb) <= bound


def _reference_form(M, a, b):
    """Per-path ``<M a, b>`` of ``(k, r, c)`` rows and ``(k, ., 1)`` columns:
    terms ``(a_j M_jl) b_l`` added in index order from the first."""
    total = None
    for j in range(a.shape[1]):
        for l in range(b.shape[1]):
            term = a[:, j, 0] * M[:, j, l] * b[:, l, 0]
            total = term if total is None else total + term
    return total


def _reference_bilinear(tab, s, h, x, u, y, w):
    """The cost's ``B((x, u), (y, w))`` per path on ``(N+1, k, ., 1)``
    histories, as the per-arm route took it: left point, in time order from
    zero, with its state, control and terminal parts added by ``sum``."""
    run, ctrl = np.zeros(1), np.zeros(1)
    for i in range(s, x.shape[0] - 1):
        run = run + h * _reference_form(tab.Q[i], x[i], y[i])
        ctrl = ctrl + h * _reference_form(tab.R[i], u[i], w[i])
    return sum((run, ctrl, _reference_form(tab.G, x[-1], y[-1])))


def _per_arm_sweep_arms(model, x_fb, u_fb, directions, eps_direct, init, batch):
    """``(cross, J0, J_dir)`` of the sweep one arm at a time: a zero-start
    response and a direct arm per direction, from the public simulator and
    cost."""
    grid, s = batch.grid, init.start_index
    tab = coefficient_table(model, batch.W)
    zero = InitialCondition(s, np.zeros(model.n))
    cross, J0, J_dir = [], [], []
    for v in directions:
        x_v = simulate_open_loop(model, PathArray(v), zero, batch).values
        cross.append(_reference_bilinear(tab, s, grid.h, x_fb, u_fb, x_v, v))
        J0.append(0.5 * _reference_bilinear(tab, s, grid.h, x_v, v, x_v, v))
        u = PathArray(u_fb + eps_direct * v)
        J_dir.append(cost(model, simulate_open_loop(model, u, init, batch), u, init, grid,
                          batch).per_path)
    return np.array(cross), np.array(J0), np.array(J_dir)


def _per_arm_completion_of_squares(model, theta, Kv, controls, init, batch, J_fb):
    """Residual and standard error of each completion-of-squares control, one
    open loop and one cost at a time, with the penalty taken step by step."""
    grid, s, P = batch.grid, init.start_index, batch.n_paths
    out = []
    for u in controls:
        x = simulate_open_loop(model, PathArray(u), init, batch).values
        J_u = cost(model, PathArray(x), PathArray(u), init, grid, batch).per_path
        penalty = np.zeros(1)
        for i in range(s, grid.N):
            gap = np.empty(u[i].shape)
            for j in range(model.m):
                fb = theta[i][:, j, 0] * x[i][:, 0, 0]
                for l in range(1, model.n):
                    fb = fb + theta[i][:, j, l] * x[i][:, l, 0]
                gap[:, j, 0] = u[i][:, j, 0] - fb
            penalty = penalty + grid.h * _reference_form(Kv[i], gap, gap)
        diff = J_u - J_fb - 0.5 * penalty
        out.append((abs(float(diff.mean())),
                    float(diff.std(ddof=1) / math.sqrt(P)) if P > 1 else 0.0))
    return out


@SETTINGS
@given(
    n=st.sampled_from([1, 2]),
    m=st.sampled_from([1, 2]),
    path_dependent=st.booleans(),
    N=st.integers(2, 10),
    n_paths=st.integers(1, 6),
    late_start=st.integers(1, 9),
    eps=st.floats(1e-2, 10.0) | st.floats(-10.0, -1e-2),
    seed=st.integers(0, 2**32 - 1),
)
def test_arm_pass_equals_the_per_arm_route_bit_for_bit(n, m, path_dependent, N, n_paths,
                                                       late_start, eps, seed):
    # One arm pass per check gives every per-path value that simulating and
    # costing each arm on its own gives, for a time-only and a per-path
    # direction, from the first index and from a later one; so does the
    # memoized closed-loop cost, against the stored closed loop and its cost.
    rng = np.random.default_rng(seed)
    model = _random_model(rng, n, path_dependent, m)
    grid = make_grid(1.0, N)
    batch = sample_brownian(grid, n_paths, seed)
    tab = coefficient_table(model, batch.W)
    theta = rng.uniform(-1.0, 1.0, (N + 1, n_paths, m, n))
    theta.setflags(write=False)  # a read-only gain's closed-loop cost is memoized
    law = FeedbackLaw(theta=PathArray(theta), source=None)
    S = rng.normal(size=(N + 1, n_paths, n, n))
    P = PathArray(S + S.swapaxes(-1, -2))
    sol = RiccatiSolution(grid, P, PathArray(np.zeros_like(P.values)), tab)
    Kv = sol.K.values
    directions = [rng.normal(size=(N + 1, 1, m, 1)), rng.normal(size=(N + 1, n_paths, m, 1))]
    library = [("time_only", directions[0]), ("per_path", directions[1])]
    eps_direct = max(evaluate._EPSILONS, key=abs)
    for s in (0, min(late_start, N - 1)):
        init = InitialCondition(s, rng.normal(size=n))
        x, u = simulate_closed_loop(model, law, init, batch)
        x_fb, u_fb, J_fb = x.values, u.values, cost(model, x, u, init, grid, batch)
        np.testing.assert_array_equal(evaluate._closed_loop(model, law, init, batch).per_path,
                                      J_fb.per_path)
        want = _per_arm_sweep_arms(model, x_fb, u_fb, directions, eps_direct, init, batch)
        parts, *got = evaluate._sweep_arms(tab, theta, directions, eps_direct, init, batch)
        for a, b in zip(got, want, strict=True):
            np.testing.assert_array_equal(a, b)
        sweep = optimality_sweep(None, law, model, init, batch, perturbations=library)
        with mock.patch.object(evaluate, "_sweep_arms", lambda *args: (parts, *want)):
            reference = optimality_sweep(None, law, model, init, batch, perturbations=library)
        assert sweep.rows == reference.rows
        assert sweep.superposition_error == reference.superposition_error

        controls = [(True, eps, v) for v in directions]
        results = evaluate._completion_of_squares(sol, law, model, controls, init, batch,
                                                  3.0, 0.5)
        dense = [u_fb] + [u_fb + eps * v for v in directions]
        want = _per_arm_completion_of_squares(model, theta, Kv, dense, init, batch,
                                              J_fb.per_path)
        assert [(r.residual, r.details["std_error"]) for r in results] == want
        assert results[0].residual == 0.0 and results[0].details["penalty_mean"] == 0.0


def _matmul_simulate(tab, init, batch, theta=None, control=None):
    """Reference Euler loop on the coefficient table: batched ``@`` products,
    as the simulator took them before its entry kernel (BLAS order)."""
    N, h, P, s = batch.grid.N, batch.grid.h, batch.n_paths, init.start_index
    n, m = tab.A.shape[2], tab.B.shape[3]
    x = np.empty((N + 1, P, n, 1))
    x[: s + 1] = init.eta_column(n, P)
    u = np.zeros((N + 1, P, m, 1)) if theta is not None else control
    for i in range(s, N + 1):
        if theta is not None:
            u[i] = theta[i] @ x[i]
        if i == N:
            break
        drift = tab.A[i] @ x[i] + tab.B[i] @ u[i]
        diffusion = tab.C[i] @ x[i] + tab.D[i] @ u[i]
        x[i + 1] = x[i] + h * drift + diffusion * batch.increments[i][:, None, None]
    return x, u


def _einsum_bilinear(tab, s, h, x, u, y, w):
    """Reference ``B((x, u), (y, w))`` per path, as its state, control and
    terminal parts: ``einsum`` forms, summed in time order."""
    def form(M, a, b):
        return np.einsum("...n,...nm,...m->...", a[..., 0], M, b[..., 0])

    run, ctrl = np.zeros(x.shape[1]), np.zeros(x.shape[1])
    for i in range(s, x.shape[0] - 1):
        run += h * form(tab.Q[i], x[i], y[i])
        ctrl += h * form(tab.R[i], u[i], w[i])
    return run, ctrl, form(tab.G, x[-1], y[-1])


@SETTINGS
@given(
    n=st.integers(1, 3),
    m=st.integers(1, 3),
    per_path=st.sets(st.sampled_from("ABCDQRG")),
    per_path_gain=st.booleans(),
    N=st.integers(2, 12),
    n_paths=st.integers(1, 8),
    start=st.integers(0, 11),
    seed=st.integers(0, 2**32 - 1),
)
def test_entry_kernel_matches_the_matmul_kernel(n, m, per_path, per_path_gain, N, n_paths,
                                                start, seed):
    # Sums in index order agree with BLAS products up to rounding, and at
    # n = m = 1, where every sum has one term, they agree bit for bit (the
    # cross terms pin the form's order, (x M) y).
    rng = np.random.default_rng(seed)
    shapes = {"A": (n, n), "B": (n, m), "C": (n, n), "D": (n, m)}
    coeffs = {k: 0.5 * rng.normal(size=shape) for k, shape in shapes.items()}
    coeffs.update(Q=np.eye(n) + 0.1 * np.ones((n, n)), R=np.eye(m),
                  G=np.eye(n) + 0.2 * np.ones((n, n)))

    def evaluator(name, M):
        if name not in per_path:
            return lambda *args: M
        return lambda *args: M * (1.5 + np.cos(args[-1][-1]))[:, None, None]

    fns = {k: evaluator(k, M) for k, M in coeffs.items()}
    model = CoefficientModel(n=n, m=m, **fns,
                             kind="path_dependent" if per_path else "deterministic")
    grid = make_grid(1.0, N)
    batch = sample_brownian(grid, n_paths, seed)
    init = InitialCondition(start % N, rng.normal(size=n))
    tab = coefficient_table(model, batch.W)
    theta = rng.uniform(-1.0, 1.0, (N + 1, n_paths if per_path_gain else 1, m, n))
    control = rng.normal(size=(N + 1, n_paths if per_path_gain else 1, m, 1))
    law = FeedbackLaw(theta=PathArray(theta), source=None)

    x_fb, u_fb = simulate_closed_loop(model, law, init, batch)
    x_u = simulate_open_loop(model, PathArray(control), init, batch)
    dense = np.broadcast_to(control, (N + 1, n_paths, m, 1))  # cost needs one per path
    got = [x_fb.values, u_fb.values, x_u.values,
           cost(model, x_fb, u_fb, init, grid, batch).per_path,
           cost(model, x_u, PathArray(dense), init, grid, batch).per_path]
    s, h = init.start_index, grid.h
    got += evaluate._bilinear(tab, s, h, x_fb.values, u_fb.values, x_u.values, dense)
    x_ref, u_ref = _matmul_simulate(tab, init, batch, theta=theta)
    x_uref, _ = _matmul_simulate(tab, init, batch, control=control)
    want = [x_ref, u_ref, x_uref,
            0.5 * sum(_einsum_bilinear(tab, s, h, x_ref, u_ref, x_ref, u_ref)),
            0.5 * sum(_einsum_bilinear(tab, s, h, x_uref, dense, x_uref, dense))]
    want += _einsum_bilinear(tab, s, h, x_ref, u_ref, x_uref, dense)
    for a, b in zip(got, want):
        if n == m == 1:
            np.testing.assert_array_equal(a, b)
        else:
            assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()


# How an entry of a coefficient, a gain, a control or a start state is drawn:
# a value, +0 or -0 at every index (absent from every sum), or zero at the
# first indices or on the paths where W <= 0 only (present).
ZERO_PATTERNS = ("value", "plus_zero", "minus_zero", "zero_early", "zero_on_paths")


def _patterned(rng, shape, patterns, symmetric=False):
    """An evaluator ``(i, W) -> (P, rows, cols)`` whose entries follow the
    next of ``patterns``, popped one per entry (mirrored when ``symmetric``)."""
    base = rng.normal(size=shape)
    kinds = np.array([patterns.pop() for _ in range(base.size)], dtype=object).reshape(shape)
    if symmetric:
        base, kinds = base + base.T, np.where(np.tri(shape[0], dtype=bool), kinds, kinds.T)
    base[kinds == "plus_zero"] = 0.0
    base[kinds == "minus_zero"] = -0.0
    early, on_paths = kinds == "zero_early", kinds == "zero_on_paths"

    def evaluate_at(i, W):
        M = np.repeat(base[None], W.shape[1], axis=0)
        if i < 2:
            M[:, early] = -0.0
        M[:, on_paths] *= (W[i] > 0)[:, None]
        return M
    return evaluate_at


def _assert_same_nonzero_bits(got, want):
    """Equal under ``==`` (so a zero may differ in sign), and byte for byte
    wherever nonzero."""
    got, want = np.asarray(got), np.asarray(want)
    np.testing.assert_array_equal(got, want)
    assert got[want != 0].tobytes() == want[want != 0].tobytes()


def _dense_entries(a):
    """The entry lists of ``evaluate._entries`` with no entry marked absent."""
    return [[list(a[..., j, l]) for l in range(a.shape[-1])] for j in range(a.shape[-2])]


@SETTINGS
@given(
    n=st.integers(1, 3),
    m=st.integers(1, 3),
    N=st.integers(2, 6),
    n_paths=st.integers(2, 5),
    patterns=st.lists(st.sampled_from(ZERO_PATTERNS), min_size=78, max_size=78),
    seed=st.integers(0, 2**32 - 1),
)
def test_structural_zeros_change_no_nonzero_bit(n, m, N, n_paths, patterns, seed):
    # Entries that are +-0 at every index are skipped by every sum; entries
    # zero at some indices only are not.  Against the dense per-step loops
    # and the dense kernel, every value is equal, and nonzero ones keep their
    # bits: states, controls, costs, the completion-of-squares penalty and
    # residuals, and the sweep's rows.
    from test_evaluate import _reference_cost, _reference_matvec, _reference_simulate

    rng = np.random.default_rng(seed)
    shapes = {"A": (n, n), "B": (n, m), "C": (n, n), "D": (n, m), "Q": (n, n), "R": (m, m)}
    fns = {k: _patterned(rng, shape, patterns, k in "QR") for k, shape in shapes.items()}
    g = _patterned(rng, (n, n), patterns, symmetric=True)
    model = CoefficientModel(n=n, m=m, **fns, G=lambda W: g(len(W) - 1, W),
                             kind="path_dependent")
    grid = make_grid(1.0, N)
    batch = sample_brownian(grid, n_paths, seed)
    theta, u = (np.stack([f(i, batch.W) for i in range(N + 1)])
                for f in (_patterned(rng, (m, n), patterns), _patterned(rng, (m, 1), patterns)))
    eta = _patterned(rng, (n, 1), patterns)(2, batch.W)[0, :, 0]
    init = InitialCondition(0, eta)
    law = FeedbackLaw(theta=PathArray(theta), source=None)

    x_fb, u_fb = simulate_closed_loop(model, law, init, batch)
    x_ref, u_ref = _reference_simulate(model, batch, eta, theta=theta)
    x_u = simulate_open_loop(model, PathArray(u), init, batch)
    x_uref, _ = _reference_simulate(model, batch, eta, u=u)
    for got, want in (
            (x_fb.values, x_ref), (u_fb.values, u_ref), (x_u.values, x_uref),
            (cost(model, x_fb, u_fb, init, grid, batch).per_path,
             _reference_cost(model, batch, x_ref, u_ref)),
            (cost(model, x_u, PathArray(u), init, grid, batch).per_path,
             _reference_cost(model, batch, x_uref, u))):
        _assert_same_nonzero_bits(got, want)

    S = rng.normal(size=(N + 1, n_paths, n, n))
    sol = RiccatiSolution(grid, PathArray(S + S.swapaxes(-1, -2)),
                          PathArray(np.zeros((N + 1, n_paths, n, n))),
                          coefficient_table(model, batch.W))
    penalty = np.zeros(n_paths)
    for i in range(N):
        gap = u[i] - _reference_matvec(theta[i], x_uref[i])
        penalty = penalty + grid.h * _reference_form(sol.K.values[i], gap, gap)
    library = make_perturbations(grid, batch, m)
    controls = [(True, 0.5, v) for _, v in library[6:8]] + [(False, 1.0, u)]
    results = evaluate._completion_of_squares(sol, law, model, controls, init, batch, 3.0, 0.5)
    assert results[-1].details["penalty_mean"] == float((0.5 * penalty).mean())
    rows = optimality_sweep(None, law, model, init, batch, library).rows
    with mock.patch.object(evaluate, "_entries", _dense_entries):
        assert results == evaluate._completion_of_squares(sol, law, model, controls, init,
                                                          batch, 3.0, 0.5)
        assert rows == optimality_sweep(None, law, model, init, batch, library).rows


@SETTINGS
@given(
    scenario=st.sampled_from(["example1", "deterministic", "counterexample"]),
    T=st.floats(0.25, 2.0),
    steps=st.integers(2, 8),
    paths=st.integers(2, 6),
    seed=st.integers(0, 2**64 - 1),
    solver=st.sampled_from((None,) + SOLVERS),
    checks=st.lists(st.sampled_from(CHECKS), unique=True),
    # basis_degree must be integral; a fractional one is a config error.
    tolerances=st.dictionaries(st.sampled_from(sorted(TOLERANCE_DEFAULTS)),
                               st.floats(0.0, 10.0)).map(
        lambda tols: {k: float(round(v)) if k == "basis_degree" else v
                      for k, v in tols.items()}),
)
def test_cli_flags_round_trip_through_the_report_echo(scenario, T, steps, paths, seed,
                                                      solver, checks, tolerances):
    assume("divergence" not in checks or scenario == "counterexample")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = ["--scenario", scenario, "--T", repr(T), "--steps", str(steps),
                "--paths", str(paths), "--seed", str(seed), "--out", str(out)]
        argv += ["--solver", solver] if solver else []
        for name in checks:
            argv += ["--check", name]
        for name, value in tolerances.items():
            argv += ["--tol", f"{name}={value!r}"]
        # Failed checks (2), unsupported solvers (3) and numerical failures
        # (4) still write the report with its config echo.
        assert main(argv) in (0, 2, 3, 4)
        echo = json.loads((out / "report.json").read_text())["config"]
        enabled = echo.pop("enabled_checks")
        assert {k: echo[k] for k in ("scenario", "T", "steps", "paths", "seed", "solver",
                                     "checks", "tolerances", "output_dir")} == {
            "scenario": scenario, "T": T, "steps": steps, "paths": paths, "seed": seed,
            "solver": solver or "closed_form", "checks": checks,
            "tolerances": tolerances, "output_dir": str(out)}
        config_file = Path(tmp) / "echo.json"
        config_file.write_text(json.dumps(echo))
        config = load_config(str(config_file))
        assert dataclasses.asdict(config) == echo
        defaults = ["value_identity", "completion_of_squares", "optimality", "stationarity"]
        defaults += ["divergence"] if scenario == "counterexample" else []
        assert enabled == config.enabled_checks() == (checks or defaults)
