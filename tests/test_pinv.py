"""Tests for the pseudoinverse, its regularized limit, and the predicates."""

import re

import numpy as np
import pytest

from slqkit.errors import InvalidArgumentError
from slqkit.pinv import PinvResult, pinv, pinv_limit, psd_check, range_inclusion, solvability


def _penrose_residuals(A, Ad):
    """Max-abs residuals of the four Moore-Penrose identities."""
    return (
        np.abs(A @ Ad @ A - A).max(),
        np.abs(Ad @ A @ Ad - Ad).max(),
        np.abs((A @ Ad) - (A @ Ad).T).max(),
        np.abs((Ad @ A) - (Ad @ A).T).max(),
    )


def test_pinv_penrose_identities_random_sweep():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        rows = rng.integers(1, 5)
        cols = rng.integers(1, 5)
        A = rng.uniform(-1.0, 1.0, size=(rows, cols))
        # Randomly knock the rank down to exercise the cutoff.
        if rng.random() < 0.5 and min(rows, cols) > 1:
            A[:, -1] = A[:, 0]
        Ad = pinv(A).pinv
        for r in _penrose_residuals(A, Ad):
            assert r <= 1e-10


def test_pinv_frozen_examples():
    res = pinv(np.zeros((2, 2)))
    np.testing.assert_array_equal(res.pinv, np.zeros((2, 2)))
    assert res.rank == 0

    res = pinv(np.diag([2.0, 0.0]))
    np.testing.assert_allclose(res.pinv, np.diag([0.5, 0.0]), rtol=0.0, atol=1e-15)
    assert res.rank == 1

    res = pinv(np.array([[3.0]]))
    np.testing.assert_allclose(res.pinv, [[1.0 / 3.0]], rtol=0.0, atol=1e-15)
    assert res.rank == 1

    # Scalars and vectors are promoted to matrices.
    assert pinv(4.0).pinv.shape == (1, 1)
    assert pinv(np.array([1.0, 2.0])).pinv.shape == (1, 2)


def test_pinv_result_metadata():
    A = np.diag([3.0, 1e-16])
    res = pinv(A)
    assert isinstance(res, PinvResult)
    assert res.singular_values.shape == (2,)
    assert res.singular_values[0] == pytest.approx(3.0)
    # Default cutoff is relative to sigma_max, so 1e-16 is treated as zero...
    assert res.rank == 1
    # ...but an explicit tol of 0 keeps it.
    assert pinv(A, tol=0.0).rank == 2


def test_pinv_involution_on_random_matrices():
    rng = np.random.default_rng(1)
    for _ in range(50):
        A = rng.uniform(-1.0, 1.0, size=(rng.integers(1, 5), rng.integers(1, 5)))
        Add = pinv(pinv(A).pinv).pinv
        np.testing.assert_allclose(Add, A, rtol=0.0, atol=1e-10)


def test_pinv_commutes_with_symmetric_matrix():
    rng = np.random.default_rng(2)
    for _ in range(50):
        B = rng.uniform(-1.0, 1.0, size=(3, 3))
        K = B + B.T
        Kd = pinv(K).pinv
        np.testing.assert_allclose(K @ Kd, Kd @ K, rtol=0.0, atol=1e-10)


def test_pinv_guards():
    with pytest.raises(InvalidArgumentError):
        pinv(np.zeros((2, 2, 2)))
    with pytest.raises(InvalidArgumentError):
        pinv(np.array([[np.nan]]))
    with pytest.raises(InvalidArgumentError):
        pinv(np.zeros((0, 2)))
    with pytest.raises(InvalidArgumentError):
        pinv(np.eye(2), tol=-1.0)
    # A bool cutoff is refused, not read as tol = 1.0.
    with pytest.raises(InvalidArgumentError, match="tol"):
        pinv(np.eye(2), tol=True)


def test_pinv_limit_converges_monotonically():
    rng = np.random.default_rng(3)
    A = rng.uniform(-1.0, 1.0, size=(4, 3))
    A[:, 2] = A[:, 0] + A[:, 1]  # rank 2
    Ad = pinv(A).pinv
    errors = []
    for delta in (1e-2, 1e-4, 1e-6, 1e-8):
        errors.append(np.abs(pinv_limit(A, delta) - Ad).max())
    assert all(e1 > e2 for e1, e2 in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-7


def test_pinv_limit_matches_closed_form_scalar():
    # For M = [m], the regularized inverse is m / (m^2 + delta).
    m, delta = 2.0, 0.5
    np.testing.assert_allclose(pinv_limit(m, delta), [[m / (m * m + delta)]])


def test_pinv_limit_guards():
    with pytest.raises(InvalidArgumentError):
        pinv_limit(np.eye(2), 0.0)
    with pytest.raises(InvalidArgumentError):
        pinv_limit(np.eye(2), -1e-3)
    with pytest.raises(InvalidArgumentError):
        pinv_limit(np.eye(2), np.inf)
    with pytest.raises(InvalidArgumentError, match="delta"):
        pinv_limit(np.eye(2), True)


def test_range_inclusion_basic_cases():
    K = np.diag([1.0, 0.0])
    assert range_inclusion(K, np.array([[1.0], [0.0]]))
    assert not range_inclusion(K, np.array([[0.0], [1.0]]))
    # Full-rank K accepts anything of matching shape.
    assert range_inclusion(np.eye(3), np.ones((3, 2)))
    # The zero operator only contains the zero vector.
    assert range_inclusion(np.zeros((2, 2)), np.zeros((2, 1)))
    assert not range_inclusion(np.zeros((2, 2)), np.ones((2, 1)))
    # At any scale: squares that overflow must not pass as inf <= inf.
    for s in (1e150, 1e160, 1e200):
        assert range_inclusion(K, np.array([[s], [0.0]]))
        assert not range_inclusion(K, np.array([[0.0], [s]]))
    assert not range_inclusion(np.zeros((1, 1)), np.array([[1e160]]))


def test_range_residual_does_not_overflow_on_a_tiny_K_with_a_large_L():
    # (K K^+) L - L takes the projector first: K^+ L = 1e350 would overflow
    # although L lies in the range of K, and no RuntimeWarning may leak.
    assert range_inclusion([[1e-100]], [[1e250]])
    assert solvability(np.diag([1e-10, 1.0]), [[1e300], [1.0]])[2]
    Kd, psd, in_range = solvability([[1.65e-66]], [[2e250]])
    assert psd and in_range and Kd[0, 0] == 1.0 / 1.65e-66


def test_range_inclusion_random_sweep():
    rng = np.random.default_rng(4)
    for _ in range(200):
        B = rng.uniform(-1.0, 1.0, size=(3, 2))
        K = B @ B.T  # symmetric psd of rank <= 2
        inside = K @ rng.uniform(-1.0, 1.0, size=(3, 1))
        assert range_inclusion(K, inside)


def test_range_inclusion_guards():
    with pytest.raises(InvalidArgumentError):
        range_inclusion(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 1)))
    with pytest.raises(InvalidArgumentError):
        range_inclusion(np.eye(2), np.zeros((3, 1)))
    with pytest.raises(InvalidArgumentError):
        range_inclusion(np.ones((2, 3)), np.zeros((2, 1)))
    # The batched kernel behind it takes stacks only: a vector is not promoted.
    with pytest.raises(InvalidArgumentError,
                       match=re.escape("K must be a stack of matrices, got shape (2,)")):
        solvability(np.zeros(2), np.zeros((2, 1)))


def test_psd_check_basic_cases():
    assert psd_check(np.eye(2))
    assert psd_check(np.zeros((3, 3)))
    assert psd_check(np.diag([1.0, 0.0]))
    assert not psd_check(np.diag([1.0, -1.0]))
    # A tiny negative eigenvalue within tolerance passes.
    assert psd_check(np.diag([1.0, -1e-12]))
    assert not psd_check(np.diag([1.0, -1e-4]))


def test_psd_check_random_gram_matrices():
    rng = np.random.default_rng(5)
    for _ in range(200):
        B = rng.uniform(-1.0, 1.0, size=(3, 3))
        K = B @ B.T
        assert psd_check(K)
        # Shift past the smallest eigenvalue to force indefiniteness.
        shift = np.linalg.eigvalsh(K)[0] + 1e-3
        assert not psd_check(K - shift * np.eye(3))


def test_psd_check_rejects_asymmetric_input():
    with pytest.raises(InvalidArgumentError):
        psd_check(np.array([[0.0, 1.0], [0.0, 0.0]]))
