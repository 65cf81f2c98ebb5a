import math

import numpy as np
import pytest
from scipy.linalg import cho_solve

from geeclust.errors import NotPositiveDefinite
from geeclust.linalg import spd_factor, spd_solve

from conftest import random_spd


def test_factor_identity():
    lower = spd_factor(np.eye(3))
    assert np.allclose(lower, np.eye(3))


def test_factor_hand_example():
    lower = spd_factor([[4.0, 2.0], [2.0, 3.0]])
    expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
    assert np.allclose(lower, expected, atol=1e-12)
    assert np.allclose(lower @ lower.T, [[4.0, 2.0], [2.0, 3.0]], rtol=1e-10)


def test_factor_indefinite_rejected():
    # eigenvalues 3 and -1: jitter cannot rescue this
    with pytest.raises(NotPositiveDefinite):
        spd_factor([[1.0, 2.0], [2.0, 1.0]])


def test_factor_jitter_rescues_a_singular_matrix():
    # [[1, 1], [1, 1]] has a zero pivot; the retry adds 1e-10 of the mean
    # diagonal to it
    lower = spd_factor([[1.0, 1.0], [1.0, 1.0]])
    assert np.allclose(lower @ lower.T, [[1.0, 1.0], [1.0, 1.0]], rtol=0, atol=1e-9)


def test_factor_rejects_nonfinite():
    with pytest.raises(ValueError):
        spd_factor([[1.0, 0.0], [0.0, np.nan]])


def test_solve_identity_and_diagonal():
    b = np.array([3.0, 7.0])
    assert np.allclose(spd_solve(spd_factor(np.eye(2)), b), b)
    lower = spd_factor(np.diag([2.0, 4.0]))
    assert np.allclose(spd_solve(lower, np.array([2.0, 4.0])), [1.0, 1.0])


def test_solve_dimension_mismatch():
    lower = spd_factor(np.eye(3))
    for b in (np.ones(4), np.ones((4, 2))):
        with pytest.raises(ValueError, match="dimension must be fixed to 3"):
            spd_solve(lower, b)


@pytest.mark.parametrize("seed", range(10))
def test_solve_residual_random_spd(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 51))
    m = random_spd(rng, n, cond=10.0 ** rng.uniform(0, 6))
    b = rng.standard_normal(n)
    x = spd_solve(spd_factor(m), b)
    assert np.linalg.norm(m @ x - b) / np.linalg.norm(b) < 1e-8


@pytest.mark.parametrize("p", range(1, 9))
def test_solve_and_inverse_equal_cho_solve_bitwise(p):
    """spd_solve calls LAPACK's dpotrs directly; scipy's cho_solve, which
    calls the same routine, stays the reference.  The inverse is the solve
    against the identity, as fit_gee forms the model-based covariance."""
    rng = np.random.default_rng(200 + p)
    for _ in range(20):
        lower = spd_factor(random_spd(rng, p, cond=10.0 ** rng.uniform(0, 6)))
        for b in (rng.standard_normal(p), rng.standard_normal((p, int(rng.integers(1, 5))))):
            x = spd_solve(lower, b)
            assert x.shape == b.shape
            assert np.array_equal(x, cho_solve((lower, True), b))
        assert np.array_equal(spd_solve(lower, np.eye(p)), cho_solve((lower, True), np.eye(p)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_rejects_nonfinite_right_hand_side(bad):
    lower = spd_factor(np.eye(3))
    for b in (np.ones(3), np.ones((3, 2))):
        b[1] = bad
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            spd_solve(lower, b)


def test_inverse_diagonal():
    lower = spd_factor(np.diag([2.0, 4.0]))
    assert np.allclose(spd_solve(lower, np.eye(2)), np.diag([0.5, 0.25]))


@pytest.mark.parametrize("seed", range(5))
def test_inverse_random_spd(seed):
    rng = np.random.default_rng(100 + seed)
    m = random_spd(rng, 8, cond=1e4)
    inv = spd_solve(spd_factor(m), np.eye(8))
    assert np.allclose(m @ inv, np.eye(8), atol=1e-8)
    assert np.max(np.abs(inv - inv.T)) < 1e-10
