import math

import numpy as np
import pytest
from scipy.linalg import cho_solve

from geeclust.errors import DimensionMismatch, NotPositiveDefinite
from geeclust.linalg import spd_factor, spd_inverse, spd_solve, trace_of_product

from conftest import random_spd


def test_factor_identity():
    f = spd_factor(np.eye(3))
    assert np.allclose(f.lower, np.eye(3))


def test_factor_hand_example():
    f = spd_factor([[4.0, 2.0], [2.0, 3.0]])
    expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
    assert np.allclose(f.lower, expected, atol=1e-12)
    assert np.allclose(f.lower @ f.lower.T, [[4.0, 2.0], [2.0, 3.0]], rtol=1e-10)


def test_factor_indefinite_rejected():
    # eigenvalues 3 and -1: jitter cannot rescue this
    with pytest.raises(NotPositiveDefinite):
        spd_factor([[1.0, 2.0], [2.0, 1.0]])


def test_factor_requires_symmetry():
    with pytest.raises(NotPositiveDefinite):
        spd_factor([[1.0, 0.5], [0.0, 1.0]])


def test_factor_requires_square():
    with pytest.raises(DimensionMismatch):
        spd_factor(np.ones((2, 3)))


def test_factor_rejects_nonfinite():
    with pytest.raises(ValueError):
        spd_factor([[1.0, 0.0], [0.0, np.nan]])


def test_solve_identity_and_diagonal():
    f = spd_factor(np.eye(2))
    b = np.array([3.0, 7.0])
    assert np.allclose(spd_solve(f, b), b)
    f = spd_factor(np.diag([2.0, 4.0]))
    assert np.allclose(spd_solve(f, np.array([2.0, 4.0])), [1.0, 1.0])


def test_solve_dimension_mismatch():
    f = spd_factor(np.eye(3))
    with pytest.raises(DimensionMismatch):
        spd_solve(f, np.ones(4))


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
    calls the same routine, stays the reference."""
    rng = np.random.default_rng(200 + p)
    for _ in range(20):
        f = spd_factor(random_spd(rng, p, cond=10.0 ** rng.uniform(0, 6)))
        for b in (rng.standard_normal(p), rng.standard_normal((p, int(rng.integers(1, 5))))):
            x = spd_solve(f, b)
            assert x.shape == b.shape
            assert np.array_equal(x, cho_solve((f.lower, True), b))
        inv = cho_solve((f.lower, True), np.eye(p))
        assert np.array_equal(spd_inverse(f), (inv + inv.T) / 2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_rejects_nonfinite_right_hand_side(bad):
    f = spd_factor(np.eye(3))
    for b in (np.ones(3), np.ones((3, 2))):
        b[1] = bad
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            spd_solve(f, b)


def test_inverse_diagonal():
    f = spd_factor(np.diag([2.0, 4.0]))
    assert np.allclose(spd_inverse(f), np.diag([0.5, 0.25]))


@pytest.mark.parametrize("seed", range(5))
def test_inverse_random_spd(seed):
    rng = np.random.default_rng(100 + seed)
    m = random_spd(rng, 8, cond=1e4)
    inv = spd_inverse(spd_factor(m))
    assert np.allclose(m @ inv, np.eye(8), atol=1e-8)
    assert np.max(np.abs(inv - inv.T)) < 1e-10


def test_trace_of_product_examples():
    m = np.array([[2.0, 1.0], [1.0, 5.0]])
    assert trace_of_product(np.eye(2), m) == pytest.approx(np.trace(m))
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert trace_of_product(a, b) == pytest.approx(5.0)


@pytest.mark.parametrize("seed", range(5))
def test_trace_of_product_matches_matmul(seed):
    rng = np.random.default_rng(200 + seed)
    a = rng.standard_normal((4, 6))
    b = rng.standard_normal((6, 4))
    assert trace_of_product(a, b) == pytest.approx(np.trace(a @ b))


def test_trace_requires_square_product():
    with pytest.raises(DimensionMismatch):
        trace_of_product(np.ones((2, 3)), np.ones((3, 3)))
