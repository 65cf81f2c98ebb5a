"""Dense SPD kernels for the estimating-equation solver.

Cholesky is the only factorization offered.  `spd_factor` retries once with
a jitter of 1e-10 of the mean diagonal before it gives up.  Three callers
use it: the GEE information matrix (a failure there is `RankDeficient`),
the unstructured template shrink and the simulator's latent correlation.
Working correlations are factored in `gee` without jitter.  `spd_solve`
calls LAPACK's `dpotrs` directly, the routine `scipy.linalg.cho_solve`
calls, so its results are bitwise `cho_solve`'s without the cost of
scipy's wrapper.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrs

from .errors import DimensionMismatch, NotPositiveDefinite

SYMMETRY_RTOL = 1e-10
JITTER_SCALE = 1e-10


def _as_matrix(m, name="matrix"):
    a = np.asarray(m, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-dimensional, got {a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor L with L @ L.T equal to the original matrix."""

    lower: np.ndarray

    @property
    def n(self):
        return self.lower.shape[0]


def spd_factor(m) -> CholeskyFactor:
    """Cholesky-factor a symmetric positive-definite matrix.

    Symmetry is required up to 1e-10 relative tolerance.  On a failed
    factorization one jitter retry is made; if that also fails,
    NotPositiveDefinite is raised.
    """
    a = _as_matrix(m)
    n, k = a.shape
    if n != k:
        raise DimensionMismatch(f"expected square matrix, got {n}x{k}")
    scale = max(1.0, float(np.max(np.abs(a))))
    if np.max(np.abs(a - a.T)) > SYMMETRY_RTOL * scale:
        raise NotPositiveDefinite("matrix is not symmetric")
    try:
        return CholeskyFactor(np.linalg.cholesky(a))
    except np.linalg.LinAlgError:
        pass
    jitter = JITTER_SCALE * float(np.mean(np.diag(a)))
    try:
        return CholeskyFactor(np.linalg.cholesky(a + jitter * np.eye(n)))
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("matrix is not positive definite") from None


def spd_solve(f: CholeskyFactor, b) -> np.ndarray:
    """Solve m @ x = b given the Cholesky factor of m."""
    rhs = np.asarray(b, dtype=float)
    vector = rhs.ndim == 1
    if vector:
        rhs = rhs[:, None]
    if rhs.shape[0] != f.n:
        raise DimensionMismatch(
            f"factor is {f.n}x{f.n} but right-hand side has {rhs.shape[0]} rows"
        )
    # dpotrs is the LAPACK routine scipy.linalg.cho_solve calls; like it,
    # a non-finite entry is a ValueError
    rhs = np.asarray_chkfinite(rhs)
    x, _ = dpotrs(np.asarray_chkfinite(f.lower), rhs, lower=True)
    return x[:, 0] if vector else x


def spd_inverse(f: CholeskyFactor) -> np.ndarray:
    """Inverse of the factored matrix, symmetrized against roundoff."""
    inv = spd_solve(f, np.eye(f.n))
    return (inv + inv.T) / 2.0


def trace_of_product(a, b) -> float:
    """trace(a @ b) without forming the product: sum_ij a_ij * b_ji."""
    am = _as_matrix(a, "a")
    bm = _as_matrix(b, "b")
    if am.shape[1] != bm.shape[0] or am.shape[0] != bm.shape[1]:
        raise DimensionMismatch(
            f"trace requires a @ b square, got {am.shape} and {bm.shape}"
        )
    return float(np.einsum("ij,ji->", am, bm))
