"""Cholesky factor and solve for symmetric positive-definite matrices.

`spd_factor` returns the lower Cholesky factor as a plain array and
`spd_solve` solves with it.  Three callers factor: `gee.fit_gee` (the p x p
information, whose failure is `RankDeficient`), the unstructured template
shrink in `gee` and the simulator's latent correlation.  Each builds a
symmetric matrix, and `np.linalg.cholesky` reads only the lower triangle,
so neither shape nor symmetry is checked.  Two checks stay:

- a non-finite entry is a `ValueError`, not a factor of garbage;
- one retry with a jitter of 1e-10 of the mean diagonal, which decides
  `RankDeficient` for an information matrix on the edge of singular.

Working correlations are factored in `gee` without jitter.  `spd_solve`
calls LAPACK's `dpotrs`, the routine `scipy.linalg.cho_solve` calls, so
its results are bitwise `cho_solve`'s without the cost of scipy's wrapper.
"""

import numpy as np
from scipy.linalg.lapack import dpotrs

from .errors import NotPositiveDefinite

JITTER_SCALE = 1e-10


def spd_factor(m) -> np.ndarray:
    """Lower Cholesky factor L of a symmetric positive-definite matrix,
    L @ L.T == m; NotPositiveDefinite if the jittered retry fails too."""
    a = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    jitter = JITTER_SCALE * float(np.mean(np.diag(a)))
    try:
        return np.linalg.cholesky(a + jitter * np.eye(len(a)))
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("matrix is not positive definite") from None


def spd_solve(lower, b) -> np.ndarray:
    """Solve m @ x = b given m's lower Cholesky factor; a non-finite entry
    or a right-hand side of the wrong length is a ValueError, as in
    cho_solve."""
    x, _ = dpotrs(np.asarray_chkfinite(lower), np.asarray_chkfinite(b), lower=True)
    return x
