"""Exponential-family plumbing and the independence-model IRLS fitter.

Supports the three distribution/link pairs the clustered-outcome workflow
needs: normal/identity, binomial/logit, and poisson/log.  The IRLS fit both
stands on its own (it solves the independence score equation) and supplies
starting values plus the independence quasi-likelihood used by QIC.

`irls_fit` checks the design rank once per fit and maps each coefficient
vector it visits to the mean once; the GEE start reuses that mean.  A mean
is checked through its range: one smallest/largest pair (`_mean_range`)
serves the domain check and the binomial boundary test, with the same
outcome as an elementwise test of every entry.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, xlogy

from .errors import DomainError, NoConvergence, PerfectSeparation, RankDeficient

SUPPORTED_PAIRS = {
    ("normal", "identity"),
    ("binomial", "logit"),
    ("poisson", "log"),
}

BOUNDARY_EPS = 1e-10
SQRT_FLOAT_MAX = float(np.sqrt(np.finfo(float).max))  # larger floats square to inf


@dataclass(frozen=True)
class Family:
    """Distribution plus canonical link.

    Only normal+identity, binomial+logit, and poisson+log are accepted;
    other combinations raise ValueError.
    """

    distribution: str
    link: str

    def __post_init__(self):
        if (self.distribution, self.link) not in SUPPORTED_PAIRS:
            raise ValueError(
                f"unsupported family: {self.distribution}+{self.link}; "
                f"supported pairs are {sorted(SUPPORTED_PAIRS)}"
            )


def _mean_range(mu):
    """The smallest and largest entries of a mean array, NaNs skipped.

    `lo <= c` holds exactly when `(mu <= c).any()` does, and `hi >= c`
    exactly when `(mu >= c).any()`, empty and all-NaN arrays included, so
    one pair serves every domain and boundary test on the mean.
    """
    return (np.fmin.reduce(mu, axis=None, initial=np.inf),
            np.fmax.reduce(mu, axis=None, initial=-np.inf))


def _check_mean_range(f: Family, lo, hi):
    """Raise DomainError unless a mean with range [lo, hi] lies in the
    family's mean space."""
    if f.distribution == "binomial":
        if lo <= 0.0 or hi >= 1.0:
            raise DomainError("binomial mean must lie strictly in (0, 1)")
    elif f.distribution == "poisson":
        if lo <= 0.0:
            raise DomainError("poisson mean must be positive")


def _check_mean_space(f: Family, mu):
    mu = np.asarray(mu, dtype=float)
    _check_mean_range(f, *_mean_range(mu))
    return mu


def link_eval(f: Family, mu):
    """Map a mean to the linear-predictor scale."""
    mu = _check_mean_space(f, mu)
    if f.link == "identity":
        return mu
    if f.link == "logit":
        return np.log(mu / (1.0 - mu))
    return np.log(mu)


def link_inverse(f: Family, eta):
    """Map a linear predictor back to the mean scale."""
    eta = np.asarray(eta, dtype=float)
    if f.link == "identity":
        return eta
    if f.link == "logit":
        return expit(eta)
    return np.exp(eta)


def variance_fn(f: Family, mu):
    """Variance function: normal -> 1, binomial -> mu(1-mu), poisson -> mu."""
    return _variance(f, _check_mean_space(f, mu))


def _variance(f: Family, mu):
    """`variance_fn` at a float array whose range has been checked."""
    if f.distribution == "normal":
        return np.ones_like(mu)
    if f.distribution == "binomial":
        return mu * (1.0 - mu)
    return mu


def quasi_likelihood(x, beta, y, f: Family) -> float:
    """Quasi-likelihood of a fitted mean under working independence.

    binomial (scale 1): sum[y ln mu + (1-y) ln(1-mu)]
    poisson:            sum[y ln mu - mu]
    normal:             -sum (y-mu)^2 / 2

    Boundary means are tolerated when the response sits on the same side
    (0*ln 0 evaluates to 0), so the saturated-fit limit returns 0 for
    binomial data.
    """
    values = np.asarray(getattr(x, "values", x), dtype=float)
    mu = link_inverse(f, values @ np.asarray(beta, dtype=float))
    return _quasi_likelihood(mu, np.asarray(y, dtype=float), f)


def _quasi_likelihood(mu, y, f: Family) -> float:
    """`quasi_likelihood` at a mean from `link_inverse`, which lies in
    [0, 1] (binomial) or [0, inf] (poisson), so it needs no domain check."""
    if f.distribution == "binomial":
        return float((xlogy(y, mu) + xlogy(1.0 - y, 1.0 - mu)).sum())
    if f.distribution == "poisson":
        return float((xlogy(y, mu) - mu).sum())
    return float(-0.5 * ((y - mu) ** 2).sum())


@dataclass(frozen=True)
class IrlsFit:
    """Independence-model fit: coefficients, fitted mean, convergence record."""

    beta: np.ndarray
    iterations: int
    converged: bool
    objective: float
    objective_path: tuple
    mu: np.ndarray


def _start_beta(y, f: Family, p: int) -> np.ndarray:
    beta = np.zeros(p)
    ybar = float(np.mean(y))
    if f.distribution == "binomial":
        ybar = min(max(ybar, 1e-4), 1.0 - 1e-4)
    elif f.distribution == "poisson":
        ybar = max(ybar, 1e-4)
    beta[0] = float(link_eval(f, ybar))
    return beta


def irls_fit(x, y, f: Family, tol: float = 1e-10, max_iter: int = 100) -> IrlsFit:
    """Fit the independence score equation by iteratively reweighted LS.

    Parameters
    ----------
    x : DesignMatrix or (n, p) array
        Full-column-rank design, intercept first.
    y : (n,) array
        Response (one trial per row for binomial).
    tol : float
        Convergence threshold on the infinity norm of the score.
    max_iter : int
        Iteration cap; exceeding it raises NoConvergence carrying the
        partial fit.

    Returns
    -------
    IrlsFit
        Coefficients solving sum x_i (y_i - mu_i) = 0 within `tol`, the
        mean at them and the per-iteration quasi-likelihood path.
    """
    values = np.asarray(getattr(x, "values", x), dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = values.shape
    if n < p:
        raise RankDeficient(f"need at least p={p} rows, got {n}")
    if np.linalg.matrix_rank(values) < p:
        raise RankDeficient("design matrix is rank deficient")

    beta = _start_beta(y, f, p)
    mu = link_inverse(f, values @ beta)
    q = _quasi_likelihood(mu, y, f)
    path = [q]
    iterations = 0
    for iterations in range(1, max_iter + 1):
        score = values.T @ (y - mu)
        if float(np.abs(score).max()) < tol:
            return IrlsFit(beta, iterations - 1, True, q, tuple(path), mu)
        lo, hi = _mean_range(mu)
        if f.distribution == "binomial" and (lo <= BOUNDARY_EPS or hi >= 1.0 - BOUNDARY_EPS):
            raise PerfectSeparation(
                "fitted probabilities pinned at 0/1 before the score converged"
            )
        _check_mean_range(f, lo, hi)
        # the canonical link's d mu / d eta is V(mu): the weight is d^2 / V,
        # finite exactly when V is at most SQRT_FLOAT_MAX (checked first: no warning)
        var = _variance(f, mu)
        if not var.max() <= SQRT_FLOAT_MAX:
            raise DomainError(f"{f.distribution} mean overflowed: the largest fitted "
                              f"mean, {mu.max():.6g}, gives a non-finite IRLS weight")
        w = var**2 / var
        info = values.T @ (values * w[:, None])
        try:
            delta = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            raise RankDeficient("weighted information matrix is singular") from None
        # step-halve until the quasi-likelihood stops decreasing; after ten
        # failed halvings take the last, shortest step anyway
        step = 1.0
        for halvings in range(11):
            candidate = beta + step * delta
            mu_new = link_inverse(f, values @ candidate)
            q_new = _quasi_likelihood(mu_new, y, f)
            if q_new >= q - 1e-12 or halvings == 10:
                break
            step /= 2.0
        beta, mu, q = candidate, mu_new, q_new
        path.append(q)
    partial = IrlsFit(beta, iterations, False, q, tuple(path), mu)
    raise NoConvergence(f"IRLS did not converge in {max_iter} iterations", fit=partial)
