"""Working-correlation GEE solver for clustered outcomes.

Fits marginal regression coefficients by modified Fisher scoring on the
clustered estimating equation

    sum_i D_i' V_i^{-1} (y_i - mu_i) = 0,   V_i = phi A_i^{1/2} R_i A_i^{1/2},

alternating a coefficient step with moment refreshes of the dispersion and
working-correlation parameters.  Six correlation patterns are supported:
independent, M-dependent, exchangeable, autoregressive AR-1, unstructured,
and a fixed user-supplied matrix.  Each is a class that realizes itself at
a cluster's occasions (`realize`), reports its parameters
(`alpha_estimates`) and, if it has any, re-estimates them by moments
(`estimate`).  Both the model-based covariance (inverse information) and
the robust sandwich covariance are produced; the sandwich stays consistent
under correlation misspecification as long as the mean model is right, so
reported standard errors use it.

Clusters are grouped by size once per fit.  Each size group is handled by
one stacked computation: the `(G, m, m)` stack of working covariances is
Cholesky-factored in a single batched call, `[D_i | y_i - mu_i]` is
whitened against the stacked factors in a single solve, and the
information, score and sandwich meat are reduced with `einsum`.  When the
batched factorization fails for a group (a working correlation on the SPD
boundary), that group's clusters are factored one at a time by
`linalg.spd_factor`, whose jitter retry rescues boundary matrices and whose
`NotPositiveDefinite` reports the ones it cannot.
"""

import warnings
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import glm
from .errors import (
    InvalidAlpha,
    NoConvergence,
    NoPairs,
    NotPositiveDefinite,
    NegativeVariance,
    PerfectSeparation,
    RankDeficient,
    SizeExceedsTemplate,
    UnderdeterminedLag,
)
from .linalg import spd_factor, spd_inverse, spd_solve

ALPHA_CLAMP = 0.99


def _check_alpha(value):
    a = float(value)
    if not -1.0 < a < 1.0:
        raise InvalidAlpha(f"correlation {a} outside (-1, 1)")
    return a


def _identity_stack(positions):
    size = positions.shape[-1]
    return np.broadcast_to(np.eye(size), positions.shape + (size,)).copy()


def _lags(positions):
    return np.abs(positions[..., :, None] - positions[..., None, :])


def _subset_template(template, positions):
    """The template's rows and columns at each cluster's occasions."""
    if np.max(positions) > len(template):
        raise SizeExceedsTemplate(
            f"occasion {int(np.max(positions))} exceeds template size {len(template)}"
        )
    index = positions - 1
    return template[index[..., :, None], index[..., None, :]]


@dataclass(frozen=True)
class Independent:
    kind = "independent"
    alpha_estimates = None

    def realize(self, positions):
        return _identity_stack(positions)


@dataclass(frozen=True)
class Exchangeable:
    """Constant correlation alpha between any two observations of a cluster."""

    alpha: float = 0.0

    kind = "exchangeable"

    def __post_init__(self):
        _check_alpha(self.alpha)

    @property
    def alpha_estimates(self):
        return self.alpha

    def realize(self, positions):
        size = positions.shape[-1]
        r = np.full(positions.shape + (size,), self.alpha)
        r[..., np.arange(size), np.arange(size)] = 1.0
        return r

    def estimate(self, resid, positions, sizes, phi, p, subtract_p):
        # segment sums run over the cluster offsets
        offsets = np.cumsum(sizes) - sizes
        sums = np.add.reduceat(resid, offsets)
        squares = np.add.reduceat(resid**2, offsets)
        num = float(np.sum(sums**2 - squares)) / 2.0
        n_pairs = int(np.sum(sizes * (sizes - 1) // 2))
        denom = n_pairs - p if subtract_p else n_pairs
        if denom <= 0:
            warnings.warn(
                "too few within-cluster pairs to subtract p; using raw pair count",
                UnderdeterminedLag, stacklevel=3)
            denom = n_pairs
        alpha = _clamp(num / (denom * phi))
        floor = -1.0 / (int(sizes.max()) - 1) + 1e-6
        return Exchangeable(max(alpha, floor))


@dataclass(frozen=True)
class MDependent:
    """Correlation alpha_s at occasion lag s, zero beyond lag m."""

    m: int = 2
    alphas: tuple = None

    kind = "mdependent"

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        alphas = self.alphas if self.alphas is not None else (0.0,) * self.m
        alphas = tuple(_check_alpha(a) for a in alphas)
        if len(alphas) != self.m:
            raise ValueError(f"need {self.m} lag correlations, got {len(alphas)}")
        object.__setattr__(self, "alphas", alphas)

    @property
    def alpha_estimates(self):
        return self.alphas

    def realize(self, positions):
        r = _identity_stack(positions)
        lag = _lags(positions)
        for s in range(1, self.m + 1):
            r[lag == s] = self.alphas[s - 1]
        return r

    def estimate(self, resid, positions, sizes, phi, p, subtract_p):
        pairs = _lag_pairs(resid, positions, sizes)
        alphas = tuple(
            _lag_moment(pairs, s, phi, p, subtract_p, f"lag {s}")
            for s in range(1, self.m + 1)
        )
        return MDependent(self.m, alphas)


@dataclass(frozen=True)
class AR1:
    """Correlation alpha^s at occasion lag s."""

    alpha: float = 0.0

    kind = "ar1"

    def __post_init__(self):
        _check_alpha(self.alpha)

    @property
    def alpha_estimates(self):
        return self.alpha

    def realize(self, positions):
        return np.asarray(self.alpha, dtype=float) ** _lags(positions)

    def estimate(self, resid, positions, sizes, phi, p, subtract_p):
        pairs = _lag_pairs(resid, positions, sizes)
        return AR1(_lag_moment(pairs, 1, phi, p, subtract_p, "lag 1"))


@dataclass(frozen=True)
class Unstructured:
    """Free symmetric unit-diagonal template over `size` occasions."""

    size: int
    alphas: np.ndarray = None

    kind = "unstructured"

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("template size must be >= 1")
        if self.alphas is None:
            a = np.eye(self.size)
        else:
            a = np.array(self.alphas, dtype=float)
        if a.shape != (self.size, self.size):
            raise ValueError(f"template must be {self.size}x{self.size}")
        if np.max(np.abs(a - a.T)) > 1e-12:
            raise ValueError("template must be symmetric")
        if np.max(np.abs(np.diag(a) - 1.0)) > 1e-12:
            raise ValueError("template diagonal must be 1")
        off = a[~np.eye(self.size, dtype=bool)]
        if off.size and (np.min(off) <= -1.0 or np.max(off) >= 1.0):
            raise InvalidAlpha("off-diagonal entries must lie in (-1, 1)")
        a.setflags(write=False)
        object.__setattr__(self, "alphas", a)

    @property
    def alpha_estimates(self):
        return self.alphas

    def realize(self, positions):
        return _subset_template(self.alphas, positions)

    def estimate(self, resid, positions, sizes, phi, p, subtract_p):
        # occasion-indexed residual layout: products of zeros drop the
        # clusters that miss either occasion, giving available-pairs sums
        t = self.size
        cluster = np.repeat(np.arange(len(sizes)), sizes)
        z = np.zeros((len(sizes), t))
        mask = np.zeros((len(sizes), t))
        z[cluster, positions - 1] = resid
        mask[cluster, positions - 1] = 1.0
        cross = z.T @ z
        counts = mask.T @ mask
        off = ~np.eye(t, dtype=bool)
        never = off & (counts == 0)
        denom = counts - p if subtract_p else counts.copy()
        weak = off & (counts > 0) & (denom <= 0)
        if never.any():
            warnings.warn(
                f"{int(never.sum() // 2)} occasion pairs are never observed "
                "together; entries set to 0", UnderdeterminedLag, stacklevel=3)
        if weak.any():
            warnings.warn(
                f"{int(weak.sum() // 2)} occasion pairs have too few clusters "
                "to subtract p; using raw counts", UnderdeterminedLag,
                stacklevel=3)
            denom[weak] = counts[weak]
        template = np.eye(t)
        usable = off & (counts > 0)
        template[usable] = np.clip(
            cross[usable] / (denom[usable] * phi), -ALPHA_CLAMP, ALPHA_CLAMP
        )
        template, lam = _ensure_pd_template(template)
        if lam < 1.0:
            warnings.warn(
                f"unstructured template shrunk toward identity (factor {lam:.3f}) "
                "to stay positive definite",
                UnderdeterminedLag, stacklevel=3)
        return Unstructured(t, template)


@dataclass(frozen=True)
class Fixed:
    """User-supplied working correlation; must be SPD with unit diagonal."""

    matrix: np.ndarray

    kind = "fixed"

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("fixed correlation must be square")
        if np.max(np.abs(np.diag(m) - 1.0)) > 1e-12:
            raise ValueError("fixed correlation diagonal must be 1")
        spd_factor(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def alpha_estimates(self):
        return self.matrix

    def realize(self, positions):
        return _subset_template(self.matrix, positions)


# the structures in canonical listing order
STRUCTURE_CLASSES = (Independent, MDependent, Exchangeable, AR1, Unstructured, Fixed)
CorrelationStructure = Union[STRUCTURE_CLASSES]


def _check_structure(cs):
    if not hasattr(cs, "realize"):
        raise TypeError(f"unknown correlation structure {cs!r}")


def realize_correlation(cs, size, positions=None) -> np.ndarray:
    """Materialize the working correlation for one cluster or a stack of them.

    `positions` are occasion indices (1-based), of shape `(size,)` for one
    cluster or `(G, size)` for G clusters of the same size; they default to
    1..size.  Lags for the serial structures are occasion differences, and
    the unstructured/fixed templates are subset at those occasions.  The
    result has shape `positions.shape + (size,)`.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if positions is None:
        positions = np.arange(1, size + 1)
    else:
        positions = np.asarray(positions, dtype=int)
        if positions.ndim not in (1, 2) or positions.shape[-1] != size:
            raise ValueError("positions must have length `size`")
    _check_structure(cs)
    return cs.realize(positions)


def estimate_phi(residuals, n_total, p, fix_to_one=False) -> float:
    """Moment estimate of the dispersion: sum r^2 / (n_total - p)."""
    if fix_to_one:
        return 1.0
    residuals = np.asarray(residuals, dtype=float)
    return float(np.sum(residuals**2) / (n_total - p))


def _clamp(a):
    return float(np.clip(a, -ALPHA_CLAMP, ALPHA_CLAMP))


def _lag_pairs(resid, positions, sizes):
    """Occasion lag and residual product of every within-cluster pair."""
    cluster = np.repeat(np.arange(len(sizes)), sizes)
    lags, products = [], []
    for d in range(1, int(sizes.max())):
        same = cluster[d:] == cluster[:-d]
        lags.append(np.abs(positions[d:] - positions[:-d])[same])
        products.append((resid[:-d] * resid[d:])[same])
    return np.concatenate(lags), np.concatenate(products)


def _lag_moment(pairs, s, phi, p, subtract_p, label):
    """Average residual cross-products at occasion lag ``s``."""
    lags, products = pairs
    hit = lags == s
    count = int(np.count_nonzero(hit))
    if count == 0:
        warnings.warn(f"no residual pairs at {label}; estimate set to 0",
                      UnderdeterminedLag, stacklevel=4)
        return 0.0
    num = float(np.sum(products[hit]))
    denom = count - p if subtract_p else count
    if denom <= 0:
        warnings.warn(
            f"too few pairs at {label} to subtract p; using raw pair count",
            UnderdeterminedLag, stacklevel=4)
        denom = count
    return _clamp(num / (denom * phi))


def _ensure_pd_template(template):
    """Shrink a correlation template toward identity until it is PD.

    Available-pairs moment estimates of an unstructured template need not be
    positive definite when some occasion pairs are observed in few clusters;
    shrinking the off-diagonal block preserves the unit diagonal and
    symmetry while restoring definiteness (every principal submatrix of a PD
    matrix is PD, so realized per-cluster blocks stay usable).
    """
    t = template.shape[0]
    lam = 1.0
    candidate = template
    for _ in range(120):
        try:
            spd_factor(candidate)
            return candidate, lam
        except NotPositiveDefinite:
            lam *= 0.95
            candidate = lam * template + (1.0 - lam) * np.eye(t)
    raise NotPositiveDefinite("unstructured template cannot be made PD")


def estimate_alpha(cs, residuals, positions, sizes, phi, p, subtract_p=True):
    """Moment re-estimate of the working-correlation parameters.

    Parameters
    ----------
    cs : CorrelationStructure
        Current structure; fixes the kind (and template size / lag depth)
        of the estimate.
    residuals, positions : array_like
        Standardized Pearson residuals and their occasion indices, cluster
        after cluster in one flat vector each.
    sizes : array_like of int
        Rows per cluster, in the same order; they sum to len(residuals).
    phi : float
        Current dispersion estimate.
    p : int
        Number of regression parameters, subtracted from the pair count in
        the denominator unless `subtract_p` is False.

    Returns
    -------
    CorrelationStructure
        New instance of the same kind; estimates are clamped to
        [-0.99, 0.99], and the exchangeable estimate is additionally floored
        at -1/(max cluster size - 1) to keep realized matrices SPD.
        Independent and fixed structures have no parameters and come back
        unchanged.
    """
    _check_structure(cs)
    if not hasattr(cs, "estimate"):
        return cs
    sizes = np.asarray(sizes, dtype=int)
    sizes = sizes[sizes > 0]
    if not np.any(sizes > 1):
        raise NoPairs("every cluster has a single row; no pairs to average")
    resid = np.asarray(residuals, dtype=float)
    positions = np.asarray(positions, dtype=int)
    if len(resid) != len(positions) or len(resid) != sizes.sum():
        raise ValueError(
            f"{len(resid)} residuals and {len(positions)} positions for "
            f"clusters of {int(sizes.sum())} rows")
    return cs.estimate(resid, positions, sizes, phi, p, subtract_p)


@dataclass(frozen=True)
class GeeOptions:
    """Solver options.

    fix_phi=None keeps the dispersion at 1 for binomial responses and
    estimates it otherwise; update_alpha=False freezes the correlation
    parameters at their supplied values (used for fixed-alpha fits and
    oracle comparisons).
    """

    tol: float = 1e-8
    max_iter: int = 60
    fix_phi: Optional[bool] = None
    update_alpha: bool = True
    subtract_p: bool = True


@dataclass(frozen=True)
class GeeFit:
    """Converged (or partial) GEE solution."""

    beta: np.ndarray
    structure: CorrelationStructure
    phi: float
    cov_model_based: np.ndarray
    cov_robust: np.ndarray
    quasi_likelihood_independence: float
    iterations: int
    converged: bool
    column_labels: tuple = field(default_factory=tuple)

    @property
    def alpha_estimates(self):
        """The structure's parameters: None, a float, the lag correlations
        or the template matrix."""
        return self.structure.alpha_estimates


def _factor_stack(v):
    """Lower Cholesky factors of a `(G, m, m)` stack of working covariances.

    One batched factorization serves the usual case.  If it fails, the
    clusters are factored one at a time by `spd_factor`, which applies its
    jitter retry to boundary matrices and raises NotPositiveDefinite (or
    ValueError for non-finite entries) for the rest.
    """
    if np.all(np.isfinite(v)):
        try:
            return np.linalg.cholesky(v)
        except np.linalg.LinAlgError:
            pass
    return np.stack([spd_factor(v_i).lower for v_i in v])


def independence_information(x, ds, f, beta, phi=1.0) -> np.ndarray:
    """Information matrix under working independence, (1/phi) sum D'A^{-1}D.

    Evaluated at `beta`; used as the penalty weight inside QIC.
    """
    values = np.asarray(getattr(x, "values", x), dtype=float)
    mu = glm.link_inverse(f, values @ np.asarray(beta, dtype=float))
    w = glm.mean_derivative(f, mu) ** 2 / glm.variance_fn(f, mu)
    return (values.T @ (values * w[:, None])) / phi


def fit_gee(x, ds, f, cs, options: GeeOptions = None) -> GeeFit:
    """Fit a marginal model by modified Fisher scoring.

    Parameters
    ----------
    x : DesignMatrix
        Row-aligned with `ds` (clusters in order, rows in cluster order).
    ds : ClusteredDataset
        Supplies the response, cluster boundaries, and occasion indices.
    f : Family
        Distribution/link pair.
    cs : CorrelationStructure
        Working-correlation choice; parameters are re-estimated by moments
        each iteration unless options.update_alpha is False.

    Returns
    -------
    GeeFit
        With both covariance estimates: model-based
        [sum D'V^{-1}D]^{-1} and the robust sandwich M^{-1} B M^{-1}.

    Raises
    ------
    NoConvergence
        When the coefficient step never drops below options.tol; the
        exception carries the partial fit in its `fit` attribute.
    """
    opts = options or GeeOptions()
    values = np.asarray(getattr(x, "values", x), dtype=float)
    labels = tuple(getattr(x, "column_labels", ()))
    y = ds.response_vector()
    n, p = values.shape
    if n != ds.n_total:
        raise ValueError(f"design has {n} rows but dataset has {ds.n_total}")
    if np.linalg.matrix_rank(values) < p:
        raise RankDeficient("design matrix is rank deficient")
    sizes, starts, positions = ds.sizes, ds.starts, ds.positions
    groups = []   # per cluster size m: (G, m) row gather and its gathered data
    for m in np.unique(sizes):
        rows = starts[sizes == m][:, None] + np.arange(m)
        groups.append((rows, positions[rows], values[rows], y[rows]))
    fix_phi = opts.fix_phi if opts.fix_phi is not None else f.distribution == "binomial"

    try:
        beta = glm.irls_fit(values, y, f).beta.copy()
    except NoConvergence as exc:
        beta = exc.fit.beta.copy()

    def moments(beta):
        mu = glm.link_inverse(f, values @ beta)
        resid = (y - mu) / np.sqrt(glm.variance_fn(f, mu))
        return mu, resid

    def refresh(cs, beta):
        mu, resid = moments(beta)
        phi = estimate_phi(resid, n, p, fix_to_one=fix_phi)
        if opts.update_alpha and hasattr(cs, "estimate"):
            try:
                cs = estimate_alpha(cs, resid, positions, sizes, phi, p,
                                    subtract_p=opts.subtract_p)
            except NoPairs:
                warnings.warn(
                    "all clusters are singletons; correlation parameters kept",
                    UnderdeterminedLag, stacklevel=2)
        return cs, phi

    def assemble(beta, cs, phi):
        """Information M, score s and sandwich meat B, one pass per size group."""
        mu = glm.link_inverse(f, values @ beta)
        if f.distribution == "binomial":
            boundary = np.any(mu <= glm.BOUNDARY_EPS) or np.any(mu >= 1.0 - glm.BOUNDARY_EPS)
        else:
            boundary = False
        a = glm.variance_fn(f, mu)
        if np.any(a == 0.0):
            raise PerfectSeparation(
                "a fitted mean sits exactly on the boundary; the working "
                "covariance is singular"
            )
        dmu = glm.mean_derivative(f, mu)
        info = np.zeros((p, p))
        score = np.zeros(p)
        meat = np.zeros((p, p))
        for rows, pos, x_g, y_g in groups:
            s_g = np.sqrt(a[rows])
            r_g = realize_correlation(cs, rows.shape[1], pos)
            v_g = phi * (s_g[:, :, None] * s_g[:, None, :]) * r_g
            lower = _factor_stack(v_g)
            # whiten [D_i | y_i - mu_i] by L_i, so D'V^-1 D = W_d'W_d
            rhs = np.concatenate(
                (dmu[rows][:, :, None] * x_g, (y_g - mu[rows])[:, :, None]), axis=2)
            w = np.linalg.solve(lower, rhs)
            w_d, w_r = w[:, :, :p], w[:, :, p]
            info += np.einsum("gki,gkj->ij", w_d, w_d)
            g = np.einsum("gki,gk->gi", w_d, w_r)
            score += g.sum(axis=0)
            meat += g.T @ g
        return info, score, meat, boundary

    cs_current, phi = refresh(cs, beta)
    converged = False
    iterations = 0
    for iterations in range(1, opts.max_iter + 1):
        info, score, _, boundary = assemble(beta, cs_current, phi)
        try:
            delta = spd_solve(spd_factor(info), score)
        except NotPositiveDefinite:
            raise RankDeficient("GEE information matrix is not positive definite") from None
        beta = beta + delta
        step = float(np.max(np.abs(delta)))
        if boundary and step >= opts.tol:
            raise PerfectSeparation(
                "fitted probabilities pinned at 0/1 before the step converged"
            )
        cs_current, phi = refresh(cs_current, beta)
        if step < opts.tol:
            converged = True
            break

    info, _, meat, _ = assemble(beta, cs_current, phi)
    minv = spd_inverse(spd_factor(info))
    cov_robust = minv @ meat @ minv
    cov_robust = (cov_robust + cov_robust.T) / 2.0
    fit = GeeFit(
        beta=beta,
        structure=cs_current,
        phi=phi,
        cov_model_based=minv,
        cov_robust=cov_robust,
        quasi_likelihood_independence=glm.quasi_likelihood(values, beta, y, f),
        iterations=iterations,
        converged=converged,
        column_labels=labels,
    )
    if not converged:
        raise NoConvergence(
            f"GEE did not converge in {opts.max_iter} iterations", fit=fit
        )
    return fit


def robust_se(fit: GeeFit) -> np.ndarray:
    """Standard errors: square roots of the sandwich-covariance diagonal."""
    diag = np.diag(fit.cov_robust).copy()
    if np.any(diag < -1e-10):
        raise NegativeVariance(f"negative variance on the diagonal: {diag.min()}")
    return np.sqrt(np.clip(diag, 0.0, None))
