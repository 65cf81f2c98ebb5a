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

Each scoring step works on the whitened rows `z = A^{-1/2} D` and
`e = A^{-1/2} (y - mu)`, so that `D_i' V_i^{-1} D_i = z_i' R_i^{-1} z_i / phi`.
Every structure turns them into the information and one score row per
cluster (`cluster_sums`); the sandwich meat is the cross-product of those
rows.  Three structures use closed-form inverses and never build a matrix
per cluster: independence (`R_i = I`), exchangeable by Sherman-Morrison,
`R_i^{-1} = (I - c_i J) / (1 - alpha)` with `c_i = alpha / (1 - alpha + m_i
alpha)`, and AR-1, whose inverse on gapped occasions is tridiagonal with
`rho_k = alpha^(t_{k+1} - t_k)` on each neighbour link (Liang & Zeger 1986).
M-dependent, unstructured and fixed realize the `(G, m, m)` stack of `R_i`
for each cluster size, Cholesky-factor it in one batched call, and whiten
`[z_i | e_i]` against the stacked factors in one solve.  A stack that does
not factor is an error naming the structure and a cluster whose working
correlation fails; no jitter is added.

`fit_gee` leaves the design-rank check to `glm.irls_fit`, and it evaluates
the mean, its variance and the whitened residuals once per iterate.  Each
mean is checked once, through its smallest and largest entries, for both
the domain error and the binomial boundary.  What depends on the clusters
alone (their first rows, the pair count, the largest cluster, whether any
cluster has two rows, the within-cluster pair rows) is computed once per
fit on `_ClusterLayout`, which every structure's `estimate(resid, layout,
phi, p, subtract_p)` reads; `fit_gee` calls it directly, and
`estimate_alpha` is the public entry that checks its arguments first.  The
sandwich meat is formed once, after the scoring loop.

An estimated dispersion phi = sum r^2 / (n - p) scales every moment and the
information, so `fit_gee` stops with `UndefinedDispersion` when it has no
meaning: n <= p leaves no residual degree of freedom, phi = 0 means the fit
reproduces the response exactly, and a phi that is not finite comes from a
diverging iterate.  A phi fixed at 1 (binomial, or `fix_phi=True`) is never
checked.
"""

import warnings
from dataclasses import dataclass, field
from functools import cached_property
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
    UndefinedDispersion,
    UnderdeterminedLag,
)
from .linalg import spd_factor, spd_solve

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


@dataclass
class _ClusterLayout:
    """Ids, sizes and first rows of the clusters; every row's occasion.

    What depends on the layout alone is computed on first use and kept, so
    a fit pays for it once rather than at every moment refresh.
    """

    ids: tuple
    sizes: np.ndarray
    starts: np.ndarray
    positions: np.ndarray

    @cached_property
    def largest(self):
        return int(self.sizes.max())

    @cached_property
    def has_pairs(self):
        """Whether any cluster has two rows; without one no moment exists."""
        return bool(np.any(self.sizes > 1))

    @cached_property
    def n_pairs(self):
        return int(np.sum(self.sizes * (self.sizes - 1) // 2))

    @cached_property
    def cluster(self):
        """Each row's cluster index."""
        return np.repeat(np.arange(len(self.sizes)), self.sizes)

    @cached_property
    def _pair_rows(self):
        """Occasion lag, first row and second row of every within-cluster
        pair, by row distance and then by first row."""
        lags, first, second = [], [], []
        for d in range(1, self.largest):
            rows = np.flatnonzero(self.cluster[d:] == self.cluster[:-d])
            lags.append(np.abs(self.positions[rows + d] - self.positions[rows]))
            first.append(rows)
            second.append(rows + d)
        return np.concatenate(lags), np.concatenate(first), np.concatenate(second)

    def lag_pairs(self, resid):
        """Occasion lag and residual product of every within-cluster pair."""
        lags, first, second = self._pair_rows
        return lags, resid[first] * resid[second]

    @cached_property
    def neighbour_links(self):
        """Whether each row and the next share a cluster, and the occasion
        gap of each pair that does."""
        link = np.ones(len(self.positions) - 1, dtype=bool)
        link[self.starts[1:] - 1] = False    # no link across clusters
        return link, np.diff(self.positions)[link]

    @cached_property
    def size_groups(self):
        """Per cluster size m: the clusters of that size, their `(G, m)` row
        gather and its occasions.  Built on first use, once per fit."""
        groups = []
        for m in np.unique(self.sizes):
            members = np.flatnonzero(self.sizes == m)
            rows = self.starts[members][:, None] + np.arange(m)
            groups.append((members, rows, self.positions[rows]))
        return groups


def _not_factored(cs, r, positions, ids):
    """NotPositiveDefinite naming the structure and, of a size group whose
    stack does not factor, the first cluster with the smallest eigenvalue."""
    k = int(np.argmin(np.linalg.eigvalsh(r)[:, 0]))
    params = (f"lag correlations {', '.join(f'{a:.6g}' for a in cs.alphas)}"
              if isinstance(cs, MDependent) else f"template size {cs.size}")
    return NotPositiveDefinite(
        f"{cs.kind} working correlation ({params}) is not positive definite at "
        f"cluster {ids[k]!r}, occasions {', '.join(map(str, positions[k].tolist()))}")


def _cholesky_sums(cs, z, e, layout, phi):
    """Information and per-cluster scores through realized, factored R_i.

    The structures without a closed-form inverse share this: each size
    group's `R_i` stack is factored in one batched call and `[z_i | e_i]` is
    whitened against it in one solve, so `z_i' R_i^{-1} z_i = W_z' W_z`.
    """
    p = z.shape[1]
    info = np.zeros((p, p))
    g = np.empty((len(layout.sizes), p))
    for members, rows, pos in layout.size_groups:
        r = realize_correlation(cs, rows.shape[1], pos)
        try:
            lower = np.linalg.cholesky(r)
        except np.linalg.LinAlgError:
            raise _not_factored(cs, r, pos, [layout.ids[i] for i in members]) from None
        w = np.linalg.solve(lower, np.concatenate((z[rows], e[rows][:, :, None]), axis=2))
        w_z, w_e = w[:, :, :p], w[:, :, p]
        info += np.einsum("gki,gkj->ij", w_z, w_z)
        g[members] = np.einsum("gki,gk->gi", w_z, w_e)
    return info / phi, g / phi


@dataclass(frozen=True)
class Independent:
    kind = "independent"
    alpha_estimates = None

    def realize(self, positions):
        return _identity_stack(positions)

    def cluster_sums(self, z, e, layout, phi):
        """Information z'z / phi and the per-cluster score rows z_i'e_i / phi."""
        return z.T @ z / phi, np.add.reduceat(z * e[:, None], layout.starts) / phi


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

    def cluster_sums(self, z, e, layout, phi):
        """Sherman-Morrison: R_i^{-1} = (I - c_i J) / (1 - alpha)."""
        a = self.alpha
        # 1 + (m - 1) alpha is the smallest eigenvalue of R_i when alpha < 0
        lowest = 1.0 - a + layout.sizes * a
        if np.any(lowest <= 0.0):
            raise NotPositiveDefinite(
                f"exchangeable working correlation {a} is not positive definite "
                f"for clusters of {int(layout.sizes.max())} rows")
        c = a / lowest
        z_sum = np.add.reduceat(z, layout.starts)
        e_sum = np.add.reduceat(e, layout.starts)
        scale = (1.0 - a) * phi
        info = (z.T @ z - (z_sum * c[:, None]).T @ z_sum) / scale
        g = np.add.reduceat(z * e[:, None], layout.starts) - z_sum * (c * e_sum)[:, None]
        return info, g / scale

    def estimate(self, resid, layout, phi, p, subtract_p):
        sums = np.add.reduceat(resid, layout.starts)
        squares = np.add.reduceat(resid**2, layout.starts)
        num = float(np.sum(sums**2 - squares)) / 2.0
        n_pairs = layout.n_pairs
        denom = n_pairs - p if subtract_p else n_pairs
        if denom <= 0:
            warnings.warn(
                "too few within-cluster pairs to subtract p; using raw pair count",
                UnderdeterminedLag, stacklevel=3)
            denom = n_pairs
        alpha = _clamp(num / (denom * phi))
        floor = -1.0 / (layout.largest - 1) + 1e-6
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

    cluster_sums = _cholesky_sums

    def estimate(self, resid, layout, phi, p, subtract_p):
        pairs = layout.lag_pairs(resid)
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

    def cluster_sums(self, z, e, layout, phi):
        """R^{-1} is tridiagonal: with rho_k = alpha^(t_{k+1} - t_k) on each
        neighbour link and q = rho^2 / (1 - rho^2), its diagonal is
        1 + q_{k-1} + q_k and its off-diagonal -rho_k / (1 - rho_k^2)."""
        link, gaps = layout.neighbour_links
        rho = np.zeros(len(e) - 1)
        rho[link] = self.alpha ** gaps
        q = rho**2 / (1.0 - rho**2)
        off = -rho / (1.0 - rho**2)
        diag = 1.0 + np.concatenate(([0.0], q)) + np.concatenate((q, [0.0]))
        # R^{-1} [z | e], link by link
        w = np.column_stack((z, e))
        rw = diag[:, None] * w
        rw[:-1] += off[:, None] * w[1:]
        rw[1:] += off[:, None] * w[:-1]
        p = z.shape[1]
        return z.T @ rw[:, :p] / phi, np.add.reduceat(z * rw[:, p:], layout.starts) / phi

    def estimate(self, resid, layout, phi, p, subtract_p):
        pairs = layout.lag_pairs(resid)
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
        if not np.all(np.isfinite(a)):
            raise ValueError("template has non-finite entries")
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

    cluster_sums = _cholesky_sums

    def estimate(self, resid, layout, phi, p, subtract_p):
        # occasion-indexed residual layout: products of zeros drop the
        # clusters that miss either occasion, giving available-pairs sums
        t = self.size
        at = (layout.cluster, layout.positions - 1)
        z = np.zeros((len(layout.sizes), t))
        mask = np.zeros((len(layout.sizes), t))
        z[at] = resid
        mask[at] = 1.0
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
    SYMMETRY_RTOL = 1e-10

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("fixed correlation must be square")
        if np.max(np.abs(np.diag(m) - 1.0)) > 1e-12:
            raise ValueError("fixed correlation diagonal must be 1")
        if not np.all(np.isfinite(m)):
            raise ValueError("fixed correlation has non-finite entries")
        # no jitter retry: a singular matrix is the user's, not round-off
        if np.max(np.abs(m - m.T)) > self.SYMMETRY_RTOL:
            raise NotPositiveDefinite("fixed working correlation is not symmetric")
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite(
                "fixed working correlation is not positive definite") from None
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

    cluster_sums = _cholesky_sums


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
    return float(min(max(a, -ALPHA_CLAMP), ALPHA_CLAMP))


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
    layout = _ClusterLayout((), sizes, np.cumsum(sizes) - sizes, positions)
    return cs.estimate(resid, layout, phi, p, subtract_p)


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


def independence_information(x, ds, f, beta, phi=1.0) -> np.ndarray:
    """Information matrix under working independence, (1/phi) sum D'A^{-1}D.

    Evaluated at `beta`; used as the penalty weight inside QIC.
    """
    values = np.asarray(getattr(x, "values", x), dtype=float)
    mu = glm.link_inverse(f, values @ np.asarray(beta, dtype=float))
    # the canonical link's d mu / d eta is V(mu)
    var = glm.variance_fn(f, mu)
    w = var**2 / var
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
    UndefinedDispersion
        When phi is estimated and n <= p, or an estimate is 0 or not finite.
    """
    opts = options or GeeOptions()
    values = np.asarray(getattr(x, "values", x), dtype=float)
    labels = tuple(getattr(x, "column_labels", ()))
    y = ds.response_vector()
    n, p = values.shape
    if n != ds.n_total:
        raise ValueError(f"design has {n} rows but dataset has {ds.n_total}")
    _check_structure(cs)
    layout = _ClusterLayout(ds.ids, ds.sizes, ds.starts, ds.positions)
    fix_phi = opts.fix_phi if opts.fix_phi is not None else f.distribution == "binomial"

    try:
        start = glm.irls_fit(values, y, f)
    except NoConvergence as exc:
        start = exc.fit

    def at_mean(mu):
        """The mean, whether a binomial mean is pinned at 0 or 1, the
        whitened rows z = A^{-1/2} D (d mu / d eta over sqrt V times x; the
        canonical link's d mu / d eta is V) and the Pearson residuals
        e = (y - mu) / sqrt V.  One range serves the domain check and the
        boundary test."""
        lo, hi = glm._mean_range(mu)
        glm._check_mean_range(f, lo, hi)
        boundary = f.distribution == "binomial" and bool(
            lo <= glm.BOUNDARY_EPS or hi >= 1.0 - glm.BOUNDARY_EPS)
        a = glm._variance(f, mu)
        root = np.sqrt(a)
        return mu, boundary, (a / root)[:, None] * values, (y - mu) / root

    def refresh(cs, resid):
        phi = estimate_phi(resid, n, p, fix_to_one=fix_phi)
        if phi == 0.0:
            raise UndefinedDispersion(
                "dispersion estimate is 0: the fit reproduces the response exactly")
        if not np.isfinite(phi):
            raise UndefinedDispersion(
                f"dispersion estimate is not finite ({phi}): the iterate diverged")
        if opts.update_alpha and hasattr(cs, "estimate"):
            if layout.has_pairs:
                cs = cs.estimate(resid, layout, phi, p, opts.subtract_p)
            else:
                warnings.warn(
                    "all clusters are singletons; correlation parameters kept",
                    UnderdeterminedLag, stacklevel=2)
        return cs, phi

    # each structure's cluster_sums gives the information M and the
    # per-cluster score rows g_i: the score is their sum and the sandwich
    # meat B their cross-product, formed once after the loop
    beta = start.beta.copy()
    mu, boundary, z, resid = at_mean(start.mu)
    if not fix_phi and n <= p:
        raise UndefinedDispersion(
            f"dispersion is undefined with {n} observations and {p} parameters: "
            "no residual degree of freedom is left")
    cs_current, phi = refresh(cs, resid)
    converged = False
    iterations = 0
    for iterations in range(1, opts.max_iter + 1):
        info, g = cs_current.cluster_sums(z, resid, layout, phi)
        try:
            delta = spd_solve(spd_factor(info), g.sum(axis=0))
        except NotPositiveDefinite:
            raise RankDeficient("GEE information matrix is not positive definite") from None
        beta = beta + delta
        step = float(np.max(np.abs(delta)))
        if boundary and step >= opts.tol:
            raise PerfectSeparation(
                "fitted probabilities pinned at 0/1 before the step converged"
            )
        mu, boundary, z, resid = at_mean(glm.link_inverse(f, values @ beta))
        cs_current, phi = refresh(cs_current, resid)
        if step < opts.tol:
            converged = True
            break

    info, g = cs_current.cluster_sums(z, resid, layout, phi)
    minv = spd_solve(spd_factor(info), np.eye(p))
    minv = (minv + minv.T) / 2.0
    cov_robust = minv @ (g.T @ g) @ minv
    cov_robust = (cov_robust + cov_robust.T) / 2.0
    fit = GeeFit(
        beta=beta,
        structure=cs_current,
        phi=phi,
        cov_model_based=minv,
        cov_robust=cov_robust,
        quasi_likelihood_independence=glm._quasi_likelihood(mu, y, f),
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
