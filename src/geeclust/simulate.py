"""Clustered binary-data generation.

Three entry points:

* :func:`generate` draws datasets from a configurable profile.  Rows get
  marginal event probabilities straight from a linear predictor, and
  within-cluster dependence comes from a shared latent Gaussian threshold
  (copula): the latent pairwise correlation is solved numerically so the
  binary correlation of each within-cluster pair hits the requested target.
  Because thresholds are set from the exact margins, the marginal means
  equal the inverse-logit of the linear predictor exactly, which keeps the
  simulated truth equal to the marginal-regression estimand.

  Random stream: a dataset is fixed by its seed, and every dataset drawn so
  far must stay byte-identical.  For each cluster in order, `generate`
  makes exactly three Generator calls:

  1. ``rng.random()`` for the size.  This is ``rng.choice(k, p=p)``:
     ``cdf = p.cumsum(); cdf /= cdf[-1]`` and the index is
     ``cdf.searchsorted(u, side="right")``.
  2. ``rng.random(k)`` for the covariates, spec by spec: one uniform for a
     cluster-constant spec, ``size`` uniforms for any other.  A factor spec
     maps each uniform through its cdf as in step 1; a ``uniform`` spec is
     ``low + (high - low) * u``.
  3. ``rng.standard_normal(size)`` for the latent noise.  Normals cannot be
     drawn for all clusters at once: the ziggurat method takes a variable
     number of words per draw, so a later cluster's uniforms would move.

  The mapping of uniforms to levels, the linear predictor, the thresholds
  (``ndtri``, the value ``stats.norm.ppf`` returns) and the latent
  correlation then run on whole arrays.  Clusters of one size share their
  latent factors: the distinct margin rows come from one ``lexsort``, and
  their cache keys from one ``np.round(rows, 12)``.

* :func:`generate_paper` draws a :func:`paper_profile` dataset with
  `generate`, then back-fills raw columns from ``default_rng([seed, 17])``
  with exactly two calls per cluster of m rows:

  1. ``rng.integers(lows, highs)``: AGE, NINSERT, then one site pick per
     row, below 6 minus the row's count of earlier rows on its jaw.  A row
     with pick d takes the d-th still-free site of its jaw, counting up.
  2. ``rng.random(2 * m)``, two per row: the first picks LENGTH, the second
     (once a DIAMETER draw) is drawn and not used.

* :func:`build_paper_marginals` deterministically reconstructs the
  miniscrew-stability example used throughout the docs: 305 rows over 135
  patient clusters with the jaw-by-loosening joint counts (maxilla 42
  failed / 184 held, mandible 27 failed / 52 held), the published
  cluster-size histogram, and the published within-patient concordance
  split.  The 305-row total is the sum of the 2x2 margins.  It permutes
  the patients, then the loosened and the held jaw labels.  Per patient of
  m rows, in order: ``rng.permutation(m)`` of the outcomes (it decides
  which jaw labels the rows take, so patients are drawn one by one),
  ``rng.integers`` for the m site picks, ``rng.random(2)`` for AGE1 and
  GENDER, ``rng.integers(0, 2)`` for NINSERT1, ``rng.integers`` for AGE
  and NINSERT, and ``rng.random(3 * m)``: LENGTH1, LENGTH, DIAMETER per row.
"""

import math
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy import stats
from scipy.optimize import brentq
from scipy.special import expit, ndtri

from .data import ClusteredDataset
from .errors import InfeasibleCorrelation, NotPositiveDefinite
from .linalg import spd_factor

TABLE_SIZES = ((1, 0.230), (2, 0.496), (3, 0.126), (4, 0.104), (5, 0.022), (6, 0.022))

RHO_LIMIT = 0.9999


def _check_probabilities(what, pairs):
    probs = [p for _, p in pairs]
    if any(p < 0.0 for p in probs):
        raise ValueError(f"{what} probabilities must not be negative")
    total = sum(probs)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"{what} probabilities sum to {total}, not 1")


@dataclass(frozen=True)
class CovariateSpec:
    """One simulated covariate.

    `levels` is either a tuple of (value, probability) pairs for categorical
    draws or ("uniform", low, high) for a continuous draw.  Cluster-constant
    covariates are drawn once per cluster.
    """

    name: str
    kind: str = "factor"
    levels: tuple = ((0.0, 0.5), (1.0, 0.5))
    cluster_constant: bool = False

    def __post_init__(self):
        if self.kind not in ("factor", "covariate"):
            raise ValueError("kind must be 'factor' or 'covariate'")
        if self.levels[0] == "uniform":
            _, low, high = self.levels
            if not 0.0 <= high - low < math.inf:
                raise ValueError(f"uniform range ({low}, {high}) is not finite and ordered")
        else:
            _check_probabilities("level", self.levels)


@dataclass(frozen=True)
class SimProfile:
    """Generator settings: sizes, covariates, effects, correlation, seed."""

    n_clusters: int = 135
    size_distribution: tuple = TABLE_SIZES
    covariate_specs: tuple = ()
    intercept: float = 0.0
    coefficients: Mapping[str, float] = None
    alpha: float = 0.0
    seed: int = 0
    response_name: str = "Y"

    def __post_init__(self):
        _check_probabilities("size", self.size_distribution)
        if any(int(size) < 1 for size, _ in self.size_distribution):
            raise ValueError("cluster sizes must be at least 1")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        object.__setattr__(self, "coefficients", dict(self.coefficients or {}))


def binary_pair_correlation(rho, p_j, p_k) -> float:
    """Correlation of two threshold indicators under latent correlation rho."""
    h_j = stats.norm.ppf(p_j)
    h_k = stats.norm.ppf(p_k)
    p11 = stats.multivariate_normal(
        mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]], allow_singular=True
    ).cdf([h_j, h_k])
    denom = math.sqrt(p_j * (1 - p_j) * p_k * (1 - p_k))
    return (p11 - p_j * p_k) / denom


class LruCache(OrderedDict):
    """Mapping that keeps at most `maxsize` entries, evicting the least recent.

    The latent-correlation caches are keyed by margins, which repeat across
    clusters (and across `generate` calls) for factor covariates but are new
    for almost every cluster with a continuous covariate; the bound keeps the
    latter case from growing without limit.
    """

    def __init__(self, maxsize):
        super().__init__()
        self.maxsize = maxsize

    def lookup(self, key):
        """The cached value (marked most recent), or None."""
        if key not in self:
            return None
        self.move_to_end(key)
        return self[key]

    def store(self, key, value):
        self[key] = value
        if len(self) > self.maxsize:
            self.popitem(last=False)


_rho_cache = LruCache(4096)


def _latent_rho(p_j, p_k, alpha) -> float:
    """Latent correlation giving binary correlation `alpha` for two margins."""
    if alpha == 0.0:
        return 0.0
    key = (round(min(p_j, p_k), 12), round(max(p_j, p_k), 12), round(alpha, 12))
    cached = _rho_cache.lookup(key)
    if cached is not None:
        return cached
    frechet = (min(p_j, p_k) - p_j * p_k) / math.sqrt(
        p_j * (1 - p_j) * p_k * (1 - p_k)
    )
    if alpha >= frechet:
        raise InfeasibleCorrelation(
            f"target correlation {alpha:.4f} exceeds the bound {frechet:.4f} "
            f"for margins ({p_j:.4f}, {p_k:.4f})"
        )
    top = binary_pair_correlation(RHO_LIMIT, p_j, p_k)
    if alpha >= top:
        raise InfeasibleCorrelation(
            f"target correlation {alpha:.4f} is not reachable "
            f"(max {top:.4f} for margins ({p_j:.4f}, {p_k:.4f}))"
        )
    rho = brentq(
        lambda r: binary_pair_correlation(r, p_j, p_k) - alpha,
        0.0,
        RHO_LIMIT,
        xtol=1e-10,
    )
    _rho_cache.store(key, rho)
    return rho


_chol_cache = LruCache(1024)


def _latent_cholesky(margins, rounded, alpha):
    """The latent correlation's Cholesky factor for a cluster's margins;
    `rounded` is the margins rounded to 12 decimals, the cache key."""
    key = (rounded, round(alpha, 12))
    cached = _chol_cache.lookup(key)
    if cached is not None:
        return cached
    t = len(margins)
    latent = np.eye(t)
    for j in range(t):
        for k in range(j + 1, t):
            latent[j, k] = latent[k, j] = _latent_rho(margins[j], margins[k], alpha)
    for _ in range(6):
        try:
            lower = spd_factor(latent)
            break
        except NotPositiveDefinite:
            latent = 0.999 * latent + 0.001 * np.eye(t)
    else:
        raise InfeasibleCorrelation("latent correlation matrix is not SPD")
    _chol_cache.store(key, lower)
    return lower


def _categorical(pairs):
    """Values and cumulative probabilities of (value, probability) pairs.

    The cdf is normalised as `Generator.choice(values, p=probs)` normalises
    it, so a `bisect_right` or `searchsorted` over it picks what `choice`
    picks from the same uniform.
    """
    values = [v for v, _ in pairs]
    cdf = np.cumsum([p for _, p in pairs], dtype=float)
    cdf /= cdf[-1]
    return values, cdf.tolist()


def _levels(pairs, u):
    """The values of (value, probability) pairs that the uniforms `u` pick."""
    values, cdf = _categorical(pairs)
    return np.asarray(values, dtype=float)[np.searchsorted(cdf, u, side="right")]


def _spec_values(spec: CovariateSpec, u):
    """A covariate's values from its uniforms `u` (one per value)."""
    if spec.levels[0] == "uniform":
        _, low, high = spec.levels
        low, high = float(low), float(high)
        return low + (high - low) * u
    return _levels(spec.levels, u)


def _distinct_rows(a):
    """The distinct rows of a 2-d array in lexicographic order, the index of
    each one's first occurrence and each row's index among them: what
    `np.unique(a, axis=0, return_index=True, return_inverse=True)` returns,
    from one stable `lexsort`."""
    order = np.lexsort(a.T[::-1])
    ordered = a[order]
    new = np.ones(len(a), dtype=bool)
    new[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], order[new], inverse


def _latent_noise(noise, margins, sizes, starts, alpha):
    """Replace each multi-row cluster's noise e_i by L_i e_i, in place.

    L_i is the latent Cholesky factor of the cluster's margins.  Clusters
    of one size share a stacked gather; each distinct margin tuple is
    factored once, in order of first appearance in the dataset, so the
    caches see the same first calls and the same InfeasibleCorrelation
    fires as when clusters are factored one by one.  A size group's cache
    keys come from one `np.round`, which rounds as the numpy scalar's
    `round` does (a Python float's `round` differs on some values).
    """
    groups, firsts = [], []
    for m in np.unique(sizes[sizes > 1]):
        rows = starts[sizes == m][:, None] + np.arange(m)
        distinct, first, inverse = _distinct_rows(margins[rows])
        rounded = np.round(distinct, 12)
        factors = np.empty((len(distinct), m, m))
        groups.append((rows, inverse, factors))
        firsts += [(int(rows[f, 0]), factors, j, distinct[j], rounded[j])
                   for j, f in enumerate(first)]
    for _, factors, j, key, rounded in sorted(firsts, key=lambda entry: entry[0]):
        factors[j] = _latent_cholesky(tuple(key), tuple(rounded), alpha)
    for rows, inverse, factors in groups:
        noise[rows] = (factors[inverse] @ noise[rows][:, :, None])[:, :, 0]


def generate(profile: SimProfile) -> ClusteredDataset:
    """Draw a clustered binary dataset; byte-reproducible from the seed.

    The random stream follows the per-cluster draw order in the module
    docstring; everything after the draws runs on whole arrays.
    """
    rng = np.random.default_rng(profile.seed)
    size_values, size_cdf = _categorical(profile.size_distribution)
    specs = profile.covariate_specs
    n_constant = sum(1 for spec in specs if spec.cluster_constant)
    n_varying = len(specs) - n_constant
    # the empty heads keep np.concatenate valid when there are no clusters
    sizes, uniforms, noise = [], [np.empty(0)], [np.empty(0)]
    for _ in range(profile.n_clusters):
        size = int(size_values[bisect_right(size_cdf, rng.random())])
        sizes.append(size)
        uniforms.append(rng.random(n_constant + n_varying * size))
        noise.append(rng.standard_normal(size))
    sizes = np.array(sizes, dtype=int)
    starts = np.cumsum(sizes) - sizes
    n_rows = int(sizes.sum())
    row_size = np.repeat(sizes, sizes)
    within = np.arange(n_rows) - np.repeat(starts, sizes)
    drawn = n_constant + n_varying * sizes
    row_offset = np.repeat(np.cumsum(drawn) - drawn, sizes)
    u = np.concatenate(uniforms)

    columns = {}
    constant_before = varying_before = 0
    for spec in specs:
        index = row_offset + constant_before + varying_before * row_size
        if spec.cluster_constant:
            constant_before += 1
        else:
            index += within
            varying_before += 1
        columns[spec.name] = _spec_values(spec, u[index])

    eta = np.full(n_rows, profile.intercept)
    for name, coef in profile.coefficients.items():
        eta += coef * columns.get(name, np.zeros(n_rows))
    margins = expit(eta)
    z = np.concatenate(noise)
    if profile.alpha > 0.0:
        _latent_noise(z, margins, sizes, starts, profile.alpha)
    return ClusteredDataset(
        ids=tuple(str(i + 1) for i in range(profile.n_clusters)), sizes=sizes,
        positions=within + 1, response=(z <= ndtri(margins)).astype(float),
        columns=columns, cluster_col="ID", response_col=profile.response_name)


# --------------------------------------------------------------------------
# miniscrew-style example data


def paper_profile(n_clusters=135, alpha=0.3, seed=0) -> SimProfile:
    """Miniscrew-style generator profile.

    Binary patient/screw covariates with three real effects (jaw, insertion
    experience, age group) and three null ones, the published cluster-size
    distribution, and exchangeable within-patient correlation.
    """
    specs = (
        CovariateSpec("AGE1", "factor", ((0.0, 0.45), (1.0, 0.55)), True),
        CovariateSpec("GENDER", "factor", ((0.0, 0.55), (1.0, 0.45)), True),
        CovariateSpec("NINSERT1", "factor", ((0.0, 0.5), (1.0, 0.5)), True),
        CovariateSpec("AREA1", "factor", ((0.0, 0.26), (1.0, 0.74)), False),
        CovariateSpec("LENGTH1", "factor", ((0.0, 0.4), (1.0, 0.6)), False),
        CovariateSpec("DIAMETER", "factor", ((1.6, 0.85), (1.8, 0.15)), False),
    )
    return SimProfile(n_clusters, TABLE_SIZES, specs, intercept=-0.08,
                      coefficients={"AREA1": -0.85, "NINSERT1": -0.73, "AGE1": -0.54},
                      alpha=alpha, seed=seed, response_name="LOOSENING")


PAPER_VARIABLES = ("AGE", "GENDER", "AREA1", "AREA2", "LENGTH", "DIAMETER", "NINSERT",
                   "AGE1", "LENGTH1", "NINSERT1")

LONG_LAW = ((8.0, 0.5), (10.0, 0.35), (12.0, 0.15))
SHORT_LAW = ((6.0, 0.4), (7.0, 0.6))
# [low, high) of AGE by AGE1 and of NINSERT by NINSERT1
AGE_RANGES = np.array([[12, 21], [21, 41]])
NINSERT_RANGES = np.array([[1, 21], [21, 46]])
SITES_PER_JAW = 6


def _same_before(flags, sizes):
    """Each row's count of earlier rows of its cluster with the same 0/1 flag."""
    starts = np.cumsum(sizes) - sizes
    ones = np.cumsum(flags) - flags
    ones = ones - np.repeat(ones[starts], sizes)
    within = np.arange(len(flags)) - np.repeat(starts, sizes)
    return np.where(flags == 1, ones, within - ones).astype(int)


def _lengths(length1, u):
    """LENGTH from its uniforms: a long screw for LENGTH1 = 1, else a short one."""
    return np.where(length1 == 1.0, _levels(LONG_LAW, u), _levels(SHORT_LAW, u))


def _sites(area, sizes, picks):
    """AREA2 sites: a row with pick d takes the d-th still-free site of its jaw.

    The jaws' sites interleave (mandible 1, 3, ..., 11, maxilla 2, 4, ...,
    12), and a row of within-jaw rank r picks among the 6 - r sites that the
    cluster's earlier rows on that jaw left free.  Rows are decoded one rank
    at a time, all clusters together.
    """
    ranks = _same_before(area, sizes)
    jaw = 2 * np.repeat(np.arange(len(sizes)), sizes) + area.astype(int)
    taken = np.zeros((2 * len(sizes), SITES_PER_JAW), dtype=bool)
    slot = np.empty(len(area), dtype=int)
    for rank in range(int(ranks.max()) + 1):
        rows = np.flatnonzero(ranks == rank)
        free = np.cumsum(~taken[jaw[rows]], axis=1)
        slot[rows] = np.argmax(free > picks[rows, None], axis=1)
        taken[jaw[rows], slot[rows]] = True
    return 2.0 * slot + 1.0 + area


def _paper_dataset(ids, sizes, response, columns):
    """The miniscrew-style dataset with AREA2 as within variable.

    `columns` maps every name in PAPER_VARIABLES to its row values in draw
    order.  Each cluster's rows are sorted by site, and a site's position
    is its rank among the sites present in the dataset.
    """
    order = np.lexsort((columns["AREA2"], np.repeat(np.arange(len(sizes)), sizes)))
    _, rank = np.unique(columns["AREA2"][order], return_inverse=True)
    return ClusteredDataset(
        tuple(ids), sizes, rank + 1, np.asarray(response)[order],
        {name: np.asarray(columns[name], dtype=float)[order] for name in PAPER_VARIABLES},
        cluster_col="ID", response_col="LOOSENING", within_col="AREA2")


def build_paper_marginals(seed=0) -> ClusteredDataset:
    """Deterministic 305-row example with the published margins.

    Exactly reproduces, for any seed: the jaw-by-loosening counts
    (42, 184, 27, 52), the cluster-size histogram (31/67/17/14/3/3 patients
    with 1..6 screws), and the within-patient concordance split of the
    multi-screw patients (62 all held, 4 all loose, 19 skewed, 19 equal).
    The seed only shuffles which rows carry which labels, plus the
    covariates that are free given those counts.
    """
    law = {spec.name: spec.levels for spec in paper_profile().covariate_specs}
    rng = np.random.default_rng(seed)
    # (size, number of loosened screws) for every patient; the counts below
    # pin the concordance split while summing to 69 loosened / 236 held
    kinds = [(1, 1), (1, 0), (2, 2), (2, 1), (2, 0), (3, 1), (4, 2), (4, 1), (4, 0),
             (5, 0), (6, 0)]
    counts = [19, 12, 4, 15, 48, 17, 4, 2, 8, 3, 3]
    sizes, n_fails = np.repeat(kinds, counts, axis=0)[rng.permutation(sum(counts))].T
    # the jaw labels of the loosened and of the held screws, in the order
    # the rows take them
    fail_pool = np.repeat([1.0, 0.0], [42, 27])[rng.permutation(69)][::-1]
    held_pool = np.repeat([1.0, 0.0], [184, 52])[rng.permutation(236)][::-1]
    age1_values, age1_cdf = _categorical(law["AGE1"])
    n_failed = n_held = 0
    outcome, area, picks, patients, screws = ([] for _ in range(5))
    for size, n_fail in zip(sizes.tolist(), n_fails.tolist()):
        # the outcomes [1] * n_fail + [0] * (size - n_fail), permuted; the
        # branch np.where drops still indexes inside its pool
        fail = rng.permutation(size) < n_fail
        jaw = np.where(fail, fail_pool[n_failed + np.cumsum(fail) - 1],
                       held_pool[n_held + np.cumsum(~fail) - 1])
        n_failed, n_held = n_failed + n_fail, n_held + size - n_fail
        picks.append(rng.integers(0, SITES_PER_JAW - _same_before(jaw, [size])))
        u = rng.random(2)
        ninsert1 = rng.integers(0, 2)
        age1 = int(age1_values[bisect_right(age1_cdf, u[0])])
        bounds = np.array([AGE_RANGES[age1], NINSERT_RANGES[ninsert1]])
        patients.append((age1, u[1], ninsert1, *rng.integers(bounds[:, 0], bounds[:, 1])))
        screws.append(rng.random(3 * size))
        outcome.append(fail)
        area.append(jaw)
    area = np.concatenate(area)
    age1, gender_u, ninsert1, age, ninsert = np.repeat(
        np.array(patients, dtype=float), sizes, axis=0).T
    screws = np.concatenate(screws).reshape(-1, 3)
    length1 = _levels(law["LENGTH1"], screws[:, 0])
    columns = dict(
        AGE=age, GENDER=_levels(law["GENDER"], gender_u), AREA1=area,
        AREA2=_sites(area, sizes, np.concatenate(picks)),
        LENGTH=_lengths(length1, screws[:, 1]), DIAMETER=_levels(law["DIAMETER"], screws[:, 2]),
        NINSERT=ninsert, AGE1=age1, LENGTH1=length1, NINSERT1=ninsert1)
    ids = [str(i + 1) for i in range(len(sizes))]
    return _paper_dataset(ids, sizes, np.concatenate(outcome), columns)


def generate_paper(n_clusters=135, alpha=0.3, seed=0) -> ClusteredDataset:
    """Stochastic miniscrew-style dataset with the full raw-column schema.

    Draws from :func:`paper_profile`, then back-fills raw columns consistent
    with each binary (AGE with AGE1, LENGTH with LENGTH1, NINSERT with
    NINSERT1) and jaw-consistent distinct AREA2 sites used as the
    within-subject variable.  The draw order is in the module docstring.
    """
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be at least 1, got {n_clusters}")
    base = generate(paper_profile(n_clusters, alpha, seed))
    sizes, starts, col = base.sizes, base.starts, base.columns
    # each cluster's integer bounds: AGE, NINSERT, then one site pick per row
    heads = starts + 2 * np.arange(n_clusters)
    pick_at = np.arange(base.n_total) + 2 * np.repeat(np.arange(1, n_clusters + 1), sizes)
    lows = np.zeros(base.n_total + 2 * n_clusters, dtype=int)
    highs = np.empty_like(lows)
    lows[heads], highs[heads] = AGE_RANGES[col["AGE1"][starts].astype(int)].T
    lows[heads + 1], highs[heads + 1] = NINSERT_RANGES[col["NINSERT1"][starts].astype(int)].T
    highs[pick_at] = SITES_PER_JAW - _same_before(col["AREA1"], sizes)
    rng = np.random.default_rng([seed, 17])
    ints, uniforms = [], []
    for head, size in zip(heads.tolist(), sizes.tolist()):
        ints.append(rng.integers(lows[head:head + size + 2], highs[head:head + size + 2]))
        uniforms.append(rng.random(2 * size))
    ints = np.concatenate(ints)
    # each row's second uniform picks nothing, but datasets drawn so far spent it
    length_u = np.concatenate(uniforms)[0::2]
    return _paper_dataset(base.ids, sizes, base.response, dict(
        col,
        AGE=np.repeat(ints[heads], sizes),
        NINSERT=np.repeat(ints[heads + 1], sizes),
        AREA2=_sites(col["AREA1"], sizes, ints[pick_at]),
        LENGTH=_lengths(col["LENGTH1"], length_u),
    ))
