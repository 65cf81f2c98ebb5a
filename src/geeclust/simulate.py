"""Clustered binary-data generation.

Two entry points:

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
  correlation then run on whole arrays.

* :func:`build_paper_marginals` deterministically reconstructs the
  miniscrew-stability example used throughout the docs: 305 rows over 135
  patient clusters with the jaw-by-loosening joint counts (maxilla 42
  failed / 184 held, mandible 27 failed / 52 held), the published
  cluster-size histogram, and the published within-patient concordance
  split.  The 305-row total is the sum of the 2x2 margins.
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
MAXILLARY_SITES = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
MANDIBULAR_SITES = (1.0, 3.0, 5.0, 7.0, 9.0, 11.0)


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


def _latent_cholesky(margins, alpha):
    key = (tuple(round(p, 12) for p in margins), round(alpha, 12))
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
            lower = spd_factor(latent).lower
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
    it, so `_draw` and a `searchsorted` over it pick what `choice` picks from
    the same uniform.
    """
    values = [v for v, _ in pairs]
    cdf = np.cumsum([p for _, p in pairs], dtype=float)
    cdf /= cdf[-1]
    return values, cdf.tolist()


def _draw(rng, categorical):
    """One value from `_categorical` output, using one `rng.random()`."""
    values, cdf = categorical
    return values[bisect_right(cdf, rng.random())]


def _spec_values(spec: CovariateSpec, u):
    """A covariate's values from its uniforms `u` (one per value)."""
    if spec.levels[0] == "uniform":
        _, low, high = spec.levels
        low, high = float(low), float(high)
        return low + (high - low) * u
    values, cdf = _categorical(spec.levels)
    return np.asarray(values, dtype=float)[np.searchsorted(cdf, u, side="right")]


def _latent_noise(noise, margins, sizes, starts, alpha):
    """Replace each multi-row cluster's noise e_i by L_i e_i, in place.

    L_i is the latent Cholesky factor of the cluster's margins.  Clusters
    of one size share a stacked gather; each distinct margin tuple is
    factored once, in order of first appearance in the dataset, so the
    caches see the same first calls and the same InfeasibleCorrelation
    fires as when clusters are factored one by one.
    """
    groups, firsts = [], []
    for m in np.unique(sizes[sizes > 1]):
        rows = starts[sizes == m][:, None] + np.arange(m)
        distinct, first, inverse = np.unique(
            margins[rows], axis=0, return_index=True, return_inverse=True)
        factors = np.empty((len(distinct), m, m))
        groups.append((rows, inverse.reshape(-1), factors))
        firsts += [(int(rows[f, 0]), factors, j, distinct[j]) for j, f in enumerate(first)]
    for _, factors, j, key in sorted(firsts, key=lambda entry: entry[0]):
        factors[j] = _latent_cholesky(tuple(key), alpha)
    for rows, inverse, factors in groups:
        noise[rows] = (factors[inverse] @ noise[rows][:, :, None])[:, :, 0]


def generate(profile: SimProfile) -> ClusteredDataset:
    """Draw a clustered binary dataset; byte-reproducible from the seed.

    The random stream follows the per-cluster draw order in the module
    docstring; everything after the draws runs on whole arrays.
    """
    rng = np.random.default_rng(profile.seed)
    size_law = _categorical(profile.size_distribution)
    specs = profile.covariate_specs
    n_constant = sum(1 for spec in specs if spec.cluster_constant)
    n_varying = len(specs) - n_constant
    # the empty heads keep np.concatenate valid when there are no clusters
    sizes, uniforms, noise = [], [np.empty(0)], [np.empty(0)]
    for _ in range(profile.n_clusters):
        size = int(_draw(rng, size_law))
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
        ids=tuple(str(i + 1) for i in range(profile.n_clusters)),
        sizes=sizes,
        positions=within + 1,
        response=(z <= ndtri(margins)).astype(float),
        columns=columns,
        cluster_col="ID",
        response_col=profile.response_name,
    )


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
    return SimProfile(
        n_clusters=n_clusters,
        size_distribution=TABLE_SIZES,
        covariate_specs=specs,
        intercept=-0.08,
        coefficients={"AREA1": -0.85, "NINSERT1": -0.73, "AGE1": -0.54},
        alpha=alpha,
        seed=seed,
        response_name="LOOSENING",
    )


PAPER_VARIABLES = (
    "AGE",
    "GENDER",
    "AREA1",
    "AREA2",
    "LENGTH",
    "DIAMETER",
    "NINSERT",
    "AGE1",
    "LENGTH1",
    "NINSERT1",
)


def _assign_sites(rng, area_values):
    """Implantation sites consistent with jaw side, distinct in a cluster."""
    used = set()
    sites = []
    for area in area_values:
        pool = [s for s in (MAXILLARY_SITES if area == 1.0 else MANDIBULAR_SITES)
                if s not in used]
        site = float(pool[rng.choice(len(pool))])
        used.add(site)
        sites.append(site)
    return sites


def _site_positions(clusters_rows):
    """Global occasion ranks of the site values."""
    observed = sorted({row["AREA2"] for rows in clusters_rows for row in rows})
    return {v: i + 1 for i, v in enumerate(observed)}


def _paper_dataset(cluster_rows):
    """Assemble the miniscrew-style dataset with AREA2 as within variable.

    `cluster_rows` lists (cluster id, row dicts); rows are ordered by site.
    """
    rank = _site_positions([rows for _, rows in cluster_rows])
    flat = [r for _, rows in cluster_rows
            for r in sorted(rows, key=lambda r: rank[r["AREA2"]])]
    return ClusteredDataset(
        ids=tuple(cid for cid, _ in cluster_rows),
        sizes=[len(rows) for _, rows in cluster_rows],
        positions=[rank[r["AREA2"]] for r in flat],
        response=[r["LOOSENING"] for r in flat],
        columns={name: np.array([r[name] for r in flat], dtype=float)
                 for name in PAPER_VARIABLES},
        cluster_col="ID",
        response_col="LOOSENING",
        within_col="AREA2",
    )


def _fill_patient(rng, row, age1, gender, ninsert1):
    row["AGE1"] = age1
    row["GENDER"] = gender
    row["NINSERT1"] = ninsert1
    row["AGE"] = float(rng.integers(21, 41) if age1 == 1.0 else rng.integers(12, 21))
    row["NINSERT"] = float(
        rng.integers(21, 46) if ninsert1 == 1.0 else rng.integers(1, 21)
    )


AGE1_LAW = _categorical(((0.0, 0.45), (1.0, 0.55)))
GENDER_LAW = _categorical(((0.0, 0.55), (1.0, 0.45)))
LENGTH1_LAW = _categorical(((0.0, 0.4), (1.0, 0.6)))
LONG_LAW = _categorical(((8.0, 0.5), (10.0, 0.35), (12.0, 0.15)))
SHORT_LAW = _categorical(((6.0, 0.4), (7.0, 0.6)))
DIAMETER_LAW = _categorical(((1.6, 0.85), (1.8, 0.15)))


def _fill_screw(rng, row, length1=None):
    if length1 is None:
        length1 = _draw(rng, LENGTH1_LAW)
    row["LENGTH"] = _draw(rng, LONG_LAW if length1 == 1.0 else SHORT_LAW)
    row["LENGTH1"] = length1
    # drawn even when DIAMETER is set, which keeps the stream position
    row.setdefault("DIAMETER", _draw(rng, DIAMETER_LAW))


def build_paper_marginals(seed=0) -> ClusteredDataset:
    """Deterministic 305-row example with the published margins.

    Exactly reproduces, for any seed: the jaw-by-loosening counts
    (42, 184, 27, 52), the cluster-size histogram (31/67/17/14/3/3 patients
    with 1..6 screws), and the within-patient concordance split of the
    multi-screw patients (62 all held, 4 all loose, 19 skewed, 19 equal).
    The seed only shuffles which rows carry which labels, plus the
    covariates that are free given those counts.
    """
    rng = np.random.default_rng(seed)
    # (size, number of loosened screws) for every patient; the counts below
    # pin the concordance split while summing to 69 loosened / 236 held
    composition = (
        [(1, 1)] * 19 + [(1, 0)] * 12
        + [(2, 2)] * 4 + [(2, 1)] * 15 + [(2, 0)] * 48
        + [(3, 1)] * 17
        + [(4, 2)] * 4 + [(4, 1)] * 2 + [(4, 0)] * 8
        + [(5, 0)] * 3
        + [(6, 0)] * 3
    )
    composition = [composition[i] for i in rng.permutation(len(composition))]

    area_fail = [1.0] * 42 + [0.0] * 27
    area_ok = [1.0] * 184 + [0.0] * 52
    area_fail = [area_fail[i] for i in rng.permutation(len(area_fail))]
    area_ok = [area_ok[i] for i in rng.permutation(len(area_ok))]

    cluster_rows = []
    for cid, (size, n_fail) in enumerate(composition, start=1):
        outcomes = [1.0] * n_fail + [0.0] * (size - n_fail)
        outcomes = [outcomes[i] for i in rng.permutation(size)]
        areas = [
            (area_fail if y == 1.0 else area_ok).pop() for y in outcomes
        ]
        sites = _assign_sites(rng, areas)
        age1 = _draw(rng, AGE1_LAW)
        gender = _draw(rng, GENDER_LAW)
        ninsert1 = float(rng.choice([0.0, 1.0]))
        patient = {}
        _fill_patient(rng, patient, age1, gender, ninsert1)
        rows = []
        for y, area, site in zip(outcomes, areas, sites):
            row = dict(patient)
            row.update({"LOOSENING": y, "AREA1": area, "AREA2": site})
            _fill_screw(rng, row)
            rows.append(row)
        cluster_rows.append((str(cid), rows))
    return _paper_dataset(cluster_rows)


def generate_paper(n_clusters=135, alpha=0.3, seed=0) -> ClusteredDataset:
    """Stochastic miniscrew-style dataset with the full raw-column schema.

    Draws from :func:`paper_profile`, then back-fills raw columns consistent
    with each binary (AGE with AGE1, LENGTH with LENGTH1, NINSERT with
    NINSERT1) and jaw-consistent distinct AREA2 sites used as the
    within-subject variable.
    """
    base = generate(paper_profile(n_clusters, alpha, seed))
    rng = np.random.default_rng([seed, 17])
    col = {name: values.tolist() for name, values in base.columns.items()}
    response = base.response.tolist()
    cluster_rows = []
    for cid, a, m in zip(base.ids, base.starts.tolist(), base.sizes.tolist()):
        patient = {}
        _fill_patient(rng, patient, col["AGE1"][a], col["GENDER"][a], col["NINSERT1"][a])
        sites = _assign_sites(rng, col["AREA1"][a:a + m])
        rows = []
        for j, site in zip(range(a, a + m), sites):
            row = dict(patient)
            row.update(
                {
                    "LOOSENING": response[j],
                    "AREA1": col["AREA1"][j],
                    "AREA2": site,
                    "DIAMETER": col["DIAMETER"][j],
                }
            )
            _fill_screw(rng, row, length1=col["LENGTH1"][j])
            rows.append(row)
        cluster_rows.append((cid, rows))
    return _paper_dataset(cluster_rows)
