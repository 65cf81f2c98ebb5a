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

* :func:`build_paper_marginals` deterministically reconstructs the
  miniscrew-stability example used throughout the docs: 305 rows over 135
  patient clusters with the jaw-by-loosening joint counts (maxilla 42
  failed / 184 held, mandible 27 failed / 52 held), the published
  cluster-size histogram, and the published within-patient concordance
  split.  The 305-row total is the sum of the 2x2 margins.
"""

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy import stats
from scipy.optimize import brentq
from scipy.special import expit

from .data import Cluster, ClusteredDataset, Row
from .errors import InfeasibleCorrelation, NotPositiveDefinite
from .linalg import spd_factor

TABLE_SIZES = ((1, 0.230), (2, 0.496), (3, 0.126), (4, 0.104), (5, 0.022), (6, 0.022))

RHO_LIMIT = 0.9999
MAXILLARY_SITES = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
MANDIBULAR_SITES = (1.0, 3.0, 5.0, 7.0, 9.0, 11.0)


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
        if self.levels[0] != "uniform":
            total = sum(p for _, p in self.levels)
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"level probabilities sum to {total}, not 1")


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
        total = sum(p for _, p in self.size_distribution)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"size probabilities sum to {total}, not 1")
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


def _draw_value(rng, spec: CovariateSpec):
    if spec.levels[0] == "uniform":
        _, low, high = spec.levels
        return float(rng.uniform(low, high))
    values = [v for v, _ in spec.levels]
    probs = [p for _, p in spec.levels]
    return float(values[rng.choice(len(values), p=probs)])


def generate(profile: SimProfile) -> ClusteredDataset:
    """Draw a clustered binary dataset; byte-reproducible from the seed."""
    rng = np.random.default_rng(profile.seed)
    sizes = [s for s, _ in profile.size_distribution]
    size_probs = [p for _, p in profile.size_distribution]
    variable_names = tuple(spec.name for spec in profile.covariate_specs)
    clusters = []
    for i in range(profile.n_clusters):
        size = int(sizes[rng.choice(len(sizes), p=size_probs)])
        draws = {}
        for spec in profile.covariate_specs:
            if spec.cluster_constant:
                value = _draw_value(rng, spec)
                draws[spec.name] = [value] * size
            else:
                draws[spec.name] = [_draw_value(rng, spec) for _ in range(size)]
        eta = np.full(size, profile.intercept)
        for name, coef in profile.coefficients.items():
            eta += coef * np.asarray(draws.get(name, [0.0] * size))
        margins = expit(eta)
        thresholds = stats.norm.ppf(margins)
        noise = rng.standard_normal(size)
        if profile.alpha > 0.0 and size > 1:
            z = _latent_cholesky(tuple(margins), profile.alpha) @ noise
        else:
            z = noise
        responses = (z <= thresholds).astype(float)
        rows = tuple(
            Row(
                position=j + 1,
                response=float(responses[j]),
                covariates={name: draws[name][j] for name in variable_names},
            )
            for j in range(size)
        )
        clusters.append(Cluster(str(i + 1), rows))
    return ClusteredDataset(
        clusters=tuple(clusters),
        variable_names=variable_names,
        cluster_col="ID",
        response_col=profile.response_name,
        within_col=None,
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


def _paper_dataset(cluster_rows, seed_note=None):
    """Assemble the miniscrew-style dataset with AREA2 as within variable."""
    rank = _site_positions([rows for _, rows in cluster_rows])
    clusters = []
    for cid, rows in cluster_rows:
        rows = sorted(rows, key=lambda r: rank[r["AREA2"]])
        built = tuple(
            Row(
                position=rank[r["AREA2"]],
                response=r["LOOSENING"],
                covariates={name: r[name] for name in PAPER_VARIABLES},
            )
            for r in rows
        )
        clusters.append(Cluster(cid, built))
    return ClusteredDataset(
        clusters=tuple(clusters),
        variable_names=PAPER_VARIABLES,
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


def _fill_screw(rng, row, length1=None):
    if length1 is None:
        length1 = float(rng.choice([0.0, 1.0], p=[0.4, 0.6]))
    if length1 == 1.0:
        row["LENGTH"] = float(rng.choice([8.0, 10.0, 12.0], p=[0.5, 0.35, 0.15]))
    else:
        row["LENGTH"] = float(rng.choice([6.0, 7.0], p=[0.4, 0.6]))
    row["LENGTH1"] = length1
    row.setdefault("DIAMETER", float(rng.choice([1.6, 1.8], p=[0.85, 0.15])))


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
        age1 = float(rng.choice([0.0, 1.0], p=[0.45, 0.55]))
        gender = float(rng.choice([0.0, 1.0], p=[0.55, 0.45]))
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
    cluster_rows = []
    for c in base.clusters:
        first = c.rows[0].covariates
        patient = {}
        _fill_patient(rng, patient, first["AGE1"], first["GENDER"], first["NINSERT1"])
        areas = [r.covariates["AREA1"] for r in c.rows]
        sites = _assign_sites(rng, areas)
        rows = []
        for r, site in zip(c.rows, sites):
            row = dict(patient)
            row.update(
                {
                    "LOOSENING": r.response,
                    "AREA1": r.covariates["AREA1"],
                    "AREA2": site,
                    "DIAMETER": r.covariates["DIAMETER"],
                }
            )
            _fill_screw(rng, row, length1=r.covariates["LENGTH1"])
            rows.append(row)
        cluster_rows.append((c.id, rows))
    return _paper_dataset(cluster_rows)
