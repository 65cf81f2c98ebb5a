import collections
import hashlib
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import expit

from geeclust import (
    Cluster,
    ClusteredDataset,
    CovariateSpec,
    Family,
    Independent,
    Row,
    SimProfile,
    TermCoding,
    build_design,
    build_paper_marginals,
    crosstab_2x2,
    fit_gee,
    generate,
    generate_paper,
    odds_ratio,
    recode_response,
    write_csv,
)
from geeclust import simulate
from geeclust.errors import InfeasibleCorrelation
from geeclust.simulate import (
    TABLE_SIZES,
    LruCache,
    _latent_cholesky,
    _latent_rho,
    binary_pair_correlation,
    paper_profile,
)

from conftest import MARGINAL_INTERCEPT, MARGINAL_SLOPE

BINOMIAL = Family("binomial", "logit")


def within_cluster_pairs(ds):
    """All within-cluster response pairs as two aligned arrays."""
    firsts, seconds = [], []
    for c in ds.clusters:
        values = [r.response for r in c.rows]
        for j, k in combinations(range(len(values)), 2):
            firsts.append(values[j])
            seconds.append(values[k])
    return np.array(firsts), np.array(seconds)


def reference_generate(profile):
    """`generate` one cluster and one draw at a time, as it first was.

    Every value comes from its own Generator call (`choice` with `p` for a
    level, `uniform` for a continuous value), each cluster's thresholds from
    `stats.norm.ppf`, and each cluster's latent noise from its own factor.
    """

    def draw_value(rng, spec):
        if spec.levels[0] == "uniform":
            _, low, high = spec.levels
            return float(rng.uniform(low, high))
        values = [v for v, _ in spec.levels]
        probs = [p for _, p in spec.levels]
        return float(values[rng.choice(len(values), p=probs)])

    rng = np.random.default_rng(profile.seed)
    sizes = [s for s, _ in profile.size_distribution]
    size_probs = [p for _, p in profile.size_distribution]
    names = tuple(spec.name for spec in profile.covariate_specs)
    clusters = []
    for i in range(profile.n_clusters):
        size = int(sizes[rng.choice(len(sizes), p=size_probs)])
        draws = {}
        for spec in profile.covariate_specs:
            if spec.cluster_constant:
                draws[spec.name] = [draw_value(rng, spec)] * size
            else:
                draws[spec.name] = [draw_value(rng, spec) for _ in range(size)]
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
            Row(j + 1, float(responses[j]), {name: draws[name][j] for name in names})
            for j in range(size)
        )
        clusters.append(Cluster(str(i + 1), rows))
    return ClusteredDataset(tuple(clusters), names, "ID", profile.response_name, None)


def csv_bytes(ds, tmp_path, name="ds.csv"):
    path = tmp_path / name
    write_csv(ds, path)
    return path.read_bytes()


BINARY_X = CovariateSpec("x", "factor", ((0.0, 0.5), (1.0, 0.5)), False)

STREAM_PROFILES = {
    "coverage": SimProfile(
        n_clusters=200, size_distribution=((4, 1.0),), covariate_specs=(BINARY_X,),
        intercept=-1.0, coefficients={"x": 0.8}, alpha=0.5, seed=7),
    "ragged-singletons": SimProfile(
        n_clusters=150, size_distribution=((1, 0.4), (2, 0.3), (5, 0.3)),
        covariate_specs=(BINARY_X,), intercept=-0.4, coefficients={"x": 0.6},
        alpha=0.35, seed=11),
    "uniform-and-constant-factor": SimProfile(
        n_clusters=120, size_distribution=((2, 0.5), (3, 0.5)),
        covariate_specs=(
            CovariateSpec("u", "covariate", ("uniform", -1.0, 2.0)),
            CovariateSpec("g", "factor", ((0.0, 0.2), (1.0, 0.3), (2.0, 0.5)), True),
        ),
        intercept=-0.3, coefficients={"u": 0.7, "g": -0.4}, alpha=0.3, seed=5),
    "undefined-coefficient": SimProfile(
        n_clusters=100, size_distribution=((2, 0.5), (3, 0.5)),
        covariate_specs=(BINARY_X,), intercept=-0.2,
        coefficients={"x": 0.5, "absent": 1.3}, alpha=0.2, seed=3),
    "alpha-zero": paper_profile(200, 0.0, 9),
}


@pytest.mark.parametrize("name", sorted(STREAM_PROFILES))
def test_generate_matches_per_cluster_reference(name, tmp_path):
    profile = STREAM_PROFILES[name]
    assert csv_bytes(generate(profile), tmp_path, "new.csv") == csv_bytes(
        reference_generate(profile), tmp_path, "reference.csv")


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_clusters=st.integers(1, 30),
    max_size=st.integers(1, 5),
    alpha=st.sampled_from([0.0, 0.1, 0.3]),
    constant=st.booleans(),
    continuous=st.booleans(),
)
def test_generate_stream_property(seed, n_clusters, max_size, alpha, constant,
                                  continuous, tmp_path_factory):
    specs = [CovariateSpec("x", "factor", ((0.0, 0.3), (1.0, 0.7)), constant)]
    if continuous:
        specs.append(CovariateSpec("u", "covariate", ("uniform", -0.5, 0.5)))
    profile = SimProfile(
        n_clusters=n_clusters,
        size_distribution=tuple((m, 1.0 / max_size) for m in range(1, max_size + 1)),
        covariate_specs=tuple(specs), intercept=-0.2,
        coefficients={"x": 0.4, "u": 0.8}, alpha=alpha, seed=seed)
    tmp_path = tmp_path_factory.mktemp("stream")
    assert csv_bytes(generate(profile), tmp_path, "new.csv") == csv_bytes(
        reference_generate(profile), tmp_path, "reference.csv")


# SHA-256 of the written CSVs, recorded when every draw was its own call
PAPER_DIGESTS = {
    3: "6fa18d1e54c00719844ea06439ab1731348fe1eec852ccc8398376bd94923056",
    2024: "dd521ba20d768fd916be2d19d1119451e09a8707687fc5926c23b59faa6227b5",
}
MARGINALS_DIGESTS = {
    3: "14a5c757b7b15b0965abcd9608ea4ad33b7790984aa509b364bd4ea2f93de765",
    2024: "5f4bc2565742c7fdafd8e076bb595b7cf7ded23f3856fce589f9f37caddcf2b6",
}


@pytest.mark.parametrize("seed", sorted(PAPER_DIGESTS))
def test_paper_datasets_keep_their_digests(seed, tmp_path):
    paper = csv_bytes(generate_paper(400, 0.25, seed), tmp_path, "paper.csv")
    marginals = csv_bytes(build_paper_marginals(seed), tmp_path, "marginals.csv")
    assert hashlib.sha256(paper).hexdigest() == PAPER_DIGESTS[seed]
    assert hashlib.sha256(marginals).hexdigest() == MARGINALS_DIGESTS[seed]


# ----------------------------------------------------------------- validation

def test_profile_probabilities_must_sum_to_one():
    with pytest.raises(ValueError):
        SimProfile(size_distribution=((1, 0.5), (2, 0.4)))


@pytest.mark.parametrize("make", [
    lambda: SimProfile(size_distribution=((1, 1.5), (2, -0.5))),
    lambda: SimProfile(size_distribution=((0, 0.5), (2, 0.5))),
    lambda: CovariateSpec("x", "factor", ((0.0, -0.25), (1.0, 1.25))),
    lambda: CovariateSpec("u", "covariate", ("uniform", 1.0, -1.0)),
    lambda: CovariateSpec("u", "covariate", ("uniform", 0.0, math.inf)),
], ids=["negative-size-probability", "empty-cluster", "negative-level-probability",
        "reversed-range", "infinite-range"])
def test_profile_rejects_undrawable_settings(make):
    with pytest.raises(ValueError):
        make()


def test_profile_alpha_range():
    with pytest.raises(ValueError):
        SimProfile(alpha=1.0)
    with pytest.raises(ValueError):
        SimProfile(alpha=-0.1)


# ---------------------------------------------------------------- determinism

def test_generate_deterministic(tmp_path):
    profile = SimProfile(n_clusters=60, alpha=0.3, intercept=-0.5, seed=21)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(generate(profile), a)
    write_csv(generate(profile), b)
    assert a.read_bytes() == b.read_bytes()


def test_generate_paper_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(generate_paper(n_clusters=50, alpha=0.2, seed=4), a)
    write_csv(generate_paper(n_clusters=50, alpha=0.2, seed=4), b)
    assert a.read_bytes() == b.read_bytes()


def test_lru_cache_evicts_least_recent():
    cache = LruCache(2)
    cache.store("a", 1)
    cache.store("b", 2)
    assert cache.lookup("a") == 1        # "b" is now the least recent
    cache.store("c", 3)
    assert list(cache) == ["a", "c"]
    assert cache.lookup("b") is None


def test_latent_caches_bounded_and_output_cache_independent(monkeypatch, tmp_path):
    # a continuous covariate gives every cluster new margins, so each
    # cluster adds cache keys that are never hit again
    profile = SimProfile(
        n_clusters=12, size_distribution=((2, 0.5), (3, 0.5)),
        covariate_specs=(CovariateSpec("u", "covariate", ("uniform", -1.0, 1.0)),),
        coefficients={"u": 1.0}, alpha=0.3, seed=5)
    outputs = []
    for rho_bound, chol_bound in ((10_000, 10_000), (8, 4)):
        monkeypatch.setattr(simulate, "_rho_cache", LruCache(rho_bound))
        monkeypatch.setattr(simulate, "_chol_cache", LruCache(chol_bound))
        for run in ("cold", "warm"):
            path = tmp_path / f"{rho_bound}-{run}.csv"
            write_csv(generate(profile), path)
            outputs.append(path.read_bytes())
            assert len(simulate._rho_cache) <= rho_bound
            assert len(simulate._chol_cache) <= chol_bound
        assert len(simulate._chol_cache) == min(chol_bound, 12)
    assert len(set(outputs)) == 1


# ---------------------------------------------------------------- calibration

def test_size_distribution_matches_published_histogram():
    ds = generate(SimProfile(n_clusters=10_000, alpha=0.0, seed=3))
    counts = collections.Counter(c.size for c in ds.clusters)
    for size, probability in TABLE_SIZES:
        assert abs(counts[size] / 10_000 - probability) < 0.03


def test_alpha_zero_rows_independent():
    # size-15 clusters give 105 pairs each: > 1e5 pairs from 1000 clusters
    profile = SimProfile(
        n_clusters=1000, size_distribution=((15, 1.0),), intercept=0.0,
        alpha=0.0, seed=8,
    )
    first, second = within_cluster_pairs(generate(profile))
    assert len(first) >= 100_000
    assert abs(np.corrcoef(first, second)[0, 1]) < 0.02


def test_alpha_half_symmetric_margins():
    profile = SimProfile(
        n_clusters=15_000, size_distribution=((2, 1.0),), intercept=0.0,
        alpha=0.5, seed=12,
    )
    first, second = within_cluster_pairs(generate(profile))
    assert np.corrcoef(first, second)[0, 1] == pytest.approx(0.5, abs=0.02)


def test_latent_rho_closed_form_and_quadrature():
    # at equal margins 1/2 the binary correlation is 2 asin(rho)/pi, so the
    # solved latent correlation must be sin(pi/4); cross-check the implied
    # orthant probability by direct numerical integration of the density
    rho = _latent_rho(0.5, 0.5, 0.5)
    assert rho == pytest.approx(math.sin(math.pi / 4), abs=1e-6)

    def density(y, x):
        det = 1 - rho**2
        return math.exp(-(x * x - 2 * rho * x * y + y * y) / (2 * det)) / (
            2 * math.pi * math.sqrt(det)
        )

    p11, _ = integrate.dblquad(density, -8.0, 0.0, -8.0, 0.0, epsabs=1e-10)
    assert (p11 - 0.25) / 0.25 == pytest.approx(0.5, abs=1e-3)


def test_binary_pair_correlation_independence():
    assert binary_pair_correlation(0.0, 0.3, 0.6) == pytest.approx(0.0, abs=1e-12)


def test_marginal_calibration_by_pattern():
    profile = SimProfile(
        n_clusters=4000,
        size_distribution=((2, 0.5), (3, 0.5)),
        covariate_specs=(
            CovariateSpec("x", "factor", ((0.0, 0.5), (1.0, 0.5)), False),
        ),
        intercept=-1.0,
        coefficients={"x": 0.8},
        alpha=0.4,
        seed=19,
    )
    ds = generate(profile)
    y = ds.response_vector()
    x = np.array(ds.column("x"))
    from scipy.special import expit

    for level, eta in ((0.0, -1.0), (1.0, -0.2)):
        target = expit(eta)
        hits = y[x == level]
        sigma = math.sqrt(target * (1 - target) / len(hits))
        assert abs(hits.mean() - target) < 3 * sigma


def test_infeasible_correlation_raises():
    profile = SimProfile(
        n_clusters=5,
        size_distribution=((2, 1.0),),
        covariate_specs=(
            CovariateSpec("x", "factor", ((0.0, 0.5), (1.0, 0.5)), False),
        ),
        intercept=-2.944,           # p about 0.05
        coefficients={"x": 5.888},  # p about 0.95 at x=1
        alpha=0.3,
        seed=2,
    )
    with pytest.raises(InfeasibleCorrelation):
        generate(profile)


def test_infeasible_correlation_names_the_first_cluster_that_fails():
    # sizes 2 and 3 are factored as separate stacks; the error must still
    # name the margins of the first infeasible cluster in dataset order
    profile = SimProfile(
        n_clusters=40, size_distribution=((2, 0.5), (3, 0.5)),
        covariate_specs=(
            CovariateSpec("x", "factor", ((0.0, 0.3), (1.0, 0.4), (2.0, 0.3)), False),
        ),
        intercept=-2.5, coefficients={"x": 2.5}, alpha=0.3, seed=4)
    with pytest.raises(InfeasibleCorrelation) as expected:
        reference_generate(profile)
    with pytest.raises(InfeasibleCorrelation) as raised:
        generate(profile)
    assert str(raised.value) == str(expected.value)


# ------------------------------------------------------------- paper marginals

def test_paper_marginals_exact_crosstab(paper_ds):
    t = crosstab_2x2(paper_ds, "AREA1")
    assert (t.a, t.b, t.c, t.d) == (42, 184, 27, 52)
    assert odds_ratio(t) == pytest.approx(0.44, abs=0.005)


def test_paper_marginals_sizes(paper_ds):
    counts = collections.Counter(c.size for c in paper_ds.clusters)
    assert dict(counts) == {1: 31, 2: 67, 3: 17, 4: 14, 5: 3, 6: 3}
    assert paper_ds.n_total == 305
    assert paper_ds.n_clusters == 135


def test_paper_marginals_counts_invariant_to_seed():
    for seed in (1, 7, 123):
        ds = build_paper_marginals(seed)
        t = crosstab_2x2(ds, "AREA1")
        assert (t.a, t.b, t.c, t.d) == (42, 184, 27, 52)
        counts = collections.Counter(c.size for c in ds.clusters)
        assert dict(counts) == {1: 31, 2: 67, 3: 17, 4: 14, 5: 3, 6: 3}


def test_paper_marginals_independent_fit(paper_ds):
    event = recode_response(paper_ds, "LOOSENING", "first")
    x = build_design(event, [TermCoding("AREA1", "factor", "descending")])
    fit = fit_gee(x, event, BINOMIAL, Independent())
    assert fit.beta[0] == pytest.approx(MARGINAL_INTERCEPT, abs=1e-8)
    assert fit.beta[1] == pytest.approx(MARGINAL_SLOPE, abs=1e-8)


def test_paper_marginals_site_consistency(paper_ds):
    # AREA2 sites: even = maxillary (AREA1=1), odd = mandibular; distinct
    # inside each patient
    for c in paper_ds.clusters:
        sites = [r.covariates["AREA2"] for r in c.rows]
        assert len(set(sites)) == len(sites)
        for r in c.rows:
            parity = r.covariates["AREA2"] % 2
            assert (parity == 0) == (r.covariates["AREA1"] == 1.0)


def test_generate_paper_schema_and_consistency():
    ds = generate_paper(n_clusters=80, alpha=0.2, seed=6)
    assert set(ds.variable_names) == {
        "AGE", "GENDER", "AREA1", "AREA2", "LENGTH", "DIAMETER", "NINSERT",
        "AGE1", "LENGTH1", "NINSERT1",
    }
    for c in ds.clusters:
        sites = [r.covariates["AREA2"] for r in c.rows]
        assert len(set(sites)) == len(sites)
        for r in c.rows:
            cov = r.covariates
            assert (cov["AGE"] > 20) == (cov["AGE1"] == 1.0)
            assert (cov["LENGTH"] >= 8) == (cov["LENGTH1"] == 1.0)
            assert (cov["NINSERT"] > 20) == (cov["NINSERT1"] == 1.0)
            assert (cov["AREA2"] % 2 == 0) == (cov["AREA1"] == 1.0)
