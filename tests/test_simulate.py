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
    ClusteredDataset,
    CovariateSpec,
    Family,
    Independent,
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
    _distinct_rows,
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
    for start, size in zip(ds.starts.tolist(), ds.sizes.tolist()):
        values = ds.response[start:start + size].tolist()
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
    cluster_sizes, positions, response = [], [], []
    columns = {name: [] for name in names}
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
            z = _latent_cholesky(tuple(margins), tuple(round(p, 12) for p in margins),
                                 profile.alpha) @ noise
        else:
            z = noise
        responses = (z <= thresholds).astype(float)
        cluster_sizes.append(size)
        positions += range(1, size + 1)
        response += responses.tolist()
        for name in names:
            columns[name] += draws[name]
    return ClusteredDataset([str(i + 1) for i in range(profile.n_clusters)], cluster_sizes,
                            positions, response, columns, "ID", profile.response_name, None)


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


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6).flatmap(lambda k: st.lists(
    st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0 / 3.0, 0.75]), min_size=k, max_size=k),
    min_size=1, max_size=50)))
def test_distinct_rows_match_unique_along_rows(rows):
    """Rows drawn from a small pool repeat, so the groups, their order, the
    first occurrences and the inverse all take more than one row."""
    a = np.array(rows)
    distinct, first, inverse = _distinct_rows(a)
    ref_distinct, ref_first, ref_inverse = np.unique(
        a, axis=0, return_index=True, return_inverse=True)
    assert np.array_equal(distinct, ref_distinct)
    assert np.array_equal(first, ref_first)
    assert np.array_equal(inverse, ref_inverse.reshape(-1))
    assert np.array_equal(distinct[inverse], a)


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


MAXILLARY = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
MANDIBULAR = (1.0, 3.0, 5.0, 7.0, 9.0, 11.0)


def reference_draw(rng, pairs):
    """One value of (value, probability) pairs from its own `choice` call."""
    values = [v for v, _ in pairs]
    return values[rng.choice(len(values), p=[p for _, p in pairs])]


def reference_sites(rng, areas):
    """A free site of each row's jaw, one `choice` call per row."""
    used, sites = set(), []
    for area in areas:
        pool = [s for s in (MAXILLARY if area == 1.0 else MANDIBULAR) if s not in used]
        site = float(pool[rng.choice(len(pool))])
        used.add(site)
        sites.append(site)
    return sites


def reference_patient(rng, age1, gender, ninsert1):
    return {
        "AGE1": age1, "GENDER": gender, "NINSERT1": ninsert1,
        "AGE": float(rng.integers(21, 41) if age1 == 1.0 else rng.integers(12, 21)),
        "NINSERT": float(rng.integers(21, 46) if ninsert1 == 1.0 else rng.integers(1, 21)),
    }


def reference_screw(rng, row, length1=None):
    if length1 is None:
        length1 = reference_draw(rng, ((0.0, 0.4), (1.0, 0.6)))
    long_law, short_law = ((8.0, 0.5), (10.0, 0.35), (12.0, 0.15)), ((6.0, 0.4), (7.0, 0.6))
    row["LENGTH"] = reference_draw(rng, long_law if length1 == 1.0 else short_law)
    row["LENGTH1"] = length1
    # drawn even when DIAMETER is set, which keeps the stream position
    row.setdefault("DIAMETER", reference_draw(rng, ((1.6, 0.85), (1.8, 0.15))))


def reference_paper_dataset(cluster_rows):
    """Rows sorted by site in each cluster; a site's position is its rank
    among the sites seen anywhere in the dataset."""
    observed = sorted({row["AREA2"] for _, rows in cluster_rows for row in rows})
    rank = {v: i + 1 for i, v in enumerate(observed)}
    flat = [r for _, rows in cluster_rows for r in sorted(rows, key=lambda r: r["AREA2"])]
    return ClusteredDataset(
        [cid for cid, _ in cluster_rows], [len(rows) for _, rows in cluster_rows],
        [rank[r["AREA2"]] for r in flat], [r["LOOSENING"] for r in flat],
        {name: [r[name] for r in flat] for name in simulate.PAPER_VARIABLES},
        "ID", "LOOSENING", "AREA2")


def reference_generate_paper(n_clusters, alpha, seed):
    """`generate_paper` one row dict and one draw at a time, as it first was."""
    base = generate(paper_profile(n_clusters, alpha, seed))
    rng = np.random.default_rng([seed, 17])
    col = {name: values.tolist() for name, values in base.columns.items()}
    response = base.response.tolist()
    cluster_rows = []
    for cid, a, m in zip(base.ids, base.starts.tolist(), base.sizes.tolist()):
        patient = reference_patient(rng, col["AGE1"][a], col["GENDER"][a], col["NINSERT1"][a])
        sites = reference_sites(rng, col["AREA1"][a:a + m])
        rows = []
        for j, site in zip(range(a, a + m), sites):
            row = dict(patient, LOOSENING=response[j], AREA1=col["AREA1"][j], AREA2=site,
                       DIAMETER=col["DIAMETER"][j])
            reference_screw(rng, row, length1=col["LENGTH1"][j])
            rows.append(row)
        cluster_rows.append((cid, rows))
    return reference_paper_dataset(cluster_rows)


def reference_build_paper_marginals(seed):
    """`build_paper_marginals` one row dict and one draw at a time."""
    rng = np.random.default_rng(seed)
    composition = (
        [(1, 1)] * 19 + [(1, 0)] * 12 + [(2, 2)] * 4 + [(2, 1)] * 15 + [(2, 0)] * 48
        + [(3, 1)] * 17 + [(4, 2)] * 4 + [(4, 1)] * 2 + [(4, 0)] * 8 + [(5, 0)] * 3
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
        areas = [(area_fail if y == 1.0 else area_ok).pop() for y in outcomes]
        sites = reference_sites(rng, areas)
        age1 = reference_draw(rng, ((0.0, 0.45), (1.0, 0.55)))
        gender = reference_draw(rng, ((0.0, 0.55), (1.0, 0.45)))
        ninsert1 = float(rng.choice([0.0, 1.0]))
        patient = reference_patient(rng, age1, gender, ninsert1)
        rows = []
        for y, area, site in zip(outcomes, areas, sites):
            row = dict(patient, LOOSENING=y, AREA1=area, AREA2=site)
            reference_screw(rng, row)
            rows.append(row)
        cluster_rows.append((str(cid), rows))
    return reference_paper_dataset(cluster_rows)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_clusters=st.integers(1, 60),
    alpha=st.sampled_from([0.0, 0.1, 0.25, 0.3]),
)
def test_generate_paper_matches_per_row_reference(seed, n_clusters, alpha,
                                                  tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("paper")
    assert csv_bytes(generate_paper(n_clusters, alpha, seed), tmp_path, "new.csv") == \
        csv_bytes(reference_generate_paper(n_clusters, alpha, seed), tmp_path, "ref.csv")


def test_generate_paper_makes_two_generator_calls_per_cluster(monkeypatch, tmp_path):
    calls = collections.Counter()
    make_rng = np.random.default_rng

    class CountingGenerator:
        """Counts the calls made on the back-fill stream, seeded [seed, 17]."""

        def __init__(self, seed):
            self.rng, self.back_fill = make_rng(seed), isinstance(seed, list)

        def __getattr__(self, name):
            method = getattr(self.rng, name)

            def counted(*args, **kwargs):
                if self.back_fill:
                    calls[name] += 1
                return method(*args, **kwargs)
            return counted

    expected = csv_bytes(generate_paper(37, 0.25, 5), tmp_path, "plain.csv")
    monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
    counted = csv_bytes(generate_paper(37, 0.25, 5), tmp_path, "counted.csv")
    assert counted == expected
    assert calls == {"integers": 37, "random": 37}


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_paper_marginals_match_per_row_reference(seed, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("marginals")
    assert csv_bytes(build_paper_marginals(seed), tmp_path, "new.csv") == \
        csv_bytes(reference_build_paper_marginals(seed), tmp_path, "ref.csv")


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


@pytest.mark.parametrize("n_clusters", [0, -3])
def test_generate_paper_rejects_fewer_than_one_cluster(n_clusters):
    with pytest.raises(ValueError, match=f"got {n_clusters}"):
        generate_paper(n_clusters, 0.3, 1)


def test_generate_allows_zero_clusters():
    ds = generate(SimProfile(n_clusters=0))
    assert (ds.n_clusters, ds.n_total) == (0, 0)


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
    counts = collections.Counter(ds.cluster_sizes())
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
    counts = collections.Counter(paper_ds.cluster_sizes())
    assert dict(counts) == {1: 31, 2: 67, 3: 17, 4: 14, 5: 3, 6: 3}
    assert paper_ds.n_total == 305
    assert paper_ds.n_clusters == 135


def test_paper_marginals_counts_invariant_to_seed():
    for seed in (1, 7, 123):
        ds = build_paper_marginals(seed)
        t = crosstab_2x2(ds, "AREA1")
        assert (t.a, t.b, t.c, t.d) == (42, 184, 27, 52)
        counts = collections.Counter(ds.cluster_sizes())
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
    area1, area2 = paper_ds.column("AREA1"), paper_ds.column("AREA2")
    for start, size in zip(paper_ds.starts.tolist(), paper_ds.sizes.tolist()):
        sites = area2[start:start + size]
        assert len(set(sites)) == len(sites)
        for j in range(start, start + size):
            parity = area2[j] % 2
            assert (parity == 0) == (area1[j] == 1.0)


def test_generate_paper_schema_and_consistency():
    ds = generate_paper(n_clusters=80, alpha=0.2, seed=6)
    assert set(ds.variable_names) == {
        "AGE", "GENDER", "AREA1", "AREA2", "LENGTH", "DIAMETER", "NINSERT",
        "AGE1", "LENGTH1", "NINSERT1",
    }
    column = {name: ds.column(name) for name in ds.variable_names}
    for start, size in zip(ds.starts.tolist(), ds.sizes.tolist()):
        sites = column["AREA2"][start:start + size]
        assert len(set(sites)) == len(sites)
        for j in range(start, start + size):
            cov = {name: values[j] for name, values in column.items()}
            assert (cov["AGE"] > 20) == (cov["AGE1"] == 1.0)
            assert (cov["LENGTH"] >= 8) == (cov["LENGTH1"] == 1.0)
            assert (cov["NINSERT"] > 20) == (cov["NINSERT1"] == 1.0)
            assert (cov["AREA2"] % 2 == 0) == (cov["AREA1"] == 1.0)
