"""The size-batched cluster kernel against plain per-cluster references.

`reference_fit` repeats fit_gee's modified Fisher scoring with the textbook
per-cluster pass (factor V_i, solve, accumulate) and `reference_alpha`
repeats the moment estimates cluster by cluster.  The batched code in
`geeclust.gee` must agree with both to round-off.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geeclust import (
    AR1,
    ClusteredDataset,
    Exchangeable,
    Family,
    Fixed,
    GeeOptions,
    Independent,
    MDependent,
    TermCoding,
    Unstructured,
    build_design,
    estimate_alpha,
    estimate_phi,
    fit_gee,
    generate_paper,
    irls_fit,
    realize_correlation,
    recode_response,
)
from geeclust import gee, glm
from geeclust.errors import GeeError, NotPositiveDefinite
from geeclust.linalg import spd_factor, spd_solve

TOL = 1e-10
BINOMIAL = Family("binomial", "logit")
PAPER_TERMS = [TermCoding(t, "factor", "descending") for t in ("AGE1", "AREA1", "NINSERT1")]


# ------------------------------------------------------------- references

def _grouped(ds, resid):
    return [(resid[start:start + size], ds.positions[start:start + size])
            for start, size in zip(ds.starts.tolist(), ds.sizes.tolist())]


def reference_alpha(cs, grouped, phi, p, subtract_p=True):
    """Moment estimates, one cluster and one pair at a time."""

    def moment(num, count):
        if count == 0:
            return 0.0
        denom = count - p if subtract_p and count > p else count
        return float(np.clip(num / (denom * phi), -0.99, 0.99))

    def lag_moment(s):
        num, count = 0.0, 0
        for r, q in grouped:
            for j in range(len(r)):
                for k in range(j + 1, len(r)):
                    if abs(q[j] - q[k]) == s:
                        num += r[j] * r[k]
                        count += 1
        return moment(num, count)

    if isinstance(cs, Exchangeable):
        num = sum((np.sum(r) ** 2 - np.sum(r**2)) / 2.0 for r, _ in grouped)
        pairs = sum(len(r) * (len(r) - 1) // 2 for r, _ in grouped)
        floor = -1.0 / (max(len(r) for r, _ in grouped) - 1) + 1e-6
        return Exchangeable(max(moment(num, pairs), floor))
    if isinstance(cs, AR1):
        return AR1(lag_moment(1))
    if isinstance(cs, MDependent):
        return MDependent(cs.m, tuple(lag_moment(s) for s in range(1, cs.m + 1)))
    if isinstance(cs, Unstructured):
        t = cs.size
        template = np.eye(t)
        for a in range(t):
            for b in range(a + 1, t):
                num, count = 0.0, 0
                for r, q in grouped:
                    q = list(q)
                    if a + 1 in q and b + 1 in q:
                        num += r[q.index(a + 1)] * r[q.index(b + 1)]
                        count += 1
                template[a, b] = template[b, a] = moment(num, count)
        return Unstructured(t, gee._ensure_pd_template(template)[0])
    return cs


def reference_assemble(values, y, ds, f, beta, cs, phi):
    """Information, score and meat from one factor-and-solve per cluster."""
    mu = glm.link_inverse(f, values @ beta)
    a = glm.variance_fn(f, mu)
    dmu = a  # the canonical link's d mu / d eta is V(mu)
    p = values.shape[1]
    info, score, meat = np.zeros((p, p)), np.zeros(p), np.zeros((p, p))
    for start, size in zip(ds.starts.tolist(), ds.sizes.tolist()):
        sl = slice(start, start + size)
        d = dmu[sl][:, None] * values[sl]
        s = np.sqrt(a[sl])
        v = phi * np.outer(s, s) * realize_correlation(cs, size, ds.positions[sl])
        factor = spd_factor(v)
        g = d.T @ spd_solve(factor, y[sl] - mu[sl])
        info += d.T @ spd_solve(factor, d)
        score += g
        meat += np.outer(g, g)
    return info, score, meat


def reference_fit(x, ds, f, cs, opts=GeeOptions()):
    """fit_gee's scoring loop over the reference pass and moments."""
    values, y = x.values, ds.response_vector()
    n, p = values.shape
    fix_phi = opts.fix_phi if opts.fix_phi is not None else f.distribution == "binomial"
    beta = irls_fit(values, y, f).beta.copy()

    def refresh(cs, beta):
        mu = glm.link_inverse(f, values @ beta)
        resid = (y - mu) / np.sqrt(glm.variance_fn(f, mu))
        phi = estimate_phi(resid, n, p, fix_to_one=fix_phi)
        if opts.update_alpha:
            cs = reference_alpha(cs, _grouped(ds, resid), phi, p, opts.subtract_p)
        return cs, phi

    cs, phi = refresh(cs, beta)
    for iterations in range(1, opts.max_iter + 1):
        info, score, _ = reference_assemble(values, y, ds, f, beta, cs, phi)
        delta = spd_solve(spd_factor(info), score)
        beta = beta + delta
        cs, phi = refresh(cs, beta)
        if np.max(np.abs(delta)) < opts.tol:
            break
    info, _, meat = reference_assemble(values, y, ds, f, beta, cs, phi)
    minv = spd_solve(spd_factor(info), np.eye(p))
    minv = (minv + minv.T) / 2.0
    robust = minv @ meat @ minv
    return {"beta": beta, "structure": cs, "phi": phi, "cov_model_based": minv,
            "cov_robust": (robust + robust.T) / 2.0, "iterations": iterations}


def _parameters(cs):
    if isinstance(cs, Independent):
        return np.zeros(0)
    if isinstance(cs, (Exchangeable, AR1)):
        return np.array([cs.alpha])
    if isinstance(cs, MDependent):
        return np.array(cs.alphas)
    if isinstance(cs, Unstructured):
        return cs.alphas.ravel()
    return cs.matrix.ravel()


def assert_same_fit(fit, ref):
    assert fit.iterations == ref["iterations"]
    for name in ("beta", "cov_model_based", "cov_robust"):
        assert np.max(np.abs(getattr(fit, name) - ref[name])) <= TOL, name
    assert abs(fit.phi - ref["phi"]) <= TOL
    assert type(fit.structure) is type(ref["structure"])
    assert np.max(np.abs(_parameters(fit.structure) - _parameters(ref["structure"])),
                  initial=0.0) <= TOL


# ------------------------------------------------------------------- data

@pytest.fixture(scope="module")
def gapped():
    """Ragged clusters (1-6 rows) on gapped occasions out of 12 sites.

    The m-dependent working correlation is not positive definite on every
    such dataset (seed 21 raises NotPositiveDefinite in both the batched and
    the reference pass); this seed fits under all six structures.
    """
    ds = recode_response(generate_paper(200, 0.3, 22), "LOOSENING", "first")
    x = build_design(ds, [TermCoding(t, "factor", "descending")
                          for t in ("AREA1", "AGE1", "NINSERT1")])
    return ds, x


def _structures(t):
    lag = np.abs(np.subtract.outer(np.arange(t), np.arange(t)))
    return [Independent(), MDependent(2), Exchangeable(), AR1(), Unstructured(t),
            Fixed(0.5 ** lag)]


def _permuted(ds, order):
    rows = np.concatenate([np.arange(ds.starts[i], ds.starts[i] + ds.sizes[i])
                           for i in order])
    return ClusteredDataset([ds.ids[i] for i in order], ds.sizes[list(order)],
                            ds.positions[rows], ds.response[rows],
                            {name: values[rows] for name, values in ds.columns.items()},
                            ds.cluster_col, ds.response_col, ds.within_col)


def _duplicated(ds):
    """Every cluster twice: the copies follow the originals under new ids."""
    rows = np.tile(np.arange(ds.n_total), 2)
    return ClusteredDataset(list(ds.ids) + [f"copy-{i}" for i in ds.ids],
                            np.tile(ds.sizes, 2), ds.positions[rows], ds.response[rows],
                            {name: values[rows] for name, values in ds.columns.items()},
                            ds.cluster_col, ds.response_col, ds.within_col)


def _synthetic(seed, sizes, family, gaps=(1, 4)):
    """One normal covariate on occasions whose steps are drawn from range(*gaps).

    The response follows `family`: a logistic binary, a Poisson count with a
    log mean, or a normal with identity mean and unit variance.
    """
    rng = np.random.default_rng(seed)
    sizes = np.asarray(sizes)
    positions = np.concatenate([np.cumsum(rng.integers(*gaps, m)) for m in sizes])
    x = rng.standard_normal(int(sizes.sum()))
    eta = 0.3 + 0.5 * x + np.repeat(0.4 * rng.standard_normal(len(sizes)), sizes)
    if family.distribution == "binomial":
        y = (rng.random(len(x)) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    elif family.distribution == "poisson":
        y = rng.poisson(np.exp(eta)).astype(float)
    else:
        y = eta + rng.standard_normal(len(x))
    ds = ClusteredDataset([str(i) for i in range(len(sizes))], sizes, positions, y,
                          {"x": x})
    return ds, build_design(ds, [TermCoding("x", "covariate")])


# ------------------------------------------------------------------ tests

def test_gapped_data_has_many_size_groups(gapped):
    ds, _ = gapped
    assert len(set(ds.cluster_sizes())) >= 5
    assert any(np.any(np.diff(ds.positions[start:start + size]) > 1)
               for start, size in zip(ds.starts.tolist(), ds.sizes.tolist()))


@pytest.mark.parametrize("index", range(6))
def test_batched_fit_matches_reference_loop(gapped, index):
    ds, x = gapped
    cs = _structures(ds.max_position)[index]
    assert_same_fit(fit_gee(x, ds, BINOMIAL, cs), reference_fit(x, ds, BINOMIAL, cs))


def test_batched_fit_matches_reference_with_estimated_phi(gapped):
    ds, x = gapped
    normal = Family("normal", "identity")
    fit = fit_gee(x, ds, normal, AR1())
    assert fit.phi != 1.0
    assert_same_fit(fit, reference_fit(x, ds, normal, AR1()))


@pytest.mark.parametrize("index", range(6))
def test_batched_realization_matches_single_clusters(index):
    rng = np.random.default_rng(index)
    positions = np.sort(rng.permuted(np.tile(np.arange(1, 9), (5, 1)), axis=1)[:, :4], axis=1)
    cs = _structures(8)[index]
    stack = realize_correlation(cs, 4, positions)
    assert stack.shape == (5, 4, 4)
    for g in range(5):
        assert np.array_equal(stack[g], realize_correlation(cs, 4, positions[g]))
    with pytest.raises(ValueError):
        realize_correlation(cs, 3, positions)


@pytest.mark.parametrize("cs", [Exchangeable(), AR1(), MDependent(3), Unstructured(8)],
                         ids=lambda cs: cs.kind)
@pytest.mark.parametrize("subtract_p", [True, False])
def test_segment_moments_match_per_cluster_reference(cs, subtract_p):
    rng = np.random.default_rng(7)
    grouped = []
    for _ in range(60):
        size = int(rng.integers(1, 6))
        positions = np.sort(rng.choice(np.arange(1, 9), size, replace=False))
        grouped.append((rng.standard_normal(size) * 0.8, positions))
    resid = np.concatenate([r for r, _ in grouped])
    positions = np.concatenate([q for _, q in grouped])
    sizes = [len(r) for r, _ in grouped]
    new = estimate_alpha(cs, resid, positions, sizes, phi=1.3, p=3, subtract_p=subtract_p)
    ref = reference_alpha(cs, grouped, phi=1.3, p=3, subtract_p=subtract_p)
    assert np.max(np.abs(_parameters(new) - _parameters(ref))) <= 1e-12


def test_fixed_rejects_singular_matrix():
    with pytest.raises(NotPositiveDefinite,
                       match="fixed working correlation is not positive definite"):
        Fixed([[1.0, 1.0], [1.0, 1.0]])


def test_unrescuable_working_correlation_raises():
    ds = ClusteredDataset([str(i) for i in range(8)], [3] * 8, [1, 2, 3] * 8,
                          [float(j % 2) for j in range(3)] * 8,
                          {"x": [float(j) for j in range(3)] * 8})
    x = build_design(ds, [TermCoding("x", "covariate")])
    indefinite = Unstructured(3, [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    with pytest.raises(NotPositiveDefinite, match=r"^unstructured working correlation "
                       r"\(template size 3\) is not positive definite at cluster '0', "
                       r"occasions 1, 2, 3$"):
        fit_gee(x, ds, BINOMIAL, indefinite, GeeOptions(update_alpha=False))


def test_boundary_template_is_an_error_naming_its_cluster():
    # the block at occasions 1, 3, 4 has smallest eigenvalue 1 + 2r = -1e-12,
    # which a jitter of 1e-10 would lift; the blocks at 1, 2, 3 and 2, 3 are PD
    r = -0.5 - 5e-13
    template = np.eye(4)
    template[[0, 0, 2, 2, 3, 3], [2, 3, 0, 3, 0, 2]] = r
    occasions = [(1, 2, 3), (2, 3), (1, 2, 3), (1, 3, 4), (2, 3), (1, 3, 4)] * 2
    ids = [f"P{i + 1}" for i in range(len(occasions))]
    positions = [o for cluster in occasions for o in cluster]
    ds = ClusteredDataset(ids, [len(o) for o in occasions], positions,
                          [float(k % 3 == 0) for k in range(len(positions))],
                          {"x": [float(k % 5) for k in range(len(positions))]})
    x = build_design(ds, [TermCoding("x", "covariate")])
    with pytest.raises(NotPositiveDefinite,
                       match=r"at cluster 'P4', occasions 1, 3, 4$"):
        fit_gee(x, ds, BINOMIAL, Unstructured(4, template), GeeOptions(update_alpha=False))


def test_unstructured_rejects_non_finite_template():
    with pytest.raises(ValueError, match="non-finite"):
        Unstructured(2, [[1.0, np.nan], [np.nan, 1.0]])


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(order=st.permutations(range(60)), index=st.integers(0, 5))
def test_fit_is_invariant_to_cluster_order(order, index):
    ds = recode_response(generate_paper(60, 0.3, 4), "LOOSENING", "first")
    terms = [TermCoding("AREA1", "factor", "descending")]
    cs = _structures(ds.max_position)[index]
    base = fit_gee(build_design(ds, terms), ds, BINOMIAL, cs)
    shuffled_ds = _permuted(ds, order)
    shuffled = fit_gee(build_design(shuffled_ds, terms), shuffled_ds, BINOMIAL, cs)
    assert_same_fit(shuffled, {
        "beta": base.beta, "structure": base.structure, "phi": base.phi,
        "cov_model_based": base.cov_model_based, "cov_robust": base.cov_robust,
        "iterations": base.iterations})


# singletons and larger clusters interleaved, largest size 5
MIXED_SIZES = np.tile([1, 3, 1, 1, 5, 2, 1, 4], 10)


POISSON, NORMAL = Family("poisson", "log"), Family("normal", "identity")


@pytest.mark.parametrize("family, cs, gaps, seed", [
    (BINOMIAL, Independent(), (1, 4), 11),
    (BINOMIAL, Exchangeable(0.3), (1, 4), 11),
    (BINOMIAL, AR1(0.4), (1, 4), 11),
    (BINOMIAL, Exchangeable(-1.0 / (MIXED_SIZES.max() - 1) + 1e-6), (1, 4), 12),  # the floor
    (BINOMIAL, AR1(-0.6), (2, 5), 13),                  # every occasion gap 2 or more
    *[(family, cs, (1, 4), 14) for family in (POISSON, NORMAL)
      for cs in (Independent(), Exchangeable(0.3), AR1(-0.4))],
], ids=lambda v: getattr(v, "distribution", None) or getattr(v, "kind", None) or str(v))
def test_fixed_alpha_closed_forms_match_reference(family, cs, gaps, seed):
    ds, x = _synthetic(seed, MIXED_SIZES, family, gaps)
    opts = GeeOptions(update_alpha=False)
    fit = fit_gee(x, ds, family, cs, opts)
    assert (fit.phi == 1.0) == (family is BINOMIAL)
    assert_same_fit(fit, reference_fit(x, ds, family, cs, opts))


def test_exchangeable_beyond_its_negative_bound_raises():
    ds, x = _synthetic(11, MIXED_SIZES, BINOMIAL)
    with pytest.raises(NotPositiveDefinite):
        fit_gee(x, ds, BINOMIAL, Exchangeable(-0.5), GeeOptions(update_alpha=False))


@pytest.mark.parametrize("index", range(5), ids=lambda i: _structures(2)[i].kind)
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16), n_clusters=st.integers(30, 90))
def test_duplicating_every_cluster_doubles_every_sum(seed, n_clusters, index):
    """Information, score and meat add up cluster by cluster.

    With raw pair counts the moment estimates of the doubled data equal the
    originals, so every sum doubles: beta stays, both covariances halve, the
    QIC penalty trace(Omega_I V_R) stays and -2Q doubles.
    """
    ds = recode_response(generate_paper(n_clusters, 0.25, seed), "LOOSENING", "first")
    twice = _duplicated(ds)
    cs = _structures(ds.max_position)[index]
    opts = GeeOptions(subtract_p=False)
    x, x2 = build_design(ds, PAPER_TERMS), build_design(twice, PAPER_TERMS)
    try:
        fit = fit_gee(x, ds, BINOMIAL, cs, opts)
    except GeeError as exc:
        with pytest.raises(type(exc)):
            fit_gee(x2, twice, BINOMIAL, cs, opts)
        return
    doubled = fit_gee(x2, twice, BINOMIAL, cs, opts)

    def close(value, expected, rtol=1e-9):
        return np.max(np.abs(value - expected)) <= rtol * np.max(np.abs(expected))

    def penalty(f, x, data):
        return np.trace(gee.independence_information(x, data, BINOMIAL, f.beta, f.phi)
                        @ f.cov_robust)

    assert doubled.iterations == fit.iterations
    assert np.max(np.abs(doubled.beta - fit.beta)) <= TOL
    assert close(2.0 * doubled.cov_model_based, fit.cov_model_based)
    assert close(2.0 * doubled.cov_robust, fit.cov_robust)
    assert close(penalty(doubled, x2, twice), penalty(fit, x, ds))
    assert close(doubled.quasi_likelihood_independence,
                 2.0 * fit.quasi_likelihood_independence)
