import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

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
    complete_cases,
    default_structures,
    estimate_alpha,
    estimate_phi,
    fit_gee,
    generate_paper,
    irls_fit,
    realize_correlation,
    recode_response,
    robust_se,
)
from geeclust.errors import (
    DomainError,
    GeeError,
    InvalidAlpha,
    NoConvergence,
    NoPairs,
    NotPositiveDefinite,
    PerfectSeparation,
    RankDeficient,
    SizeExceedsTemplate,
    UnderdeterminedLag,
)
from geeclust.gee import GeeFit

from conftest import MARGINAL_INTERCEPT, MARGINAL_SLOPE, MARGINAL_OR

BINOMIAL = Family("binomial", "logit")


def dataset_from_arrays(cluster_sizes, x_values, y_values, positions=None):
    """Small binomial dataset with one covariate named 'x'."""
    sizes = np.asarray(cluster_sizes, dtype=int)
    n = int(sizes.sum())
    cluster = np.repeat(np.arange(len(sizes)), sizes)
    if positions is None:
        positions = np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes) + 1
    positions = np.asarray(positions[:n], dtype=int)
    order = np.lexsort((positions, cluster))   # rows sorted by position in a cluster
    return ClusteredDataset(
        [str(cid) for cid in range(1, len(sizes) + 1)], sizes, positions[order],
        np.asarray(y_values[:n], dtype=float)[order],
        {"x": np.asarray(x_values[:n], dtype=float)[order]}, "ID", "Y", None)


def _probit(p):
    from scipy.stats import norm

    return norm.ppf(p)


# ------------------------------------------------------- realize_correlation

def test_realize_independent():
    assert np.allclose(realize_correlation(Independent(), 3), np.eye(3))


def test_realize_exchangeable():
    r = realize_correlation(Exchangeable(0.4), 3)
    expected = np.array([[1.0, 0.4, 0.4], [0.4, 1.0, 0.4], [0.4, 0.4, 1.0]])
    assert np.allclose(r, expected)
    assert np.allclose(realize_correlation(Exchangeable(0.4), 1), [[1.0]])


def test_realize_ar1_powers():
    r = realize_correlation(AR1(0.5), 3)
    expected = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
    assert np.allclose(r, expected)


def test_realize_ar1_with_position_gaps():
    r = realize_correlation(AR1(0.5), 2, positions=[2, 5])
    assert r[0, 1] == pytest.approx(0.5**3)


def test_realize_mdependent_zero_beyond_m():
    r = realize_correlation(MDependent(2, (0.3, 0.1)), 4)
    expected = np.array(
        [
            [1.0, 0.3, 0.1, 0.0],
            [0.3, 1.0, 0.3, 0.1],
            [0.1, 0.3, 1.0, 0.3],
            [0.0, 0.1, 0.3, 1.0],
        ]
    )
    assert np.allclose(r, expected)


def test_realize_unstructured_subsets_template():
    template = np.eye(3)
    template[0, 2] = template[2, 0] = 0.7
    template[0, 1] = template[1, 0] = 0.2
    template[1, 2] = template[2, 1] = 0.4
    cs = Unstructured(3, template)
    r = realize_correlation(cs, 2, positions=[1, 3])
    assert np.allclose(r, [[1.0, 0.7], [0.7, 1.0]])


def test_realize_fixed_subsets_matrix():
    m = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.1], [0.2, 0.1, 1.0]])
    r = realize_correlation(Fixed(m), 2, positions=[2, 3])
    assert np.allclose(r, [[1.0, 0.1], [0.1, 1.0]])


def test_realize_size_exceeds_template():
    with pytest.raises(SizeExceedsTemplate):
        realize_correlation(Unstructured(2), 3)


def test_unknown_structure_is_a_type_error():
    with pytest.raises(TypeError, match="unknown correlation structure"):
        realize_correlation("exchangeable", 2)
    with pytest.raises(TypeError, match="unknown correlation structure"):
        estimate_alpha("exchangeable", [0.5, -0.5], [1, 2], [2], 1.0, 1)


def test_invalid_alpha_rejected():
    with pytest.raises(InvalidAlpha):
        Exchangeable(1.0)
    with pytest.raises(InvalidAlpha):
        AR1(-1.5)


# ---------------------------------------------------------------- estimate_phi

def test_phi_fixed_to_one():
    assert estimate_phi([2.0, -3.0], 2, 0, fix_to_one=True) == 1.0


def test_phi_zero_residuals():
    assert estimate_phi(np.zeros(6), 6, 2) == 0.0


def test_phi_direct_formula():
    assert estimate_phi([1.0, -1.0, 1.0, -1.0], 4, 2) == pytest.approx(2.0)


# -------------------------------------------------------------- estimate_alpha

def test_alpha_exchangeable_identical_residuals_clamped():
    # identical residuals inside every cluster push the moment to the
    # perfect-correlation side; the estimate is clamped at 0.99
    resid = np.array([2.0, 2.0, 0.5, 0.5, 0.5])
    positions = np.array([1, 2, 1, 2, 3])
    cs = estimate_alpha(Exchangeable(), resid, positions, [2, 3], phi=1.0, p=0)
    assert cs.alpha == pytest.approx(0.99)


def test_alpha_exchangeable_hand_value():
    # residual pairs (1,1) and (-1,-1): numerator 2 over 2 pairs -> 1, clamped
    resid = np.array([1.0, 1.0, -1.0, -1.0])
    positions = np.array([1, 2, 1, 2])
    cs = estimate_alpha(Exchangeable(), resid, positions, [2, 2], phi=1.0, p=0)
    assert cs.alpha == pytest.approx(0.99)


def test_alpha_independent_residuals_near_zero():
    rng = np.random.default_rng(42)
    resid = rng.standard_normal(20_000)
    positions = np.tile([1, 2], 10_000)
    cs = estimate_alpha(Exchangeable(), resid, positions, [2] * 10_000, phi=1.0, p=2)
    assert abs(cs.alpha) < 0.05


def test_alpha_all_singletons_raises():
    with pytest.raises(NoPairs):
        estimate_alpha(Exchangeable(), np.ones(5), np.ones(5, dtype=int), [1] * 5,
                       phi=1.0, p=1)


def test_alpha_rejects_sizes_that_do_not_cover_the_residuals():
    with pytest.raises(ValueError, match="5 residuals"):
        estimate_alpha(Exchangeable(), np.ones(5), np.tile([1, 2], 3)[:5], [2, 2],
                       phi=1.0, p=0)


def test_alpha_ar1_uses_lag_one_pairs():
    resid = np.tile([1.0, 1.0, -1.0], 4)
    positions = np.tile([1, 2, 3], 4)
    cs = estimate_alpha(AR1(), resid, positions, [3] * 4, phi=1.0, p=0)
    # lag-1 products: 1*1 + 1*(-1) per cluster -> mean 0
    assert cs.alpha == pytest.approx(0.0)


def test_alpha_mdependent_missing_lag_warns_and_zeroes():
    with pytest.warns(UnderdeterminedLag):
        cs = estimate_alpha(MDependent(2), np.ones(12), np.tile([1, 2], 6), [2] * 6,
                            phi=1.0, p=0)
    assert cs.alphas[0] == pytest.approx(0.99)   # lag-1 moment 1.0, clamped
    assert cs.alphas[1] == 0.0                   # no lag-2 pairs anywhere


def test_alpha_unstructured_available_pairs():
    resid = np.array([1.0, 1.0, 1.0, -1.0, 2.0, 1.0])
    positions = np.array([1, 2, 1, 2, 1, 3])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderdeterminedLag)
        cs = estimate_alpha(Unstructured(3), resid, positions, [2, 2, 2], phi=1.0, p=0)
    # occasions (1,2): products 1 and -1 over 2 clusters -> 0
    assert cs.alphas[0, 1] == pytest.approx(0.0)
    # occasions (2,3): never observed together -> 0
    assert cs.alphas[1, 2] == 0.0
    assert np.allclose(cs.alphas, cs.alphas.T)


# -------------------------------------------------------------------- fit_gee

def test_independent_gee_equals_irls(paper_event_ds, area_design, binomial):
    fit = fit_gee(area_design, paper_event_ds, binomial, Independent())
    base = irls_fit(area_design, paper_event_ds.response_vector(), binomial)
    assert np.max(np.abs(fit.beta - base.beta)) < 1e-8


def test_fit_reproduces_published_univariable_row(paper_event_ds, area_design, binomial):
    fit = fit_gee(area_design, paper_event_ds, binomial, Independent())
    assert fit.converged
    assert fit.beta[0] == pytest.approx(MARGINAL_INTERCEPT, abs=1e-6)
    assert fit.beta[1] == pytest.approx(MARGINAL_SLOPE, abs=1e-6)
    assert np.exp(fit.beta[1]) == pytest.approx(MARGINAL_OR, abs=1e-6)
    assert fit.phi == 1.0


def _estimating_equation(values, ds, f, beta, cs, phi=1.0):
    """Direct evaluation of sum_i D_i' V_i^{-1} (y_i - mu_i)."""
    from geeclust import glm

    y = ds.response_vector()
    mu = glm.link_inverse(f, values @ beta)
    a = glm.variance_fn(f, mu)
    dmu = a  # the canonical link's d mu / d eta is V(mu)
    total = np.zeros(values.shape[1])
    for start, size in zip(ds.starts.tolist(), ds.sizes.tolist()):
        sl = slice(start, start + size)
        x_i = values[sl]
        d_i = dmu[sl][:, None] * x_i
        s = np.sqrt(a[sl])
        r = realize_correlation(cs, size, ds.positions[sl])
        v = phi * np.outer(s, s) * r
        total += d_i.T @ np.linalg.solve(v, y[sl] - mu[sl])
    return total


def brute_force_root(values, ds, f, cs, span=4.0, grid_points=41):
    """Grid search then coordinate bisection on the estimating equation.

    Each component of the equation is strictly decreasing in its own
    coefficient (the Jacobian is negative definite), so one-dimensional
    bisection per coordinate converges from a bracketing interval.
    """
    grid = np.linspace(-span, span, grid_points)
    best, best_norm = None, np.inf
    for b0 in grid:
        for b1 in grid:
            g = _estimating_equation(values, ds, f, np.array([b0, b1]), cs)
            norm = np.max(np.abs(g))
            if norm < best_norm:
                best, best_norm = np.array([b0, b1]), norm
    beta = best.copy()
    for _ in range(200):
        for k in (0, 1):
            lo, hi = beta[k] - 1.0, beta[k] + 1.0
            def fk(t):
                trial = beta.copy()
                trial[k] = t
                return _estimating_equation(values, ds, f, trial, cs)[k]
            while fk(lo) < 0 and lo > -30:
                lo -= 1.0
            while fk(hi) > 0 and hi < 30:
                hi += 1.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if fk(mid) > 0:
                    lo = mid
                else:
                    hi = mid
            beta[k] = 0.5 * (lo + hi)
        if np.max(np.abs(_estimating_equation(values, ds, f, beta, cs))) < 1e-10:
            break
    return beta


def test_fixed_alpha_fit_matches_brute_force_root():
    ds = dataset_from_arrays(
        cluster_sizes=[2, 3, 3],
        x_values=[0, 1, 1, 0, 1, 0, 0, 1],
        y_values=[0, 1, 1, 0, 0, 1, 0, 1],
    )
    x = build_design(ds, [TermCoding("x", "factor", "descending")])
    cs = Exchangeable(0.3)
    options = GeeOptions(update_alpha=False, fix_phi=True)
    fit = fit_gee(x, ds, BINOMIAL, cs, options)
    oracle = brute_force_root(x.values, ds, BINOMIAL, cs)
    residual = _estimating_equation(x.values, ds, BINOMIAL, oracle, cs)
    assert np.max(np.abs(residual)) < 1e-8          # the oracle itself is a root
    assert np.max(np.abs(fit.beta - oracle)) < 1e-4
    assert fit.alpha_estimates == pytest.approx(0.3)  # alpha stayed fixed


def test_singleton_clusters_identical_across_structures():
    rng = np.random.default_rng(5)
    x_values = rng.integers(0, 2, 50).astype(float)
    y_values = (rng.uniform(size=50) < expit(-0.3 + 0.7 * x_values)).astype(float)
    ds = dataset_from_arrays([1] * 50, x_values, y_values)
    x = build_design(ds, [TermCoding("x", "factor", "descending")])
    fits = []
    structures = [Independent(), Exchangeable(), AR1(), MDependent(1),
                  Unstructured(1), Fixed(np.eye(1))]
    for cs in structures:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnderdeterminedLag)
            fits.append(fit_gee(x, ds, BINOMIAL, cs).beta)
    for beta in fits[1:]:
        assert np.max(np.abs(beta - fits[0])) < 1e-12


@pytest.mark.parametrize("cs", [
    Exchangeable(0.3), AR1(0.4), MDependent(2, (0.2, 0.1)),
    Unstructured(2, [[1.0, 0.25], [0.25, 1.0]])], ids=lambda cs: cs.kind)
def test_all_singletons_fit_warns_each_refresh_and_keeps_parameters(cs):
    """With no within-cluster pair there is no moment: every refresh (the
    start and one per iteration) warns once and keeps the supplied
    structure.  The IRLS start already solves the singletons' equation, so
    the fit takes one iteration and two refreshes."""
    rng = np.random.default_rng(9)
    x_values = rng.integers(0, 2, 60).astype(float)
    y_values = (rng.uniform(size=60) < expit(-0.3 + 0.7 * x_values)).astype(float)
    ds = dataset_from_arrays([1] * 60, x_values, y_values)
    x = build_design(ds, [TermCoding("x", "factor", "descending")])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = fit_gee(x, ds, BINOMIAL, cs)
    assert fit.converged and fit.iterations == 1
    assert [(w.category, str(w.message)) for w in caught] == [
        (UnderdeterminedLag, "all clusters are singletons; correlation parameters kept")
    ] * (fit.iterations + 1)
    assert fit.structure is cs


def test_reference_flip_negates_exactly(paper_ds, binomial):
    from geeclust import recode_response

    first = recode_response(paper_ds, "LOOSENING", "first")
    last = recode_response(paper_ds, "LOOSENING", "last")
    x_first = build_design(first, [TermCoding("AREA1", "factor", "descending")])
    x_last = build_design(last, [TermCoding("AREA1", "factor", "descending")])
    for cs in [Independent(), Exchangeable()]:
        f1 = fit_gee(x_first, first, binomial, cs)
        f2 = fit_gee(x_last, last, binomial, cs)
        assert np.max(np.abs(f1.beta + f2.beta)) < 1e-10
        assert np.allclose(np.exp(f1.beta) * np.exp(f2.beta), 1.0, atol=1e-10)


@pytest.mark.parametrize("seed", range(25))
def test_numerical_hygiene_random_fits(seed):
    """Jacobian, estimating-equation residual, and sandwich PSD checks."""
    from geeclust import glm
    from geeclust.linalg import spd_factor

    rng = np.random.default_rng(seed)
    n_clusters = 25
    sizes = rng.integers(1, 5, n_clusters)
    xs, ys = [], []
    for size in sizes:
        x = rng.integers(0, 2, size).astype(float)
        p = expit(-0.5 + 1.0 * x)
        shared = rng.standard_normal() * 0.6
        y = (shared + rng.standard_normal(size) < _probit(p) * np.sqrt(1.36)).astype(float)
        xs.extend(x)
        ys.extend(y)
    ds = dataset_from_arrays(sizes.tolist(), xs, ys)
    x = build_design(ds, [TermCoding("x", "factor", "descending")])
    cs = Exchangeable()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderdeterminedLag)
        fit = fit_gee(x, ds, BINOMIAL, cs)

    # Jacobian of the mean vector vs central finite differences
    h = 1e-6
    for k in range(x.p):
        up = np.array(fit.beta)
        down = np.array(fit.beta)
        up[k] += h
        down[k] -= h
        fd = (glm.link_inverse(BINOMIAL, x.values @ up)
              - glm.link_inverse(BINOMIAL, x.values @ down)) / (2 * h)
        mu = glm.link_inverse(BINOMIAL, x.values @ fit.beta)
        # the canonical-link identity d mu / d eta = V(mu), on which
        # fit_gee and independence_information rest
        analytic = glm.variance_fn(BINOMIAL, mu) * x.values[:, k]
        scale = np.maximum(np.abs(analytic), 1e-8)
        assert np.max(np.abs(fd - analytic) / scale) < 1e-6

    # estimating-equation residual at convergence
    residual = _estimating_equation(
        x.values, ds, BINOMIAL, fit.beta, fit.structure, fit.phi
    )
    assert np.max(np.abs(residual)) < 1e-6

    # sandwich symmetric and PSD (Cholesky with jitter succeeds)
    assert np.max(np.abs(fit.cov_robust - fit.cov_robust.T)) < 1e-10
    bump = 1e-8 * np.mean(np.diag(fit.cov_robust))
    spd_factor(fit.cov_robust + bump * np.eye(x.p))
    spd_factor(fit.cov_model_based + bump * np.eye(x.p))


def test_robust_se_from_published_diagonal():
    fit = GeeFit(
        beta=np.array([-0.655, -0.822]),
        structure=Independent(),
        phi=1.0,
        cov_model_based=np.eye(2),
        cov_robust=np.diag([0.1103, 0.1444]),
        quasi_likelihood_independence=0.0,
        iterations=1,
        converged=True,
    )
    se = robust_se(fit)
    assert se[0] == pytest.approx(0.3321, abs=5e-5)
    assert se[1] == pytest.approx(0.3800, abs=5e-5)


def test_robust_se_identity():
    fit = GeeFit(
        beta=np.zeros(3), structure=Independent(), phi=1.0,
        cov_model_based=np.eye(3), cov_robust=np.eye(3),
        quasi_likelihood_independence=0.0, iterations=1, converged=True,
    )
    assert np.allclose(robust_se(fit), 1.0)


def test_sandwich_matches_model_based_on_independent_singletons():
    # with singleton clusters and a correct independence model the sandwich
    # converges to the model-based covariance; check at large n
    rng = np.random.default_rng(99)
    n = 4000
    x_values = rng.integers(0, 2, n).astype(float)
    y_values = (rng.uniform(size=n) < expit(-0.4 + 0.6 * x_values)).astype(float)
    ds = dataset_from_arrays([1] * n, x_values, y_values)
    x = build_design(ds, [TermCoding("x", "factor", "descending")])
    fit = fit_gee(x, ds, BINOMIAL, Independent())
    ratio = np.diag(fit.cov_robust) / np.diag(fit.cov_model_based)
    assert np.max(np.abs(ratio - 1.0)) < 0.1


def test_gee_no_convergence_carries_partial_fit(paper_event_ds, area_design, binomial):
    with pytest.raises(NoConvergence) as excinfo:
        fit_gee(area_design, paper_event_ds, binomial, Exchangeable(),
                GeeOptions(max_iter=1, tol=1e-14))
    assert isinstance(excinfo.value.fit, GeeFit)
    assert not excinfo.value.fit.converged


def test_gee_perfect_separation():
    x_values = np.arange(8.0)
    y_values = (x_values >= 4).astype(float)
    ds = dataset_from_arrays([2, 2, 2, 2], x_values, y_values)
    x = build_design(ds, [TermCoding("x", "covariate")])
    with pytest.raises(PerfectSeparation):
        fit_gee(x, ds, BINOMIAL, Independent())


def test_failure_counts_on_small_paper_samples():
    """100 paper-like samples of 60 clusters: the closed-form structures and
    m-dependent fail on the same samples, with the same errors, as they always
    have.  Unstructured (one NoConvergence) is left out for its run time."""
    terms = [TermCoding(t, "factor", "descending") for t in ("AGE1", "AREA1", "NINSERT1")]
    failures = Counter()
    for s in range(100):
        ds = recode_response(generate_paper(60, 0.25, 1000 + s), "LOOSENING", "first")
        x = build_design(ds, terms)
        for cs in (Independent(), MDependent(2), Exchangeable(), AR1()):
            try:
                fit_gee(x, ds, BINOMIAL, cs)
            except GeeError as exc:
                failures[cs.kind, type(exc)] += 1
    assert failures == {("mdependent", NotPositiveDefinite): 26,
                        ("exchangeable", DomainError): 2, ("ar1", DomainError): 7,
                        ("ar1", PerfectSeparation): 2}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("structure", [Independent(), Exchangeable(), MDependent(1)],
                         ids=lambda cs: cs.kind)
def test_overflowing_poisson_mean_is_a_domain_error(structure):
    """One count of 1e300: the mean at the IRLS start is finite, but its
    weight is not, and the fit says the mean overflowed instead of failing
    later as a matrix or correlation problem."""
    rng = np.random.default_rng(3)
    y = rng.poisson(2.0, 30).astype(float)
    y[4] = 1e300
    ds = dataset_from_arrays([3] * 10, rng.standard_normal(30), y)
    x = build_design(ds, [TermCoding("x", "covariate")])
    with pytest.raises(DomainError, match="mean overflowed"):
        fit_gee(x, ds, Family("poisson", "log"), structure)


def test_fit_evaluates_each_coefficient_vector_once(monkeypatch):
    """One exchangeable fit checks the design rank once and maps each
    coefficient vector it visits to the mean scale once: the IRLS start,
    every step-halving candidate and every GEE iterate."""
    import geeclust.glm as glm_module

    terms = [TermCoding(t, "factor", "descending") for t in ("AGE1", "AREA1", "NINSERT1")]
    ds = recode_response(generate_paper(135, 0.25, 7), "LOOSENING", "first")
    x = build_design(ds, terms)
    ranks, etas = [], []
    matrix_rank, link_inverse = np.linalg.matrix_rank, glm_module.link_inverse

    def counting_rank(*args, **kwargs):
        ranks.append(1)
        return matrix_rank(*args, **kwargs)

    def counting_inverse(f, eta):
        etas.append(np.asarray(eta).tobytes())
        return link_inverse(f, eta)

    monkeypatch.setattr(np.linalg, "matrix_rank", counting_rank)
    monkeypatch.setattr(glm_module, "link_inverse", counting_inverse)
    fit = fit_gee(x, ds, BINOMIAL, Exchangeable())
    assert len(ranks) == 1
    assert len(etas) > fit.iterations
    assert len(etas) == len(set(etas))


def test_gee_rank_deficient():
    ds = dataset_from_arrays([2, 2], [1, 1, 1, 1], [0, 1, 0, 1])
    x_bad = np.column_stack([np.ones(4), np.ones(4)])
    from geeclust.data import DesignMatrix

    with pytest.raises(RankDeficient):
        fit_gee(DesignMatrix(x_bad, ("(Intercept)", "dup")), ds, BINOMIAL, Independent())


def _fit_coded(ds, structure, reference):
    """The fit of LOOSENING coded with `reference` as baseline, or the
    exception class that stopped it."""
    coded = recode_response(ds, "LOOSENING", reference)
    terms = [TermCoding("AREA1", "factor", "descending"),
             TermCoding("AGE1", "factor", "descending")]
    coded, _ = complete_cases(coded, [t.name for t in terms])
    try:
        return fit_gee(build_design(coded, terms), coded, BINOMIAL, structure)
    except GeeError as exc:
        return type(exc)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_reference_category_flip_negates_beta(seed):
    # y -> 1 - y negates every residual, so the moment estimates, phi and
    # the sandwich are unchanged while the logit coefficients change sign
    ds = generate_paper(60, 0.3, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderdeterminedLag)
        for structure in default_structures(ds):
            first = _fit_coded(ds, structure, "first")
            last = _fit_coded(ds, structure, "last")
            if isinstance(first, type) or isinstance(last, type):
                assert first == last, structure.kind
                continue
            assert np.max(np.abs(first.beta + last.beta)) <= 1e-10
            assert np.allclose(robust_se(first), robust_se(last), rtol=0, atol=1e-10)
            assert first.phi == pytest.approx(last.phi, abs=1e-10)
            # independence has no alpha: None reads as nan on both sides
            assert np.allclose(np.asarray(first.alpha_estimates, dtype=float),
                               np.asarray(last.alpha_estimates, dtype=float),
                               rtol=0, atol=1e-10, equal_nan=True)
            assert first.iterations == last.iterations
