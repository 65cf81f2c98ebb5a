import math

import numpy as np
import pytest

from geeclust import Family, irls_fit, link_eval, link_inverse, quasi_likelihood, variance_fn
from geeclust.glm import _start_beta
from geeclust.errors import DomainError, NoConvergence, PerfectSeparation, RankDeficient

from conftest import MARGINAL_INTERCEPT, MARGINAL_SLOPE


BINOMIAL = Family("binomial", "logit")
NORMAL = Family("normal", "identity")
POISSON = Family("poisson", "log")


def marginal_xy():
    """Design and response for the published 2x2: 42/184 maxilla, 27/52 mandible."""
    x = np.column_stack(
        [np.ones(305), np.concatenate([np.ones(226), np.zeros(79)])]
    )
    y = np.concatenate([np.ones(42), np.zeros(184), np.ones(27), np.zeros(52)])
    return x, y


def test_family_rejects_unsupported_pair():
    with pytest.raises(ValueError):
        Family("binomial", "log")


def test_logit_at_half_is_zero():
    assert link_eval(BINOMIAL, 0.5) == pytest.approx(0.0, abs=1e-15)


def test_inverse_logit_hits_mandible_rate():
    # the intercept of the published univariable fit must invert to 27/79
    assert link_inverse(BINOMIAL, math.log(27 / 52)) == pytest.approx(27 / 79, abs=1e-12)
    assert link_inverse(BINOMIAL, -0.655) == pytest.approx(0.3418, abs=1e-4)


def test_binomial_variance_at_half():
    assert variance_fn(BINOMIAL, 0.5) == pytest.approx(0.25)


def test_domain_errors_at_boundary():
    with pytest.raises(DomainError):
        link_eval(BINOMIAL, 1.0)
    with pytest.raises(DomainError):
        link_eval(POISSON, 0.0)
    with pytest.raises(DomainError):
        variance_fn(BINOMIAL, -0.1)


@pytest.mark.parametrize("family", [BINOMIAL, NORMAL, POISSON])
def test_link_round_trip(family):
    grid = {
        "binomial": np.linspace(0.01, 0.99, 25),
        "poisson": np.geomspace(0.01, 50.0, 25),
        "normal": np.linspace(-5.0, 5.0, 25),
    }[family.distribution]
    back = link_inverse(family, link_eval(family, grid))
    assert np.max(np.abs(back - grid)) < 1e-12


def test_irls_reproduces_published_univariable_row():
    x, y = marginal_xy()
    fit = irls_fit(x, y, BINOMIAL)
    assert fit.converged
    assert fit.beta[0] == pytest.approx(MARGINAL_INTERCEPT, abs=1e-8)
    assert fit.beta[1] == pytest.approx(MARGINAL_SLOPE, abs=1e-8)
    assert round(fit.beta[0], 3) == -0.655
    assert round(fit.beta[1], 3) == -0.822


def test_irls_intercept_only_closed_form():
    y = np.array([1.0] * 13 + [0.0] * 37)
    fit = irls_fit(np.ones((50, 1)), y, BINOMIAL)
    assert fit.beta[0] == pytest.approx(math.log(13 / 37), abs=1e-10)


def test_irls_normal_equals_least_squares():
    rng = np.random.default_rng(7)
    x = np.column_stack([np.ones(40), rng.standard_normal((40, 2))])
    y = x @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(40)
    fit = irls_fit(x, y, NORMAL)
    direct = np.linalg.lstsq(x, y, rcond=None)[0]
    assert np.allclose(fit.beta, direct, atol=1e-10)


def test_irls_score_below_tol_at_convergence():
    rng = np.random.default_rng(11)
    x = np.column_stack([np.ones(200), rng.standard_normal(200)])
    y = (rng.uniform(size=200) < 1 / (1 + np.exp(-(0.3 + 0.8 * x[:, 1])))).astype(float)
    fit = irls_fit(x, y, BINOMIAL, tol=1e-10)
    mu = link_inverse(BINOMIAL, x @ fit.beta)
    assert np.max(np.abs(x.T @ (y - mu))) < 1e-10


def test_irls_objective_monotone():
    rng = np.random.default_rng(13)
    x = np.column_stack([np.ones(120), rng.standard_normal((120, 2))])
    y = (rng.uniform(size=120) < 0.35).astype(float)
    fit = irls_fit(x, y, BINOMIAL)
    path = np.array(fit.objective_path)
    assert np.all(np.diff(path) >= -1e-10)


def test_irls_perfect_separation():
    x = np.column_stack([np.ones(8), np.arange(8.0)])
    y = (x[:, 1] >= 4).astype(float)
    with pytest.raises(PerfectSeparation):
        irls_fit(x, y, BINOMIAL)


def test_irls_rank_deficient():
    x = np.column_stack([np.ones(10), np.ones(10)])
    y = np.array([0.0, 1.0] * 5)
    with pytest.raises(RankDeficient):
        irls_fit(x, y, BINOMIAL)


def test_irls_no_convergence_carries_partial_fit():
    rng = np.random.default_rng(17)
    x = np.column_stack([np.ones(60), rng.standard_normal(60)])
    y = (rng.uniform(size=60) < 0.4).astype(float)
    with pytest.raises(NoConvergence) as excinfo:
        irls_fit(x, y, BINOMIAL, max_iter=1)
    assert excinfo.value.fit is not None
    assert not excinfo.value.fit.converged


def reference_irls(x, y, f, tol=1e-10, max_iter=100):
    """The IRLS loop that evaluates the objective again after every step.

    Returns (beta, objective path, halvings, steps whose ten halvings all
    failed, converged).
    """
    def objective(beta):
        return quasi_likelihood(x, beta, y, f)

    beta = _start_beta(y, f, x.shape[1])
    q = objective(beta)
    path, halvings, exhausted = [q], 0, 0
    for _ in range(max_iter):
        mu = link_inverse(f, x @ beta)
        score = x.T @ (y - mu)
        if np.max(np.abs(score)) < tol:
            return beta, tuple(path), halvings, exhausted, True
        # the canonical link's d mu / d eta is V(mu): the weight d^2 / V
        v = variance_fn(f, mu)
        w = v ** 2 / v
        delta = np.linalg.solve(x.T @ (x * w[:, None]), score)
        step = 1.0
        for _ in range(10):
            try:
                q_new = objective(beta + step * delta)
            except DomainError:
                q_new = -np.inf
            if q_new >= q - 1e-12:
                break
            step /= 2.0
            halvings += 1
        else:
            exhausted += 1
        beta = beta + step * delta
        q = objective(beta)
        path.append(q)
    return beta, tuple(path), halvings, exhausted, False


def _irls_case(name):
    if name == "binomial":
        x, y = marginal_xy()
        return x, y, BINOMIAL, {}
    if name == "poisson-halving":
        rng = np.random.default_rng(23)
        x = np.column_stack([np.ones(26), rng.normal(0.0, 3.0, 26)])
        y = rng.poisson(np.exp(rng.normal(2.0, 2.0, 26))).astype(float)
        return x, y, POISSON, {}
    # at this scale round-off in the objective exceeds the 1e-12 acceptance
    # slack, so steps near the optimum fail all ten halvings
    rng = np.random.default_rng(5)
    x = np.column_stack([np.ones(40), rng.standard_normal(40)])
    y = rng.normal(1e9, 1e7, 40)
    return x, y, NORMAL, {"tol": 0.0, "max_iter": 30}


@pytest.mark.parametrize("name, halves, exhausts", [
    ("binomial", False, False),
    ("poisson-halving", True, False),
    ("normal-exhausted", True, True),
])
def test_irls_matches_reevaluating_reference_bitwise(name, halves, exhausts):
    x, y, f, kwargs = _irls_case(name)
    beta, path, halvings, exhausted, converged = reference_irls(x, y, f, **kwargs)
    assert (halvings > 0) == halves and (exhausted > 0) == exhausts
    if converged:
        fit = irls_fit(x, y, f, **kwargs)
    else:
        with pytest.raises(NoConvergence) as excinfo:
            irls_fit(x, y, f, **kwargs)
        fit = excinfo.value.fit
    assert fit.beta.tobytes() == beta.tobytes()
    assert fit.objective_path == path
    assert fit.objective == path[-1]


def test_quasi_likelihood_binomial_half():
    x = np.ones((4, 1))
    q = quasi_likelihood(x, np.array([0.0]), np.array([1.0, 1.0, 0.0, 0.0]), BINOMIAL)
    assert q == pytest.approx(4 * math.log(0.5))


def test_quasi_likelihood_saturated_limit_is_zero():
    # mu equal to the 0/1 response: x*log(x) terms vanish
    x = np.array([[40.0], [-40.0]])
    q = quasi_likelihood(x, np.array([1.0]), np.array([1.0, 0.0]), BINOMIAL)
    assert q == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("family", [BINOMIAL, NORMAL, POISSON])
def test_quasi_likelihood_matches_direct_summation(family):
    rng = np.random.default_rng(23)
    x = np.column_stack([np.ones(30), rng.standard_normal(30)])
    beta = np.array([0.2, 0.4])
    eta = x @ beta
    if family.distribution == "binomial":
        y = (rng.uniform(size=30) < 0.5).astype(float)
        mu = 1 / (1 + np.exp(-eta))
        direct = sum(
            yi * math.log(m) + (1 - yi) * math.log(1 - m) for yi, m in zip(y, mu)
        )
    elif family.distribution == "poisson":
        y = rng.poisson(2.0, size=30).astype(float)
        mu = np.exp(eta)
        direct = sum(
            (yi * math.log(m) if yi > 0 else 0.0) - m for yi, m in zip(y, mu)
        )
    else:
        y = rng.standard_normal(30)
        mu = eta
        direct = -0.5 * sum((yi - m) ** 2 for yi, m in zip(y, mu))
    assert quasi_likelihood(x, beta, y, family) == pytest.approx(direct, rel=1e-12)
