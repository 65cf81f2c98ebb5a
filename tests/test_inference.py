import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit

from geeclust import (
    ContingencyTable,
    Family,
    Independent,
    TermCoding,
    build_design,
    concordance_summary,
    crosstab_2x2,
    fit_gee,
    independence_information,
    odds,
    odds_ratio,
    qic,
    qic_u,
    reference_panels,
    wald_row,
)
from geeclust.errors import (
    DivisionByZero,
    InvalidLevel,
    NonBinaryResponse,
    UndefinedOR,
)
from geeclust.linalg import trace_of_product

from test_gee import dataset_from_arrays

BINOMIAL = Family("binomial", "logit")


# ------------------------------------------------------------------- wald_row

def test_wald_row_raw_arithmetic():
    row = wald_row("x", -0.822, 0.3800)
    assert row.wald_chisq == pytest.approx((0.822 / 0.38) ** 2, rel=1e-12)
    assert row.df == 1
    assert row.exp_b == pytest.approx(math.exp(-0.822), rel=1e-12)
    assert row.ci_low == pytest.approx(-0.822 - 1.959963984540054 * 0.38, rel=1e-12)
    assert row.exp_ci_low == pytest.approx(math.exp(row.ci_low), rel=1e-12)
    assert row.exp_ci_high == pytest.approx(math.exp(row.ci_high), rel=1e-12)
    assert row.ci_low <= row.b <= row.ci_high


def test_wald_row_published_jaw_effect():
    # independent-correlation table row for the jaw factor; the chi-square is
    # compared at the emitted 3-decimal precision (the table displays 4.678
    # from unrounded inputs, one display unit away from the 4.679 these
    # rounded inputs give)
    row = wald_row("AREA1=1", -0.822, 0.3800)
    assert abs(round(row.wald_chisq * 1000) - 4678) <= 1
    assert row.p_value == pytest.approx(0.031, abs=0.001)
    assert row.ci_low == pytest.approx(-1.567, abs=0.001)
    assert row.ci_high == pytest.approx(-0.077, abs=0.001)
    assert row.exp_b == pytest.approx(0.440, abs=0.001)
    assert row.exp_ci_low == pytest.approx(0.209, abs=0.001)
    assert row.exp_ci_high == pytest.approx(0.926, abs=0.001)


def test_wald_row_published_unstructured_jaw_effect():
    row = wald_row("AREA1=1", 0.609, 0.3113)
    assert row.ci_low == pytest.approx(-0.001, abs=0.001)
    assert row.ci_high == pytest.approx(1.219, abs=0.001)
    assert row.exp_b == pytest.approx(1.839, abs=0.001)


def test_wald_row_equals_scipy_stats_distributions_bitwise():
    # the special functions must give exactly what the distribution objects give
    rng = np.random.default_rng(8)
    for b, se, level in zip(rng.normal(0.0, 3.0, 300), rng.uniform(0.01, 2.0, 300),
                            rng.uniform(0.01, 0.999, 300)):
        row = wald_row("x", float(b), float(se), float(level))
        z = stats.norm.ppf((1.0 + level) / 2.0)
        assert row.ci_low == float(b - z * se) and row.ci_high == float(b + z * se)
        assert row.p_value == float(stats.chi2.sf((b / se) ** 2, 1))


def test_wald_row_zero_effect():
    row = wald_row("x", 0.0, 1.0)
    assert row.wald_chisq == 0.0
    assert row.p_value == pytest.approx(1.0)
    assert row.exp_b == pytest.approx(1.0)


def test_wald_row_invalid_level():
    with pytest.raises(InvalidLevel):
        wald_row("x", 1.0, 1.0, level=1.0)


def test_wald_row_requires_positive_se():
    with pytest.raises(ValueError):
        wald_row("x", 1.0, 0.0)


def test_wald_p_monotone_in_effect_size():
    ps = [wald_row("x", b, 0.5).p_value for b in np.linspace(0.0, 3.0, 13)]
    assert all(a >= b for a, b in zip(ps, ps[1:]))


# ----------------------------------------------------------------------- odds

def test_odds_published_values():
    assert odds(42, 184) == pytest.approx(0.2283, abs=5e-5)
    assert odds(27, 52) == pytest.approx(0.5192, abs=5e-5)
    assert odds(0, 9) == 0.0


def test_odds_zero_non_events():
    with pytest.raises(DivisionByZero):
        odds(3, 0)


# ----------------------------------------------------------------- odds ratio

def test_odds_ratio_published_values():
    assert odds_ratio(ContingencyTable(42, 184, 27, 52)) == pytest.approx(0.44, abs=0.005)
    assert odds_ratio(ContingencyTable(27, 52, 42, 184)) == pytest.approx(2.27, abs=0.005)
    assert odds_ratio(ContingencyTable(5, 5, 5, 5)) == 1.0


def test_odds_ratio_undefined():
    with pytest.raises(UndefinedOR):
        odds_ratio(ContingencyTable(3, 0, 2, 5))


def test_odds_ratio_row_swap_reciprocal_exact():
    t = ContingencyTable(42, 184, 27, 52)
    product = odds_ratio(t) * odds_ratio(t.swap_exposure())
    assert product == pytest.approx(1.0, rel=1e-12)


def test_odds_ratio_double_swap_invariant():
    t = ContingencyTable(42, 184, 27, 52)
    flipped = t.swap_event().swap_exposure()
    assert odds_ratio(t) == pytest.approx(odds_ratio(flipped), rel=1e-12)


def test_reference_panels_pattern(paper_ds):
    table = crosstab_2x2(paper_ds, "AREA1")
    ors = [odds_ratio(t) for _, _, t in reference_panels(table)]
    assert np.round(ors, 2).tolist() == [0.44, 2.27, 2.27, 0.44]


def test_crosstab_counts(paper_ds):
    t = crosstab_2x2(paper_ds, "AREA1")
    assert (t.a, t.b, t.c, t.d) == (42, 184, 27, 52)


def test_crosstab_rejects_nonbinary(paper_ds):
    with pytest.raises(NonBinaryResponse):
        crosstab_2x2(paper_ds, "AREA2")


# ------------------------------------------------------------------ QIC, QICu

class _MiniFit:
    quasi_likelihood_independence = -155.5


def test_qicu_by_definition():
    assert qic_u(_MiniFit(), 2) == pytest.approx(315.0)


def test_trace_term_identity():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((4, 4))
    omega = a @ a.T + 4 * np.eye(4)
    assert trace_of_product(omega, np.linalg.inv(omega)) == pytest.approx(4.0)


def test_qic_qicu_difference_identity():
    # QICu - QIC = 2p - 2 trace(Omega cov_robust), exactly
    rng = np.random.default_rng(37)
    n = 120
    x_values = rng.integers(0, 2, n).astype(float)
    y_values = (rng.uniform(size=n) < expit(-0.2 + 0.5 * x_values)).astype(float)
    ds = dataset_from_arrays([2] * (n // 2), x_values, y_values)
    x = build_design(ds, [TermCoding("x", "factor", "descending")])
    fit = fit_gee(x, ds, BINOMIAL, Independent())
    omega = independence_information(x, ds, BINOMIAL, fit.beta, fit.phi)
    trace = trace_of_product(omega, fit.cov_robust)
    lhs = qic_u(fit, x.p) - qic(fit, x, ds, BINOMIAL)
    assert lhs == pytest.approx(2 * x.p - 2 * trace, rel=1e-12)


def test_independence_information_evaluates_the_variance_once(monkeypatch):
    """The canonical link's d mu / d eta is V(mu), so the weight
    (d mu / d eta)^2 / V needs V(mu) once per call."""
    import geeclust.glm as glm_module

    rng = np.random.default_rng(43)
    x_values = rng.integers(0, 2, 40).astype(float)
    y_values = (rng.uniform(size=40) < expit(-0.2 + 0.5 * x_values)).astype(float)
    ds = dataset_from_arrays([2] * 20, x_values, y_values)
    x = build_design(ds, [TermCoding("x", "factor", "descending")])
    expected = independence_information(x, ds, BINOMIAL, [-0.2, 0.5])
    calls = []
    variance_fn = glm_module.variance_fn

    def counting_variance(f, mu):
        calls.append(1)
        return variance_fn(f, mu)

    monkeypatch.setattr(glm_module, "variance_fn", counting_variance)
    omega = independence_information(x, ds, BINOMIAL, [-0.2, 0.5])
    assert len(calls) == 1
    assert np.array_equal(omega, expected)


def test_qic_approaches_qicu_on_independent_singletons():
    rng = np.random.default_rng(41)
    n = 4000
    x_values = rng.integers(0, 2, n).astype(float)
    y_values = (rng.uniform(size=n) < expit(-0.6 + 0.9 * x_values)).astype(float)
    ds = dataset_from_arrays([1] * n, x_values, y_values)
    x = build_design(ds, [TermCoding("x", "factor", "descending")])
    fit = fit_gee(x, ds, BINOMIAL, Independent())
    assert abs(qic(fit, x, ds, BINOMIAL) - qic_u(fit, x.p)) < 0.3


# ---------------------------------------------------------------- concordance

def test_concordance_all_success_pair():
    # success is the low response value, so a (0,0) cluster is all_success
    ds = dataset_from_arrays([2, 1], [0, 0, 0], [0, 0, 1])
    summary = concordance_summary(ds, "Y")
    assert summary.all_success == 1
    assert summary.singletons == 1


def test_concordance_classification():
    # clusters: (0,0) all success, (1,1) all failure, (1,0,0,0) skewed,
    # (1,1,0,0) equal, (1,) singleton
    ds = dataset_from_arrays(
        [2, 2, 4, 4, 1],
        [0] * 13,
        [0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 0, 0, 1],
    )
    summary = concordance_summary(ds, "Y")
    assert summary.all_success == 1
    assert summary.all_failure == 1
    assert summary.skewed == 1
    assert summary.equal == 1
    assert summary.singletons == 1
    assert summary.multi_total == 4


def test_concordance_odd_cluster_never_equal():
    ds = dataset_from_arrays([3, 1], [0] * 4, [1, 0, 0, 1])
    summary = concordance_summary(ds, "Y")
    assert summary.equal == 0
    assert summary.skewed == 1


def test_concordance_published_split(paper_ds):
    summary = concordance_summary(paper_ds, "LOOSENING")
    assert summary.all_success == 62
    assert summary.all_failure == 4
    assert summary.skewed == 19
    assert summary.equal == 19
    assert summary.singletons == 31
    assert summary.multi_total == 104
    rates = np.array([62, 4, 19, 19]) / 104 * 100
    assert np.allclose(np.round(rates, 1), [59.6, 3.8, 18.3, 18.3])


def test_concordance_rejects_constant_response():
    ds = dataset_from_arrays([2], [0, 0], [1, 1])
    with pytest.raises(NonBinaryResponse):
        concordance_summary(ds, "Y")
