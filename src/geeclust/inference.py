"""Wald inference, odds-ratio arithmetic, QIC/QICu, and cluster summaries."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, ndtri

from .data import ClusteredDataset
from .errors import (
    DivisionByZero,
    InvalidLevel,
    NonBinaryResponse,
    UndefinedOR,
    UnknownVariable,
)
from .gee import independence_information


@dataclass(frozen=True)
class ParameterRow:
    """One line of a coefficient table: estimate, Wald test, Exp(B)."""

    label: str
    b: float
    se: float
    ci_low: float
    ci_high: float
    wald_chisq: float
    df: int
    p_value: float
    exp_b: float
    exp_ci_low: float
    exp_ci_high: float


def wald_row(label, b, se, level: float = 0.95) -> ParameterRow:
    """Wald test and CI for one coefficient.

    chi-square = (b/se)^2 on 1 df; the CI is b +/- z se with z the standard
    normal quantile at (1+level)/2 (1.959964 for 95%); Exp(B) columns are the
    exponentials.
    """
    if not 0.0 < level < 1.0:
        raise InvalidLevel(f"confidence level {level} outside (0, 1)")
    if se <= 0.0:
        raise ValueError(f"standard error must be positive, got {se}")
    z = ndtri((1.0 + level) / 2.0)
    chisq = (b / se) ** 2
    ci_low = b - z * se
    ci_high = b + z * se
    return ParameterRow(
        label=label,
        b=float(b),
        se=float(se),
        ci_low=float(ci_low),
        ci_high=float(ci_high),
        wald_chisq=float(chisq),
        df=1,
        p_value=float(chdtrc(1, chisq)),
        exp_b=float(math.exp(b)),
        exp_ci_low=float(math.exp(ci_low)),
        exp_ci_high=float(math.exp(ci_high)),
    )


def odds(events, non_events) -> float:
    """events / non_events."""
    if non_events == 0:
        raise DivisionByZero("odds undefined with zero non-events")
    return events / non_events


@dataclass(frozen=True)
class ContingencyTable:
    """2x2 table: a/b = events/non-events at exposure level 1, c/d at level 0."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if min(self.a, self.b, self.c, self.d) < 0:
            raise ValueError("cell counts must be non-negative")

    def swap_exposure(self):
        return ContingencyTable(self.c, self.d, self.a, self.b)

    def swap_event(self):
        return ContingencyTable(self.b, self.a, self.d, self.c)


def odds_ratio(t: ContingencyTable) -> float:
    """(a*d) / (b*c)."""
    if t.b * t.c == 0:
        raise UndefinedOR("odds ratio undefined: zero in the denominator product")
    return (t.a * t.d) / (t.b * t.c)


def reference_panels(t: ContingencyTable):
    """The four reference-category variants of a 2x2 table.

    Returned in the order (response reference, factor order):
    (first, descending), (first, ascending), (last, descending),
    (last, ascending).  Flipping either reference reciprocates the OR;
    flipping both restores it.
    """
    return [
        ("first", "descending", t),
        ("first", "ascending", t.swap_exposure()),
        ("last", "descending", t.swap_event()),
        ("last", "ascending", t.swap_event().swap_exposure()),
    ]


def crosstab_2x2(ds: ClusteredDataset, factor) -> ContingencyTable:
    """Cross-tabulate a binary response against a binary factor.

    Events are the HIGH response value and exposure level 1 is the HIGH
    factor value, matching a first-reference response with a
    descending-order factor.
    """
    if factor not in ds.variable_names:
        raise UnknownVariable(f"no variable named {factor!r}")
    fvalues = ds.columns[factor]
    if fvalues.dtype == object:
        if any(v is None for v in fvalues):
            raise NonBinaryResponse(f"factor {factor!r} has missing values")
        flevels = sorted(set(fvalues.tolist()), key=lambda v: (isinstance(v, str), v))
    else:
        if np.isnan(fvalues).any():
            raise NonBinaryResponse(f"factor {factor!r} has missing values")
        flevels = np.unique(fvalues).tolist()
    rlevels = np.unique(ds.response)
    if len(rlevels) != 2:
        raise NonBinaryResponse("response must take exactly two values")
    if len(flevels) != 2:
        raise NonBinaryResponse(f"factor {factor!r} must take exactly two values")
    event = ds.response == rlevels[1]
    exposed = fvalues == flevels[1]
    a = int(np.sum(event & exposed))
    b = int(np.sum(~event & exposed))
    c = int(np.sum(event & ~exposed))
    d = int(np.sum(~event & ~exposed))
    return ContingencyTable(a, b, c, d)


def qic(fit, x, ds, f) -> float:
    """Quasi-likelihood criterion for choosing the working correlation.

    -2 Q(beta; independence) + 2 trace(Omega_I cov_robust), with Omega_I the
    independence information evaluated at the fitted coefficients.  Lower is
    better; comparisons are valid across working structures for one model.
    """
    omega = independence_information(x, ds, f, fit.beta, fit.phi)
    # trace(omega @ cov_robust) without forming the product
    penalty = float(np.einsum("ij,ji->", omega, fit.cov_robust))
    return -2.0 * fit.quasi_likelihood_independence + 2.0 * penalty


def qic_u(fit, p) -> float:
    """Simplified criterion for choosing the covariate set: -2Q + 2p."""
    return -2.0 * fit.quasi_likelihood_independence + 2.0 * float(p)


@dataclass(frozen=True)
class ConcordanceSummary:
    """Within-cluster response agreement, singletons counted apart.

    Clusters of size >= 2 classify as: all responses at the LOW value
    (all_success), all at the HIGH value (all_failure), exactly half high
    (equal; even sizes only), anything else mixed (skewed).
    """

    all_success: int
    all_failure: int
    skewed: int
    equal: int
    singletons: int

    @property
    def multi_total(self) -> int:
        return self.all_success + self.all_failure + self.skewed + self.equal


def concordance_summary(ds: ClusteredDataset, response) -> ConcordanceSummary:
    """Classify clusters by how uniformly the binary response falls."""
    if response != ds.response_col:
        raise UnknownVariable(
            f"response column is {ds.response_col!r}, not {response!r}"
        )
    values = np.unique(ds.response)
    if len(values) != 2:
        raise NonBinaryResponse(
            f"response takes {len(values)} distinct values, need exactly 2"
        )
    sizes = ds.sizes
    n_high = np.add.reduceat(ds.response == values[1], ds.starts, dtype=np.int64)
    multi = sizes > 1
    # in a cluster of two or more rows at most one of these holds
    all_success = int(np.sum(multi & (n_high == 0)))
    all_failure = int(np.sum(multi & (n_high == sizes)))
    equal = int(np.sum(multi & (2 * n_high == sizes)))
    return ConcordanceSummary(
        all_success=all_success,
        all_failure=all_failure,
        skewed=int(multi.sum()) - all_success - all_failure - equal,
        equal=equal,
        singletons=int(np.sum(~multi)),
    )
