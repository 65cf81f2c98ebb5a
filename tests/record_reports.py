"""Record what the library reports on fixed inputs, for the fixture test.

`build_reports` fits every working correlation on fixed paper-like datasets
(including 60-cluster samples on which some structures fail), one
normal-identity and one Poisson-log model, and two selections over the five
estimable structures (stepwise over six terms, exhaustive over three), and
returns what they report as plain JSON values.  `tests/test_recorded_reports.py`
compares the library against `tests/recorded_reports.json`.

After an intended change to a reported number or message, record again from
the repository root and name each field that moved:

    PYTHONPATH=src python tests/record_reports.py
"""

import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from geeclust import (
    AR1,
    Exchangeable,
    Family,
    Fixed,
    TermCoding,
    build_design,
    build_paper_marginals,
    default_structures,
    fit_gee,
    generate_paper,
    qic,
    qic_u,
    realize_correlation,
    recode_response,
    run_selection,
)
from geeclust.errors import GeeError

PATH = Path(__file__).with_name("recorded_reports.json")
BINOMIAL = Family("binomial", "logit")
PAPER_TERMS = ("AGE1", "AREA1", "NINSERT1")
SELECTION_TERMS = ("AGE1", "GENDER", "AREA1", "NINSERT1", "LENGTH1", "DIAMETER")
# 60-cluster samples: m-dependent fails on the first three, exchangeable and
# AR-1 on 1070 (DomainError), AR-1 on 1062 (PerfectSeparation), unstructured
# on 1083 (NoConvergence)
SWEEP_SEEDS = (1000, 1062, 1070, 1083)


def _terms(names):
    return [TermCoding(name, "factor", "descending") for name in names]


def _plain(value):
    """A float, or nested lists of them; None for a missing or NaN value."""
    if value is None:
        return None
    a = np.asarray(value, dtype=float)
    if a.ndim == 0:
        return float(a) if np.isfinite(a) else None
    return [_plain(v) for v in a]


def _fit(ds, f, cs, terms=PAPER_TERMS):
    """The fit's estimates and criteria, or the class and message of the
    exception that stopped it."""
    x = build_design(ds, _terms(terms))
    try:
        fit = fit_gee(x, ds, f, cs)
    except GeeError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {
        "beta": _plain(fit.beta),
        "cov_model_based": _plain(fit.cov_model_based),
        "cov_robust": _plain(fit.cov_robust),
        "phi": _plain(fit.phi),
        "alpha": _plain(fit.alpha_estimates),
        "qic": _plain(qic(fit, x, ds, f)),
        "qic_u": _plain(qic_u(fit, x.p)),
        "iterations": fit.iterations,
    }


def _structures(ds):
    return [*default_structures(ds), Fixed(realize_correlation(AR1(0.3), 12))]


def _selection(report):
    return {
        "candidates": [
            {"structure": c.structure, "covariates": list(c.covariates), "p": c.p,
             "qic": _plain(c.qic), "qic_u": _plain(c.qic_u), "failure": c.failure}
            for c in report.candidates
        ],
        "best_structure": report.best_structure,
        "best_model": list(report.best_model),
        "trace": list(report.trace),
    }


def build_reports():
    datasets = {f"paper_{n}_{seed}": generate_paper(n, 0.25, seed)
                for n, seed in ((400, 42), (135, 7))}
    datasets["marginals_0"] = build_paper_marginals(0)
    datasets.update({f"paper_60_{seed}": generate_paper(60, 0.25, seed)
                     for seed in SWEEP_SEEDS})
    reports = {"fits": {}}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, raw in datasets.items():
            ds = recode_response(raw, "LOOSENING", "first")
            for cs in _structures(ds):
                reports["fits"][f"{name}/{cs.kind}"] = _fit(ds, BINOMIAL, cs)
        paper = datasets["paper_135_7"]
        reports["fits"]["paper_135_7/LENGTH/normal-identity"] = _fit(
            replace(paper, response=paper.columns["LENGTH"]),
            Family("normal", "identity"), Exchangeable(), ("AGE1", "AREA1"))
        reports["fits"]["paper_135_7/NINSERT/poisson-log"] = _fit(
            replace(paper, response=paper.columns["NINSERT"]),
            Family("poisson", "log"), AR1(), ("AGE1", "AREA1"))

        ds = recode_response(datasets["paper_400_42"], "LOOSENING", "first")
        reports["selections"] = {
            "stepwise": _selection(run_selection(
                ds, BINOMIAL, _terms(SELECTION_TERMS), mode="stepwise")),
            "exhaustive": _selection(run_selection(
                ds, BINOMIAL, _terms(PAPER_TERMS), mode="exhaustive")),
        }
    return reports


if __name__ == "__main__":
    PATH.write_text(json.dumps(build_reports(), indent=1, allow_nan=False) + "\n")
