import warnings

import numpy as np
import pytest

from geeclust import (
    AR1,
    Exchangeable,
    Family,
    Independent,
    MDependent,
    TermCoding,
    Unstructured,
    enumerate_candidates,
    generate_paper,
    recode_response,
    run_selection,
)
from geeclust.errors import AllCandidatesFailed, UnderdeterminedLag

BINOMIAL = Family("binomial", "logit")
FIVE = [Independent(), MDependent(2), Exchangeable(), AR1(), Unstructured(6)]


def terms_named(*names):
    return [TermCoding(n, "factor", "descending") for n in names]


@pytest.fixture(scope="module")
def signal_ds():
    """Three real effects (AREA1, NINSERT1, AGE1) and three null covariates."""
    ds = generate_paper(n_clusters=400, alpha=0.25, seed=42)
    return recode_response(ds, "LOOSENING", "first")


SIGNAL_TERMS = terms_named("AGE1", "GENDER", "AREA1", "LENGTH1", "DIAMETER", "NINSERT1")


# ------------------------------------------------------- enumerate_candidates

def test_enumeration_counts_single_size():
    specs = enumerate_candidates(terms_named(*"ABCDEF"), FIVE, max_size=1)
    assert len(specs) == 30


def test_enumeration_counts_full_power_set():
    specs = enumerate_candidates(terms_named(*"ABCDEF"), [Independent()], max_size=6)
    assert len(specs) == 63


def test_enumeration_order():
    specs = enumerate_candidates(terms_named("A", "B", "C"), [Independent()], 2)
    subsets = [s.covariates for s in specs]
    assert subsets == [("A",), ("B",), ("C",), ("A", "B"), ("A", "C"), ("B", "C")]


def test_enumeration_structure_order():
    specs = enumerate_candidates(terms_named("A"), [Exchangeable(), Independent()], 1)
    assert [s.structure.kind for s in specs] == ["independent", "exchangeable"]


def test_enumeration_rejects_bad_max_size():
    with pytest.raises(ValueError):
        enumerate_candidates(terms_named("A"), FIVE, max_size=0)


# --------------------------------------------------------------- run_selection

def test_single_candidate_selected(signal_ds):
    report = run_selection(
        signal_ds, BINOMIAL, terms_named("AREA1"), [Independent()], max_size=1
    )
    assert report.best_structure == "independent"
    assert report.best_model == ("AREA1",)
    assert len(report.candidates) == 1


def test_exhaustive_candidate_count_and_consistency(signal_ds):
    terms = terms_named("AGE1", "AREA1", "NINSERT1")
    structures = [Independent(), Exchangeable()]
    report = run_selection(signal_ds, BINOMIAL, terms, structures, mode="exhaustive")
    assert len(report.candidates) == (2**3 - 1) * 2

    converged = [c for c in report.candidates if c.converged]
    best_qic = min(converged, key=lambda c: (c.qic, c.p, c.covariates))
    assert report.best_structure == best_qic.structure
    under = [c for c in converged if c.structure == report.best_structure]
    best_qicu = min(under, key=lambda c: (c.qic_u, c.p, c.covariates))
    assert report.best_model == best_qicu.covariates


def test_exhaustive_pure_fits_order_invariant(signal_ds):
    terms = terms_named("AREA1", "NINSERT1")
    a = run_selection(signal_ds, BINOMIAL, terms, [Independent()], mode="exhaustive")
    b = run_selection(signal_ds, BINOMIAL, list(reversed(terms)),
                      [Independent()], mode="exhaustive")
    qics_a = {c.covariates: c.qic for c in a.candidates}
    qics_b = {tuple(sorted(c.covariates)): c.qic for c in b.candidates}
    for subset, value in qics_a.items():
        assert qics_b[tuple(sorted(subset))] == pytest.approx(value, rel=1e-12)


def test_stepwise_three_signal_shape(signal_ds):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderdeterminedLag)
        report = run_selection(
            signal_ds, BINOMIAL, SIGNAL_TERMS,
            [Independent(), Exchangeable()], mode="stepwise",
        )
    steps = [line for line in report.trace if line.startswith("STEP")]
    # two phases, each growing 1 -> 2 -> 3 covariates then stopping
    assert len(steps) == 8
    assert [s.split(":")[0] for s in steps[:4]] == ["STEP 1", "STEP 2", "STEP 3", "STEP 4"]
    assert "stop" in steps[3]
    assert "stop" in steps[7]
    assert set(report.best_model) == {"AGE1", "AREA1", "NINSERT1"}


def test_stepwise_trace_in_order(signal_ds):
    report = run_selection(
        signal_ds, BINOMIAL, terms_named("AREA1", "GENDER"),
        [Independent()], mode="stepwise",
    )
    # STEP numbering restarts at 1 inside each phase and ascends by one
    phases = []
    for line in report.trace:
        if line.startswith("Phase"):
            phases.append([])
        elif line.startswith("STEP"):
            phases[-1].append(int(line.split()[1].rstrip(":")))
    assert len(phases) >= 2
    for numbers in phases:
        if numbers:
            assert numbers == list(range(1, len(numbers) + 1))


def test_exhaustive_and_stepwise_agree_on_monotone_path(signal_ds):
    # three real effects plus one null: the greedy path is monotone here, so
    # both modes must land on the same structure and covariate set
    terms = terms_named("AGE1", "GENDER", "AREA1", "NINSERT1")
    exhaustive = run_selection(signal_ds, BINOMIAL, terms, [Independent()],
                               mode="exhaustive")
    stepwise = run_selection(signal_ds, BINOMIAL, terms, [Independent()],
                             mode="stepwise")
    assert exhaustive.best_structure == stepwise.best_structure
    assert set(exhaustive.best_model) == set(stepwise.best_model)


def test_rank_deficient_candidate_flagged(signal_ds):
    # a pathological constant term: every candidate containing it fails but
    # stays in the report
    from geeclust.data import ClusteredDataset

    ds = ClusteredDataset(
        signal_ds.ids, signal_ds.sizes, signal_ds.positions, signal_ds.response,
        {**signal_ds.columns, "CONST": np.ones(signal_ds.n_total)},
        signal_ds.cluster_col, signal_ds.response_col, signal_ds.within_col,
    )
    terms = terms_named("AREA1") + [TermCoding("CONST", "covariate")]
    report = run_selection(ds, BINOMIAL, terms, [Independent()], mode="exhaustive")
    failed = [c for c in report.candidates if not c.converged]
    assert failed and all("CONST" in c.covariates for c in failed)
    assert all(np.isnan(c.qic) for c in failed)
    assert report.best_model == ("AREA1",)


def test_all_candidates_failed(signal_ds):
    from geeclust.data import ClusteredDataset

    ds = ClusteredDataset(
        signal_ds.ids, signal_ds.sizes, signal_ds.positions, signal_ds.response,
        {"CONST": np.ones(signal_ds.n_total)}, "ID", signal_ds.response_col, None
    )
    with pytest.raises(AllCandidatesFailed):
        run_selection(ds, BINOMIAL, [TermCoding("CONST", "covariate")],
                      [Independent()], mode="exhaustive")


def test_domain_error_candidate_recorded_as_failed():
    # AR-1 Fisher scoring drives a fitted mean out of (0, 1) on this small
    # dataset; the candidate must fail, not abort the whole selection
    ds = recode_response(generate_paper(40, 0.3, 2234450039), "LOOSENING")
    terms = terms_named("AGE1", "GENDER", "NINSERT1", "AREA1", "LENGTH1", "DIAMETER")
    report = run_selection(ds, BINOMIAL, terms, [AR1()], mode="stepwise", max_size=2)
    failed = [c for c in report.candidates if not c.converged]
    assert failed and all(np.isnan(c.qic) for c in failed)
    assert report.best_structure == "ar1"
