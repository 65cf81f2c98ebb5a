import warnings

import numpy as np
import pytest

import geeclust.select
from geeclust import (
    AR1,
    Candidate,
    ClusteredDataset,
    Exchangeable,
    Family,
    GeeOptions,
    Independent,
    MDependent,
    SelectionReport,
    TermCoding,
    Unstructured,
    build_design,
    complete_cases,
    derive_threshold,
    enumerate_candidates,
    fit_gee,
    generate_paper,
    qic,
    qic_u,
    recode_response,
    run_selection,
)
from geeclust.errors import (
    AllCandidatesFailed,
    ConstantFactor,
    DomainError,
    NoConvergence,
    NotPositiveDefinite,
    PerfectSeparation,
    RankDeficient,
    UnderdeterminedLag,
)
from geeclust.gee import STRUCTURE_CLASSES

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


def test_enumeration_rejects_two_structures_of_one_kind():
    with pytest.raises(ValueError, match="mdependent"):
        enumerate_candidates(terms_named("A"), [MDependent(1), MDependent(2)], 1)


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


@pytest.mark.parametrize("mode", ["exhaustive", "stepwise"])
def test_selection_rejects_two_structures_of_one_kind(signal_ds, mode):
    # told apart by kind alone, the two would be reported under one name
    with pytest.raises(ValueError, match="mdependent"):
        run_selection(signal_ds, BINOMIAL, terms_named("AREA1"),
                      [MDependent(1), MDependent(2)], mode=mode, max_size=1)


@pytest.mark.parametrize("mode", ["exhaustive", "stepwise"])
@pytest.mark.parametrize("max_size", [0, -1, 5])
def test_selection_rejects_max_size_outside_the_terms(signal_ds, mode, max_size):
    # one rule in both modes: a stepwise walk of size 0 is no walk, and one
    # larger than the pool would stop short of what it was asked for
    with pytest.raises(ValueError, match=r"max_size must be in 1\.\.2"):
        run_selection(signal_ds, BINOMIAL, terms_named("AREA1", "AGE1"),
                      [Independent()], mode=mode, max_size=max_size)


def test_domain_error_candidate_recorded_as_failed():
    # AR-1 Fisher scoring drives a fitted mean out of (0, 1) on this small
    # dataset; the candidate must fail, not abort the whole selection
    ds = recode_response(generate_paper(40, 0.3, 2234450039), "LOOSENING")
    terms = terms_named("AGE1", "GENDER", "NINSERT1", "AREA1", "LENGTH1", "DIAMETER")
    report = run_selection(ds, BINOMIAL, terms, [AR1()], mode="stepwise", max_size=2)
    failed = [c for c in report.candidates if not c.converged]
    assert failed and all(np.isnan(c.qic) for c in failed)
    assert report.best_structure == "ar1"


# ------------------------------------------------------ one candidate evaluator

def reference_fit_candidate(ds, f, terms, subset, structure):
    """Code the subset and fit the candidate from scratch on every visit."""
    chosen = [t for t in terms if t.name in subset]
    p = len(subset) + 1                          # until the subset is coded
    try:
        sub_ds, _ = complete_cases(ds, [t.name for t in chosen])
        x = build_design(sub_ds, chosen)
        p = x.p
        fit = fit_gee(x, sub_ds, f, structure)
        return Candidate(structure.kind, tuple(subset), p, qic(fit, x, sub_ds, f),
                         qic_u(fit, p), True)
    except (NoConvergence, RankDeficient, NotPositiveDefinite,
            PerfectSeparation, ConstantFactor, DomainError) as exc:
        return Candidate(structure.kind, tuple(subset), p, float("nan"),
                         float("nan"), False, f"{type(exc).__name__}: {exc}")


def reference_selection(ds, f, terms, structures, mode, max_size):
    """The two-phase walk with one fit per visited candidate."""
    names = [t.name for t in terms]
    fmt = geeclust.select._fmt_subset
    argmin = geeclust.select._argmin
    if mode == "exhaustive":
        candidates = [reference_fit_candidate(ds, f, terms, spec.covariates, spec.structure)
                      for spec in enumerate_candidates(terms, structures, max_size)]
        phase1 = argmin(candidates, lambda c: c.qic)
        if phase1 is None:
            raise AllCandidatesFailed("no candidate converged")
        under = [c for c in candidates if c.structure == phase1.structure]
        phase2 = argmin(under, lambda c: c.qic_u)
        trace = (
            f"Phase 1 (working correlation by QIC): {phase1.structure} "
            f"at {fmt(phase1.covariates)} QIC={phase1.qic:.3f}",
            f"Phase 2 (model by QICu): {fmt(phase2.covariates)} "
            f"QICu={phase2.qic_u:.3f}",
        )
        return SelectionReport(tuple(candidates), phase1.structure, phase2.covariates, trace)

    candidates, trace = [], []
    by_kind = {s.kind: s for s in sorted(structures,
                                         key=lambda s: STRUCTURE_CLASSES.index(type(s)))}

    def grow(pool, criterion, label):
        current, current_best, winner, step = (), float("inf"), None, 0
        while len(current) < max_size:
            step += 1
            round_candidates = []
            for name in names:
                if name in current:
                    continue
                subset = tuple(n for n in names if n in current or n == name)
                for structure in pool:
                    cand = reference_fit_candidate(ds, f, terms, subset, structure)
                    candidates.append(cand)
                    round_candidates.append(cand)
            best = argmin(round_candidates, criterion)
            if best is None or criterion(best) >= current_best:
                trace.append(f"STEP {step}: no {label} improvement over "
                             f"{current_best:.3f}; stop with {fmt(current)}")
                break
            added = next(n for n in best.covariates if n not in current)
            current, current_best, winner = best.covariates, criterion(best), best
            trace.append(f"STEP {step}: add {added} -> {fmt(current)} "
                         f"[{best.structure}] {label}={current_best:.3f}")
        return winner

    trace.append("Phase 1 (working correlation by QIC)")
    phase1 = grow(list(by_kind.values()), lambda c: c.qic, "QIC")
    if phase1 is None:
        raise AllCandidatesFailed("no candidate converged")
    trace.append(f"Phase 1 winner: {phase1.structure}")
    trace.append("Phase 2 (model by QICu)")
    phase2 = grow([by_kind[phase1.structure]], lambda c: c.qic_u, "QICu")
    trace.append(f"Phase 2 winner: {fmt(phase2.covariates)}")
    return SelectionReport(tuple(candidates), phase1.structure, phase2.covariates,
                           tuple(trace))


@pytest.fixture(scope="module")
def ragged_ds():
    """Ragged, occasion-gapped paper-like data plus CONST, a column of zeros
    that no factor coding accepts."""
    ds = recode_response(generate_paper(135, 0.3, 11), "LOOSENING")
    return derive_threshold(ds, "AREA1", 5.0, "CONST")


RAGGED_TERMS = terms_named("AGE1", "CONST", "NINSERT1", "AREA1", "LENGTH1")


def _counting(monkeypatch):
    """Record every fit_gee and complete_cases call that selection makes."""
    fits, preparations = [], []

    def counted_fit(x, ds, f, cs, options=None):
        fits.append((x.column_labels, cs.kind))
        return fit_gee(x, ds, f, cs, options)

    def counted_complete_cases(ds, variables):
        preparations.append(tuple(variables))
        return complete_cases(ds, variables)

    monkeypatch.setattr(geeclust.select, "fit_gee", counted_fit)
    monkeypatch.setattr(geeclust.select, "complete_cases", counted_complete_cases)
    return fits, preparations


@pytest.mark.parametrize("mode, structures, max_size", [
    ("stepwise", [Independent(), Exchangeable()], 3),
    ("exhaustive", [Exchangeable(), Independent(), AR1()], 2),
])
def test_each_unique_candidate_fitted_once(ragged_ds, monkeypatch, mode, structures,
                                           max_size):
    fits, preparations = _counting(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderdeterminedLag)
        report = run_selection(ragged_ds, BINOMIAL, RAGGED_TERMS, structures,
                               mode=mode, max_size=max_size)
    pairs = {(c.covariates, c.structure) for c in report.candidates}
    subsets = {c.covariates for c in report.candidates}
    coded = {c.covariates for c in report.candidates if "CONST" not in c.covariates}
    assert len(preparations) == len(set(preparations)) == len(subsets)
    assert len(fits) == len(set(fits))
    # a subset that cannot be coded is never fitted
    assert len(fits) == len({p for p in pairs if p[0] in coded})
    if mode == "stepwise":
        assert len(report.candidates) > len(pairs)


@pytest.mark.parametrize("mode, structures, max_size", [
    ("stepwise", [AR1(), Independent(), Exchangeable()], 3),
    ("exhaustive", [Independent(), Exchangeable()], 2),
])
def test_evaluator_matches_fit_per_visit_reference(ragged_ds, mode, structures, max_size):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderdeterminedLag)
        got = run_selection(ragged_ds, BINOMIAL, RAGGED_TERMS, structures,
                            mode=mode, max_size=max_size)
        expected = reference_selection(ragged_ds, BINOMIAL, RAGGED_TERMS, structures,
                                       mode, max_size)
    assert any(not c.converged for c in got.candidates)
    # repr, not ==: a failed candidate's NaN criteria never compare equal
    assert repr(got) == repr(expected)


def test_repeated_failure_keeps_its_reason(ragged_ds):
    report = run_selection(ragged_ds, BINOMIAL, terms_named("CONST", "AREA1"),
                           [Independent()], mode="stepwise")
    failed = [c for c in report.candidates if not c.converged]
    # phase 2 revisits the phase-1 failures; each keeps the coding error
    assert len(failed) == 2 * len({c.covariates for c in failed})
    assert all(c.failure.startswith("ConstantFactor: factor 'CONST'") for c in failed)
    assert all(c.failure is None for c in report.candidates if c.converged)


def test_failed_fit_reports_the_coded_parameter_count():
    rng = np.random.default_rng(8)
    n = 180
    ds = ClusteredDataset([str(i) for i in range(60)], [3] * 60, [1, 2, 3] * 60,
                          (rng.random(n) < 0.4).astype(float),
                          {"F": rng.integers(0, 3, n).astype(float),
                           "C": np.zeros(n)})
    evaluate = geeclust.select._Evaluator(
        ds, BINOMIAL, terms_named("F", "C"), GeeOptions(max_iter=1))
    failed, converged = evaluate(("F",), Exchangeable()), evaluate(("F",), Independent())
    assert (failed.converged, converged.converged) == (False, True)
    assert failed.failure.startswith("NoConvergence")
    assert failed.p == converged.p == 3          # intercept and two contrasts
    uncoded = evaluate(("C", "F"), Independent())
    assert uncoded.failure.startswith("ConstantFactor")
    assert uncoded.p == 3                        # no coding: one per covariate
