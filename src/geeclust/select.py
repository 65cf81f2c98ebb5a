"""Two-phase model selection over working correlations and covariate sets.

Phase 1 ranks (covariate subset x correlation structure) candidates by QIC;
the structure of the lowest-QIC candidate wins.  Phase 2 freezes that
structure and ranks covariate subsets by QICu.  Both phases run either
exhaustively over all subsets up to a size cap or as a greedy forward walk
that stops when adding a covariate no longer lowers the criterion.  Within
one selection each covariate subset is coded once and each unique (subset,
structure) candidate is fitted once, however often the walk visits it.
"""

import logging
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .data import build_design, complete_cases
from .errors import (
    AllCandidatesFailed,
    ConstantFactor,
    DomainError,
    NoConvergence,
    NotPositiveDefinite,
    PerfectSeparation,
    RankDeficient,
    UndefinedDispersion,
)
from .gee import (
    AR1,
    STRUCTURE_CLASSES,
    Exchangeable,
    Independent,
    MDependent,
    Unstructured,
    fit_gee,
)
from .inference import qic, qic_u

log = logging.getLogger("geeclust.select")


@dataclass(frozen=True)
class CandidateSpec:
    """One (covariate subset, structure) combination to fit."""

    covariates: tuple
    structure: object


@dataclass(frozen=True)
class Candidate:
    """Fitted candidate: criterion values plus a convergence flag.

    `failure` is "<ExceptionClass>: <message>" for a candidate whose coding
    or fit failed (its criteria are NaN), None for one that converged.
    """

    structure: str
    covariates: tuple
    p: int
    qic: float
    qic_u: float
    converged: bool
    failure: Optional[str] = None


@dataclass(frozen=True)
class SelectionReport:
    """Ranked candidates with the two-phase winners and the step log."""

    candidates: tuple
    best_structure: str
    best_model: tuple
    trace: tuple


# what makes one candidate fail without aborting the selection
_FIT_FAILURES = (NoConvergence, RankDeficient, NotPositiveDefinite,
                PerfectSeparation, ConstantFactor, DomainError, UndefinedDispersion)


def _canonical(structures):
    """The offered structures in canonical listing order.

    Candidates are told apart by structure kind, so two structures of one
    kind are rejected.
    """
    kinds = [s.kind for s in structures]
    for kind in kinds:
        if kinds.count(kind) > 1:
            raise ValueError(f"structure kind {kind!r} offered more than once")
    order = [c.kind for c in STRUCTURE_CLASSES]
    return sorted(structures, key=lambda s: order.index(s.kind))


def _check_max_size(max_size, n_terms):
    if not 1 <= max_size <= n_terms:
        raise ValueError(f"max_size must be in 1..{n_terms}")


def enumerate_candidates(terms, structures, max_size):
    """All non-empty covariate subsets up to `max_size` crossed with structures.

    Deterministic order: subset size, then position-lexicographic subset,
    then structure in canonical listing order.
    """
    names = [t.name for t in terms]
    _check_max_size(max_size, len(names))
    ranked = _canonical(structures)
    return [CandidateSpec(subset, structure)
            for size in range(1, max_size + 1)
            for subset in combinations(names, size)
            for structure in ranked]


def default_structures(ds, mdep_order=2):
    """The five estimable structures, sized to the dataset's occasions."""
    return [
        Independent(),
        MDependent(mdep_order),
        Exchangeable(),
        AR1(),
        Unstructured(ds.max_position),
    ]


class _Evaluator:
    """The candidates of one selection, each fitted once.

    A covariate subset is filtered to its complete cases and coded once, and
    a (subset, structure) pair is fitted once: a walk that comes back to the
    pair gets the same Candidate.  Structures are keyed by kind, unique among
    the offered ones, since the ones holding a template array cannot be
    hashed.
    """

    def __init__(self, ds, f, terms, options):
        self.ds = ds
        self.f = f
        self.terms = terms
        self.options = options
        self._designs = {}
        self._candidates = {}

    def __call__(self, subset, structure) -> Candidate:
        key = (subset, structure.kind)
        if key not in self._candidates:
            self._candidates[key] = self._fit(subset, structure)
        return self._candidates[key]

    def _design(self, subset):
        """The subset's complete-case dataset and design; a coding failure
        is kept and raised again for every structure."""
        if subset not in self._designs:
            chosen = [t for t in self.terms if t.name in subset]
            try:
                sub_ds, _ = complete_cases(self.ds, [t.name for t in chosen])
                self._designs[subset] = (sub_ds, build_design(sub_ds, chosen))
            except _FIT_FAILURES as exc:
                self._designs[subset] = exc
        design = self._designs[subset]
        if isinstance(design, Exception):
            raise design
        return design

    def _fit(self, subset, structure) -> Candidate:
        p = len(subset) + 1                      # until the subset is coded
        try:
            sub_ds, x = self._design(subset)
            p = x.p
            fit = fit_gee(x, sub_ds, self.f, structure, self.options)
            return Candidate(
                structure=structure.kind,
                covariates=subset,
                p=p,
                qic=qic(fit, x, sub_ds, self.f),
                qic_u=qic_u(fit, p),
                converged=True,
            )
        except _FIT_FAILURES as exc:
            log.info("candidate %s/%s failed: %s", structure.kind, subset, exc)
            return Candidate(
                structure=structure.kind,
                covariates=subset,
                p=p,
                qic=float("nan"),
                qic_u=float("nan"),
                converged=False,
                failure=f"{type(exc).__name__}: {exc}",
            )


def _argmin(candidates, key):
    """Lowest criterion among converged candidates; ties favor smaller p,
    then the lexicographically earlier subset."""
    alive = [c for c in candidates if c.converged and np.isfinite(key(c))]
    if not alive:
        return None
    return min(alive, key=lambda c: (key(c), c.p, c.covariates))


def run_selection(ds, f, terms, structures=None, mode="exhaustive",
                  max_size=None, options=None) -> SelectionReport:
    """Run the two-phase search.

    Parameters
    ----------
    ds : ClusteredDataset
        Response already recoded to the modeled event.
    terms : sequence of TermCoding
        Candidate covariate pool.
    structures : sequence of CorrelationStructure, optional
        Defaults to the five estimable kinds; at most one of each kind.
    mode : "exhaustive" or "stepwise"
        Exhaustive fits every subset-structure pair; stepwise grows the
        subset greedily, stopping when the criterion stops improving.
    max_size : int, optional
        Largest subset either mode tries, in 1..len(terms); defaults to
        len(terms).  A value outside that range raises ValueError.

    Returns
    -------
    SelectionReport
        Every visited candidate in walk order (a stepwise walk visits some
        twice; each unique candidate is fitted once), the winning structure
        (lowest QIC), the winning covariate set under it (lowest QICu), and
        the step log.
    """
    if mode not in ("exhaustive", "stepwise"):
        raise ValueError("mode must be 'exhaustive' or 'stepwise'")
    structures = _canonical(default_structures(ds) if structures is None else structures)
    names = [t.name for t in terms]
    if max_size is None:
        max_size = len(names)
    _check_max_size(max_size, len(names))
    evaluate = _Evaluator(ds, f, terms, options)

    if mode == "exhaustive":
        candidates = [evaluate(spec.covariates, spec.structure)
                      for spec in enumerate_candidates(terms, structures, max_size)]
        phase1 = _argmin(candidates, lambda c: c.qic)
        if phase1 is None:
            raise AllCandidatesFailed("no candidate converged")
        best_structure = phase1.structure
        under = [c for c in candidates if c.structure == best_structure]
        phase2 = _argmin(under, lambda c: c.qic_u)
        trace = (
            f"Phase 1 (working correlation by QIC): {best_structure} "
            f"at {_fmt_subset(phase1.covariates)} QIC={phase1.qic:.3f}",
            f"Phase 2 (model by QICu): {_fmt_subset(phase2.covariates)} "
            f"QICu={phase2.qic_u:.3f}",
        )
        return SelectionReport(tuple(candidates), best_structure,
                               phase2.covariates, trace)

    # stepwise: greedy forward walk, phase 1 over QIC across all structures
    candidates = []
    trace = []

    def grow(pool, criterion, label):
        current: tuple = ()
        current_best = float("inf")
        winner = None
        step = 0
        while len(current) < max_size:
            step += 1
            round_candidates = []
            for name in names:
                if name in current:
                    continue
                subset = tuple(n for n in names if n in current or n == name)
                for structure in pool:
                    cand = evaluate(subset, structure)
                    candidates.append(cand)
                    round_candidates.append(cand)
            best = _argmin(round_candidates, criterion)
            if best is None or criterion(best) >= current_best:
                trace.append(
                    f"STEP {step}: no {label} improvement over "
                    f"{current_best:.3f}; stop with {_fmt_subset(current)}"
                )
                break
            added = next(n for n in best.covariates if n not in current)
            current = best.covariates
            current_best = criterion(best)
            winner = best
            trace.append(
                f"STEP {step}: add {added} -> {_fmt_subset(current)} "
                f"[{best.structure}] {label}={current_best:.3f}"
            )
        return winner

    trace.append("Phase 1 (working correlation by QIC)")
    phase1 = grow(structures, lambda c: c.qic, "QIC")
    if phase1 is None:
        raise AllCandidatesFailed("no candidate converged")
    best_structure = phase1.structure
    trace.append(f"Phase 1 winner: {best_structure}")
    trace.append("Phase 2 (model by QICu)")
    phase2 = grow([s for s in structures if s.kind == best_structure],
                  lambda c: c.qic_u, "QICu")
    trace.append(f"Phase 2 winner: {_fmt_subset(phase2.covariates)}")
    return SelectionReport(
        tuple(candidates), best_structure, phase2.covariates, tuple(trace)
    )


def _fmt_subset(subset) -> str:
    return "(" + ", ".join(subset) + ")" if subset else "(none)"
