"""Marginal models for clustered outcomes via generalized estimating equations.

The package covers the full workflow for correlated (e.g. within-patient)
binary outcomes: CSV ingestion with factor coding and reference-category
control, an IRLS independence fitter, the GEE solver over six working
correlation structures with model-based and robust sandwich covariance,
Wald/odds-ratio inference, QIC/QICu two-phase selection of the correlation
structure and covariate set, and a calibrated clustered binary-data
simulator.
"""

from .data import (
    ClusteredDataset,
    DesignMatrix,
    TermCoding,
    build_design,
    complete_cases,
    derive_threshold,
    load_csv,
    recode_response,
    write_csv,
)
from .gee import (
    AR1,
    CorrelationStructure,
    Exchangeable,
    Fixed,
    GeeFit,
    GeeOptions,
    Independent,
    MDependent,
    Unstructured,
    estimate_alpha,
    estimate_phi,
    fit_gee,
    independence_information,
    realize_correlation,
    robust_se,
)
from .glm import Family, IrlsFit, irls_fit, link_eval, link_inverse, quasi_likelihood, variance_fn
from .inference import (
    ConcordanceSummary,
    ContingencyTable,
    ParameterRow,
    concordance_summary,
    crosstab_2x2,
    odds,
    odds_ratio,
    qic,
    qic_u,
    reference_panels,
    wald_row,
)
from .select import (
    Candidate,
    CandidateSpec,
    SelectionReport,
    default_structures,
    enumerate_candidates,
    run_selection,
)
from .simulate import (
    CovariateSpec,
    SimProfile,
    build_paper_marginals,
    generate,
    generate_paper,
    paper_profile,
)

__version__ = "0.1.0"
