"""Exception and warning types shared across the package."""


class GeeError(Exception):
    """Base class for all geeclust errors."""


# ---------------------------------------------------------------- data layer

class MissingColumn(GeeError):
    """A declared column is absent from the file header."""


class DuplicateColumn(GeeError):
    """The file header names one column twice."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"column {name!r} appears more than once in the header")


class UnparseableValue(GeeError):
    """A cell could not be parsed as the type its role requires."""

    def __init__(self, row, col, value=None):
        self.row = row
        self.col = col
        self.value = value
        super().__init__(f"row {row}, column {col!r}: cannot parse {value!r}")


class DuplicateWithinPosition(GeeError):
    """Two rows of one cluster share a within-subject value."""

    def __init__(self, cluster_id, value=None):
        self.cluster_id = cluster_id
        super().__init__(
            f"cluster {cluster_id!r}: duplicate within-subject value {value!r}"
        )


class UnknownVariable(GeeError):
    """A referenced variable name does not exist in the dataset."""


class ConstantFactor(GeeError):
    """A term takes a single value: a factor with one observed level has no
    column to code, and a constant covariate is collinear with the
    intercept."""


class NonBinaryResponse(GeeError):
    """The response does not take exactly two distinct values."""


# ------------------------------------------------------------- linear algebra

class NotPositiveDefinite(GeeError):
    """Matrix is not symmetric positive definite."""


# ------------------------------------------------------------ model fitting

class DomainError(GeeError):
    """A mean value sits at or outside the boundary of its mean space."""


class RankDeficient(GeeError):
    """Design matrix does not have full column rank."""


class UndefinedDispersion(GeeError):
    """The estimated dispersion is 0 or undefined: the fit leaves no
    residual degree of freedom, reproduces the response exactly, or
    diverged."""


class PerfectSeparation(GeeError):
    """Fitted binomial means pinned at 0/1 while the score is unconverged."""


class NoConvergence(GeeError):
    """Iteration limit reached; carries the partial fit when available."""

    def __init__(self, message, fit=None):
        self.fit = fit
        super().__init__(message)


class InvalidAlpha(GeeError):
    """A working-correlation parameter lies outside (-1, 1)."""


class SizeExceedsTemplate(GeeError):
    """Cluster needs more occasions than the correlation template holds."""


class NoPairs(GeeError):
    """All clusters are singletons; no within-cluster pairs to average."""


class NegativeVariance(GeeError):
    """A covariance diagonal entry is materially negative."""


# ------------------------------------------------------------------ inference

class InvalidLevel(GeeError):
    """Confidence level outside (0, 1)."""


class DivisionByZero(GeeError):
    """Odds requested with zero non-events."""


class UndefinedOR(GeeError):
    """Odds ratio has a zero denominator cell."""


# ------------------------------------------------------------------ selection

class AllCandidatesFailed(GeeError):
    """No candidate model converged during selection."""


# ----------------------------------------------------------------- simulation

class InfeasibleCorrelation(GeeError):
    """Requested pairwise correlation exceeds what the margins allow."""


class UnderdeterminedLag(UserWarning):
    """No residual pairs observed at a lag or occasion pair; entry set to 0."""
