"""Exception hierarchy: ``InputError`` for invalid or degenerate input
detected up front, ``NumericalError`` for failures during computation."""


class SpatialSdrError(Exception):
    """Base class for all package errors."""


class InputError(SpatialSdrError):
    """Invalid arguments, files, or degenerate inputs detected up front."""


class NumericalError(SpatialSdrError):
    """Numerical failure while computing (singularities, non-finite values)."""


# --- geometry ---------------------------------------------------------------

class DuplicatePointsError(InputError):
    """Two locations coincide, so distance-based structures are undefined."""


class NonPositiveDecayError(InputError):
    """Exponential correlation requires a strictly positive decay rate."""


class NearSingularCorrelationError(NumericalError):
    """Correlation matrix stayed numerically singular after the jitter retry."""


class IsolatedPointError(InputError):
    """Some location has no neighbor within the distance threshold."""


class SingularFilterError(NumericalError):
    """The autoregressive filter I - theta*W is numerically singular."""


# --- basis ------------------------------------------------------------------

class ConstantResponseError(InputError):
    """Polynomial features of a constant response are degenerate."""


class RankDeficientBasisError(NumericalError):
    """Centered response features have rank below the requested dimension."""


# --- reduced-rank core ------------------------------------------------------

class InsufficientSampleError(InputError):
    """Need n > p + r observations for a nonsingular residual covariance."""


class SingularFeatureCovError(NumericalError):
    """Feature second-moment matrix is numerically singular."""


class SingularResidualCovError(NumericalError):
    """LS residual covariance stayed singular after the jitter retry."""


class RankOutOfRangeError(InputError):
    """Requested rank outside 0..min(p, r)."""


class NonFiniteLoglikError(NumericalError):
    """Log-likelihood evaluated to NaN or infinity."""


# --- fitting / selection ----------------------------------------------------

class NonMonotoneLogliksError(NumericalError):
    """Nested log-likelihoods decreased with rank; upstream fit is broken."""


class CvFailedError(NumericalError):
    """Every candidate dimension failed during cross-validation."""


# --- prediction -------------------------------------------------------------

class DegenerateGridError(InputError):
    """No bandwidth grid scales from fewer than two points or a non-finite median distance."""


# --- simulation -------------------------------------------------------------

class CovarianceNotPDError(NumericalError):
    """Simulated covariance stayed non-positive-definite after jitter."""

