"""Exception types shared across the package."""


class SsvkitError(Exception):
    """Base class for all library errors."""


class JitterExceeded(SsvkitError):
    """Cholesky factorization failed even at the maximum allowed jitter."""


class DimensionMismatch(SsvkitError):
    """Array shapes are incompatible with the requested operation."""


class TooFewPoints(SsvkitError):
    """Not enough data points for the requested statistic."""


class CountOutOfRange(SsvkitError):
    """A requested count is outside its valid range."""


class DimensionTooLarge(SsvkitError):
    """Feature dimension exceeds an enumeration cap."""


class BoundaryCoalition(SsvkitError):
    """The Shapley kernel weight is infinite for the empty and grand coalitions."""


class SingularSystem(SsvkitError):
    """The constrained weighted least-squares system is rank deficient."""


class DesignMismatch(SsvkitError):
    """A coalition design and another object disagree on dimensions."""
