"""Exception types shared across the package.  Those that are also
``ValueError`` are faults of the input (the CLI exits 2); the others are
numerical failures on valid input (the CLI exits 3)."""


class SsvkitError(Exception):
    """Base class for all library errors."""


class JitterExceeded(SsvkitError):
    """Cholesky factorization failed even at the maximum allowed jitter."""


class DimensionMismatch(SsvkitError, ValueError):
    """Array shapes are incompatible with the requested operation."""


class TooFewPoints(SsvkitError, ValueError):
    """Not enough data points for the requested statistic."""


class CountOutOfRange(SsvkitError, ValueError):
    """A requested count is outside its valid range."""


class DimensionTooLarge(SsvkitError, ValueError):
    """Feature dimension exceeds an enumeration cap."""


class BoundaryCoalition(SsvkitError):
    """The Shapley kernel weight is infinite for the empty and grand coalitions."""


class SingularSystem(SsvkitError):
    """The constrained weighted least-squares system is rank deficient."""


class DesignMismatch(SsvkitError, ValueError):
    """A coalition design and another object disagree on dimensions."""
