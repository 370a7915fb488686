"""Exception types shared across the package."""


class BlockOrderError(Exception):
    """Base class for all blockorder-specific errors."""


class InvalidInputError(BlockOrderError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateInputError(BlockOrderError, ValueError):
    """Data is degenerate, e.g. a coordinate with zero variance."""


class SingularMatrixError(BlockOrderError):
    """A regressor is, up to rounding, a linear function of the regressors before it."""


class ModelInvalidError(BlockOrderError):
    """An adjacency matrix does not define a solvable model."""


class SearchTooLargeError(BlockOrderError):
    """Exact search was asked for more variables than its guard allows."""
