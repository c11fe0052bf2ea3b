"""Exception types shared across the package."""

__all__ = [
    "DimensionMismatchError",
    "SingularMatrixError",
    "InsufficientDataError",
    "ExperimentFailedError",
]


class DimensionMismatchError(ValueError):
    """Operands have incompatible lengths or shapes."""


class SingularMatrixError(ArithmeticError):
    """Linear system is singular or numerically singular."""


class InsufficientDataError(ValueError):
    """Not enough samples to form the requested statistic."""


class ExperimentFailedError(RuntimeError):
    """Every Monte Carlo run of an experiment diverged."""
