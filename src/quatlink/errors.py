"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Operands have incompatible lengths or shapes."""


class SingularMatrixError(ArithmeticError):
    """Linear system is singular or numerically singular."""


class InsufficientDataError(ValueError):
    """Not enough samples to form the requested statistic."""


class ExperimentFailedError(RuntimeError):
    """Every Monte Carlo run of an experiment diverged."""


class KernelBuildError(RuntimeError):
    """quatlink's C kernels could not be built: the C compiler failed, or the cache directory cannot be written."""
