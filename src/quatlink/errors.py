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
    """The C compiler could not build quatlink's C kernels, the QLMS kernel and the FIR."""
