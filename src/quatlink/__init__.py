"""Quaternion-valued link simulation toolkit.

Quaternion arithmetic and linear algebra, a 16-point 4-D QAM modem,
quaternion FIR channels with calibrated noise, a QLMS adaptive equalizer,
the block Wiener solution, and a seeded Monte Carlo harness with a CLI.
"""

__version__ = "0.1.0"

from . import adaptive, channel, cli, harness, linalg, modem, quat, wiener
from .adaptive import QlmsBatch, run_qlms_batch
from .channel import MimoChannelModel, derive_rng, make_rng
from .errors import (
    DimensionMismatchError,
    ExperimentFailedError,
    InsufficientDataError,
    SingularMatrixError,
)
from .harness import (
    ExperimentConfig,
    ExperimentSummary,
    ExperimentResult,
    LearningCurve,
    run_experiment,
    run_mimo_experiment,
    run_siso_experiment,
    summarize,
)
from .wiener import MseReport, WienerProblem, estimate_statistics, evaluate_mse, solve_wiener

__all__ = [
    "__version__",
    "adaptive",
    "channel",
    "cli",
    "harness",
    "linalg",
    "modem",
    "quat",
    "wiener",
    "QlmsBatch",
    "run_qlms_batch",
    "MimoChannelModel",
    "derive_rng",
    "make_rng",
    "DimensionMismatchError",
    "ExperimentFailedError",
    "InsufficientDataError",
    "SingularMatrixError",
    "ExperimentConfig",
    "ExperimentSummary",
    "ExperimentResult",
    "LearningCurve",
    "run_experiment",
    "run_mimo_experiment",
    "run_siso_experiment",
    "summarize",
    "MseReport",
    "WienerProblem",
    "estimate_statistics",
    "evaluate_mse",
    "solve_wiener",
]
