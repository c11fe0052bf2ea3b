"""Block Wiener solution from sample statistics.

Expectations are replaced by sample averages over one block: the regressor
autocorrelation matrix R = avg x[n] x[n]^H and the cross-correlation
p = avg x[n] conj(r[n-d]).  Setting the sampled gradient to zero gives
R w* = p, so the optimal weights are w = conj(solve(R, p)); the conjugation
is applied HERE, because the normal equations determine the conjugate of the
weight vector and forgetting to undo that is the classic mistake.

Runs sit on leading axes, as in `quat`.  A signal (N, 4), or (C, N, 4) for
stacked multi-stream regressors, with a reference (N, 4) is one run; a
signal (G, N, 4) or (G, C, N, 4) with references (G, N, 4) is G runs,
computed together.  Results take the run shape: float64 scalars for one
run, (G,) arrays for G.

Each stage is one call into the package's C library (`kernels`), in the
order `_kernels.c` states:
- `estimate_statistics`: `block_moments` forms R and p by the covariance
  method (Makhoul 1975, "Linear prediction: a tutorial review") in one pass
  that reads the signal and the references in place, so no lag matrix, copy
  of the signal or moment matrix is built in Python;
- `solve_wiener`: `wiener_solve` factors each run's R + ridge*I as L D L^H
  (Golub & Van Loan, Matrix Computations, secs. 4.1-4.2), first shifted by
  the singularity bound as a certificate, then unshifted to solve with.  Only
  a run it fails on, singular or indefinite, goes through the complex
  adjoint embedding (Zhang 1997, "Quaternions and matrices of quaternions")
  for its eigenvalues and its solve;
- `statistics_mse`: `wiener_cost` scores weights on the block the statistics
  came from, through the quadratic cost J(w) in R, p and a reference power
  the caller supplies, at O(L^2) per run instead of a pass over the block.

`evaluate_mse` scores any weights on data through the C FIR,
`channel.mimo_convolve`.  The harness passes each of its run slices
(`harness._slices`) whole, solves its sane runs and scores them against its
one stream power.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels, quat
from .channel import mimo_convolve
from .errors import DimensionMismatchError, InsufficientDataError, SingularMatrixError
from .linalg import SINGULARITY_RTOL, to_complex_adjoint, vector_from_adjoint, vector_to_adjoint

# Not called here; perfbench/tracer.py wraps these module attributes by name.
from .adaptive import lag_matrix  # noqa: F401
from .linalg import dot_left, mean_outer_h, solve  # noqa: F401

DB_FLOOR = -100.0


@dataclass(frozen=True)
class WienerProblem:
    """Sample autocorrelation (..., L, L, 4), cross-correlation (..., L, 4), sample count.

    Leading axes, when present, index runs.  Both are stored as the float64
    arrays they were checked as; an input that already is one is kept, not copied.
    Their entries may be non-finite, as sample moments that overflowed are:
    `solve_wiener` rejects such a problem, and the harness masks its runs first.
    The sample count is an integer of at least 1.
    """

    autocorrelation: np.ndarray
    cross_correlation: np.ndarray
    sample_count: int

    def __post_init__(self):
        count = self.sample_count
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
            raise ValueError(f"sample_count: must be an integer of at least 1, got {count!r}")
        r = quat._q(self.autocorrelation)
        p = quat._q(self.cross_correlation)
        if r.ndim < 3 or r.shape[-3] != r.shape[-2] or p.shape != r.shape[:-2] + (4,):
            raise ValueError(f"inconsistent dimensions: R {r.shape}, p {p.shape}")
        with np.errstate(invalid="ignore"):  # inf - inf of an infinite entry; the gap is then NaN and passes
            hermitian_gap = np.abs(r - quat.conj(r.swapaxes(-3, -2))).max(initial=0.0)
        if hermitian_gap > 1e-12 * max(1.0, float(np.abs(r).max(initial=0.0))):
            raise ValueError(f"autocorrelation is not Hermitian (max deviation {hermitian_gap:.3e})")
        object.__setattr__(self, "autocorrelation", r)
        object.__setattr__(self, "cross_correlation", p)

    @property
    def length(self) -> int:
        return self.autocorrelation.shape[-2]


@dataclass(frozen=True)
class MseReport:
    """Mean squared error, raw and in dB relative to the reference power.

    `linear`, `db` and `reference_power` have the run shape: float64 scalars
    for one run, (G,) arrays for G runs.
    """

    linear: float
    db: float
    sample_count: int
    reference_power: float


def _runs(signal, reference, length: int, delay: int):
    """Signal (G, C, N, 4) and references (G, N, 4), with G = 1 for one run, and the run shape () or (G,).

    Both are laid out as the package's C functions read them (`kernels.in_place`).
    """
    signal, reference = quat._q(signal), quat._q(reference)
    if reference.ndim not in (2, 3) or signal.ndim not in (reference.ndim, reference.ndim + 1):
        raise ValueError(
            f"expected a signal (N, 4) or (C, N, 4) with a reference (N, 4), optionally behind a"
            f" run axis G; got signal {signal.shape} and reference {reference.shape}"
        )
    runs = reference.shape[:-2]
    one = (1,) * (1 - len(runs))
    signal, reference = signal.reshape(one + signal.shape), reference.reshape(one + reference.shape)
    if signal.ndim == 3:
        signal = signal[:, None]
    if signal.shape[0] != reference.shape[0] or signal.shape[2] != reference.shape[1]:
        raise ValueError(f"reference must match the signal's runs and length, got {reference.shape} for {signal.shape}")
    if length < 1:
        raise ValueError("length must be at least 1")
    if delay < 0:
        raise ValueError("delay must be nonnegative")
    n = signal.shape[2]
    if n - delay < 1:
        raise InsufficientDataError(f"no iteration has a valid delayed reference (N={n}, delay={delay})")
    return kernels.in_place(signal), kernels.in_place(reference), runs


def estimate_statistics(signal, reference, length: int, delay: int = 0) -> WienerProblem:
    """Sample R and p over the block; counts only iterations with a delayed reference.

    For stacked streams the estimate has length C*length, laid out
    [stream 0 lags, stream 1 lags, ...].  One C pass finishes R and p: it
    takes 8 runs across its SIMD lanes, each of its sums starts at +0.0 and
    adds the iterations t = delay, delay + 1, ... in turn, and the recursion
    and the fold (signs stated in `_kernels.c`) add in a fixed order, so a
    run's bits do not depend on the runs computed with it or on the CPU.  The
    signal and the references are read in place when each stream's (N, 4)
    samples are contiguous.
    """
    signal, reference, runs = _runs(signal, reference, length, delay)
    g, c, n, _ = signal.shape
    r, p = np.empty((g, c * length, c * length, 4)), np.empty((g, c * length, 4))
    kernels.library().block_moments(signal, signal.strides[0] // 8, signal.strides[1] // 8, reference,
                                    reference.strides[0] // 8, g, c, length, n, delay, r, p)
    return WienerProblem(r.reshape(runs + r.shape[1:]), p.reshape(runs + p.shape[1:]), n - delay)


def default_ridge(problem: WienerProblem) -> float | np.ndarray:
    """1e-8 of the mean diagonal power; sample R can be rank-deficient for short blocks.

    A float64 scalar for one run, a (G,) array for G runs.
    """
    diag = np.diagonal(problem.autocorrelation[..., 0], axis1=-2, axis2=-1)
    return 1e-8 * diag.sum(axis=-1) / problem.length


def solve_wiener(problem: WienerProblem, ridge: float | np.ndarray | None = None) -> np.ndarray:
    """Optimal weights conj((R + ridge*I)^-1 p), for every run at once.

    `ridge` defaults to `default_ridge(problem)`; pass 0.0 for the exact
    normal equations.  A non-finite R or p raises ValueError.  A run whose
    regularized R has an eigenvalue no larger in magnitude than
    sqrt(SINGULARITY_RTOL) times its largest entry's norm raises
    SingularMatrixError.

    A sample R is positive semidefinite, so `wiener_solve` of the package's C
    library certifies each run by an LDL^H factorization of R + ridge*I minus
    that bound and solves it through the factorization of R + ridge*I, in the
    order `_kernels.c` states, so a run's weights depend neither on the runs
    beside it nor on the CPU.  Only for the runs it fails on, as it does for a
    singular R or for a Hermitian R that a caller built indefinite but
    invertible, are the eigenvalues computed, those of the complex adjoint
    (Zhang 1997); a run they show invertible is solved in the adjoint too.
    """
    r, p = problem.autocorrelation, problem.cross_correlation
    for name, statistic in (("autocorrelation", r), ("cross_correlation", p)):
        if not np.isfinite(statistic).all():
            raise ValueError(f"{name} must be finite to solve, but it holds inf or NaN entries")
    if ridge is None:
        ridge = default_ridge(problem)
    ridge = np.asarray(ridge, dtype=np.float64)
    if not (np.isfinite(ridge) & (ridge >= 0.0)).all():
        raise ValueError("ridge must be finite and nonnegative")
    runs, length = p.shape[:-2], problem.length
    ridge = np.ascontiguousarray(np.broadcast_to(ridge, runs))
    weights, bounds, certified = np.empty(p.shape), np.empty(runs), np.empty(runs, np.int8)
    kernels.library().wiener_solve(np.ascontiguousarray(r), np.ascontiguousarray(p), ridge, bounds.size, length,
                                   np.sqrt(SINGULARITY_RTOL), weights, bounds, certified)
    failed = certified == 0
    if failed.any():
        adjoint = to_complex_adjoint(r[failed]) + ridge[failed, None, None] * np.eye(2 * length)
        smallest = np.abs(np.linalg.eigvalsh(adjoint)).min(axis=-1)
        if np.any(smallest <= bounds[failed]):
            raise SingularMatrixError(
                f"sample autocorrelation is singular (smallest |eigenvalue| {float(np.min(smallest)):.3e}"
                f" with ridge {float(np.max(ridge)):.3e}); retry with a positive ridge"
            )
        solution = np.linalg.solve(adjoint, vector_to_adjoint(p[failed])[..., None])[..., 0]
        weights[failed] = quat.conj(vector_from_adjoint(solution))
    return weights


def floored_db(linear: np.ndarray, reference_power: float | np.ndarray) -> np.ndarray:
    """10 log10(linear / reference_power) of an array, floored at DB_FLOOR with no warning; NaN stays NaN.

    The quotient is converted in place, an array of the broadcast shape (0-d
    for scalar inputs); the only other temporaries are the boolean masks of
    the unfitted entries, one at a time.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        db = np.asarray(np.divide(linear, reference_power))
        np.log10(db, out=db)
        db *= 10.0
        np.maximum(db, DB_FLOOR, out=db)
    np.copyto(db, DB_FLOOR, where=np.less_equal(linear, 0.0))
    np.copyto(db, DB_FLOOR, where=np.less_equal(reference_power, 0.0))
    return db


def _report(linear: np.ndarray, reference_power: np.ndarray, count: int) -> MseReport:
    """MseReport of MSEs and reference powers over the leading run shape."""
    return MseReport(linear[()], floored_db(linear, reference_power)[()], count, reference_power[()])


def evaluate_mse(weights, signal, reference, length: int, delay: int = 0) -> MseReport:
    """Empirical mean of norm_sq(r[n-d] - dot_left(w, x[n])) over the block.

    The equalizer output is the one-output `mimo_convolve` of the streams
    with w, computed by the package's C FIR.  The dB figure is normalized by the mean reference power and
    floored at -100 dB so a perfect fit stays finite.
    """
    signal, reference, runs = _runs(signal, reference, length, delay)
    g, c, n, _ = signal.shape
    weights = quat._q(weights)
    if weights.shape != runs + (c * length, 4):
        raise DimensionMismatchError(f"weights {weights.shape[-2:]} do not match {c} streams of {length} lags")
    output = mimo_convolve(signal, weights.reshape(g, 1, c, length, 4))[:, 0]
    refs = reference[:, : n - delay]
    linear = quat.norm_sq(refs - output[:, delay:]).mean(axis=-1).reshape(runs)
    return _report(linear, quat.norm_sq(refs).mean(axis=-1).reshape(runs), n - delay)


def statistics_mse(problem: WienerProblem, weights, reference_power: float | np.ndarray) -> MseReport:
    """`evaluate_mse` over the problem's block, from its statistics alone.

    With R and p estimated over the iterations [delay, N), the mean of
    norm_sq(r[n-d] - dot_left(w, x[n])) over those iterations is

        J(w) = avg norm_sq(r) - 2 sum_l Re(w_l p_l) + sum_l,m Re(w_l R_lm conj(w_m)),

    so the block is not filtered again.  The caller supplies avg norm_sq(r),
    the reference power over those iterations: a float, or an array that
    broadcasts to the problem's run shape, and the report carries it in the
    run shape; the harness passes its one stream power, which every
    constellation symbol has exactly.  `wiener_cost` of the package's C
    library adds the two sums one run at a time, in the order `_kernels.c`
    states.  J is a difference of terms near that power, so its rounding
    error is a few ulps of it: the dB figure agrees with `evaluate_mse` to
    ~1e-12 dB at J 20 dB below the reference power, and loses a digit per
    further 10 dB.
    """
    r, p = problem.autocorrelation, problem.cross_correlation
    weights = quat._q(weights)
    if weights.shape != p.shape:
        raise DimensionMismatchError(f"weights {weights.shape[-2:]} do not match a problem of length {problem.length}")
    reference_power = np.broadcast_to(reference_power, p.shape[:-2]).astype(np.float64)  # ValueError if it does not fit
    sums = np.empty(p.shape[:-2] + (2,))
    kernels.library().wiener_cost(np.ascontiguousarray(r), np.ascontiguousarray(p), np.ascontiguousarray(weights),
                                  reference_power.size, problem.length, sums)
    return _report(reference_power - 2.0 * sums[..., 0] + sums[..., 1], reference_power, problem.sample_count)
