"""Block Wiener solution from sample statistics.

Expectations are replaced by sample averages over one block: the regressor
autocorrelation matrix R = avg x[n] x[n]^H and the cross-correlation
p = avg x[n] conj(r[n-d]).  Setting the sampled gradient to zero gives
R w* = p, so the optimal weights are w = conj(solve(R, p)); the conjugation
is applied HERE, because the normal equations determine the conjugate of the
weight vector and forgetting to undo that is the classic mistake.

Every function takes an optional leading run axis.  A signal (N, 4), or
(C, N, 4) for stacked multi-stream regressors, with a reference (N, 4) is
one run; a signal (G, N, 4) or (G, C, N, 4) with references (G, N, 4) is G
runs, computed together.  The statistics follow the covariance method
(Makhoul 1975, "Linear prediction: a tutorial review") in the complex-pair
form of `quat.to_pairs`: one pass over the block per lag gives the first
row of R and p, and

    R[k+1, l+1] = R[k, l] + x[d-1-k] x[d-1-l]^H - x[N-1-k] x[N-1-l]^H

fills in the rest, so no (N, L, 4) lag matrix is ever built.  The runs are
solved together with one complex solve on the adjoint embedding (Zhang 1997,
"Quaternions and matrices of quaternions").  Any weights can be evaluated
on data with `convolve` (`evaluate_mse`), or on the block the statistics
came from with the quadratic cost J(w) in R, p and the reference power
(`statistics_mse`), which costs O(L^2) per run instead of a pass over the
block.  The harness passes fixed groups of 8 runs, which keeps the
temporaries small; larger groups buy little speed and raise peak memory.
"""

from dataclasses import dataclass

import numpy as np

from . import quat
from .channel import convolve
from .errors import DimensionMismatchError, InsufficientDataError, SingularMatrixError
from .linalg import SINGULARITY_RTOL, identity, to_complex_adjoint, vector_from_adjoint, vector_to_adjoint

# Not called here; perfbench/tracer.py wraps these module attributes by name.
from .adaptive import lag_matrix  # noqa: F401
from .linalg import dot_left, mean_outer_h, solve  # noqa: F401

DB_FLOOR = -100.0


@dataclass(frozen=True)
class WienerProblem:
    """Sample autocorrelation (..., L, L, 4), cross-correlation (..., L, 4), sample count.

    Leading axes, when present, index runs.
    """

    autocorrelation: np.ndarray
    cross_correlation: np.ndarray
    sample_count: int

    def __post_init__(self):
        r = quat._q(self.autocorrelation)
        p = quat._q(self.cross_correlation)
        if r.ndim < 3 or r.shape[-3] != r.shape[-2] or p.shape != r.shape[:-2] + (4,):
            raise ValueError(f"inconsistent dimensions: R {r.shape}, p {p.shape}")
        hermitian_gap = np.abs(r - quat.conj(r.swapaxes(-3, -2))).max()
        if hermitian_gap > 1e-12 * max(1.0, float(np.abs(r).max())):
            raise ValueError(f"autocorrelation is not Hermitian (max deviation {hermitian_gap:.3e})")

    @property
    def length(self) -> int:
        return self.autocorrelation.shape[-2]


@dataclass(frozen=True)
class MseReport:
    """Mean squared error, raw and in dB relative to the reference power.

    `linear`, `db` and `reference_power` are floats for one run and arrays
    over the run axis for several.
    """

    linear: float
    db: float
    sample_count: int
    reference_power: float


def _runs(signal, reference, length: int, delay: int):
    """Signal as (G, C, N, 4) and references as (G, N, 4), and whether a run axis was given."""
    signal, reference = quat._q(signal), quat._q(reference)
    batched = reference.ndim == 3
    if reference.ndim not in (2, 3) or signal.ndim not in (reference.ndim, reference.ndim + 1):
        raise ValueError(
            f"expected a signal (N, 4) or (C, N, 4) with a reference (N, 4), optionally behind a"
            f" run axis G; got signal {signal.shape} and reference {reference.shape}"
        )
    if not batched:
        signal, reference = signal[None], reference[None]
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
    return signal, reference, batched


def _outer(u, v) -> np.ndarray:
    """(G, C, K) x (G, C, K) -> (G, C, K, C, K) products u[c, k] v[c', l]."""
    return u[:, :, :, None, None] * v[:, None, None, :, :]


def estimate_statistics(signal, reference, length: int, delay: int = 0) -> WienerProblem:
    """Sample R and p over the block; counts only iterations with a delayed reference.

    For stacked streams the estimate has length C*length, laid out
    [stream 0 lags, stream 1 lags, ...].
    """
    signal, reference, batched = _runs(signal, reference, length, delay)
    g, c, n, _ = signal.shape
    count = n - delay
    # x_l[t] = s[t - l] is padded[..., t - l + length - 1]; zeros before the start
    padded = np.concatenate([np.zeros((g, c, length - 1, 4)), signal], axis=2)
    sa, sb = quat.to_pairs(padded)
    sa_conj, sb_conj = sa.conj(), sb.conj()
    ra, rb = quat.to_pairs(reference[:, :count])
    ra_conj, rb_conj = ra.conj()[..., None], rb.conj()[..., None]
    ra, rb = ra[..., None], rb[..., None]

    def lagged(z, lag):
        """(G, C, count) samples s[t - lag] for t in [delay, n)."""
        return z[..., delay + length - 1 - lag : n + length - 1 - lag]

    def transposed(z, lag):
        return lagged(z, lag).swapaxes(-1, -2)

    # In pairs, x conj(y) = (xa conj(ya) + xb conj(yb)) + (xb ya - xa yb) j.
    auto_a = np.empty((g, c, length, c, length), dtype=np.complex128)
    auto_b = np.empty_like(auto_a)
    cross_a = np.empty((g, c, length), dtype=np.complex128)
    cross_b = np.empty_like(cross_a)
    a0, b0 = lagged(sa, 0), lagged(sb, 0)
    for lag in range(length):
        la, lb = lagged(sa, lag), lagged(sb, lag)
        auto_a[:, :, 0, :, lag] = a0 @ transposed(sa_conj, lag) + b0 @ transposed(sb_conj, lag)
        auto_b[:, :, 0, :, lag] = b0 @ transposed(sa, lag) - a0 @ transposed(sb, lag)
        cross_a[:, :, lag] = (la @ ra_conj + lb @ rb_conj)[..., 0]
        cross_b[:, :, lag] = (lb @ ra - la @ rb)[..., 0]

    # first column from the first row: A is Hermitian, B antisymmetric
    auto_a[:, :, 1:, :, 0] = auto_a[:, :, 0, :, 1:].conj().transpose(0, 2, 3, 1)
    auto_b[:, :, 1:, :, 0] = -auto_b[:, :, 0, :, 1:].transpose(0, 2, 3, 1)
    # sample d-1 enters and sample N-1 leaves the window when both lags grow by one
    lags = np.arange(length - 1)
    head = delay + length - 2 - lags
    tail = n + length - 2 - lags
    ha, hb, ta, tb = sa[..., head], sb[..., head], sa[..., tail], sb[..., tail]
    step_a = _outer(ha, ha.conj()) + _outer(hb, hb.conj()) - _outer(ta, ta.conj()) - _outer(tb, tb.conj())
    step_b = _outer(hb, ha) - _outer(ha, hb) - _outer(tb, ta) + _outer(ta, tb)
    for k in range(1, length):
        auto_a[:, :, k, :, 1:] = auto_a[:, :, k - 1, :, :-1] + step_a[:, :, k - 1]
        auto_b[:, :, k, :, 1:] = auto_b[:, :, k - 1, :, :-1] + step_b[:, :, k - 1]

    autocorrelation = quat.from_pairs(auto_a, auto_b).reshape(g, c * length, c * length, 4) / count
    cross_correlation = quat.from_pairs(cross_a, cross_b).reshape(g, c * length, 4) / count
    if not batched:
        autocorrelation, cross_correlation = autocorrelation[0], cross_correlation[0]
    return WienerProblem(autocorrelation, cross_correlation, count)


def default_ridge(problem: WienerProblem) -> float | np.ndarray:
    """1e-8 of the mean diagonal power; sample R can be rank-deficient for short blocks.

    A float for one run, an array over the run axis for several.
    """
    diag = np.diagonal(problem.autocorrelation[..., 0], axis1=-2, axis2=-1)
    ridge = 1e-8 * diag.sum(axis=-1) / problem.length
    return float(ridge) if ridge.ndim == 0 else ridge


def solve_wiener(problem: WienerProblem, ridge: float | np.ndarray | None = None) -> np.ndarray:
    """Optimal weights conj((R + ridge*I)^-1 p), for every run at once.

    `ridge` defaults to `default_ridge(problem)`; pass 0.0 for the exact
    normal equations.  A run whose regularized R has an eigenvalue no larger
    in magnitude than sqrt(SINGULARITY_RTOL) times its largest entry's norm
    raises SingularMatrixError.  The check uses eigenvalues, not a Cholesky
    factor, because a Hermitian R built by a caller may be indefinite and
    still invertible.
    """
    if ridge is None:
        ridge = default_ridge(problem)
    ridge = np.asarray(ridge, dtype=np.float64)
    if np.any(ridge < 0.0):
        raise ValueError("ridge must be nonnegative")
    regularized = problem.autocorrelation + ridge[..., None, None, None] * identity(problem.length)
    adjoint = to_complex_adjoint(regularized)
    smallest = np.abs(np.linalg.eigvalsh(adjoint)).min(axis=-1)
    scale = np.sqrt(SINGULARITY_RTOL * quat.norm_sq(regularized).max(axis=(-2, -1)))
    if np.any(smallest <= scale):
        raise SingularMatrixError(
            f"sample autocorrelation is singular (smallest |eigenvalue| {float(np.min(smallest)):.3e}"
            f" with ridge {float(np.max(ridge)):.3e}); retry with a positive ridge"
        )
    rhs = vector_to_adjoint(problem.cross_correlation)[..., None]
    conjugate_weights = vector_from_adjoint(np.linalg.solve(adjoint, rhs)[..., 0])
    return quat.conj(conjugate_weights)


def _report(linear: np.ndarray, reference_power: np.ndarray, count: int, batched: bool) -> MseReport:
    """MseReport of (G,) MSEs and reference powers, floored at DB_FLOOR so a
    perfect fit (or a zero reference) stays finite and raises no warning."""
    fitted = ~((linear <= 0.0) | (reference_power <= 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        db = np.where(fitted, np.maximum(10.0 * np.log10(linear / reference_power), DB_FLOOR), DB_FLOOR)
    if not batched:
        return MseReport(float(linear[0]), float(db[0]), count, float(reference_power[0]))
    return MseReport(linear, db, count, reference_power)


def evaluate_mse(weights, signal, reference, length: int, delay: int = 0) -> MseReport:
    """Empirical mean of norm_sq(r[n-d] - dot_left(w, x[n])) over the block.

    The equalizer output is the per-stream `convolve(signal, w)` summed over
    streams.  The dB figure is normalized by the mean reference power and
    floored at -100 dB so a perfect fit stays finite.
    """
    signal, reference, batched = _runs(signal, reference, length, delay)
    g, c, n, _ = signal.shape
    weights = quat._q(weights)
    if not batched:
        weights = weights[None]
    if weights.shape != (g, c * length, 4):
        raise DimensionMismatchError(f"weights {weights.shape[-2:]} do not match {c} streams of {length} lags")
    output = convolve(signal, weights.reshape(g, c, length, 4)).sum(axis=1)
    refs = reference[:, : n - delay]
    linear = quat.norm_sq(refs - output[:, delay:]).mean(axis=-1)
    return _report(linear, quat.norm_sq(refs).mean(axis=-1), n - delay, batched)


def statistics_mse(problem: WienerProblem, weights, reference) -> MseReport:
    """`evaluate_mse` over the problem's block, from its statistics alone.

    With R and p estimated over the iterations [delay, N), the mean of
    norm_sq(r[n-d] - dot_left(w, x[n])) over those iterations is

        J(w) = avg norm_sq(r) - 2 sum_l Re(w_l p_l) + sum_l,m Re(w_l R_lm conj(w_m)),

    so the block is not filtered again.  `reference` is the block's (N, 4)
    reference, or (G, N, 4) for a problem with a run axis; its first
    `sample_count` samples give the reference power.  J is a difference of
    terms near that power, so its rounding error is a few ulps of it: the dB
    figure agrees with `evaluate_mse` to ~1e-12 dB at J 20 dB below the
    reference power, and loses a digit per further 10 dB.
    """
    r, p = quat._q(problem.autocorrelation), quat._q(problem.cross_correlation)
    weights, reference = quat._q(weights), quat._q(reference)
    batched = r.ndim == 4
    if not batched:
        r, p, weights, reference = r[None], p[None], weights[None], reference[None]
    count = problem.sample_count
    if weights.shape != p.shape:
        raise DimensionMismatchError(f"weights {weights.shape[-2:]} do not match a problem of length {problem.length}")
    if reference.ndim != 3 or reference.shape[0] != p.shape[0] or reference.shape[1] < count:
        raise ValueError(f"reference {reference.shape} does not cover the problem's {count} samples")
    # In pairs, Re(x y) = Re(xa ya - xb conj(yb)) and u = R conj(w) has
    # ua = A conj(wa) + B conj(wb), ub = B wa - A wb for R = A + B j.
    ra, rb = quat.to_pairs(r)
    pa, pb = quat.to_pairs(p)
    wa, wb = quat.to_pairs(weights)
    ua = (ra @ wa.conj()[..., None] + rb @ wb.conj()[..., None])[..., 0]
    ub = (rb @ wa[..., None] - ra @ wb[..., None])[..., 0]
    cross = (wa * pa - wb * pb.conj()).real.sum(axis=-1)
    quadratic = (wa * ua - wb * ub.conj()).real.sum(axis=-1)
    reference_power = quat.norm_sq(reference[:, :count]).mean(axis=-1)
    return _report(reference_power - 2.0 * cross + quadratic, reference_power, count, batched)
