"""Reference-based QLMS adaptive equalizer.

The equalizer output is dot_left(w, x[n]) where the regressor x[n] stacks the
most recent received samples [s[n], s[n-1], ..., s[n-L+1]] (zeros before the
start of the signal).  The error e[n] = r[n] - dot_left(w, x[n]) drives the
stochastic-gradient update

    w[l] <- w[l] + mu * e[n] * conj(x[n][l])

with the error as the LEFT factor of the conjugated regressor sample; the
factor order matters because quaternions do not commute.  For real-valued
inputs this collapses to classical real LMS.

Multi-stream (MIMO) equalization reuses the same machinery: a (C, N, 4)
received array yields regressors that stack per-stream lag vectors, giving a
weight vector of length C*L laid out [stream 0 lags, stream 1 lags, ...].

`run_qlms_batch` advances many independent trials in lockstep over the time
axis, which is what makes ensemble averaging over hundreds of Monte Carlo
runs cheap; `run_qlms` is the single-trial view of the same kernel.
"""

from dataclasses import dataclass

import numpy as np

from . import quat
from .channel import SYMBOL_ENERGY
from .errors import DimensionMismatchError, DivergenceError
from .linalg import dot_left

# A squared error beyond one million times the symbol energy means the filter
# blew up; fail loudly instead of polluting Monte Carlo averages.
ERROR_ENERGY_LIMIT = 1e6 * SYMBOL_ENERGY


@dataclass(frozen=True)
class EqualizerState:
    """Weight vector (length, 4) plus the adaptation step size."""

    weights: np.ndarray
    step_size: float

    def __post_init__(self):
        weights = quat._q(self.weights)
        if weights.ndim != 2 or weights.shape[0] < 1:
            raise DimensionMismatchError(f"weights must be a (length, 4) array, got shape {weights.shape}")
        if not np.isfinite(weights).all():
            raise ValueError("weights must be finite")
        if not self.step_size >= 0.0:
            raise ValueError("step size must be nonnegative")
        object.__setattr__(self, "weights", weights)

    @property
    def length(self) -> int:
        return self.weights.shape[0]


def initial_state(length: int, step_size: float) -> EqualizerState:
    """All-zero weights, the standard starting point for LMS-family filters."""
    if length < 1:
        raise ValueError("equalizer length must be at least 1")
    return EqualizerState(np.zeros((length, 4)), step_size)


def predict(state: EqualizerState, regressor) -> np.ndarray:
    """Equalizer output dot_left(weights, regressor)."""
    regressor = quat._q(regressor)
    if regressor.shape != (state.length, 4):
        raise DimensionMismatchError(f"regressor shape {regressor.shape} does not match length {state.length}")
    return dot_left(state.weights, regressor)


def error(state: EqualizerState, regressor, reference) -> np.ndarray:
    """Instantaneous error reference - prediction; norm_sq of it is the cost."""
    return quat._q(reference) - predict(state, regressor)


def qlms_step(state: EqualizerState, regressor, reference) -> tuple[EqualizerState, np.ndarray]:
    """One QLMS update; returns the new state and the pre-update error."""
    e = error(state, regressor, reference)
    weights = state.weights + state.step_size * quat.mul(e, quat.conj(quat._q(regressor)))
    if not np.isfinite(weights).all():
        raise DivergenceError("weights became non-finite", 0, quat.norm_sq(e)[None], weights)
    return EqualizerState(weights, state.step_size), e


def lag_matrix(signal, length: int) -> np.ndarray:
    """All regressors of a signal: row n is [s[n], s[n-1], ..., s[n-L+1]].

    `signal` is (N, 4) for a single stream or (C, N, 4) for stacked streams;
    the result is (N, L, 4) or (N, C*L, 4) with per-stream lag blocks
    concatenated.
    """
    signal = quat._q(signal)
    single = signal.ndim == 2
    rx = signal[None, None] if single else signal[None]
    view = _lag_view(rx, length)[0]  # (C, N, L, 4)
    stacked = np.moveaxis(view, 0, 1)  # (N, C, L, 4)
    return stacked.reshape(stacked.shape[0], -1, 4)


def _lag_view(rx: np.ndarray, length: int) -> np.ndarray:
    """(B, C, N, 4) -> (B, C, N, L, 4) view with X[..., n, l, :] = rx[..., n-l, :]."""
    b, c, n, _ = rx.shape
    padded = np.concatenate([np.zeros((b, c, length - 1, 4)), rx], axis=2)
    win = np.lib.stride_tricks.sliding_window_view(padded, length, axis=2)
    return np.moveaxis(win[..., ::-1], -1, -2)


@dataclass(frozen=True)
class QlmsBatch:
    """Lockstep QLMS over a batch of independent trials.

    weights: (B, C*L, 4) final weights per trial (frozen at divergence).
    traces: (B, N) per-iteration norm_sq(e); NaN during the warm-up prefix
        (iterations without a delayed reference) and after a divergence.
    diverged_at: (B,) iteration of divergence, -1 for trials that stayed sane.
    """

    weights: np.ndarray
    traces: np.ndarray
    diverged_at: np.ndarray


def run_qlms_batch(received, reference, length: int, step_size: float, delay: int = 0,
                   error_energy_limit: float = ERROR_ENERGY_LIMIT) -> QlmsBatch:
    """Run QLMS over a (B, C, N, 4) batch against (B, N, 4) references.

    At iteration n the desired output is reference[n - delay]; iterations
    with n < delay are logged as warm-up without adapting.  A trial whose
    squared error exceeds `error_energy_limit`, or whose weights go
    non-finite, is frozen on the spot and reported in `diverged_at`.
    """
    received, reference = quat._q(received), quat._q(reference)
    if received.ndim != 4:
        raise DimensionMismatchError(f"expected a (B, C, N, 4) batch, got shape {received.shape}")
    b, c, n, _ = received.shape
    if reference.shape != (b, n, 4):
        raise DimensionMismatchError(f"references must be (B, N, 4) = ({b}, {n}, 4), got {reference.shape}")
    if length < 1 or n < 1:
        raise DimensionMismatchError("need at least one tap and one sample")
    if delay < 0:
        raise ValueError("delay must be nonnegative")
    if not step_size >= 0.0:
        raise ValueError("step size must be nonnegative")

    lags = _lag_view(received, length)
    weights = np.zeros((b, c * length, 4))
    traces = np.full((b, n), np.nan)
    diverged_at = np.full(b, -1, dtype=np.int64)
    active = np.ones(b, dtype=bool)

    for t in range(delay, n):
        x = lags[:, :, t].reshape(b, c * length, 4)
        e = reference[:, t - delay] - quat.mul(weights, x).sum(axis=-2)
        err = quat.norm_sq(e)
        traces[active, t] = err[active]
        blown = active & ~(err <= error_energy_limit)  # catches NaN errors too
        if blown.any():
            diverged_at[blown] = t
            active &= ~blown
            if not active.any():
                break
        updated = weights + step_size * quat.mul(e[:, None, :], quat.conj(x))
        broken = active & ~np.isfinite(updated).all(axis=(1, 2))
        if broken.any():
            diverged_at[broken] = t
            active &= ~broken
            if not active.any():
                break
        # a select, not a multiply by `active`: a frozen lane's update may be NaN
        weights = np.where(active[:, None, None], updated, weights)
    return QlmsBatch(weights, traces, diverged_at)


def run_qlms(signal, reference, length: int, step_size: float, delay: int = 0,
             error_energy_limit: float = ERROR_ENERGY_LIMIT) -> tuple[EqualizerState, np.ndarray]:
    """Adapt over one signal/reference pair; returns (final state, error trace).

    `signal` is (N, 4) or, for stacked multi-stream equalization, (C, N, 4).
    The trace holds norm_sq(e[n]) per iteration with NaN over the warm-up
    prefix n < delay.  Divergence raises DivergenceError carrying the partial
    trace up to the offending iteration.
    """
    signal, reference = quat._q(signal), quat._q(reference)
    if signal.ndim == 2:
        batch_rx = signal[None, None]
    elif signal.ndim == 3:
        batch_rx = signal[None]
    else:
        raise DimensionMismatchError(f"signal must be (N, 4) or (C, N, 4), got shape {signal.shape}")
    if reference.ndim != 2 or reference.shape[0] != batch_rx.shape[2]:
        raise DimensionMismatchError(
            f"reference must match the signal length {batch_rx.shape[2]}, got shape {reference.shape}"
        )
    result = run_qlms_batch(batch_rx, reference[None], length, step_size, delay, error_energy_limit)
    trace = result.traces[0]
    if result.diverged_at[0] >= 0:
        it = int(result.diverged_at[0])
        raise DivergenceError(f"QLMS diverged at iteration {it}", it, trace[: it + 1], result.weights[0])
    return EqualizerState(result.weights[0], step_size), trace
