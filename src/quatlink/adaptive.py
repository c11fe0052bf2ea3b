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
received run yields regressors that stack per-stream lag vectors, giving a
weight vector of length C*L laid out [stream 0 lags, stream 1 lags, ...].

`run_qlms_batch` is the one QLMS entry point.  It advances a batch of
independent trials, eight at a time in lockstep over the time axis, which is
what makes ensemble averaging over hundreds of Monte Carlo runs cheap; a
single trial is the one-run batch.  The references are indices into a small
symbol table, so int8 symbol indices stand in for a float copy of every
lane's references.

The kernel is `qlms_batch` of the package's C library (`kernels`).  It
computes in one fixed order, the one a tap-by-tap loop over `quat.mul`
gives: the output sums w[k] * x[k] over the taps k in (lag, stream) order,
each product's components added left to right as `quat.mul` writes them;
the squared error is ((e0^2 + e1^2) + e2^2) + e3^2; and the update is
w + mu * (e * conj(x)).
"""

from dataclasses import dataclass

import numpy as np

from . import kernels, quat
from .channel import SYMBOL_ENERGY
from .errors import DimensionMismatchError

# A squared error beyond one million times the symbol energy means the filter
# blew up; the kernel freezes and reports the lane instead of letting it
# pollute Monte Carlo averages.
ERROR_ENERGY_LIMIT = 1e6 * SYMBOL_ENERGY


def lag_matrix(signal, length: int) -> np.ndarray:
    """All regressors of a signal: row n is [s[n], s[n-1], ..., s[n-L+1]].

    `signal` is (N, 4) for a single stream or (C, N, 4) for stacked streams;
    the result is (N, L, 4) or (N, C*L, 4) with per-stream lag blocks
    concatenated.
    """
    signal = quat._q(signal)
    streams = signal[None] if signal.ndim == 2 else signal
    c, n, _ = streams.shape
    padded = np.concatenate([np.zeros((c, length - 1, 4)), streams], axis=1)
    win = np.lib.stride_tricks.sliding_window_view(padded, length, axis=1)  # (C, N, 4, L)
    lags = np.moveaxis(win[..., ::-1], -1, -2)  # (C, N, L, 4) with lags[c, n, l] = s[c, n-l]
    return np.moveaxis(lags, 0, 1).reshape(n, c * length, 4)


@dataclass(frozen=True)
class QlmsBatch:
    """Lockstep QLMS over a batch of independent trials.

    weights: (B, C*L, 4) final weights per trial; a diverged trial's are the
        ones `run_qlms_batch`'s freeze rule kept.
    traces: (B, N) per-iteration norm_sq(e); NaN during the warm-up prefix
        (iterations without a delayed reference) and after a divergence.
    diverged_at: (B,) iteration at which that rule froze the trial, -1 for
        trials that stayed sane.
    """

    weights: np.ndarray
    traces: np.ndarray
    diverged_at: np.ndarray


def run_qlms_batch(received, indices, symbols, length: int, step_size: float, delay: int = 0) -> QlmsBatch:
    """Run QLMS over a batch of R runs, (R, C, N, 4), with S = B / R lanes per run.

    The B lanes are ordered (run, stream): lane k equalizes run k // S, so
    the runs' received streams are held once however many lanes share them.
    Lane k's desired outputs are symbols[indices[k]], from (B, N) integer
    indices (such as int8 symbol indices) into a (K, 4) table (such as the
    scaled constellation).  At iteration n the desired output is the one at
    n - delay; iterations with n < delay are logged as warm-up without
    adapting.

    One rule freezes a lane: at the first step t whose squared error exceeds
    ERROR_ENERGY_LIMIT (or is NaN) or whose update leaves non-finite weights,
    the lane keeps the weights it used at step t and `diverged_at` is t.  So a
    frozen lane's weights are finite.

    The received streams are read in place when each stream's (N, 4) samples
    are contiguous (`kernels.in_place`), so a time slice costs no copy.
    """
    received, symbols, indices = kernels.in_place(quat._q(received)), quat._q(symbols), np.asarray(indices)
    if received.ndim != 4:
        raise DimensionMismatchError(f"expected a (R, C, N, 4) batch, got shape {received.shape}")
    runs, c, n, _ = received.shape
    if symbols.ndim != 2 or indices.ndim != 2 or indices.shape[1] != n:
        raise DimensionMismatchError(
            f"need (K, 4) symbols and (B, N) indices with N = {n}, got {symbols.shape} and {indices.shape}"
        )
    if not np.issubdtype(indices.dtype, np.integer):
        raise ValueError(f"symbol indices must be integers, got {indices.dtype}")
    if indices.size and not (0 <= indices.min() and indices.max() < symbols.shape[0]):
        raise ValueError(f"symbol indices must lie in [0, {symbols.shape[0]})")
    b = indices.shape[0]
    if runs < 1 or b < 1 or b % runs:
        raise DimensionMismatchError(f"{b} reference lanes do not split evenly over {runs} runs")
    if length < 1 or n < 1:
        raise DimensionMismatchError("need at least one tap and one sample")
    if delay < 0:
        raise ValueError("delay must be nonnegative")
    if not step_size >= 0.0:
        raise ValueError("step size must be nonnegative")

    weights = np.empty((b, c * length, 4))
    traces = np.full((b, n), np.nan)
    diverged_at = np.full(b, -1, dtype=np.int64)
    index_type = np.int8 if indices.dtype == np.int8 else np.int64  # int8 indices are read in place
    kernels.library().qlms_batch(
        received, received.strides[0] // 8, received.strides[1] // 8, np.ascontiguousarray(indices, dtype=index_type),
        index_type is np.int64, np.ascontiguousarray(symbols), runs, c, n, b, length, float(step_size), delay,
        ERROR_ENERGY_LIMIT, weights, traces, diverged_at,
    )  # fmt: skip
    return QlmsBatch(weights, traces, diverged_at)

