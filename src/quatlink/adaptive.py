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

`run_qlms_batch` is the one QLMS entry point.  It advances many independent
trials in lockstep over the time axis, which is what makes ensemble
averaging over hundreds of Monte Carlo runs cheap; a single trial is the
one-run batch.  The references are indices into a small symbol table,
looked up one block at a time, so int8 symbol indices stand in for a float
copy of every lane's references.

The arithmetic is real matrix-vector products.  R(x) is the 4x4 real matrix
with w * x = R(x) w and e * conj(x) = R(x)^T e, so a regressor of C*L
samples gives the 4 x 4CL block A = [R(x_k)] and a step is two matmuls: the
output A w, then w += mu * (A^T e).  The kernel takes R runs with S lanes
each, in (run, stream) order, and streams the run batch through two windows
of L-1 + `_BLOCK` samples that hold R(x) newest first.  Each run's windows
are contiguous, so a step's A is a column-major block with leading dimension
4 and its A^T a column-major block of its own run's window.  A block's R(x),
gathered and signed by `quat.right_matrix`, goes into the first window once
per run, however many lanes share it, and is transposed run by run into the
second.  Each step writes its outputs, errors and squared errors into
buffers allocated once, and the block's references are looked up once per
block.  numpy's `matmul` broadcasts a run's slices over its S lanes: one
small BLAS gemv per lane, far below OpenBLAS's threading threshold, so
results do not depend on the BLAS thread count.  Column-major is on purpose:
that gemv adds each tap's product rounded, where the row-major one fuses
multiply-adds, and mu scales A^T e after the product, so real inputs round
as classical LMS does.
"""

from dataclasses import dataclass

import numpy as np

from . import quat
from .channel import SYMBOL_ENERGY
from .errors import DimensionMismatchError

# A squared error beyond one million times the symbol energy means the filter
# blew up; the kernel freezes and reports the lane instead of letting it
# pollute Monte Carlo averages.
ERROR_ENERGY_LIMIT = 1e6 * SYMBOL_ENERGY

# samples taken from the received batch into the kernel's windows at a time;
# the results do not depend on it.  The windows hold 32 reals per sample and
# stream, so a short block keeps them small when a batch has hundreds of runs,
# while a block shorter than the L-1 = 14 samples carried over makes the
# shift overlap itself (8 ran ~10% slower on 64 2x2 MIMO runs, 2-core x86_64)
_BLOCK = 16

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

    weights: (B, C*L, 4) final weights per trial (frozen at divergence).
    traces: (B, N) per-iteration norm_sq(e); NaN during the warm-up prefix
        (iterations without a delayed reference) and after a divergence.
    diverged_at: (B,) iteration of divergence, -1 for trials that stayed sane.
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
    adapting.  A trial whose squared error exceeds ERROR_ENERGY_LIMIT, or
    whose weights go non-finite, is frozen on the spot and reported in
    `diverged_at`.
    """
    received, symbols, indices = quat._q(received), quat._q(symbols), np.asarray(indices)
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

    # While the block of samples from t0 runs, position p of a run's windows
    # holds R(x) of each stream's sample t0 + _BLOCK - 1 - p: newest first,
    # with the L-1 samples before t0 in the last positions, so the regressor
    # of x[t] is the slice from p = _BLOCK - 1 - (t - t0), its 4CL columns in
    # (lag, stream, component) order as the (R, S, 4CL, 1) weights are.
    # forward[r, p, c, j, i] is entry [i, j] of R(x), so a run's A is a
    # column-major 4 x 4CL block; backward, its per-run transpose, holds row
    # i at backward[r, i, p, c], so A^T is column-major too.
    lanes, width = b // runs, 4 * c * length
    forward = np.zeros((runs, length - 1 + _BLOCK, c, 4, 4))
    backward = np.zeros((runs, 4, length - 1 + _BLOCK, c, 4))
    a_of = [forward[:, p : p + length].reshape(runs, width, 4).mT[:, None] for p in range(_BLOCK)]
    a_t_of = [backward[:, None, :, p : p + length].reshape(runs, 1, 4, width).mT for p in range(_BLOCK)]
    weights = np.zeros((runs, lanes, width, 1))
    updated = np.empty_like(weights)
    # component-major: targets[:, q] holds the (4, B) desired outputs of the
    # block's step q, and the squared error's norm adds whole rows
    targets = np.empty((4, _BLOCK, b))
    outputs = np.empty((4, b))
    output_lanes = outputs.T.reshape(runs, lanes, 4, 1)
    e = np.empty((4, b))
    e_lanes = e.T.reshape(runs, lanes, 4, 1)
    squares = np.empty((4, b))
    traces = np.full((b, n), np.nan)
    diverged_at = np.full(b, -1, dtype=np.int64)
    active = np.ones(b, dtype=bool)
    all_active = True

    # A frozen lane keeps being evaluated: with an inf or NaN sample in its
    # window its products overflow or turn NaN on every later step.  Those
    # values are never committed and diverged_at already reports the lane, so
    # numpy's overflow and invalid-value warnings would say nothing new.
    with np.errstate(invalid="ignore", over="ignore"):
        for t in range(n):
            i = t % _BLOCK
            if i == 0:
                stop = min(t + _BLOCK, n)
                forward[:, _BLOCK:] = forward[:, : length - 1]
                # R(x)[i, j] of sample t + q goes to forward[r, _BLOCK - 1 - q, c, j, i]; unnamed, so it is freed
                forward[:, _BLOCK - (stop - t) : _BLOCK] = (
                    quat.right_matrix(received[:, :, t:stop]).transpose(0, 2, 1, 4, 3)[:, ::-1]
                )
                backward[...] = forward.transpose(0, 4, 1, 2, 3)
                # the block's desired outputs, reference[first] onwards
                first = max(t - delay, 0)
                block = indices[:, first : max(stop - delay, 0)].T
                # the indices were checked above, so "clip" never clips; it lets take write in place
                np.take(symbols.T, block, axis=1, out=targets[:, : block.shape[0]], mode="clip")
            if t < delay:
                continue

            p = _BLOCK - 1 - i
            np.matmul(a_of[p], weights, out=output_lanes)
            np.subtract(targets[:, t - delay - first], outputs, out=e)
            np.multiply(e, e, out=squares)
            err = np.add.reduce(squares, axis=0, out=traces[:, t])
            if not err.max() <= ERROR_ENERGY_LIMIT:  # catches NaN errors too
                blown = active & ~(err <= ERROR_ENERGY_LIMIT)
                # non-finite weights make every output non-finite, so an update
                # that broke them shows here; undo it and date the divergence to it
                broken = blown & ~np.isfinite(weights).all(axis=(2, 3)).reshape(b)
                np.copyto(weights, updated, where=broken.reshape(runs, lanes, 1, 1))
                diverged_at[blown] = t
                diverged_at[broken] = t - 1
                active &= ~blown
                all_active = False
                if not active.any():
                    break
            np.matmul(a_t_of[p], e_lanes, out=updated)
            updated *= step_size
            updated += weights
            if not all_active:
                # a select, not a multiply by `active`: a frozen lane's update may be NaN
                np.copyto(updated, weights, where=~active.reshape(runs, lanes, 1, 1))
            weights, updated = updated, weights
        # the last update has no next output to show a break (a no-op after an early break)
        broken = active & ~np.isfinite(weights).all(axis=(2, 3)).reshape(b)
        np.copyto(weights, updated, where=broken.reshape(runs, lanes, 1, 1))
        diverged_at[broken] = n - 1

    for lane in np.flatnonzero(diverged_at >= 0):
        traces[lane, diverged_at[lane] + 1 :] = np.nan
    weights = weights.reshape(b, length, c, 4).swapaxes(1, 2).reshape(b, c * length, 4)
    return QlmsBatch(weights, traces, diverged_at)

