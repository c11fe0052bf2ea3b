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
second.  Each step writes its outputs and errors into buffers allocated
once, and the block's references are looked up once per block.

One rule freezes a lane, the one `run_qlms_batch` states.  A block runs
unchecked and is scored once, at its end: its squared errors go into the
traces, and it stands if no live lane's error passed the limit and its
weights are all finite.  Otherwise the weights of its start are restored and
that block alone runs again, applying the rule after every step's update.
So every block starts with finite weights.

numpy's `matmul` broadcasts a run's slices over its S lanes: one small BLAS
gemv per lane, far below OpenBLAS's threading threshold, so results do not
depend on the BLAS thread count.  Column-major is on purpose: that gemv adds
each tap's product rounded, where the row-major one fuses multiply-adds, and
mu scales A^T e after the product, so real inputs round as classical LMS does.
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
    start_weights = np.empty_like(weights)  # the weights a replay restores
    # component-major: targets[:, q] holds the (4, B) desired outputs of the
    # block's step q and errors[:, q] its errors, so the squared error's norm adds whole rows
    targets = np.empty((4, _BLOCK, b))
    outputs = np.empty((4, b))
    output_lanes = outputs.T.reshape(runs, lanes, 4, 1)
    errors = np.empty((4, _BLOCK, b))
    target_of, e_of = [targets[:, q] for q in range(_BLOCK)], [errors[:, q] for q in range(_BLOCK)]
    e_lanes_of = [e.T.reshape(runs, lanes, 4, 1) for e in e_of]
    traces = np.full((b, n), np.nan)
    diverged_at = np.full(b, -1, dtype=np.int64)
    active = np.ones(b, dtype=bool)
    all_active = True

    # A frozen lane keeps being evaluated: with an inf or NaN sample in its
    # window its products overflow or turn NaN on every later step.  Those
    # values are never committed and diverged_at already reports the lane, so
    # numpy's overflow and invalid-value warnings would say nothing new.  The
    # same holds for a lane that blows up in a block that runs unchecked.
    with np.errstate(invalid="ignore", over="ignore"):
        for t0 in range(0, n, _BLOCK):
            stop = min(t0 + _BLOCK, n)
            forward[:, _BLOCK:] = forward[:, : length - 1]
            # R(x)[i, j] of sample t0 + q goes to forward[r, _BLOCK - 1 - q, c, j, i]; unnamed, so it is freed
            forward[:, _BLOCK - (stop - t0) : _BLOCK] = (
                quat.right_matrix(received[:, :, t0:stop]).transpose(0, 2, 1, 4, 3)[:, ::-1]
            )
            backward[...] = forward.transpose(0, 4, 1, 2, 3)
            begin = max(t0, delay)
            if begin >= stop:
                continue
            # step t's desired output, reference[t - delay], goes to targets[:, t - t0]; the
            # indices were checked above, so "clip" never clips, and it lets take write in place
            block = indices[:, begin - delay : stop - delay].T
            np.take(symbols.T, block, axis=1, out=targets[:, begin - t0 : stop - t0], mode="clip")
            np.copyto(start_weights, weights)
            # The block first runs unchecked and is scored at its end.  If an active
            # lane blew up in it, or its weights are no longer finite, it runs again
            # from its start with the freeze rule applied at every step.
            for checked in (False, True):
                for t in range(begin, stop):
                    q = t - t0
                    p = _BLOCK - 1 - q
                    e = e_of[q]
                    np.matmul(a_of[p], weights, out=output_lanes)
                    np.subtract(target_of[q], outputs, out=e)
                    np.matmul(a_t_of[p], e_lanes_of[q], out=updated)
                    updated *= step_size
                    updated += weights
                    if checked:
                        # squared in place: the update has spent the step's error
                        np.multiply(e, e, out=e)
                        err = np.add.reduce(e, axis=0, out=traces[:, t])
                        # `<=` is False for NaN errors, so they freeze too
                        sane = (err <= ERROR_ENERGY_LIMIT) & np.isfinite(updated).all(axis=(2, 3)).reshape(b)
                        blown = active & ~sane
                        if blown.any():
                            diverged_at[blown] = t
                            active &= ~blown
                            all_active = False
                    if not all_active:
                        # a select, not a multiply by `active`: a frozen lane's update may be NaN
                        np.copyto(updated, weights, where=~active.reshape(runs, lanes, 1, 1))
                    weights, updated = updated, weights
                if checked:
                    break
                # squared in place: the block's errors are spent, and a replay computes them again
                block_errors = errors[:, begin - t0 : stop - t0]
                np.multiply(block_errors, block_errors, out=block_errors)
                err = np.add.reduce(block_errors, axis=0, out=traces[:, begin:stop].T)
                if np.isfinite(weights).all() and not (active & ~(err <= ERROR_ENERGY_LIMIT).all(axis=0)).any():
                    break
                np.copyto(weights, start_weights)
            if not active.any():
                break

    for lane in np.flatnonzero(diverged_at >= 0):
        traces[lane, diverged_at[lane] + 1 :] = np.nan
    weights = weights.reshape(b, length, c, 4).swapaxes(1, 2).reshape(b, c * length, 4)
    return QlmsBatch(weights, traces, diverged_at)

