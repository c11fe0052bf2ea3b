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

The arithmetic is done in the complex-pair form of `quat.to_pairs`,
q = a + b*j with complex a and b, where

    (wa + wb j)(xa + xb j) = (wa xa - wb conj(xb)) + (wa xb + wb conj(xa)) j
    e * conj(x)            = (ea conj(xa) + eb conj(xb)) + (eb xa - ea xb) j

are four complex multiplies each instead of sixteen real ones.  The batch
kernel takes R runs with S lanes each, in (run, stream) order, and keeps the
trials (lanes) on the last axis: the weights are (C, L, B) pairs, and the
run batch streams through a (C, L-1 + _BLOCK, B) window that holds the
samples newest first.  Each block of samples is written into the window
straight from `received`, each run's samples broadcast over its S lanes
through a (C, L-1 + _BLOCK, R, S) view of the window, so neither a padded
nor a per-lane copy of the batch is made, and every regressor is a plain
slice of the window.  The references are indices into a small symbol table,
looked up one block at a time, so a batch of int8 symbol indices stands in
for a float copy of every lane's references.  Lanes last lets the sum
over taps add whole rows of a (C*L, 4B) float64 view, one row after another
in tap order, which is the order `dot_left` sums in; a complex `.sum(-1)`
over (B, L) would use numpy's pairwise order, so a lane's result would depend
on the tap count in a way no stepwise evaluation reproduces.  `predict` and
`qlms_step` are the one-lane case of the same arithmetic, so stepping them by
hand reproduces the kernel bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from . import quat
from .channel import SYMBOL_ENERGY
from .errors import DimensionMismatchError, DivergenceError

# A squared error beyond one million times the symbol energy means the filter
# blew up; fail loudly instead of polluting Monte Carlo averages.
ERROR_ENERGY_LIMIT = 1e6 * SYMBOL_ENERGY

# samples taken from the received batch into the kernel's window at a time
_BLOCK = 256


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


def _one_lane(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L, 4) components -> the (L, 1) pairs a, b of one kernel lane."""
    a, b = quat.to_pairs(q)
    return a[:, None], b[:, None]


def _outputs(wa, wb, xa, xb, xa_conj, xb_conj) -> np.ndarray:
    """Filter outputs, (B, 4) quaternions, from (..., B) weight and regressor pairs.

    The product of each tap is one row of a float64 view; the rows are added
    one after another in tap order, as `dot_left` adds them.
    """
    products = np.empty(wa.shape + (2,), dtype=np.complex128)
    np.subtract(wa * xa, wb * xb_conj, out=products[..., 0])
    np.add(wa * xb, wb * xa_conj, out=products[..., 1])
    lanes = wa.shape[-1]
    return products.reshape(-1, 2 * lanes).view(np.float64).sum(axis=0).reshape(lanes, 4)


def _updated(wa, wb, e, xa, xb, xa_conj, xb_conj, step_size: float):
    """Weight pairs after w += mu * e * conj(x), for (B, 4) errors e."""
    e_pairs = e.view(np.complex128)
    ea, eb = e_pairs[:, 0], e_pairs[:, 1]
    return wa + step_size * (ea * xa_conj + eb * xb_conj), wb + step_size * (eb * xa - ea * xb)


def predict(state: EqualizerState, regressor) -> np.ndarray:
    """Equalizer output dot_left(weights, regressor)."""
    regressor = quat._q(regressor)
    if regressor.shape != (state.length, 4):
        raise DimensionMismatchError(f"regressor shape {regressor.shape} does not match length {state.length}")
    (wa, wb), (xa, xb) = _one_lane(state.weights), _one_lane(regressor)
    return _outputs(wa, wb, xa, xb, xa.conj(), xb.conj())[0]


def error(state: EqualizerState, regressor, reference) -> np.ndarray:
    """Instantaneous error reference - prediction; norm_sq of it is the cost."""
    return quat._q(reference) - predict(state, regressor)


def qlms_step(state: EqualizerState, regressor, reference) -> tuple[EqualizerState, np.ndarray]:
    """One QLMS update; returns the new state and the pre-update error."""
    e = error(state, regressor, reference)
    (wa, wb), (xa, xb) = _one_lane(state.weights), _one_lane(quat._q(regressor))
    ua, ub = _updated(wa, wb, e[None], xa, xb, xa.conj(), xb.conj(), state.step_size)
    weights = quat.from_pairs(ua[:, 0], ub[:, 0])
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


def run_qlms_batch(received, reference, length: int, step_size: float, delay: int = 0,
                   error_energy_limit: float = ERROR_ENERGY_LIMIT, symbols=None) -> QlmsBatch:
    """Run QLMS over a batch of R runs, (R, C, N, 4), with S = B / R lanes per run.

    The B lanes are ordered (run, stream): lane k equalizes run k // S, so
    the runs' received streams are held once however many lanes share them.
    `reference` gives each lane's desired output: (B, N, 4) quaternions, or,
    with a (K, 4) table `symbols`, (B, N) integer indices into it (such as
    int8 symbol indices and the scaled constellation).  At iteration n the
    desired output is reference[n - delay]; iterations with n < delay are
    logged as warm-up without adapting.  A trial whose squared error exceeds
    `error_energy_limit`, or whose weights go non-finite, is frozen on the
    spot and reported in `diverged_at`.
    """
    received = quat._q(received)
    if received.ndim != 4:
        raise DimensionMismatchError(f"expected a (R, C, N, 4) batch, got shape {received.shape}")
    runs, c, n, _ = received.shape
    if symbols is None:
        # the references are their own table, indexed by row number
        reference = quat._q(reference)
        if reference.ndim != 3 or reference.shape[1] != n:
            raise DimensionMismatchError(f"references must be (B, N, 4) with N = {n}, got {reference.shape}")
        b = reference.shape[0]
        symbols, indices = reference.reshape(-1, 4), np.arange(b * n).reshape(b, n)
    else:
        symbols, indices = quat._q(symbols), np.asarray(reference)
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

    # While the block of samples from t0 runs, position p of the windows holds
    # the pairs of sample t0 + _BLOCK - 1 - p: newest first, with the L-1
    # samples before t0 in the last positions, so x[t] is the slice from
    # p = _BLOCK - 1 - (t - t0).  The windows are filled as (C, P, R, S), each
    # run's samples broadcast over its S lanes, and read as (C, P, B).
    xa_window = np.zeros((c, length - 1 + _BLOCK, runs, b // runs), dtype=np.complex128)
    xb_window = np.zeros_like(xa_window)
    xa_lanes, xb_lanes = xa_window.reshape(c, -1, b), xb_window.reshape(c, -1, b)
    wa = np.zeros((c, length, b), dtype=np.complex128)
    wb = np.zeros_like(wa)
    traces = np.full((b, n), np.nan)
    diverged_at = np.full(b, -1, dtype=np.int64)
    active = np.ones(b, dtype=bool)

    # A frozen lane keeps being evaluated: with an inf or NaN sample in its
    # window its products overflow or turn NaN on every later step.  Those
    # values are never committed and diverged_at already reports the lane, so
    # numpy's overflow and invalid-value warnings would say nothing new.
    with np.errstate(invalid="ignore", over="ignore"):
        for t in range(n):
            i = t % _BLOCK
            if i == 0:
                stop = min(t + _BLOCK, n)
                xa_window[:, _BLOCK:] = xa_window[:, : length - 1]
                xb_window[:, _BLOCK:] = xb_window[:, : length - 1]
                block = np.moveaxis(received[:, :, t:stop], 0, 2)[:, ::-1, :, None]  # (C, m, R, 1, 4), newest first
                fill = slice(_BLOCK - (stop - t), _BLOCK)
                xa_window.real[:, fill], xa_window.imag[:, fill] = block[..., 0], block[..., 1]
                xb_window.real[:, fill], xb_window.imag[:, fill] = block[..., 2], block[..., 3]
                # the block's desired outputs, reference[first] onwards
                first = max(t - delay, 0)
                targets = symbols[indices[:, first : max(stop - delay, 0)]]
            if t < delay:
                continue

            p = _BLOCK - 1 - i
            xa, xb = xa_lanes[:, p : p + length], xb_lanes[:, p : p + length]
            xa_conj, xb_conj = xa.conj(), xb.conj()
            e = targets[:, t - delay - first] - _outputs(wa, wb, xa, xb, xa_conj, xb_conj)
            err = quat.norm_sq(e)
            traces[active, t] = err[active]
            blown = active & ~(err <= error_energy_limit)  # catches NaN errors too
            if blown.any():
                diverged_at[blown] = t
                active &= ~blown
                if not active.any():
                    break
            ua, ub = _updated(wa, wb, e, xa, xb, xa_conj, xb_conj, step_size)
            if not (np.isfinite(ua.view(np.float64)).all() and np.isfinite(ub.view(np.float64)).all()):
                broken = active & ~(np.isfinite(ua).all(axis=(0, 1)) & np.isfinite(ub).all(axis=(0, 1)))
                diverged_at[broken] = t
                active &= ~broken
                if not active.any():
                    break
            if not active.all():
                # a select, not a multiply by `active`: a frozen lane's update may be NaN
                ua, ub = np.where(active, ua, wa), np.where(active, ub, wb)
            wa, wb = ua, ub

    weights = np.moveaxis(quat.from_pairs(wa, wb), 2, 0).reshape(b, c * length, 4)
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
