"""Quaternion FIR channels with calibrated additive quaternion Gaussian noise.

The received signal is the causal convolution of the transmitted signal with
the channel taps plus per-sample noise.  Taps multiply the signal from the
LEFT, matching the equalizer's weight convention (one consistent choice is
required because quaternions do not commute).  `mimo_convolve` is the one
FIR body: data generation and every equalizer output go through it.

All randomness flows through numpy Generators seeded via SeedSequence, so a
given seed reproduces identical draws across runs and platforms.  Noise is
isotropic: one variance shared by the four components, total noise power
4x the per-component variance.
"""

from dataclasses import dataclass

import numpy as np

from . import quat
from .errors import DimensionMismatchError

SYMBOL_ENERGY = 4.0  # every 4-D QAM symbol has norm_sq exactly 4


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator for a 64-bit master seed."""
    return np.random.default_rng(np.random.SeedSequence(seed & 0xFFFFFFFFFFFFFFFF))


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (master seed, key...), e.g. per Monte Carlo run.

    SeedSequence hashes the whole tuple, so distinct keys give statistically
    independent streams while staying reproducible.
    """
    entropy = (master_seed & 0xFFFFFFFFFFFFFFFF,) + tuple(int(k) for k in key)
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass(frozen=True)
class MimoChannelModel:
    """Grid of FIR tap vectors, shape (num_rx, num_tx, num_taps, 4); a SISO
    channel is the (1, 1, num_taps, 4) grid.
    """

    grid: np.ndarray
    noise_variance_per_component: float = 0.0

    def __post_init__(self):
        grid = quat._q(self.grid)
        if grid.ndim != 4 or min(grid.shape[:3]) < 1:
            raise DimensionMismatchError(f"grid must be (num_rx, num_tx, num_taps, 4), got shape {grid.shape}")
        if not np.isfinite(grid).all():
            raise ValueError("taps must be finite")
        if not self.noise_variance_per_component >= 0.0:
            raise ValueError("noise variance must be nonnegative")
        object.__setattr__(self, "grid", grid)


def gaussian_quaternions(rng: np.random.Generator, variance_per_component: float, count=None) -> np.ndarray:
    """Zero-mean Gaussian quaternions, each component i.i.d. with the given variance.

    Returns a (4,) sample when `count` is None, else (count, 4); `count` may
    also be a shape tuple.  Expected norm_sq per draw is 4x the variance.
    """
    if not variance_per_component >= 0.0:
        raise ValueError("variance must be nonnegative")
    if count is None:
        shape = (4,)
    elif isinstance(count, (int, np.integer)):
        shape = (int(count), 4)
    else:
        shape = tuple(count) + (4,)
    if variance_per_component == 0.0:
        return np.zeros(shape)
    return rng.normal(0.0, np.sqrt(variance_per_component), shape)


def random_channel_taps(rng: np.random.Generator, num_taps: int, normalize: bool = True) -> np.ndarray:
    """Random (num_taps, 4) FIR taps with unit expected energy: the 1x1 `random_mimo_grid`."""
    return random_mimo_grid(rng, 1, 1, num_taps, normalize)[0, 0]


def random_mimo_grid(rng: np.random.Generator, num_rx: int, num_tx: int, num_taps: int,
                     normalize: bool = True) -> np.ndarray:
    """Random (num_rx, num_tx, num_taps, 4) tap grid with unit expected TOTAL energy.

    The whole grid plays the role the tap vector plays in the SISO case, so
    the per-component variance is 1/(4 * num_taps * num_rx * num_tx) and
    `normalize` rescales the grid so the summed energy over every path is
    exactly 1.  (Normalizing each path to unit energy instead would multiply
    the power arriving at each receive antenna by num_tx and destabilize a
    step size tuned for unit-energy channels.)
    """
    if min(num_rx, num_tx, num_taps) < 1:
        raise ValueError("grid dimensions and tap count must be at least 1")
    sigma = np.sqrt(1.0 / (4.0 * num_taps * num_rx * num_tx))
    grid = rng.normal(0.0, sigma, (num_rx, num_tx, num_taps, 4))
    if normalize:
        grid = grid / np.sqrt(quat.norm_sq(grid).sum())
    return grid


def mimo_convolve(signals, grid) -> np.ndarray:
    """Causal MIMO FIR y[..., s, n] = sum_c sum_m grid[..., s, c, m] * signals[..., c, n-m].

    `signals` (..., C, N, 4) and `grid` (..., S, C, M, 4) broadcast over their
    leading run axes; the (..., S, N, 4) result is a view as long as the
    signals, with zeros before their start.  Input stream c gives the rows
    sum_m signals[c, t - m] @ taps[c, m], taps[c, m] being the (4, 4S) blocks
    L(grid[s, c, m])^T of `quat.left_matrix`: one GEMM per tap for every output.
    Streams are summed last, so swapping two with their grid columns changes no bit.
    """
    signals, grid = quat._q(signals), quat._q(grid)
    if signals.ndim < 3 or grid.ndim < 4 or signals.shape[-3] != grid.shape[-3]:
        raise DimensionMismatchError(f"signals {signals.shape} do not fit a (..., S, C, M, 4) grid {grid.shape}")
    if signals.shape[-2] == 0 or grid.shape[-2] == 0:
        raise DimensionMismatchError("signals and taps must be nonempty quaternion sequences")
    n, (outputs, streams, length) = signals.shape[-2], grid.shape[-4:-1]
    # taps[..., c, m, j, 4s + i] = L(grid[..., s, c, m])[i, j]
    taps = np.moveaxis(quat.left_matrix(grid), (-4, -3, -1, -5, -2), (-5, -4, -3, -2, -1))
    taps = taps.reshape(grid.shape[:-4] + (streams, length, 4, 4 * outputs))
    out = None
    for c in range(streams):
        x, stream_taps = signals[..., c, :, :], taps[..., c, :, :, :]
        y = x @ stream_taps[..., 0, :, :]
        for m in range(1, min(length, n)):
            y[..., m:, :] += x[..., : n - m, :] @ stream_taps[..., m, :, :]
        out = y if out is None else out + y
    return out.reshape(out.shape[:-1] + (outputs, 4)).swapaxes(-3, -2)


def convolve(signal, taps) -> np.ndarray:
    """Causal FIR filtering y[n] = sum_m taps[m] * signal[n-m] (taps on the left).

    `signal` is (..., N, 4) and `taps` (..., M, 4); leading axes broadcast.
    The 1x1 case of `mimo_convolve`: same length as the input, zeros before it.
    """
    signal, taps = quat._q(signal), quat._q(taps)
    if signal.ndim < 2 or taps.ndim < 2:
        raise DimensionMismatchError("signal and taps must be nonempty quaternion sequences")
    return mimo_convolve(signal[..., None, :, :], taps[..., None, None, :, :])[..., 0, :, :]


def apply_mimo(model: MimoChannelModel, signals, rng: np.random.Generator) -> np.ndarray:
    """Filter the transmitted streams through the grid and add noise per receive stream.

    `signals` is (num_tx, N, 4); the result is (num_rx, N, 4) with output
    stream r = sum_t convolve(signals[t], grid[r, t]) + noise.  Noise is
    independent across receive streams with the model's shared variance.
    """
    clean = mimo_convolve(signals, model.grid)
    return clean + gaussian_quaternions(rng, model.noise_variance_per_component, clean.shape[:-1])


def noise_variance_for_snr(signal_power: float, snr_db: float) -> float:
    """Per-component noise variance giving the requested SNR.

    `signal_power` is the expected norm_sq of the signal the SNR refers to
    (the noiseless channel output for receiver-side SNR).  The total noise
    power signal_power / 10^(snr/10) is split equally over the four
    components.  An infinite SNR yields exactly zero variance, and so does an
    SNR whose power ratio exceeds the float range.  An SNR so low that the
    ratio underflows to zero yields an infinite variance; a NaN SNR is rejected.
    """
    if not signal_power > 0.0:
        raise ValueError("signal power must be positive")
    if np.isnan(snr_db):
        raise ValueError("SNR must not be NaN")
    try:
        ratio = 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        return 0.0
    return float(signal_power) / ratio / 4.0 if ratio > 0.0 else np.inf


def expected_output_power(taps, symbol_energy: float = SYMBOL_ENERGY) -> float:
    """E{norm_sq} of the noiseless channel output for i.i.d. zero-mean symbols.

    Cross-tap terms vanish in expectation, leaving symbol energy times the
    total channel energy.
    """
    return float(symbol_energy * quat.norm_sq(quat._q(taps)).sum())
