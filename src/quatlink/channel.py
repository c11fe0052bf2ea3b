"""Quaternion FIR channels with calibrated additive quaternion Gaussian noise.

The received signal is the causal convolution of the transmitted signal with
the channel taps plus per-sample noise.  Taps multiply the signal from the
LEFT, matching the equalizer's weight convention (one consistent choice is
required because quaternions do not commute).  `mimo_convolve` is the one
FIR body: data generation and every equalizer output go through it.  Its
body is `mimo_fir` of the package's C library (`kernels`), which reads the
signals in place and sums in one fixed order, stated in its docstring.
`apply_mimo` is the channel of data generation: one `mimo_convolve` call
filters R runs through their grids, and each run's noise is then added from
its own generator.

All randomness flows through numpy Generators seeded via SeedSequence, so a
given seed reproduces identical draws across runs and platforms.  Noise is
isotropic: one variance shared by the four components, total noise power
4x the per-component variance.
"""

import numpy as np

from . import kernels, quat
from .errors import DimensionMismatchError

SYMBOL_ENERGY = 4.0  # every 4-D QAM symbol has norm_sq exactly 4


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator for a 64-bit master seed."""
    return np.random.default_rng(np.random.SeedSequence(seed & 0xFFFFFFFFFFFFFFFF))


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (master seed, key...), e.g. per Monte Carlo run.

    SeedSequence hashes the whole tuple, so distinct keys give statistically
    independent streams while staying reproducible.  The tuple is handed over
    as the uint32 words SeedSequence would split it into, each value's
    little-endian 32-bit words with 0 as [0], which gives the same generator
    for less work; a negative key raises ValueError, as SeedSequence does.
    """
    values = (master_seed & 0xFFFFFFFFFFFFFFFF, *map(int, key))
    if min(values) < 0:
        raise ValueError(f"expected non-negative integers, got key {key}")
    words = [v >> shift & 0xFFFFFFFF for v in values for shift in range(0, max(v.bit_length(), 1), 32)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(np.array(words, np.uint32))))


def gaussian_quaternions(rng: np.random.Generator, variance_per_component: float, shape) -> np.ndarray:
    """Zero-mean Gaussian quaternions, each component i.i.d. with the given variance.

    `shape` is a count or a shape tuple, and the draw is (*shape, 4): ``()``
    gives one (4,) quaternion.  Expected norm_sq per draw is 4x the variance;
    a zero variance draws exact +0.0 (numpy's normal returns 0.0 + 0.0 * z).
    """
    if not variance_per_component >= 0.0:
        raise ValueError("variance must be nonnegative")
    return rng.normal(0.0, np.sqrt(variance_per_component), np.broadcast_shapes(shape) + (4,))


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
    leading run axes; the (..., S, N, 4) result is a new contiguous array as
    long as the signals, with zeros before their start.  The body is
    `mimo_fir` of the package's C library (`kernels`), which computes in one
    fixed order: input stream c's partial of output s starts at +0.0 and adds
    the taps m = 0, 1, ... in turn, component k of tap m's term at t being
    ((L[k, 0] b0 + L[k, 1] b1) + L[k, 2] b2) + L[k, 3] b3 with
    b = signals[c, t - m] and L the real 4x4 form of grid[s, c, m] (a*b = L(a) b,
    its signs those of `quat.mul`); the stream partials are then summed in
    stream order, so swapping two streams with their grid columns changes no bit.
    The signals are read in place when each stream's (N, 4) samples are
    contiguous, as in a time slice `signals[..., h:, :]` or a run-broadcast array.
    """
    signals, grid = quat._q(signals), quat._q(grid)
    if signals.ndim < 3 or grid.ndim < 4 or signals.shape[-3] != grid.shape[-3]:
        raise DimensionMismatchError(f"signals {signals.shape} do not fit a (..., S, C, M, 4) grid {grid.shape}")
    if signals.shape[-2] == 0 or grid.shape[-2] == 0:
        raise DimensionMismatchError("signals and taps must be nonempty quaternion sequences")
    runs = np.broadcast_shapes(signals.shape[:-3], grid.shape[:-4])
    n, (outputs, streams, length) = signals.shape[-2], grid.shape[-4:-1]
    # one run axis; a reshape copies only runs that broadcast over more than one axis
    x = kernels.in_place(np.broadcast_to(signals, runs + signals.shape[-3:]).reshape((-1,) + signals.shape[-3:]))
    taps = np.ascontiguousarray(np.broadcast_to(grid, runs + grid.shape[-4:]))
    out = np.empty(runs + (outputs, n, 4))
    kernels.library().mimo_fir(x, x.strides[0] // 8, x.strides[1] // 8, taps, len(x), outputs, streams, length, n, out)
    return out


def convolve(signal, taps) -> np.ndarray:
    """Causal FIR filtering y[n] = sum_m taps[m] * signal[n-m] (taps on the left).

    `signal` is (..., N, 4) and `taps` (..., M, 4); leading axes broadcast.
    The 1x1 case of `mimo_convolve`: same length as the input, zeros before it.
    """
    signal, taps = quat._q(signal), quat._q(taps)
    if signal.ndim < 2 or taps.ndim < 2:
        raise DimensionMismatchError("signal and taps must be nonempty quaternion sequences")
    return mimo_convolve(signal[..., None, :, :], taps[..., None, None, :, :])[..., 0, :, :]


def apply_mimo(grids, signals, variances, rngs) -> np.ndarray:
    """Filter R runs' transmitted streams through their grids and add each run's noise.

    `grids` is (R, num_rx, num_tx, M, 4) and `signals` (R, num_tx, N, 4); the
    result is (R, num_rx, N, 4), run k's output stream r being
    sum_t convolve(signals[k, t], grids[k, r, t]) plus noise of per-component
    variance `variances[k]` drawn from `rngs[k]`, independent across receive
    streams.  One generator per run keeps each run's noise its own, whatever
    runs share the call.
    """
    grids = quat._q(grids)
    if grids.ndim != 5:
        raise DimensionMismatchError(f"grids must be (R, num_rx, num_tx, num_taps, 4), got shape {grids.shape}")
    if not np.isfinite(grids).all():
        raise ValueError("taps must be finite")
    received = mimo_convolve(signals, grids)
    for run, variance, rng in zip(received, variances, rngs, strict=True):
        # added even when it is zero, as the noisy case is: -0.0 + 0.0 is +0.0
        run += gaussian_quaternions(rng, variance, run.shape[:-1])
    return received


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
