"""Quaternion FIR channels with calibrated additive quaternion Gaussian noise.

The received signal is the causal convolution of the transmitted signal with
the channel taps plus per-sample noise.  Taps multiply the signal from the
LEFT, matching the equalizer's weight convention (one consistent choice is
required because quaternions do not commute).

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
class ChannelModel:
    """FIR tap vector (num_taps, 4) plus per-component noise variance."""

    taps: np.ndarray
    noise_variance_per_component: float = 0.0

    def __post_init__(self):
        taps = quat._q(self.taps)
        if taps.ndim != 2 or taps.shape[0] < 1:
            raise DimensionMismatchError(f"taps must be a (num_taps, 4) array, got shape {taps.shape}")
        if not np.isfinite(taps).all() or not quat.norm_sq(taps).sum() > 0.0:
            raise ValueError("taps must be finite with at least one nonzero tap")
        if not self.noise_variance_per_component >= 0.0:
            raise ValueError("noise variance must be nonnegative")
        object.__setattr__(self, "taps", taps)

    @property
    def num_taps(self) -> int:
        return self.taps.shape[0]

    @property
    def energy(self) -> float:
        """Total channel energy sum_m norm_sq(taps[m])."""
        return float(quat.norm_sq(self.taps).sum())


@dataclass(frozen=True)
class MimoChannelModel:
    """Grid of FIR tap vectors, shape (num_rx, num_tx, num_taps, 4)."""

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

    @property
    def num_rx(self) -> int:
        return self.grid.shape[0]

    @property
    def num_tx(self) -> int:
        return self.grid.shape[1]

    @property
    def num_taps(self) -> int:
        return self.grid.shape[2]


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
    """Random FIR taps: Gaussian per component with variance 1/(4*num_taps).

    Expected total channel energy is 1; with `normalize` the taps are rescaled
    so the energy is exactly 1.
    """
    if num_taps < 1:
        raise ValueError("need at least one tap")
    taps = rng.normal(0.0, np.sqrt(1.0 / (4.0 * num_taps)), (num_taps, 4))
    if normalize:
        taps = taps / np.sqrt(quat.norm_sq(taps).sum())
    return taps


def random_channel(rng: np.random.Generator, num_taps: int, normalize: bool = True,
                   noise_variance_per_component: float = 0.0) -> ChannelModel:
    return ChannelModel(random_channel_taps(rng, num_taps, normalize), noise_variance_per_component)


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


def convolve(signal, taps) -> np.ndarray:
    """Causal FIR filtering y[n] = sum_m taps[m] * signal[n-m] (taps on the left).

    Samples before the start of the signal are zero; the output has the same
    length as the input (tail truncated).  `signal` is (..., N, 4) and `taps`
    (..., M, 4); leading axes broadcast.  The products are taken in the
    complex-pair form of `quat.to_pairs`, one tap at a time, so the
    temporaries are the size of the output.
    """
    signal, taps = quat._q(signal), quat._q(taps)
    if signal.ndim < 2 or signal.shape[-2] == 0 or taps.ndim < 2 or taps.shape[-2] == 0:
        raise DimensionMismatchError("signal and taps must be nonempty quaternion sequences")
    n = signal.shape[-2]
    sa, sb = quat.to_pairs(signal)
    sa_conj, sb_conj = sa.conj(), sb.conj()
    ta, tb = quat.to_pairs(taps)
    shape = np.broadcast_shapes(sa.shape[:-1], ta.shape[:-1]) + (n,)
    out_a, out_b = np.zeros(shape, dtype=np.complex128), np.zeros(shape, dtype=np.complex128)
    for m in range(min(taps.shape[-2], n)):
        wa, wb = ta[..., m, None], tb[..., m, None]
        out_a[..., m:] += wa * sa[..., : n - m] - wb * sb_conj[..., : n - m]
        out_b[..., m:] += wa * sb[..., : n - m] + wb * sa_conj[..., : n - m]
    return quat.from_pairs(out_a, out_b)


def apply_siso(model: ChannelModel, signal, rng: np.random.Generator) -> np.ndarray:
    """Convolve with the channel taps and add one noise quaternion per sample."""
    clean = convolve(signal, model.taps)
    return clean + gaussian_quaternions(rng, model.noise_variance_per_component, clean.shape[:-1])


def apply_mimo(model: MimoChannelModel, signals, rng: np.random.Generator) -> np.ndarray:
    """Superpose the per-path convolutions and add noise per receive stream.

    `signals` is (num_tx, N, 4); the result is (num_rx, N, 4) with output
    stream r = sum_t convolve(signals[t], grid[r, t]) + noise.  Noise is
    independent across receive streams with the model's shared variance.
    """
    signals = quat._q(signals)
    if signals.ndim != 3 or signals.shape[0] != model.num_tx:
        raise DimensionMismatchError(
            f"expected {model.num_tx} input streams of equal length, got shape {signals.shape}"
        )
    # grid (R, T, M, 4) against signals (T, N, 4): broadcast over (R, T), then
    # sum the per-transmitter contributions.
    clean = convolve(signals[None, :, :, :], model.grid).sum(axis=1)
    return clean + gaussian_quaternions(rng, model.noise_variance_per_component, clean.shape[:-1])


def noise_variance_for_snr(signal_power: float, snr_db: float) -> float:
    """Per-component noise variance giving the requested SNR.

    `signal_power` is the expected norm_sq of the signal the SNR refers to
    (the noiseless channel output for receiver-side SNR).  The total noise
    power signal_power / 10^(snr/10) is split equally over the four
    components.  An infinite SNR yields exactly zero variance, and so does an
    SNR whose power ratio exceeds the float range.  An SNR so low that the
    ratio underflows to zero yields an infinite variance.
    """
    if not signal_power > 0.0:
        raise ValueError("signal power must be positive")
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
