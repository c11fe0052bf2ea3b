"""Seeded Monte Carlo experiments: SISO equalization and 2x2 MIMO separation.

Every run draws its own channel, symbol stream, and noise from generators
keyed by (master seed, run index, purpose, stream index), so the full result
set is a pure function of the configuration and runs can be chunked across
processes without changing a single bit of the output.  Runs advance in
lockstep through the batched QLMS kernel, which keeps ensemble averaging over
hundreds of runs cheap.  After adaptation, the SER decisions and (in SISO) the
block Wiener baseline are computed for a fixed group of 8 runs or lanes at a
time: one batched call per group amortizes numpy's per-call cost, while the
group's temporaries stay small (whole-chunk groups raise the peak resident
memory of a 64 x 5000 run by about 65% in SISO and 55% in MIMO).

Learning curves are the per-run error traces converted to dB (floored at
-100 dB relative to the reference power) and averaged pointwise across the
runs that stayed sane; diverged runs are excluded from every average but
counted and reported.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import modem, quat, wiener
from .adaptive import QlmsBatch, run_qlms_batch
from .channel import (
    MimoChannelModel,
    SYMBOL_ENERGY,
    apply_mimo,
    derive_rng,
    expected_output_power,
    gaussian_quaternions,
    convolve,
    noise_variance_for_snr,
    random_channel_taps,
    random_mimo_grid,
)
from .errors import ExperimentFailedError

# Not called here; perfbench/tracer.py wraps these module attributes by name.
from .adaptive import lag_matrix  # noqa: F401
from .linalg import dot_left  # noqa: F401

MODE_SISO = "siso"
MODE_MIMO = "mimo"
SNR_REF_RECEIVER = "receiver"
SNR_REF_TRANSMITTER = "transmitter"

# rng purpose codes inside the per-run seed key
_PURPOSE_CHANNEL = 0
_PURPOSE_SYMBOLS = 1
_PURPOSE_NOISE = 2

# MIMO streams are scaled to unit power (norm_sq = 1 per symbol)
MIMO_STREAM_SCALE = 0.5

# dB floor for per-sample trace entries, relative to the reference power
CURVE_DB_FLOOR = -100.0

# runs per kernel batch; fixed so results do not depend on the worker count
_CHUNK_RUNS = 64

# lanes per batched post-adaptation group (SER, Wiener); see the module docstring
_GROUP_LANES = 8

# trailing moving-average window used when locating the convergence iteration
SMOOTHING_WINDOW = 50


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment parameterization; defaults reproduce the SISO study."""

    mode: str = MODE_SISO
    num_channel_taps: int = 4
    equalizer_length: int = 15
    snr_db: float = 20.0
    snr_reference_point: str = SNR_REF_RECEIVER
    num_runs: int = 200
    symbols_per_run: int = 5000
    step_size: float = 0.01
    delay: int = 7
    master_seed: int = 0
    normalize_channel: bool = True
    mimo_tx: int = 2
    mimo_rx: int = 2

    def validate(self) -> None:
        """Raise ValueError naming the offending field on any bad value."""
        if self.mode not in (MODE_SISO, MODE_MIMO):
            raise ValueError(f"mode: must be '{MODE_SISO}' or '{MODE_MIMO}', got {self.mode!r}")
        if self.snr_reference_point not in (SNR_REF_RECEIVER, SNR_REF_TRANSMITTER):
            raise ValueError(
                f"snr_reference_point: must be '{SNR_REF_RECEIVER}' or '{SNR_REF_TRANSMITTER}',"
                f" got {self.snr_reference_point!r}"
            )
        for name in ("num_channel_taps", "equalizer_length", "num_runs", "symbols_per_run", "mimo_tx", "mimo_rx"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name}: must be at least 1, got {getattr(self, name)}")
        if not self.step_size > 0.0:
            raise ValueError(f"step_size: must be positive, got {self.step_size}")
        if np.isnan(self.snr_db):
            raise ValueError("snr_db: must not be NaN")
        if not np.isfinite(noise_variance_for_snr(SYMBOL_ENERGY, self.snr_db)):
            raise ValueError(f"snr_db: too low for a finite noise variance, got {self.snr_db}")
        if self.delay < 0 or self.delay >= self.symbols_per_run:
            raise ValueError(f"delay: must satisfy 0 <= delay < symbols_per_run, got {self.delay}")


@dataclass(frozen=True)
class LearningCurve:
    """Ensemble-averaged squared-error trace in normalized dB.

    mse_per_iteration drops the warm-up prefix, so entry 0 is the first
    adapted iteration; steady_state_db is the mean over the final 10% of
    entries.
    """

    mse_per_iteration: np.ndarray
    steady_state_db: float
    runs_diverged: int


@dataclass(frozen=True)
class SisoExperimentResult:
    curve: LearningCurve
    wiener_mse_db: float
    symbol_error_rate: float
    runs_diverged: int
    per_run_qlms_db: np.ndarray
    per_run_wiener_db: np.ndarray
    per_run_traces: np.ndarray  # (runs, N) linear, NaN in warm-up / after divergence


@dataclass(frozen=True)
class MimoExperimentResult:
    curves: tuple[LearningCurve, ...]
    symbol_error_rates: tuple[float, ...]
    runs_diverged: int
    per_run_traces: np.ndarray  # (runs, streams, N) linear


@dataclass(frozen=True)
class ExperimentSummary:
    steady_state_db: float
    convergence_iteration: int
    symbol_error_rate: float
    wiener_mse_db: Optional[float]
    runs_diverged: int


def _reference_power(config: ExperimentConfig) -> float:
    scale = MIMO_STREAM_SCALE if config.mode == MODE_MIMO else 1.0
    return SYMBOL_ENERGY * scale * scale


def _db_traces(traces: np.ndarray, reference_power: float) -> np.ndarray:
    """Per-run traces in dB relative to the reference power, floored."""
    floor = reference_power * 10.0 ** (CURVE_DB_FLOOR / 10.0)
    return 10.0 * np.log10(np.maximum(traces, floor) / reference_power)


def _steady_state_db(curve_db: np.ndarray) -> float:
    tail = max(1, curve_db.shape[0] // 10)
    return float(curve_db[-tail:].mean())


def _build_curve(traces: np.ndarray, alive: np.ndarray, delay: int, reference_power: float,
                 diverged: int) -> LearningCurve:
    if not alive.any():
        raise ExperimentFailedError(f"all {alive.size} runs diverged")
    curve_db = _db_traces(traces[alive][:, delay:], reference_power).mean(axis=0)
    return LearningCurve(curve_db, _steady_state_db(curve_db), diverged)


def _equalizer_decisions(received: np.ndarray, weights: np.ndarray, start: int) -> np.ndarray:
    """Hard decisions on the equalizer output at t in [start, N), for (G, C, N, 4)
    received lanes and (G, C*L, 4) stacked weights [stream 0 lags, stream 1 lags, ...].
    """
    lanes, streams, _, _ = received.shape
    taps = weights.reshape(lanes, streams, -1, 4)
    # the output from `start` on needs only the L-1 samples before it
    history = max(start - (taps.shape[2] - 1), 0)
    output = convolve(received[:, :, history:], taps).sum(axis=1)
    return modem.hard_decisions(output[:, start - history :])


def _post_adaptation(config: ExperimentConfig, received: np.ndarray, references: np.ndarray,
                     sent_indices: np.ndarray, batch: QlmsBatch, with_wiener: bool) -> dict:
    """SER decisions from each lane's final weights and, with `with_wiener`, its
    block Wiener dB, for the lanes that stayed sane, _GROUP_LANES at a time.

    Decisions are scored over the iterations t in [max(N//2, delay), N), the
    last half of the run where it has a delayed reference.
    """
    lanes, n = received.shape[0], received.shape[2]
    length, delay = config.equalizer_length, config.delay
    start = max(n // 2, delay)
    errors = np.zeros(lanes, dtype=np.int64)
    decisions = np.zeros(lanes, dtype=np.int64)
    wiener_db = np.full(lanes, np.nan)
    alive = np.flatnonzero(batch.diverged_at < 0)
    for first in range(0, alive.size, _GROUP_LANES):
        group = alive[first : first + _GROUP_LANES]
        rx = received[group]
        decided = _equalizer_decisions(rx, batch.weights[group], start)
        errors[group] = np.count_nonzero(decided != sent_indices[group, start - delay : n - delay], axis=1)
        decisions[group] = n - start
        if with_wiener:
            problem = wiener.estimate_statistics(rx, references[group], length, delay)
            optimal = wiener.solve_wiener(problem)
            wiener_db[group] = wiener.evaluate_mse(optimal, rx, references[group], length, delay).db
    return {"errors": errors, "decisions": decisions, "wiener_db": wiener_db}


def _siso_run_data(config: ExperimentConfig, run: int):
    taps = random_channel_taps(
        derive_rng(config.master_seed, run, _PURPOSE_CHANNEL, 0),
        config.num_channel_taps,
        config.normalize_channel,
    )
    indices = derive_rng(config.master_seed, run, _PURPOSE_SYMBOLS, 0).integers(
        0, modem.NUM_SYMBOLS, config.symbols_per_run
    )
    reference = modem.index_to_symbol(indices)
    clean = convolve(reference, taps)
    if config.snr_reference_point == SNR_REF_RECEIVER:
        signal_power = expected_output_power(taps)
    else:
        signal_power = SYMBOL_ENERGY
    variance = noise_variance_for_snr(signal_power, config.snr_db)
    received = clean + gaussian_quaternions(
        derive_rng(config.master_seed, run, _PURPOSE_NOISE, 0), variance, clean.shape[:-1]
    )
    return received, reference, indices


def _siso_chunk(config: ExperimentConfig, start: int, stop: int) -> dict:
    draws = [_siso_run_data(config, r) for r in range(start, stop)]
    received, references, indices = (np.stack(parts) for parts in zip(*draws))
    del draws  # the stacked copies replace the per-run arrays
    received = received[:, None]
    batch = run_qlms_batch(received, references, config.equalizer_length, config.step_size, config.delay)

    n = config.symbols_per_run
    alive = batch.diverged_at < 0
    qlms_db = np.full(stop - start, np.nan)
    qlms_db[alive] = 10.0 * np.log10(
        np.nanmean(batch.traces[alive, 3 * n // 4 :], axis=1) / _reference_power(config)
    )
    stage = _post_adaptation(config, received, references, indices, batch, with_wiener=True)
    return {"traces": batch.traces, "diverged_at": batch.diverged_at, "qlms_db": qlms_db, **stage}


def _mimo_run_data(config: ExperimentConfig, run: int):
    grid = random_mimo_grid(
        derive_rng(config.master_seed, run, _PURPOSE_CHANNEL, 0),
        config.mimo_rx,
        config.mimo_tx,
        config.num_channel_taps,
        config.normalize_channel,
    )
    indices = np.stack(
        [
            derive_rng(config.master_seed, run, _PURPOSE_SYMBOLS, s).integers(
                0, modem.NUM_SYMBOLS, config.symbols_per_run
            )
            for s in range(config.mimo_tx)
        ]
    )
    streams = MIMO_STREAM_SCALE * modem.index_to_symbol(indices)
    stream_power = _reference_power(config)
    if config.snr_reference_point == SNR_REF_RECEIVER:
        signal_power = stream_power * float(quat.norm_sq(grid).sum()) / config.mimo_rx
    else:
        signal_power = stream_power
    variance = noise_variance_for_snr(signal_power, config.snr_db)
    model = MimoChannelModel(grid, variance)
    received = apply_mimo(model, streams, derive_rng(config.master_seed, run, _PURPOSE_NOISE, 0))
    return received, streams, indices


def _mimo_chunk(config: ExperimentConfig, start: int, stop: int) -> dict:
    draws = [_mimo_run_data(config, r) for r in range(start, stop)]
    received, streams, indices = (np.stack(parts) for parts in zip(*draws))
    del draws  # the stacked copies replace the per-run arrays
    n, num_streams = config.symbols_per_run, config.mimo_tx
    # one lane per (run, stream): the run's received streams, that stream's reference
    lanes_rx = np.repeat(received, num_streams, axis=0)
    del received
    lanes_ref = streams.reshape(-1, n, 4)
    batch = run_qlms_batch(lanes_rx, lanes_ref, config.equalizer_length, config.step_size, config.delay)

    stage = _post_adaptation(config, lanes_rx, lanes_ref, indices.reshape(-1, n), batch, with_wiener=False)
    shape = (stop - start, num_streams)
    return {
        "traces": batch.traces.reshape(*shape, n),
        "diverged_at": batch.diverged_at.reshape(shape),
        "errors": stage["errors"].reshape(shape),
        "decisions": stage["decisions"].reshape(shape),
    }


def _run_chunks(chunk_fn, config: ExperimentConfig, workers: int) -> list[dict]:
    bounds = [(start, min(start + _CHUNK_RUNS, config.num_runs)) for start in range(0, config.num_runs, _CHUNK_RUNS)]
    if workers <= 1 or len(bounds) == 1:
        return [chunk_fn(config, start, stop) for start, stop in bounds]
    max_workers = min(workers, len(bounds), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        futures = [pool.submit(chunk_fn, config, start, stop) for start, stop in bounds]
        return [f.result() for f in futures]


def run_siso_experiment(config: ExperimentConfig, workers: int = 1) -> SisoExperimentResult:
    """Monte Carlo SISO equalization: averaged learning curve, block Wiener
    baseline on the same data, and hard-decision SER from the final weights.
    """
    config.validate()
    if config.mode != MODE_SISO:
        raise ValueError(f"mode: expected '{MODE_SISO}', got {config.mode!r}")
    chunks = _run_chunks(_siso_chunk, config, workers)

    traces = np.concatenate([c["traces"] for c in chunks])
    diverged_at = np.concatenate([c["diverged_at"] for c in chunks])
    alive = diverged_at < 0
    diverged = int((~alive).sum())
    curve = _build_curve(traces, alive, config.delay, _reference_power(config), diverged)

    wiener_db = np.concatenate([c["wiener_db"] for c in chunks])
    qlms_db = np.concatenate([c["qlms_db"] for c in chunks])
    errors = int(np.concatenate([c["errors"] for c in chunks]).sum())
    decisions = int(np.concatenate([c["decisions"] for c in chunks]).sum())
    wiener_linear = (10.0 ** (wiener_db[alive] / 10.0)).mean()
    return SisoExperimentResult(
        curve=curve,
        wiener_mse_db=float(10.0 * np.log10(wiener_linear)),
        symbol_error_rate=errors / decisions if decisions else float("nan"),
        runs_diverged=diverged,
        per_run_qlms_db=qlms_db,
        per_run_wiener_db=wiener_db,
        per_run_traces=traces,
    )


def run_mimo_experiment(config: ExperimentConfig, workers: int = 1) -> MimoExperimentResult:
    """Monte Carlo 2x2 (generally rx-by-tx) MIMO separation and equalization.

    Each transmitted stream gets its own stacked-regressor equalizer spanning
    all receive streams (weight length mimo_rx * equalizer_length); curves and
    SER are reported per transmitted stream.
    """
    config.validate()
    if config.mode != MODE_MIMO:
        raise ValueError(f"mode: expected '{MODE_MIMO}', got {config.mode!r}")
    chunks = _run_chunks(_mimo_chunk, config, workers)

    traces = np.concatenate([c["traces"] for c in chunks])  # (runs, streams, N)
    diverged_at = np.concatenate([c["diverged_at"] for c in chunks])
    errors = np.concatenate([c["errors"] for c in chunks])
    decisions = np.concatenate([c["decisions"] for c in chunks])
    reference_power = _reference_power(config)

    curves = []
    rates = []
    for s in range(config.mimo_tx):
        alive = diverged_at[:, s] < 0
        curves.append(
            _build_curve(traces[:, s], alive, config.delay, reference_power, int((~alive).sum()))
        )
        total = int(decisions[alive, s].sum())
        rates.append(int(errors[alive, s].sum()) / total if total else float("nan"))
    return MimoExperimentResult(
        curves=tuple(curves),
        symbol_error_rates=tuple(rates),
        runs_diverged=int((diverged_at >= 0).any(axis=1).sum()),
        per_run_traces=traces,
    )


def run_experiment(config: ExperimentConfig, workers: int = 1):
    return run_siso_experiment(config, workers) if config.mode == MODE_SISO else run_mimo_experiment(config, workers)


def convergence_iteration(curve_db: np.ndarray, steady_state_db: float, threshold_db: float = 1.0) -> int:
    """First index where the trailing-mean smoothed curve comes within
    `threshold_db` of the steady state; the curve length minus one if the
    smoothed curve never quite gets there.
    """
    curve_db = np.asarray(curve_db, dtype=np.float64)
    if curve_db.size == 0:
        raise ValueError("cannot locate convergence on an empty curve")
    window = min(SMOOTHING_WINDOW, curve_db.size)
    sums = np.cumsum(curve_db)
    smoothed = np.empty_like(curve_db)
    smoothed[:window] = sums[:window] / np.arange(1, window + 1)
    smoothed[window:] = (sums[window:] - sums[:-window]) / window
    hits = np.nonzero(smoothed <= steady_state_db + threshold_db)[0]
    return int(hits[0]) if hits.size else curve_db.size - 1


def summarize(result):
    """Condense an experiment result into flat summary records.

    A SISO result yields one ExperimentSummary; a MIMO result yields a tuple
    with one entry per transmitted stream.
    """
    if isinstance(result, SisoExperimentResult):
        curve = result.curve
        return ExperimentSummary(
            steady_state_db=curve.steady_state_db,
            convergence_iteration=convergence_iteration(curve.mse_per_iteration, curve.steady_state_db),
            symbol_error_rate=result.symbol_error_rate,
            wiener_mse_db=result.wiener_mse_db,
            runs_diverged=result.runs_diverged,
        )
    if isinstance(result, MimoExperimentResult):
        if not result.curves:
            raise ValueError("cannot summarize an experiment with no streams")
        return tuple(
            ExperimentSummary(
                steady_state_db=curve.steady_state_db,
                convergence_iteration=convergence_iteration(curve.mse_per_iteration, curve.steady_state_db),
                symbol_error_rate=rate,
                wiener_mse_db=None,
                runs_diverged=curve.runs_diverged,
            )
            for curve, rate in zip(result.curves, result.symbol_error_rates)
        )
    raise ValueError(f"cannot summarize object of type {type(result).__name__}")
