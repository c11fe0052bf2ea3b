"""Seeded Monte Carlo experiments: SISO equalization and rx-by-tx MIMO separation.

SISO is the 1x1 case of MIMO, so both modes take one path.  Every run draws
a random (rx, tx) grid of FIR channels, one symbol stream per transmitter and
the receiver noise from generators keyed by (master seed, run index,
purpose, stream index), so the full result set is a pure function of the
configuration and runs can be chunked across processes without changing a
single bit of the output.  Chunks are sized by received samples, not runs
(`_CHUNK_SAMPLES`), so many short runs share one wide kernel batch.  A chunk
allocates its received streams (R, rx, N, 4) and int8 symbol indices
(R, tx, N) once and fills them run by run.
Each (run, transmitted stream) pair is one lane of the batched QLMS kernel:
the run's received streams against that stream's symbols.  The kernel
shares each run's received streams among its lanes and looks the
references up in the scaled constellation block by block, so the chunk
holds its data once; on a 64 x 5000 MIMO chunk the traced peak is 1.7x the
received batch.  Lanes advance in lockstep, which keeps ensemble averaging
over hundreds of runs cheap.  After adaptation, the SER decisions and (in
SISO only) the block Wiener baseline are computed for a fixed group of 8
lanes at a time: one batched call per group amortizes numpy's per-call
cost, while the group's temporaries stay small (whole-chunk groups raise
the peak resident memory of a 64 x 5000 chunk from 63 to 124 MB in SISO and
from 73 to 183 MB in MIMO).  The Wiener optimum is scored from the same
statistics it is solved from (`wiener.statistics_mse`), so the block is not
filtered a second time.  `_MODES` holds everything that differs between
the modes.

Learning curves are the per-run error traces converted to dB (floored at
-100 dB relative to the reference power) and averaged pointwise across the
runs that stayed sane; diverged runs are excluded from every average but
counted and reported.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import modem, quat, wiener
from .adaptive import QlmsBatch, run_qlms_batch
from .channel import (
    MimoChannelModel,
    SYMBOL_ENERGY,
    apply_mimo,
    convolve,
    derive_rng,
    noise_variance_for_snr,
    random_mimo_grid,
)
from .errors import ExperimentFailedError

# Not called here; perfbench/tracer.py wraps these module attributes by name.
from .adaptive import lag_matrix  # noqa: F401
from .channel import gaussian_quaternions, random_channel_taps  # noqa: F401
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


class _Mode(NamedTuple):
    """Everything that differs between the modes."""

    layout: Callable  # config -> (receive streams, transmit streams)
    stream_scale: float
    with_wiener: bool  # whether the per-run block Wiener stage runs


_MODES = {
    MODE_SISO: _Mode(lambda config: (1, 1), 1.0, True),
    MODE_MIMO: _Mode(lambda config: (config.mimo_rx, config.mimo_tx), MIMO_STREAM_SCALE, False),
}

# dB floor for per-sample trace entries, relative to the reference power
CURVE_DB_FLOOR = -100.0

# most received samples (runs x rx x N) per kernel batch: it bounds a chunk's
# memory at the size of a 64-run 2x2 MIMO chunk of 5000 symbols (each lane's
# result is bit-independent of its batch, so the chunking never changes the output)
_CHUNK_SAMPLES = 64 * 2 * 5000

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
class ExperimentResult:
    """Per transmitted stream: one learning curve and one SER (a SISO run has
    one stream).  The per-run arrays are indexed (run, stream); per-run
    Wiener figures and `wiener_mse_db` come from the SISO Wiener stage and
    are NaN and None in MIMO.
    """

    curves: tuple[LearningCurve, ...]
    symbol_error_rates: tuple[float, ...]
    runs_diverged: int  # runs with at least one diverged stream
    per_run_traces: np.ndarray  # (runs, streams, N) linear, NaN in warm-up / after divergence
    per_run_qlms_db: np.ndarray  # (runs, streams) mean of the last quarter, NaN if diverged
    per_run_wiener_db: np.ndarray  # (runs, streams)
    wiener_mse_db: Optional[float]

    @property
    def curve(self) -> LearningCurve:
        """The learning curve of a one-stream result."""
        return _only(self.curves)

    @property
    def symbol_error_rate(self) -> float:
        """The SER of a one-stream result."""
        return _only(self.symbol_error_rates)


def _only(values: tuple):
    if len(values) != 1:
        raise ValueError(f"result has {len(values)} streams; pick one from the per-stream tuple")
    return values[0]


@dataclass(frozen=True)
class ExperimentSummary:
    steady_state_db: float
    convergence_iteration: int
    symbol_error_rate: float
    wiener_mse_db: Optional[float]
    runs_diverged: int


def _reference_power(config: ExperimentConfig) -> float:
    scale = _MODES[config.mode].stream_scale
    return SYMBOL_ENERGY * scale * scale


def _db_traces(traces: np.ndarray, reference_power: float) -> np.ndarray:
    """Per-run traces in dB relative to the reference power, floored."""
    floor = reference_power * 10.0 ** (CURVE_DB_FLOOR / 10.0)
    return 10.0 * np.log10(np.maximum(traces, floor) / reference_power)


def _steady_state_db(curve_db: np.ndarray) -> float:
    tail = max(1, curve_db.shape[0] // 10)
    return float(curve_db[-tail:].mean())


def _build_curve(config: ExperimentConfig, traces: np.ndarray, diverged_at: np.ndarray, stream: int) -> LearningCurve:
    """The learning curve of one transmitted stream from its (runs, N) traces and
    (runs,) divergence iterations.  If every run diverged, the error names the
    earliest divergence.  A run's draws depend only on the config and its
    (master_seed, run) key, so the same config with run + 1 runs replays it.
    """
    alive = diverged_at < 0
    if not alive.any():
        run = int(np.argmin(diverged_at))
        raise ExperimentFailedError(
            f"all {alive.size} runs diverged on stream {stream}; the first was run {run} of master_seed"
            f" {config.master_seed}, at iteration {int(diverged_at[run])}"
        )
    curve_db = _db_traces(traces[alive][:, config.delay :], _reference_power(config)).mean(axis=0)
    return LearningCurve(curve_db, _steady_state_db(curve_db), int((~alive).sum()))


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


def _post_adaptation(config: ExperimentConfig, received: np.ndarray, indices: np.ndarray, symbols: np.ndarray,
                     batch: QlmsBatch, with_wiener: bool) -> dict:
    """SER decisions from each lane's final weights and, with `with_wiener`, its
    block Wiener dB, for the lanes that stayed sane, _GROUP_LANES at a time.

    Lane k of the (run, stream) order equalizes run k // S of the (R, rx, N, 4)
    `received` against the symbol indices `indices[k]` into `symbols`.
    Decisions are scored over the iterations t in [max(N//2, delay), N), the
    last half of the run where it has a delayed reference.
    """
    lanes, n = indices.shape
    per_run = lanes // received.shape[0]
    length, delay = config.equalizer_length, config.delay
    start = max(n // 2, delay)
    errors = np.zeros(lanes, dtype=np.int64)
    decisions = np.zeros(lanes, dtype=np.int64)
    wiener_db = np.full(lanes, np.nan)
    alive = np.flatnonzero(batch.diverged_at < 0)
    for first in range(0, alive.size, _GROUP_LANES):
        group = alive[first : first + _GROUP_LANES]
        rx, sent = received[group // per_run], indices[group]
        decided = _equalizer_decisions(rx, batch.weights[group], start)
        errors[group] = np.count_nonzero(decided != sent[:, start - delay : n - delay], axis=1)
        decisions[group] = n - start
        if with_wiener:
            references = symbols[sent]
            problem = wiener.estimate_statistics(rx, references, length, delay)
            wiener_db[group] = wiener.statistics_mse(problem, wiener.solve_wiener(problem), references).db
    return {"errors": errors, "decisions": decisions, "wiener_db": wiener_db}


def _run_data(config: ExperimentConfig, run: int):
    """One run's received streams (rx, N, 4), transmitted streams (tx, N, 4)
    and their symbol indices (tx, N), for the (rx, tx) layout of the mode.
    """
    mode = _MODES[config.mode]
    num_rx, num_tx = mode.layout(config)
    grid = random_mimo_grid(
        derive_rng(config.master_seed, run, _PURPOSE_CHANNEL, 0),
        num_rx,
        num_tx,
        config.num_channel_taps,
        config.normalize_channel,
    )
    indices = np.stack(
        [
            derive_rng(config.master_seed, run, _PURPOSE_SYMBOLS, s).integers(
                0, modem.NUM_SYMBOLS, config.symbols_per_run
            )
            for s in range(num_tx)
        ]
    )
    streams = mode.stream_scale * modem.index_to_symbol(indices)
    stream_power = _reference_power(config)
    if config.snr_reference_point == SNR_REF_RECEIVER:
        signal_power = stream_power * float(quat.norm_sq(grid).sum()) / num_rx
    else:
        signal_power = stream_power
    variance = noise_variance_for_snr(signal_power, config.snr_db)
    model = MimoChannelModel(grid, variance)
    received = apply_mimo(model, streams, derive_rng(config.master_seed, run, _PURPOSE_NOISE, 0))
    return received, streams, indices


def _chunk(config: ExperimentConfig, start: int, stop: int) -> dict:
    """Runs [start, stop): every result array indexed (run, stream, ...).

    The chunk's received streams and int8 symbol indices are allocated once
    and filled run by run; the kernel and the post-adaptation stage read them
    in place, with each lane's references looked up in the scaled
    constellation.
    """
    mode = _MODES[config.mode]
    num_rx, num_tx = mode.layout(config)
    runs, n = stop - start, config.symbols_per_run
    received = np.empty((runs, num_rx, n, 4))
    indices = np.empty((runs, num_tx, n), dtype=np.int8)
    for k in range(runs):
        received[k], _, indices[k] = _run_data(config, start + k)
    # lanes in (run, stream) order: a run's received streams against each stream's symbols
    lane_indices = indices.reshape(-1, n)
    symbols = mode.stream_scale * modem.CONSTELLATION
    batch = run_qlms_batch(
        received, lane_indices, config.equalizer_length, config.step_size, config.delay, symbols=symbols
    )

    alive = batch.diverged_at < 0
    qlms_db = np.full(alive.size, np.nan)
    qlms_db[alive] = 10.0 * np.log10(
        np.nanmean(batch.traces[alive, 3 * n // 4 :], axis=1) / _reference_power(config)
    )
    stage = _post_adaptation(config, received, lane_indices, symbols, batch, mode.with_wiener)
    lanes = {"traces": batch.traces, "diverged_at": batch.diverged_at, "qlms_db": qlms_db, **stage}
    return {name: value.reshape((runs, num_tx) + value.shape[1:]) for name, value in lanes.items()}


def _run_chunks(config: ExperimentConfig, workers: int) -> list[dict]:
    """Every run, in chunks of at most _CHUNK_SAMPLES received samples (but at
    least one run) whose sizes differ by at most one run, and at least one
    chunk per pool worker.
    """
    runs = config.num_runs
    num_rx, _ = _MODES[config.mode].layout(config)
    chunk_runs = max(1, _CHUNK_SAMPLES // (num_rx * config.symbols_per_run))
    pool_size = max(1, min(workers, os.cpu_count() or 1))
    count = min(max(pool_size, -(-runs // chunk_runs)), runs)
    bounds = [(runs * k // count, runs * (k + 1) // count) for k in range(count)]
    if pool_size == 1 or count == 1:
        return [_chunk(config, start, stop) for start, stop in bounds]
    with ProcessPoolExecutor(max_workers=min(pool_size, count)) as pool:
        futures = [pool.submit(_chunk, config, start, stop) for start, stop in bounds]
        return [f.result() for f in futures]


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Monte Carlo equalization (SISO) or rx-by-tx separation (MIMO).

    Each transmitted stream gets its own stacked-regressor equalizer spanning
    all receive streams (weight length rx * equalizer_length).  Curves and
    SER are reported per transmitted stream, the SER from the hard decisions
    of each surviving run's final weights; SISO adds the block Wiener
    baseline on the same data.
    """
    config.validate()
    chunks = _run_chunks(config, workers)
    traces, diverged_at, qlms_db, wiener_db, errors, decisions = (
        np.concatenate([c[name] for c in chunks])
        for name in ("traces", "diverged_at", "qlms_db", "wiener_db", "errors", "decisions")
    )
    alive = diverged_at < 0

    curves = []
    rates = []
    for s in range(traces.shape[1]):
        lanes = alive[:, s]
        curves.append(_build_curve(config, traces[:, s], diverged_at[:, s], s))
        total = int(decisions[lanes, s].sum())
        rates.append(int(errors[lanes, s].sum()) / total if total else float("nan"))
    wiener_mse_db = None
    if _MODES[config.mode].with_wiener:
        wiener_mse_db = float(10.0 * np.log10((10.0 ** (wiener_db[alive] / 10.0)).mean()))
    return ExperimentResult(
        curves=tuple(curves),
        symbol_error_rates=tuple(rates),
        runs_diverged=int((~alive).any(axis=1).sum()),
        per_run_traces=traces,
        per_run_qlms_db=qlms_db,
        per_run_wiener_db=wiener_db,
        wiener_mse_db=wiener_mse_db,
    )


def _in_mode(config: ExperimentConfig, mode: str) -> ExperimentConfig:
    if config.mode != mode:
        raise ValueError(f"mode: expected '{mode}', got {config.mode!r}")
    return config


def run_siso_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """`run_experiment` for a SISO config."""
    return run_experiment(_in_mode(config, MODE_SISO), workers)


def run_mimo_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """`run_experiment` for a MIMO config."""
    return run_experiment(_in_mode(config, MODE_MIMO), workers)


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


def summarize(result: ExperimentResult) -> tuple[ExperimentSummary, ...]:
    """Condense an experiment result into one flat record per transmitted stream."""
    curves = getattr(result, "curves", ())
    if not curves:
        raise ValueError(f"cannot summarize {type(result).__name__}: it has no learning curves")
    return tuple(
        ExperimentSummary(
            steady_state_db=curve.steady_state_db,
            convergence_iteration=convergence_iteration(curve.mse_per_iteration, curve.steady_state_db),
            symbol_error_rate=rate,
            wiener_mse_db=result.wiener_mse_db,
            runs_diverged=curve.runs_diverged,
        )
        for curve, rate in zip(curves, result.symbol_error_rates)
    )
