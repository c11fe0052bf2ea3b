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
the run's received streams against that stream's symbols.  The kernel's
results are reshaped once to the (run, stream) grid, which every later stage
keeps.  The kernel
shares each run's received streams among its lanes and looks the
references up in the scaled constellation block by block, so the chunk
holds its data once; on a 64 x 5000 MIMO chunk the traced peak is 1.45x the
received batch.  Lanes advance in lockstep, which keeps ensemble averaging
over hundreds of runs cheap.  After adaptation, one loop walks the chunk in
slices of max(1, 8 // S) runs and takes each slice's live runs.  The SER
stage filters each run once for all its S lanes with their final weights,
as the S-output grid of `channel.mimo_convolve`; in SISO, the block Wiener
baseline solves the same runs in the same pass.  Slices amortize numpy's
per-call cost while their temporaries stay small (whole-chunk slices raise
the peak resident memory of a 64 x 5000 chunk from 57 to 90 MB in SISO and
from 68 to 115 MB in MIMO).  The Wiener optimum
is scored from the same statistics it is solved from
(`wiener.statistics_mse`), so the block is not filtered a second time.
`_MODES` holds everything that differs between the modes.

Learning curves are the per-run error traces converted to dB (floored at
-100 dB relative to the reference power) and averaged pointwise across the
runs that stayed sane; diverged runs are excluded from every average but
counted and reported.  The per-run QLMS figure takes the same floor.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import modem, wiener
from .adaptive import run_qlms_batch
from .channel import (
    MimoChannelModel,
    SYMBOL_ENERGY,
    apply_mimo,
    derive_rng,
    expected_output_power,
    mimo_convolve,
    noise_variance_for_snr,
    random_mimo_grid,
)
from .errors import ExperimentFailedError

# Not called here; perfbench/tracer.py wraps these module attributes by name.
from .adaptive import lag_matrix  # noqa: F401
from .channel import convolve, gaussian_quaternions, random_channel_taps  # noqa: F401
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

# most received samples (runs x rx x N) per kernel batch: it bounds a chunk's
# memory at the size of a 64-run 2x2 MIMO chunk of 5000 symbols (each lane's
# result is bit-independent of its batch, so the chunking never changes the output)
_CHUNK_SAMPLES = 64 * 2 * 5000

# lanes per post-adaptation slice, rounded to whole runs; see the module docstring
_GROUP_LANES = 8

# trailing moving-average window used when locating the convergence iteration,
# and how many dB above the steady state the smoothed curve counts as converged
SMOOTHING_WINDOW = 50
CONVERGENCE_THRESHOLD_DB = 1.0


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
        counts = ("num_channel_taps", "equalizer_length", "num_runs", "symbols_per_run", "mimo_tx", "mimo_rx")
        for name in counts + ("delay", "master_seed"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name}: must be an integer, got {getattr(self, name)!r}")
        for name in counts:
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be at least 1, got {getattr(self, name)}")
        if not 0.0 < self.step_size < np.inf:
            raise ValueError(f"step_size: must be positive and finite, got {self.step_size}")
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
    """Per-run traces in dB relative to the reference power, floored at wiener.DB_FLOOR."""
    floor = reference_power * 10.0 ** (wiener.DB_FLOOR / 10.0)
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
    """Hard decisions on the equalizer output at t in [start, N) of every lane of G
    runs: (G, C, N, 4) received streams and (G, S, C*L, 4) stacked weights
    [stream 0 lags, stream 1 lags, ...] give (G, S, N - start) symbol indices.

    A run's S lanes are its S-output grid, so `mimo_convolve` filters the run
    once for all of them.
    """
    runs, streams = received.shape[:2]
    lanes, length = weights.shape[1], weights.shape[2] // streams
    # the output from `start` on needs only the L-1 samples before it
    history = max(start - (length - 1), 0)
    output = mimo_convolve(received[..., history:, :], weights.reshape(runs, lanes, streams, length, 4))
    return modem.hard_decisions(output[..., start - history :, :])


def _post_adaptation(config: ExperimentConfig, received: np.ndarray, indices: np.ndarray, symbols: np.ndarray,
                     weights: np.ndarray, alive: np.ndarray) -> dict:
    """SER decisions from each lane's final weights and, in a mode with the Wiener stage
    (SISO, where a run is one lane), its block Wiener dB, for the lanes that stayed sane.

    On the (run, stream) grid of R runs and S streams, lane (r, s) equalizes run r
    of the (R, rx, N, 4) `received` with its final weights `weights[r, s]`
    (R, S, C*L, 4) against the symbol indices `indices[r, s]` (R, S, N) into
    `symbols`; `alive` (R, S) marks the sane lanes, and the results are (R, S).
    Decisions are scored over the iterations t in [max(N//2, delay), N), the
    last half of the run where it has a delayed reference.  Both stages take
    the live runs of each slice of max(1, _GROUP_LANES // S) runs.  A run
    whose lanes all diverged is skipped, and a diverged lane of a live run is
    filtered with zero weights; either way a diverged lane reports no
    decisions.
    """
    runs, streams, n = indices.shape
    length, delay = config.equalizer_length, config.delay
    start = max(n // 2, delay)
    errors = np.zeros((runs, streams), dtype=np.int64)
    wiener_db = np.full((runs, streams), np.nan)
    group_runs = max(1, _GROUP_LANES // streams)
    for r0 in range(0, runs, group_runs):
        group = r0 + np.flatnonzero(alive[r0 : r0 + group_runs].any(axis=1))
        if not group.size:
            continue
        rx, sent = received[group], indices[group]
        w = np.where(alive[group][:, :, None, None], weights[group], 0.0)
        decided = _equalizer_decisions(rx, w, start)
        errors[group] = np.count_nonzero(decided != sent[:, :, start - delay : n - delay], axis=2)
        if _MODES[config.mode].with_wiener:
            references = symbols[sent[:, 0]]
            problem = wiener.estimate_statistics(rx, references, length, delay)
            wiener_db[group, 0] = wiener.statistics_mse(problem, wiener.solve_wiener(problem), references).db
    errors[~alive] = 0
    return {"errors": errors, "decisions": np.where(alive, n - start, 0), "wiener_db": wiener_db}


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
        signal_power = expected_output_power(grid, stream_power) / num_rx
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
    symbols = mode.stream_scale * modem.CONSTELLATION
    lanes = indices.reshape(-1, n)  # the (run, stream) grid, flattened row-major into kernel lanes
    batch = run_qlms_batch(received, lanes, symbols, config.equalizer_length, config.step_size, config.delay)
    grid = (runs, num_tx)
    traces, diverged_at = batch.traces.reshape(grid + (n,)), batch.diverged_at.reshape(grid)
    alive = diverged_at < 0
    qlms_db = np.full(grid, np.nan)
    qlms_db[alive] = _db_traces(np.nanmean(traces[alive, 3 * n // 4 :], axis=1), _reference_power(config))
    weights = batch.weights.reshape(grid + batch.weights.shape[1:])
    stage = _post_adaptation(config, received, indices, symbols, weights, alive)
    return {"traces": traces, "diverged_at": diverged_at, "qlms_db": qlms_db, **stage}


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
    merged = {name: np.concatenate([c[name] for c in chunks]) for name in chunks[0]}
    traces, diverged_at, wiener_db = merged["traces"], merged["diverged_at"], merged["wiener_db"]
    alive = diverged_at < 0
    # raises unless each stream has a live run; dead lanes score 0 errors in 0 decisions
    curves = tuple(_build_curve(config, traces[:, s], diverged_at[:, s], s) for s in range(traces.shape[1]))
    rates = merged["errors"].sum(axis=0) / merged["decisions"].sum(axis=0)
    wiener_mse_db = None
    if _MODES[config.mode].with_wiener:
        wiener_mse_db = float(10.0 * np.log10((10.0 ** (wiener_db[alive] / 10.0)).mean()))
    return ExperimentResult(
        curves=curves,
        symbol_error_rates=tuple(rates.tolist()),
        runs_diverged=int((~alive).any(axis=1).sum()),
        per_run_traces=traces,
        per_run_qlms_db=merged["qlms_db"],
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


def convergence_iteration(curve_db: np.ndarray, steady_state_db: float) -> int:
    """First index where the trailing-mean smoothed curve comes within
    CONVERGENCE_THRESHOLD_DB of the steady state; the curve length minus one
    if the smoothed curve never quite gets there.
    """
    curve_db = np.asarray(curve_db, dtype=np.float64)
    if curve_db.size == 0:
        raise ValueError("cannot locate convergence on an empty curve")
    window = min(SMOOTHING_WINDOW, curve_db.size)
    sums = np.cumsum(curve_db)
    smoothed = np.empty_like(curve_db)
    smoothed[:window] = sums[:window] / np.arange(1, window + 1)
    smoothed[window:] = (sums[window:] - sums[:-window]) / window
    hits = np.nonzero(smoothed <= steady_state_db + CONVERGENCE_THRESHOLD_DB)[0]
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
