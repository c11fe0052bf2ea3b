"""Seeded Monte Carlo experiments: SISO equalization and rx-by-tx MIMO separation.

SISO is the 1x1 case of MIMO, so both modes take one path.  Every run draws
a random (rx, tx) grid of FIR channels, one symbol stream per transmitter and
the receiver noise from generators keyed by (master seed, run index,
purpose, stream index), so the full result set is a pure function of the
configuration and runs can be chunked across processes without changing a
single bit of the output.  Chunks are sized by received samples, not runs
(`_CHUNK_SAMPLES`), so many short runs share one wide kernel batch.  Both
per-run stages of a chunk, its draw and its post-adaptation, walk it in the
same slices of max(1, `_GROUP_LANES` // S) runs for S transmit streams
(`_slices`).  Slices amortize numpy's per-call cost over several runs while
their temporaries stay small (whole-chunk post-adaptation slices raise the
peak resident memory of a 64 x 5000 chunk from 57 to 90 MB in SISO and from
68 to 115 MB in MIMO).  A chunk allocates its received streams
(R, rx, N, 4) and int8 symbol indices (R, tx, N) once and fills them slice
by slice (`_draw`): the slice's runs draw their grids, symbols, noise
variances and noise generators, and one `channel.apply_mimo` call filters
them all with one `mimo_convolve` call, then adds each run's noise from its
own generator.
One run's data is the one-run case of the same draw,
`_draw(config, run, run + 1)`, bit for bit.
Each (run, transmitted stream) pair is one lane of the batched QLMS kernel:
the run's received streams against that stream's symbols.  The kernel's
results are reshaped once to the (run, stream) grid, which every later stage
keeps.  The kernel
shares each run's received streams among its lanes and looks the
references up in the scaled constellation block by block, so the chunk
holds its data once; on a 64 x 5000 MIMO chunk the traced peak is 1.45x the
received batch.  Lanes advance in lockstep, which keeps ensemble averaging
over hundreds of runs cheap.  After adaptation, each slice's live runs go
through the SER stage, which filters each run once for all its S lanes
with their final weights, as the S-output grid of `channel.mimo_convolve`;
in SISO, the block Wiener baseline solves the same runs in the same pass and
scores its optimum from the same statistics (`wiener.statistics_mse`), so
the block is not filtered a second time.
`_MODES` holds everything that differs between the modes.

Learning curves are the per-run error traces converted to dB relative to
the reference power (`wiener.floored_db`, floored at -100 dB) and averaged
pointwise across the runs that stayed sane; diverged runs are excluded from
every average but counted and reported.  The per-run QLMS figure takes the
same rule.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import modem, wiener
from .adaptive import run_qlms_batch
from .channel import (
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

# lanes per run slice of a chunk's draw and post-adaptation; see the module docstring
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
        # a bool is an int to Python, but the config echo writes it on/off, which --config reads only as a bool
        kinds = dict.fromkeys(counts + ("delay", "master_seed"), ((int, np.integer), "an integer"))
        kinds.update(dict.fromkeys(("snr_db", "step_size"), ((int, float, np.integer, np.floating), "a number")))
        for name, (types, kind) in kinds.items():
            if isinstance(getattr(self, name), bool) or not isinstance(getattr(self, name), types):
                raise ValueError(f"{name}: must be {kind}, got {getattr(self, name)!r}")
        if not isinstance(self.normalize_channel, bool):
            raise ValueError(f"normalize_channel: must be a bool, got {self.normalize_channel!r}")
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
    # converted before the sane runs are picked, so the traces are not copied first
    curve_db = wiener.floored_db(traces[:, config.delay :], _reference_power(config))[alive].mean(axis=0)
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
    # a lane's last update can leave finite weights too large to filter with; the
    # kernel never filters with its final weights, so the freeze rule cannot catch
    # them, and the hard decisions on the inf or NaN outputs are still well defined
    with np.errstate(over="ignore", invalid="ignore"):
        output = mimo_convolve(received[..., history:, :], weights.reshape(runs, lanes, streams, length, 4))
    return modem.hard_decisions(output[..., start - history :, :])


def _slices(runs: int, streams: int) -> list[slice]:
    """The run slices of a chunk's draw and post-adaptation: max(1, _GROUP_LANES // S) runs of S streams."""
    size = max(1, _GROUP_LANES // streams)
    return [slice(r0, min(r0 + size, runs)) for r0 in range(0, runs, size)]


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
    the live runs of each of the chunk's `_slices`.  A run whose lanes all
    diverged is skipped, and a diverged lane of a live run is filtered with
    zero weights; either way a diverged lane reports no decisions.  A run whose
    sample statistics overflow gets a NaN Wiener figure, as a dead lane does.
    """
    runs, streams, n = indices.shape
    length, delay = config.equalizer_length, config.delay
    start = max(n // 2, delay)
    errors = np.zeros((runs, streams), dtype=np.int64)
    wiener_db = np.full((runs, streams), np.nan)
    for part in _slices(runs, streams):
        live = alive[part].any(axis=1)
        if not live.any():
            continue
        # an all-live slice is indexed by a basic slice, a view, so its runs are not copied
        group = part if live.all() else part.start + np.flatnonzero(live)
        rx, sent = received[group], indices[group]
        w = np.where(alive[group][:, :, None, None], weights[group], 0.0)
        decided = _equalizer_decisions(rx, w, start)
        errors[group] = np.count_nonzero(decided != sent[:, :, start - delay : n - delay], axis=2)
        if _MODES[config.mode].with_wiener:
            references = symbols[sent[:, 0]]
            # noise near the top of the float range overflows the sample moments
            with np.errstate(over="ignore", invalid="ignore"):
                problem = wiener.estimate_statistics(rx, references, length, delay)
                ridge = wiener.default_ridge(problem)
            r, p = problem.autocorrelation, problem.cross_correlation
            sane = np.isfinite(ridge) & np.isfinite(r).all(axis=(1, 2, 3)) & np.isfinite(p).all(axis=(1, 2))
            if not sane.all():
                problem = wiener.WienerProblem(r[sane], p[sane], problem.sample_count)
                ridge, references = ridge[sane], references[sane]
            db = np.full(sane.shape, np.nan)
            db[sane] = wiener.statistics_mse(problem, wiener.solve_wiener(problem, ridge), references).db
            wiener_db[group, 0] = db
    errors[~alive] = 0
    return {"errors": errors, "decisions": np.where(alive, n - start, 0), "wiener_db": wiener_db}


def _draw(config: ExperimentConfig, start: int, stop: int):
    """Runs [start, stop): their received streams (R, rx, N, 4) and int8 symbol
    indices (R, tx, N), for the (rx, tx) layout of the mode.

    The chunk is filled one of its `_slices` at a time, with one
    `apply_mimo` call per slice.  Each run draws its grid, symbols and noise
    from its own (master_seed, run, purpose, stream) generators, so its data
    do not depend on the runs drawn with it or on the slicing.
    """
    mode = _MODES[config.mode]
    num_rx, num_tx = mode.layout(config)
    runs, n, seed = stop - start, config.symbols_per_run, config.master_seed
    stream_power = _reference_power(config)
    received = np.empty((runs, num_rx, n, 4))
    indices = np.empty((runs, num_tx, n), dtype=np.int8)
    for rows in _slices(runs, num_tx):
        part = range(rows.start, rows.stop)
        grids = [
            random_mimo_grid(derive_rng(seed, start + k, _PURPOSE_CHANNEL, 0), num_rx, num_tx,
                             config.num_channel_taps, config.normalize_channel)
            for k in part
        ]  # fmt: skip
        for k in part:
            for s in range(num_tx):
                indices[k, s] = derive_rng(seed, start + k, _PURPOSE_SYMBOLS, s).integers(0, modem.NUM_SYMBOLS, n)
        streams = modem.index_to_symbol(indices[rows])
        streams *= mode.stream_scale  # in place: a second slice-sized temporary would set the chunk's peak
        if config.snr_reference_point == SNR_REF_RECEIVER:
            powers = [expected_output_power(grid, stream_power) / num_rx for grid in grids]
        else:
            powers = [stream_power] * len(part)
        variances = [noise_variance_for_snr(power, config.snr_db) for power in powers]
        rngs = [derive_rng(seed, start + k, _PURPOSE_NOISE, 0) for k in part]
        received[rows] = apply_mimo(grids, streams, variances, rngs)
    return received, indices


def _chunk(config: ExperimentConfig, start: int, stop: int) -> dict:
    """Runs [start, stop): every result array indexed (run, stream, ...).

    The kernel and the post-adaptation stage read the chunk's received
    streams and int8 symbol indices in place, with each lane's references
    looked up in the scaled constellation.
    """
    mode = _MODES[config.mode]
    n = config.symbols_per_run
    received, indices = _draw(config, start, stop)
    symbols = mode.stream_scale * modem.CONSTELLATION
    lanes = indices.reshape(-1, n)  # the (run, stream) grid, flattened row-major into kernel lanes
    batch = run_qlms_batch(received, lanes, symbols, config.equalizer_length, config.step_size, config.delay)
    grid = indices.shape[:2]
    traces, diverged_at = batch.traces.reshape(grid + (n,)), batch.diverged_at.reshape(grid)
    alive = diverged_at < 0
    qlms_db = np.full(grid, np.nan)
    qlms_db[alive] = wiener.floored_db(np.nanmean(traces[alive, 3 * n // 4 :], axis=1), _reference_power(config))
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
