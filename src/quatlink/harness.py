"""Seeded Monte Carlo experiments: SISO equalization and rx-by-tx MIMO separation.

SISO is the 1x1 case of MIMO, so both modes take one path.  Every run draws
a random (rx, tx) grid of FIR channels, one symbol stream per transmitter and
the receiver noise from generators keyed by (master seed, run index,
purpose, stream index), so the full result set is a pure function of the
configuration and runs can be spread across processes without changing a
single bit of the output.

The unit of work is the run slice (`_slice`): the consecutive runs that
`_slices` states, which go through every per-run stage in turn before the
next slice is drawn:
- the draw (`_draw`): the slice's runs draw their grids, symbols, noise
  variances and noise generators, and one `channel.apply_mimo` call filters
  them all with one `mimo_convolve` call, then adds each run's noise from
  its own generator.  One run's data is the one-run case of the same draw,
  `_draw(config, run, run + 1)`, bit for bit;
- the batched QLMS kernel, one lane per (run, transmitted stream) pair: the
  run's received streams against that stream's int8 symbol indices into
  the scaled constellation.  Its results are reshaped once to the
  (run, stream) grid, which every later stage keeps;
- the post-adaptation stage (`_post_adaptation`): the SER stage filters
  each run once for all its S lanes with their final weights, as the
  S-output grid of `channel.mimo_convolve`, whose C body reads the received
  time slice in place; in SISO, the block Wiener baseline solves the
  slice's sane runs and scores its optimum from the same statistics and the
  mode's one reference power (`wiener.statistics_mse`), so the block is not
  filtered a second time and no reference array outlives the statistics.
A slice keeps only its runs' traces and per-run figures.  A lane's bits do
not depend on its slice.
`_MODES` holds everything that differs between the modes.

Learning curves are the per-run error traces converted to dB relative to
the reference power (`wiener.floored_db`, floored at -100 dB) and averaged
pointwise across the runs that stayed sane; diverged runs are excluded from
every average but counted and reported.  The per-run QLMS figure takes the
same rule.

The result holds no traces: the process that runs `run_experiment` takes the
slices in run order, in-process or from a process pool (`_run_slices`), folds
each slice's traces into the curves as it arrives and frees them
(`_fold_curves`).  The process pool itself is imported only by a run that
uses one (`ProcessPoolExecutor`).
"""

import itertools
import os
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from . import kernels, modem, wiener
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

# most received samples (runs x rx x N) per run slice, that of a 64-run 2x2 MIMO
# experiment of 5000 symbols: runs so long that fewer than a lane group's runs
# fit are taken fewer at a time (a lane's bits do not depend on its slice, so
# the cap never changes the output)
_SLICE_SAMPLES = 64 * 2 * 5000

# lanes per run slice, which is one kernel batch: the kernel advances lanes in
# groups of `kernels.LANES`, so a slice of that many lanes fills one group; see `_slices`
_GROUP_LANES = kernels.LANES

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
    """The mode's stream power, which every symbol of its table (`_symbol_table`) has."""
    scale = _MODES[config.mode].stream_scale
    return SYMBOL_ENERGY * scale * scale


def _symbol_table(config: ExperimentConfig) -> np.ndarray:
    """The mode's scaled constellation: the draw's symbols and the kernel's references are its rows."""
    return _MODES[config.mode].stream_scale * modem.CONSTELLATION


def _fold_curves(config: ExperimentConfig, part: dict, totals: list) -> dict:
    """Add one slice's live dB rows to each stream's running sum `totals[s]` (None
    before its first live row), from the (runs, streams, N) "traces" and the
    (runs, streams) "diverged_at" of its results `part`, and give back the rest of
    `part`: the traces are popped, so they are freed once folded.

    Folded over the slices in run order, the sum is the one `.mean(axis=0)` of
    the live runs' dB rows takes, bit for bit.
    """
    traces, alive = part.pop("traces"), part["diverged_at"] < 0
    for s in range(len(totals)):
        for row in wiener.floored_db(traces[:, s, config.delay :][alive[:, s]], _reference_power(config)):
            totals[s] = row.copy() if totals[s] is None else np.add(totals[s], row, out=totals[s])
    return part


def _curve(config: ExperimentConfig, total: np.ndarray | None, diverged_at: np.ndarray, stream: int) -> LearningCurve:
    """The learning curve of one transmitted stream from its folded dB sum and its
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
    curve_db = total / np.count_nonzero(alive)
    tail = max(1, curve_db.shape[0] // 10)  # the steady state is the mean of the last 10%
    return LearningCurve(curve_db, float(curve_db[-tail:].mean()), int((~alive).sum()))


def _equalizer_decisions(received: np.ndarray, weights: np.ndarray, start: int) -> np.ndarray:
    """Hard decisions on the equalizer output at t in [start, N) of every lane of G
    runs: (G, C, N, 4) received streams and (G, S, C*L, 4) stacked weights
    [stream 0 lags, stream 1 lags, ...] give (G, S, N - start) symbol indices.

    A run's S lanes are its S-output grid, so `mimo_convolve` filters the run
    once for all of them, reading the received time slice in place.  A lane's
    last update can leave finite weights too large to filter with; the QLMS
    kernel never filters with its final weights, so the freeze rule cannot
    catch them, but the C FIR raises no warning on the inf or NaN outputs and
    the hard decisions on them are well defined.
    """
    runs, streams = received.shape[:2]
    lanes, length = weights.shape[1], weights.shape[2] // streams
    # the output from `start` on needs only the L-1 samples before it
    history = max(start - (length - 1), 0)
    output = mimo_convolve(received[..., history:, :], weights.reshape(runs, lanes, streams, length, 4))
    return modem.hard_decisions(output[..., start - history :, :])


def _slices(config: ExperimentConfig) -> list[tuple[int, int]]:
    """The [start, stop) bounds of the run slices (`_slice`), in run order: consecutive
    slices of max(1, min(_GROUP_LANES // S, _SLICE_SAMPLES // (rx * N))) runs for S
    transmit and rx receive streams of N symbols, the last one possibly shorter.

    A slice is large enough to spread the per-call cost of the draw, the kernel and
    the post-adaptation stage over several runs, and small enough that its received
    streams and the stages' temporaries, not the number of runs, set the memory peak.
    """
    num_rx, num_tx = _MODES[config.mode].layout(config)
    size = max(1, min(_GROUP_LANES // num_tx, _SLICE_SAMPLES // (num_rx * config.symbols_per_run)))
    return [(start, min(start + size, config.num_runs)) for start in range(0, config.num_runs, size)]


def _post_adaptation(config: ExperimentConfig, received: np.ndarray, indices: np.ndarray, symbols: np.ndarray,
                     weights: np.ndarray, alive: np.ndarray) -> dict:
    """SER decisions from each lane's final weights and, in a mode with the Wiener stage
    (SISO, where a run is one lane), its block Wiener dB, for the lanes that stayed sane.

    On the (run, stream) grid of R runs and S streams, lane (r, s) equalizes run r
    of the (R, rx, N, 4) `received` with its final weights `weights[r, s]`
    (R, S, C*L, 4) against the symbol indices `indices[r, s]` (R, S, N) into
    `symbols`; `alive` (R, S) marks the sane lanes, and the results are (R, S).
    Decisions are scored over the iterations t in [max(N//2, delay), N), the
    last half of the run where it has a delayed reference.  `_adapted` hands it
    its whole run slice, and both stages take every run of it: a diverged
    lane then scores 0 errors in 0 decisions, and the Wiener stage's one
    `sane` mask solves neither it nor a run whose sample statistics overflow,
    so both keep a NaN figure.  Under the kernel's freeze rule a diverged
    lane's final weights are finite, so filtering with them is well defined.
    """
    n, delay = indices.shape[2], config.delay
    start = max(n // 2, delay)
    decided = _equalizer_decisions(received, weights, start)
    errors = np.count_nonzero(decided != indices[:, :, start - delay : n - delay], axis=2)
    errors[~alive] = 0
    wiener_db = np.full(alive.shape, np.nan)
    if _MODES[config.mode].with_wiener:
        # noise near the top of the float range overflows the sample moments
        with np.errstate(over="ignore", invalid="ignore"):
            problem = wiener.estimate_statistics(received, symbols[indices[:, 0]], config.equalizer_length, delay)
            ridge = wiener.default_ridge(problem)
        r, p = problem.autocorrelation, problem.cross_correlation
        finite = np.isfinite(ridge) & np.isfinite(r).all(axis=(1, 2, 3)) & np.isfinite(p).all(axis=(1, 2))
        sane = alive[:, 0] & finite
        if not sane.all():
            problem = wiener.WienerProblem(r[sane], p[sane], problem.sample_count)
            ridge = ridge[sane]
        optimum = wiener.solve_wiener(problem, ridge)
        wiener_db[sane, 0] = wiener.statistics_mse(problem, optimum, _reference_power(config)).db
    return {"errors": errors, "decisions": np.where(alive, n - start, 0), "wiener_db": wiener_db}


def _draw(config: ExperimentConfig, start: int, stop: int):
    """Runs [start, stop): their received streams (R, rx, N, 4), the array of one
    `apply_mimo` call, and int8 symbol indices (R, tx, N), for the (rx, tx) layout
    of the mode.

    Each run draws its grid, symbols and noise from its own
    (master_seed, run, purpose, stream) generators, so its data do not depend
    on the runs drawn with it.
    """
    mode = _MODES[config.mode]
    num_rx, num_tx = mode.layout(config)
    runs, n, seed = range(start, stop), config.symbols_per_run, config.master_seed
    stream_power = _reference_power(config)
    grids = [
        random_mimo_grid(derive_rng(seed, run, _PURPOSE_CHANNEL, 0), num_rx, num_tx, config.num_channel_taps,
                         config.normalize_channel)
        for run in runs
    ]  # fmt: skip
    indices = np.empty((len(runs), num_tx, n), dtype=np.int8)
    for k, run in enumerate(runs):
        for s in range(num_tx):
            indices[k, s] = derive_rng(seed, run, _PURPOSE_SYMBOLS, s).integers(0, modem.NUM_SYMBOLS, n)
    if config.snr_reference_point == SNR_REF_RECEIVER:
        powers = [expected_output_power(grid, stream_power) / num_rx for grid in grids]
    else:
        powers = [stream_power] * len(runs)
    variances = [noise_variance_for_snr(power, config.snr_db) for power in powers]
    rngs = [derive_rng(seed, run, _PURPOSE_NOISE, 0) for run in runs]
    return apply_mimo(grids, _symbol_table(config)[indices], variances, rngs), indices


def _adapted(config: ExperimentConfig, received: np.ndarray, indices: np.ndarray) -> dict:
    """The runs of one draw (`_draw`) adapted and scored: every result array indexed
    (run, stream, ...).

    The kernel and the post-adaptation stage read the received streams and int8
    symbol indices in place, with each lane's references looked up in the scaled
    constellation.  Only the per-run results outlive the call.
    """
    n = config.symbols_per_run
    symbols = _symbol_table(config)
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


def _slice(config: ExperimentConfig, start: int, stop: int) -> dict:
    """Runs [start, stop) drawn, adapted and scored: every result array indexed (run, stream, ...)."""
    return _adapted(config, *_draw(config, start, stop))


def __getattr__(name: str):
    """`ProcessPoolExecutor`, imported on first use: it pulls in `multiprocessing`,
    which a run without a pool never needs.  The binding stays replaceable by name.
    """
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    return globals().setdefault(name, ProcessPoolExecutor)


def _run_slices(config: ExperimentConfig, workers: int) -> Iterator[dict]:
    """Every run slice's results (`_slice`), in run order: in this process, or from
    a pool of up to `workers` processes when more than one can be used.

    In this process each slice's draw is freed only once the next slice's draw
    is made.  glibc then reuses the freed pages for the next slice; freed first,
    they would leave the heap top empty, and glibc would trim it and fault the
    pages in again for every slice.
    """
    bounds = _slices(config)
    pool_size = min(workers, os.cpu_count() or 1, len(bounds))
    if pool_size <= 1:
        draws = (_draw(config, start, stop) for start, stop in bounds)
        yield from (_adapted(config, *draw) for draw in draws)  # `draw` is rebound after the next draw
        return
    # a replaced binding, or else the pool class, imported on first use
    with __getattr__("ProcessPoolExecutor")(max_workers=pool_size) as pool:
        yield from pool.map(_slice, itertools.repeat(config), *zip(*bounds))


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Monte Carlo equalization (SISO) or rx-by-tx separation (MIMO).

    Each transmitted stream gets its own stacked-regressor equalizer spanning
    all receive streams (weight length rx * equalizer_length).  Curves and
    SER are reported per transmitted stream, the SER from the hard decisions
    of each surviving run's final weights; SISO adds the block Wiener
    baseline on the same data.
    """
    config.validate()
    totals = [None] * _MODES[config.mode].layout(config)[1]
    per_run = [_fold_curves(config, part, totals) for part in _run_slices(config, workers)]
    merged = {name: np.concatenate([part[name] for part in per_run]) for name in per_run[0]}
    diverged_at, wiener_db = merged["diverged_at"], merged["wiener_db"]
    alive = diverged_at < 0
    # raises unless each stream has a live run; dead lanes score 0 errors in 0 decisions
    curves = tuple(_curve(config, total, diverged_at[:, s], s) for s, total in enumerate(totals))
    rates = merged["errors"].sum(axis=0) / merged["decisions"].sum(axis=0)
    wiener_mse_db = None
    if _MODES[config.mode].with_wiener:
        wiener_mse_db = float(10.0 * np.log10((10.0 ** (wiener_db[alive] / 10.0)).mean()))
    return ExperimentResult(
        curves=curves,
        symbol_error_rates=tuple(rates.tolist()),
        runs_diverged=int((~alive).any(axis=1).sum()),
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
