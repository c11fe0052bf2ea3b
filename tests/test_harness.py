"""Tests for the Monte Carlo experiment harness."""

import dataclasses
import itertools
import os
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from quatlink import adaptive, channel, harness, kernels, linalg, modem, quat, wiener
from quatlink.errors import ExperimentFailedError
from quatlink.harness import ExperimentConfig, convergence_iteration, summarize

from oracles import apply_one_run

SMALL = ExperimentConfig(num_runs=6, symbols_per_run=600, master_seed=11)


def small(**overrides):
    return dataclasses.replace(SMALL, **overrides)


def assert_same_result(a, b):
    """Every field of two ExperimentResults equal, bit for bit."""
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if field.name == "curves":
            for ca, cb in zip(x, y, strict=True):
                assert np.array_equal(ca.mse_per_iteration, cb.mse_per_iteration)
                assert (ca.steady_state_db, ca.runs_diverged) == (cb.steady_state_db, cb.runs_diverged)
        elif isinstance(x, np.ndarray):
            assert np.array_equal(x, y, equal_nan=True), field.name
        else:
            assert x == y, field.name


def run_traces(config, workers=1):
    """Every run's (runs, streams, N) squared-error traces, joined from the run slices
    that `run_experiment` folds into its curves."""
    return np.concatenate([part["traces"] for part in harness._run_slices(config, workers)])


def folded_curve(config, traces, diverged_at, stream):
    """The curve that `run_experiment` builds for one stream's (runs, N) traces,
    folded as one slice."""
    totals = [None]
    harness._fold_curves(config, {"traces": traces[:, None], "diverged_at": diverged_at[:, None]}, totals)
    return harness._curve(config, totals[0], diverged_at, stream)


def run_channel(config, run):
    """One run's received streams, rebuilt from its own (master_seed, run, purpose,
    stream) generators and sent through `channel.apply_mimo` alone."""
    num_rx, num_tx = (config.mimo_rx, config.mimo_tx) if config.mode == "mimo" else (1, 1)
    scale = harness._MODES[config.mode].stream_scale
    seed, n = config.master_seed, config.symbols_per_run
    grid = channel.random_mimo_grid(channel.derive_rng(seed, run, 0, 0), num_rx, num_tx, config.num_channel_taps)
    sent = [channel.derive_rng(seed, run, 1, s).integers(0, modem.NUM_SYMBOLS, n) for s in range(num_tx)]
    stream_power = channel.SYMBOL_ENERGY * scale * scale
    if config.snr_reference_point == "receiver":
        power = channel.expected_output_power(grid, stream_power) / num_rx
    else:
        power = stream_power
    variance = channel.noise_variance_for_snr(power, config.snr_db)
    streams = scale * modem.index_to_symbol(np.stack(sent))
    return apply_one_run(grid, streams, variance, channel.derive_rng(seed, run, 2, 0))


class TestConfigValidation:
    def test_defaults_are_valid(self):
        ExperimentConfig().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("mode", "duplex"),
            ("snr_reference_point", "midpoint"),
            ("num_channel_taps", 0),
            ("equalizer_length", 0),
            ("num_runs", 0),
            ("symbols_per_run", 0),
            ("step_size", 0.0),
            ("step_size", -0.1),
            ("step_size", np.inf),
            ("delay", -1),
            ("mimo_tx", 0),
            ("mimo_rx", 0),
        ],
    )
    def test_bad_values_name_the_field(self, field, value):
        config = dataclasses.replace(SMALL, **{field: value})
        with pytest.raises(ValueError, match=field):
            config.validate()

    @pytest.mark.parametrize("field", ["num_runs", "symbols_per_run", "equalizer_length", "delay", "master_seed"])
    def test_non_integer_counts_name_the_field(self, field):
        with pytest.raises(ValueError, match=f"{field}: must be an integer"):
            small(**{field: 2.5}).validate()

    @pytest.mark.parametrize(
        "field,value,kind",
        [
            ("num_runs", True, "an integer"),
            ("master_seed", False, "an integer"),
            ("step_size", True, "a number"),
            ("snr_db", "20", "a number"),
            ("snr_db", None, "a number"),
            ("normalize_channel", "off", "a bool"),
            ("normalize_channel", 1, "a bool"),
        ],
    )
    def test_wrong_types_name_the_field(self, field, value, kind):
        """A value the config echo could not write back for --config to read is
        rejected, not run: a bool is no count and no number, text is no number,
        and only a bool switches normalization."""
        with pytest.raises(ValueError, match=f"{field}: must be {kind}"):
            small(**{field: value}).validate()

    def test_numpy_integer_counts_accepted(self):
        small(num_runs=np.int64(2), symbols_per_run=np.int32(100), delay=np.int8(3)).validate()

    def test_delay_must_fit_in_run(self):
        with pytest.raises(ValueError, match="delay"):
            small(delay=600).validate()

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            harness.run_mimo_experiment(small())
        with pytest.raises(ValueError, match="mode"):
            harness.run_siso_experiment(small(mode="mimo"))


class TestSisoExperiment:
    def test_deterministic_given_config(self):
        a = harness.run_siso_experiment(small())
        b = harness.run_siso_experiment(small())
        assert np.array_equal(a.curve.mse_per_iteration, b.curve.mse_per_iteration)
        assert a.curve.steady_state_db == b.curve.steady_state_db
        assert a.wiener_mse_db == b.wiener_mse_db
        assert a.symbol_error_rate == b.symbol_error_rate
        assert np.array_equal(run_traces(small()), run_traces(small()), equal_nan=True)

    def test_different_seeds_differ(self):
        a = harness.run_siso_experiment(small())
        b = harness.run_siso_experiment(small(master_seed=12))
        assert not np.array_equal(a.curve.mse_per_iteration, b.curve.mse_per_iteration)

    def test_curve_length_drops_warmup(self):
        result = harness.run_siso_experiment(small())
        assert result.curve.mse_per_iteration.shape == (SMALL.symbols_per_run - SMALL.delay,)

    def test_monotone_snr_response(self):
        low = harness.run_siso_experiment(small(snr_db=10.0))
        high = harness.run_siso_experiment(small(snr_db=30.0))
        assert high.curve.steady_state_db < low.curve.steady_state_db

    def test_noiseless_single_tap_converges_hard(self):
        config = small(num_channel_taps=1, snr_db=np.inf, num_runs=3, symbols_per_run=1500)
        result = harness.run_siso_experiment(config)
        assert result.curve.steady_state_db <= -40.0
        assert result.symbol_error_rate == 0.0

    def test_per_run_qlms_db_is_floored(self):
        """A perfect QLMS fit reads the -100 dB floor, as its Wiener optimum does, so the
        per-run gap between the two is 0 dB and not the ~200 dB of an unfloored figure."""
        config = small(num_channel_taps=1, snr_db=np.inf, step_size=0.03, num_runs=2, symbols_per_run=5000,
                       master_seed=0)
        result = harness.run_siso_experiment(config)
        assert np.array_equal(result.per_run_wiener_db, np.full((2, 1), wiener.DB_FLOOR))
        assert np.array_equal(result.per_run_qlms_db, np.full((2, 1), wiener.DB_FLOOR))

    def test_averaging_reduces_variance(self):
        """The averaged trace fluctuates less than a typical single run."""
        config = small(num_runs=16, symbols_per_run=1000)
        floor = harness._reference_power(config) * 10.0 ** (wiener.DB_FLOOR / 10.0)
        per_run_db = 10 * np.log10(np.maximum(run_traces(config)[:, 0, config.delay :], floor) / 4.0)
        steady = per_run_db[:, 500:]
        averaged = steady.mean(axis=0)
        assert averaged.var() < steady.var(axis=1).mean()

    def test_wiener_db_matches_evaluate_mse(self):
        """Each run's Wiener dB, scored from its statistics, equals filtering the run again."""
        config = small(num_runs=5)
        result = harness.run_siso_experiment(config)
        for run in range(config.num_runs):
            received, indices = harness._draw(config, run, run + 1)
            received, streams = received[0], modem.index_to_symbol(indices[0])
            length, delay = config.equalizer_length, config.delay
            optimal = wiener.solve_wiener(wiener.estimate_statistics(received, streams[0], length, delay))
            report = wiener.evaluate_mse(optimal, received, streams[0], length, delay)
            assert abs(result.per_run_wiener_db[run, 0] - report.db) <= 1e-9

    def test_wiener_dominates_every_run(self):
        result = harness.run_siso_experiment(small(num_runs=12))
        alive = np.isfinite(result.per_run_qlms_db)
        assert (result.per_run_wiener_db[alive] <= result.per_run_qlms_db[alive] + 0.5).all()

    def test_high_snr_ser_is_tiny(self):
        result = harness.run_siso_experiment(small(snr_db=40.0, num_runs=4))
        assert result.symbol_error_rate < 0.01

    def test_all_runs_diverged_raises(self):
        config = small(step_size=50.0, num_runs=2, symbols_per_run=150)
        with pytest.raises(ExperimentFailedError):
            harness.run_siso_experiment(config)

    @pytest.mark.parametrize("reference_point", ["receiver", "transmitter"])
    def test_draw_is_the_single_channel_draw(self, reference_point):
        """The 1x1 draw reproduces, bit for bit, one tap vector, one stream and calibrated noise."""
        config = small(snr_reference_point=reference_point)
        received, indices = harness._draw(config, 3, 4)
        received, indices = received[0], indices[0]
        streams = harness._MODES[config.mode].stream_scale * modem.index_to_symbol(indices)
        taps = channel.random_channel_taps(channel.derive_rng(11, 3, 0, 0), config.num_channel_taps)
        sent = channel.derive_rng(11, 3, 1, 0).integers(0, modem.NUM_SYMBOLS, config.symbols_per_run)
        symbols = modem.index_to_symbol(sent)
        power = channel.expected_output_power(taps) if reference_point == "receiver" else channel.SYMBOL_ENERGY
        variance = channel.noise_variance_for_snr(power, config.snr_db)
        noise = channel.gaussian_quaternions(channel.derive_rng(11, 3, 2, 0), variance, config.symbols_per_run)
        assert np.array_equal(indices, sent[None])
        assert np.array_equal(streams, symbols[None])
        assert np.array_equal(received, (channel.convolve(symbols, taps) + noise)[None])

    def test_transmitter_reference_point_runs(self):
        result = harness.run_siso_experiment(small(snr_reference_point="transmitter", num_runs=3))
        assert np.isfinite(result.curve.steady_state_db)


class TestWorkersAndChunking:
    def test_worker_count_does_not_change_results(self):
        config = small(num_runs=10, symbols_per_run=400)
        serial = harness.run_siso_experiment(config, workers=1)
        parallel = harness.run_siso_experiment(config, workers=2)
        assert np.array_equal(run_traces(config, 1), run_traces(config, 2), equal_nan=True)
        assert serial.curve.steady_state_db == parallel.curve.steady_state_db
        assert serial.symbol_error_rate == parallel.symbol_error_rate

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        """Every result array is the same for any cap on a slice's received samples and
        any worker count, in both modes: one run, four runs and the default cap per slice."""
        for mode, rx in (("siso", 1), ("mimo", 2)):
            config = small(mode=mode, num_runs=9, symbols_per_run=300)
            whole = harness.run_experiment(config)
            caps = (1, 4 * rx * config.symbols_per_run, harness._SLICE_SAMPLES)
            for cap, workers in itertools.product(caps, (1, 2)):
                with monkeypatch.context() as patch:
                    patch.setattr(harness, "_SLICE_SAMPLES", cap)
                    sliced = harness.run_experiment(config, workers)
                assert_same_result(whole, sliced)

    def test_slice_lanes_fill_one_kernel_lane_group(self):
        """A full slice is one lane group of the compiled kernels, whose width `kernels`
        reads from the C source: a slice of fewer lanes costs the kernel as much."""
        assert harness._GROUP_LANES == kernels.LANES

    def test_slice_size_does_not_change_results(self, monkeypatch):
        """Every result array is the same for any run slicing, in both modes.
        `_GROUP_LANES` sets the slices that are drawn, adapted and scored in turn, so it
        sets the kernel's batches too.

        The diverging configs put dead lanes in all-dead, mixed and all-live
        slices: SISO runs 1-5 and MIMO runs 1, 2, 4 and 8 diverge."""
        base = dict(num_runs=9, symbols_per_run=300)
        diverging = dict(base, normalize_channel=False)
        configs = (
            small(mode="siso", **base), small(mode="mimo", **base),
            small(mode="siso", step_size=0.04, **diverging), small(mode="mimo", step_size=0.14, **diverging),
        )  # fmt: skip
        for config in configs:
            results = []
            for group_lanes in (1, 3, 8):
                with monkeypatch.context() as patch:
                    patch.setattr(harness, "_GROUP_LANES", group_lanes)
                    results.append(harness.run_experiment(config))
            if not config.normalize_channel:
                assert 0 < results[0].runs_diverged < config.num_runs
            for result in results[1:]:
                assert_same_result(results[0], result)

    def test_slices_cover_the_runs_in_order(self):
        """Consecutive slices of 8 // S runs for S transmit streams (at least one), fewer
        when the slice would pass _SLICE_SAMPLES received samples (runs x rx x N), and one
        run each when a run alone passes it; only the last slice may be shorter."""
        cap = harness._SLICE_SAMPLES
        cases = (
            (dict(num_runs=200, symbols_per_run=5000), 8), (dict(mode="mimo", num_runs=200, symbols_per_run=5000), 4),
            (dict(num_runs=256, symbols_per_run=400), 8), (dict(num_runs=9), 8), (dict(num_runs=1), 8),
            (dict(mode="mimo", mimo_tx=3, num_runs=9), 2), (dict(mode="mimo", mimo_tx=9, mimo_rx=1, num_runs=3), 1),
            (dict(num_runs=7, symbols_per_run=cap // 3), 3), (dict(mode="mimo", num_runs=5, symbols_per_run=cap // 4), 2),
            (dict(num_runs=3, symbols_per_run=2 * cap), 1), (dict(mode="mimo", num_runs=3, symbols_per_run=cap), 1),
        )  # fmt: skip
        for overrides, size in cases:
            config = small(**overrides)
            bounds = harness._slices(config)
            assert [start for start, _ in bounds] == list(range(0, config.num_runs, size))
            assert [stop for _, stop in bounds] == [start for start, _ in bounds[1:]] + [config.num_runs]
            assert all(stop - start == size for start, stop in bounds[:-1]) and bounds[-1][1] - bounds[-1][0] <= size

    def test_pool_takes_one_slice_per_task(self, monkeypatch):
        """The pool binding stays replaceable by name: through a thread pool, each slice
        is one task, submitted in run order, and the result is that of one worker."""
        submitted = []

        class CountingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submitted.append(args[1:])
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        config = small(num_runs=30, symbols_per_run=200)
        assert_same_result(harness.run_experiment(config), harness.run_experiment(config, workers=2))
        assert submitted == harness._slices(config)

    def test_one_slice_runs_in_process(self, monkeypatch):
        """More workers than slices start no pool: a one-slice experiment at two workers
        runs in this process and gives the bits of one worker."""
        config = small(num_runs=5, symbols_per_run=300)
        serial = harness.run_experiment(config, workers=1)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", None)  # calling it would raise
        assert_same_result(serial, harness.run_experiment(config, workers=2))

    def test_workers_apply_to_mimo(self, monkeypatch):
        monkeypatch.setattr(harness, "_SLICE_SAMPLES", 2 * 2 * 300)  # two runs per slice
        config = small(mode="mimo", num_runs=4, symbols_per_run=300)
        serial = harness.run_mimo_experiment(config, workers=1)
        parallel = harness.run_mimo_experiment(config, workers=2)
        assert_same_result(serial, parallel)
        assert np.array_equal(run_traces(config, 1), run_traces(config, 2), equal_nan=True)


class TestDataGeneration:
    @pytest.mark.parametrize("snr_db", [20.0, np.inf])
    @pytest.mark.parametrize("reference_point", ["receiver", "transmitter"])
    @pytest.mark.parametrize("mode", ["siso", "mimo"])
    def test_chunk_data_are_the_one_run_draws(self, mode, reference_point, snr_db, monkeypatch):
        """The received samples and symbol indices each run slice hands the kernel equal
        each run's one-run draw bit for bit, with slices of two runs that start
        mid-experiment and a shorter last one; each run's received samples are
        `channel.apply_mimo` of its own grid, streams, noise variance and noise generator."""
        config = small(mode=mode, snr_reference_point=reference_point, snr_db=snr_db, num_runs=7, symbols_per_run=300)
        num_tx = config.mimo_tx if mode == "mimo" else 1
        monkeypatch.setattr(harness, "_GROUP_LANES", 2 * num_tx)
        seen = []
        kernel = harness.run_qlms_batch

        def recorded(received, lanes, *args):
            seen.append((received.copy(), lanes.copy()))
            return kernel(received, lanes, *args)

        monkeypatch.setattr(harness, "run_qlms_batch", recorded)
        assert harness._slices(config) == [(0, 2), (2, 4), (4, 6), (6, 7)]
        for start, stop in harness._slices(config):
            harness._slice(config, start, stop)
        received = np.concatenate([rx for rx, _ in seen])
        lanes = np.concatenate([lanes for _, lanes in seen]).reshape(config.num_runs, num_tx, -1)
        for run in range(config.num_runs):
            one_received, one_indices = harness._draw(config, run, run + 1)
            assert received[run].tobytes() == one_received[0].tobytes()
            assert np.array_equal(lanes[run], one_indices[0])
            assert received[run].tobytes() == run_channel(config, run).tobytes()

    def test_zero_noise_is_still_added(self, monkeypatch):
        """At an infinite SNR the zero noise is added all the same, so a -0.0 from
        the filter reads +0.0, as clean + zeros gives it."""
        config = small(snr_db=np.inf, num_runs=3)
        filtered = lambda signals, grid: np.full(grid.shape[:2] + signals.shape[-2:], -0.0)  # noqa: E731
        monkeypatch.setattr(channel, "mimo_convolve", filtered)
        received, _ = harness._draw(config, 0, config.num_runs)
        assert (received == 0.0).all() and not np.signbit(received).any()


def traced_peak(config):
    """The traced peak of `run_experiment(config)` at one worker, after an untraced warm-up run."""
    harness.run_experiment(config)
    tracemalloc.start()
    try:
        harness.run_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestChunkMemory:
    """Whole experiments, taken one run slice at a time: each slice is adapted and
    scored before the next is drawn, its draw is freed once the next draw is made,
    and only its per-run results are kept."""

    @pytest.mark.parametrize("mode,runs,n", [("siso", 64, 5000), ("mimo", 32, 4000)])
    def test_chunk_never_holds_its_received_batch(self, mode, runs, n):
        """An experiment's traced peak stays below the bytes of its received streams."""
        config = small(mode=mode, num_runs=runs, symbols_per_run=n)
        rx = config.mimo_rx if mode == "mimo" else 1
        assert traced_peak(config) < config.num_runs * rx * config.symbols_per_run * 4 * 8

    def test_chunk_holds_its_data_once(self):
        """A MIMO experiment's traced peak stays within 4x one slice's received streams,
        the previous slice's among them while the next is drawn: no per-stream copy
        of a slice and no float copy of its references."""
        config = small(mode="mimo", num_runs=32, symbols_per_run=4000)
        slice_runs = harness._GROUP_LANES // config.mimo_tx
        assert traced_peak(config) <= 4 * slice_runs * config.mimo_rx * config.symbols_per_run * 4 * 8

    def test_wide_siso_chunk_stays_small(self):
        """A 256-run SISO experiment of short runs peaks within 2.5x its received streams."""
        config = small(num_runs=256, symbols_per_run=400)
        assert traced_peak(config) <= 2.5 * config.num_runs * config.symbols_per_run * 4 * 8


class TestAssemblyMemory:
    @pytest.mark.parametrize("mode,runs,diverging", [
        ("siso", 160, False), ("siso", 160, True), ("mimo", 80, False), ("mimo", 80, True),
    ])  # fmt: skip
    def test_assembly_folds_and_frees_each_chunk(self, mode, runs, diverging, monkeypatch):
        """Each run slice's traces are folded and released before the next slice is
        drawn, and its draw once the next draw is made, so a whole experiment's traced
        peak exceeds that of a two-slice experiment by less than a quarter of its
        traces, also when runs diverge; the parts that grow with the runs are the
        per-run figures.  Every curve equals `.mean(axis=0)` of the live runs' dB rows
        of the joined traces, bit for bit."""
        config = small(mode=mode, num_runs=runs, symbols_per_run=1000)
        if diverging:
            config = dataclasses.replace(config, step_size=0.04 if mode == "siso" else 0.14, normalize_channel=False)
        streams = config.mimo_tx if mode == "mimo" else 1
        parts = list(harness._run_slices(config, 1))
        traces = np.concatenate([part["traces"] for part in parts])
        diverged_at = np.concatenate([part["diverged_at"] for part in parts])
        assert (0 < (diverged_at >= 0).sum(axis=0)).all() == diverging
        two_slices = traced_peak(dataclasses.replace(config, num_runs=2 * harness._GROUP_LANES // streams))
        assert traced_peak(config) < two_slices + traces.nbytes / 4

        trace_refs, draw_refs, adapted, draw = [], [], harness._adapted, harness._draw

        def watched_adapted(config, received, indices):
            assert all(ref() is None for ref in draw_refs), "an earlier slice's draw outlived the next draw"
            draw_refs.append(weakref.ref(received))
            part = adapted(config, received, indices)
            trace_refs.append(weakref.ref(part["traces"]))
            return part

        def checked_draw(config, start, stop):
            assert all(ref() is None for ref in trace_refs), "a slice's traces outlived its fold"
            return draw(config, start, stop)

        monkeypatch.setattr(harness, "_adapted", watched_adapted)
        monkeypatch.setattr(harness, "_draw", checked_draw)
        result = harness.run_experiment(config)
        assert len(trace_refs) == len(harness._slices(config)) and all(ref() is None for ref in trace_refs)
        for stream, curve in enumerate(result.curves):
            alive = diverged_at[:, stream] < 0
            db = wiener.floored_db(traces[:, stream, config.delay :], harness._reference_power(config))
            assert np.array_equal(curve.mse_per_iteration, db[alive].mean(axis=0))
            assert curve.runs_diverged == (~alive).sum()


class TestMimoExperiment:
    def test_shapes_and_determinism(self):
        for mode, streams in (("mimo", 2), ("siso", 1)):
            config = small(mode=mode, num_runs=4, symbols_per_run=500)
            a = harness.run_experiment(config)
            b = harness.run_experiment(config)
            assert len(a.curves) == streams == len(a.symbol_error_rates)
            for ca, cb in zip(a.curves, b.curves):
                assert np.array_equal(ca.mse_per_iteration, cb.mse_per_iteration)
            assert a.symbol_error_rates == b.symbol_error_rates
            traces = run_traces(config)
            assert traces.shape == (4, streams, 500)
            assert np.array_equal(traces, run_traces(config), equal_nan=True)
            assert a.per_run_qlms_db.shape == a.per_run_wiener_db.shape == (4, streams)
            assert np.isfinite(a.per_run_qlms_db).all()
            assert np.isfinite(a.per_run_wiener_db).all() == (mode == "siso")
            assert (a.wiener_mse_db is None) == (mode == "mimo")

    def test_streams_have_unit_power(self):
        _, indices = harness._draw(small(mode="mimo"), 0, 1)
        streams = harness._MODES["mimo"].stream_scale * modem.index_to_symbol(indices[0])
        assert np.allclose(quat.norm_sq(streams), 1.0)

    def test_swap_symmetry(self):
        """Swapping transmit streams and grid columns swaps the lane results."""
        rng = channel.make_rng(13)
        grid = channel.random_mimo_grid(rng, 2, 2, 3)
        streams = harness.MIMO_STREAM_SCALE * modem.index_to_symbol(rng.integers(0, 16, (2, 400)))
        noise_rng = channel.make_rng(14)
        received = apply_one_run(grid, streams, 0.002, noise_rng)

        swapped_grid = grid[:, ::-1]
        swapped_streams = streams[::-1]
        received_swapped = apply_one_run(swapped_grid, swapped_streams, 0.002, channel.make_rng(14))
        assert np.array_equal(received, received_swapped)

        # one run whose lane k is driven by stream k, each sample its own table row
        indices = np.arange(2 * 400).reshape(2, 400)
        lanes = adaptive.run_qlms_batch(received[None], indices, streams.reshape(-1, 4), 5, 0.01, 2)
        lanes_swapped = adaptive.run_qlms_batch(
            received_swapped[None], indices, swapped_streams.reshape(-1, 4), 5, 0.01, 2
        )
        assert np.array_equal(lanes.traces[0, 2:], lanes_swapped.traces[1, 2:])
        assert np.array_equal(lanes.traces[1, 2:], lanes_swapped.traces[0, 2:])

    def test_decoupled_identity_channels_converge(self):
        """Diagonal single-tap grid with no noise: both streams go below -40 dB."""
        rng = channel.make_rng(15)
        streams = modem.index_to_symbol(rng.integers(0, 16, (2, 2500))).astype(float)
        grid = np.zeros((2, 2, 1, 4))
        grid[0, 0, 0] = quat.ONE
        grid[1, 1, 0] = quat.ONE
        received = apply_one_run(grid, streams, 0.0, rng)
        indices = np.arange(2 * 2500).reshape(2, 2500)
        lanes = adaptive.run_qlms_batch(received[None], indices, streams.reshape(-1, 4), 2, 0.02)
        for s in range(2):
            tail_db = 10 * np.log10(max(lanes.traces[s, -250:].mean(), 1e-30) / 4.0)
            assert tail_db <= -40.0


class TestSummaries:
    def test_flat_curve_converges_at_zero(self):
        curve = np.full(200, -7.5)
        assert convergence_iteration(curve, -7.5) == 0

    def test_monotone_curve_matches_naive_scan(self):
        curve = np.linspace(0.0, -12.0, 400)
        steady = float(curve[-40:].mean())
        window = harness.SMOOTHING_WINDOW
        expected = next(
            n
            for n in range(curve.size)
            if curve[max(0, n - window + 1) : n + 1].mean() <= steady + 1.0
        )
        assert convergence_iteration(curve, steady) == expected

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            convergence_iteration(np.array([]), 0.0)

    def test_summarize_siso(self):
        result = harness.run_siso_experiment(small(num_runs=3))
        (record,) = summarize(result)
        assert record.steady_state_db == result.curve.steady_state_db
        assert record.wiener_mse_db == result.wiener_mse_db
        assert record.runs_diverged == 0
        assert 0 <= record.convergence_iteration < result.curve.mse_per_iteration.size

    def test_summarize_mimo_per_stream(self):
        result = harness.run_mimo_experiment(small(mode="mimo", num_runs=3, symbols_per_run=400))
        records = summarize(result)
        assert len(records) == 2
        assert all(r.wiener_mse_db is None for r in records)
        with pytest.raises(ValueError, match="2 streams"):
            result.curve

    def test_summarize_rejects_junk(self):
        with pytest.raises(ValueError):
            summarize(42)


class TestCurveAssembly:
    def test_diverged_runs_excluded_and_counted(self):
        traces = np.ones((4, 100))
        traces[2] = 1000.0  # pretend this run diverged; it must not pollute the curve
        diverged_at = np.array([-1, -1, 40, -1])
        curve = folded_curve(small(delay=10), traces, diverged_at, 0)
        assert curve.runs_diverged == 1
        assert np.allclose(curve.mse_per_iteration, 10 * np.log10(1.0 / 4.0))

    def test_all_dead_raises(self):
        message = "on stream 1; the first was run 1 of master_seed 11, at iteration 3"
        with pytest.raises(ExperimentFailedError, match=message):
            folded_curve(small(delay=0), np.ones((2, 10)), np.array([7, 3]), 1)

    @pytest.mark.parametrize("group_lanes", [8, 3])
    def test_curve_equals_the_whole_mean(self, group_lanes):
        """Folded as one slice, as slices of `group_lanes` runs or as three uneven ones, each
        stream's curve equals `.mean(axis=0)` of the live runs' dB rows bit for bit, for run
        counts the slice size does not divide, with dead runs in some slices and whole slices dead."""
        rng = np.random.default_rng(61)
        config = small(delay=5)
        for runs in (1, 7, 13, 29, 69):
            traces = 10.0 ** rng.uniform(-6.0, 1.0, (runs, 2, 393))
            diverged_at = np.where(rng.random((runs, 2)) < 0.3, 100, -1)
            diverged_at[0] = -1
            diverged_at[group_lanes : 2 * group_lanes] = 100  # the second slice dies whole
            traces[diverged_at >= 0, 100:] = np.nan
            for cuts in ((0, runs), (*range(0, runs, group_lanes), runs), (0, runs // 5, runs // 2, runs)):
                totals = [None, None]
                for start, stop in itertools.pairwise(cuts):
                    part = {"traces": traces[start:stop], "diverged_at": diverged_at[start:stop]}
                    harness._fold_curves(config, part, totals)
                for stream in (0, 1):
                    alive = diverged_at[:, stream] < 0
                    curve = harness._curve(config, totals[stream], diverged_at[:, stream], stream)
                    db = wiener.floored_db(traces[:, stream, config.delay :], 4.0)[alive]
                    assert np.array_equal(curve.mse_per_iteration, db.mean(axis=0))
                    assert curve.runs_diverged == (~alive).sum()

    def test_floor_applies(self):
        traces = np.zeros((1, 50))
        curve = folded_curve(small(delay=0), traces, np.array([-1]), 0)
        assert (curve.mse_per_iteration == wiener.DB_FLOOR).all()


def lag_matrix_decisions(received, weights, length, start):
    """Hard decisions at t >= start of one lane, its (C, N, 4) run against its (C*L, 4)
    weights, through materialized lag matrices."""
    output = linalg.dot_left(weights[None], adaptive.lag_matrix(received, length))
    return modem.hard_decisions(output)[start:]


class TestEqualizerDecisions:
    @pytest.mark.parametrize("streams,start", [(1, 150), (2, 150), (1, 5)])
    def test_match_lag_matrix_route(self, streams, start):
        """Decisions from the FIR equal those from materialized lag matrices, with one
        lane per run and with two lanes sharing each run's received streams."""
        rng = np.random.default_rng(98)
        runs, n, length = 4, 300, 15
        received = rng.normal(size=(runs, streams, n, 4))
        for lanes in (1, 2):
            weights = rng.normal(size=(runs, lanes, streams * length, 4))
            decided = harness._equalizer_decisions(received, weights, start)
            assert decided.shape == (runs, lanes, n - start)
            for run, lane in itertools.product(range(runs), range(lanes)):
                oracle = lag_matrix_decisions(received[run], weights[run, lane], length, start)
                assert np.array_equal(decided[run, lane], oracle)

    def test_received_slice_is_not_copied(self):
        """The SER stage filters the received time slice in place: four receive streams
        against one lane trace a peak under the slice's own size (the lane's output and
        the decisions' temporaries take about 60% of it), which a copy of the slice
        would exceed as soon as the output was allocated."""
        rng = np.random.default_rng(99)
        runs, n, length, start = 4, 4000, 15, 2000
        received = rng.normal(size=(runs, 4, n, 4))
        weights = rng.normal(size=(runs, 1, 4 * length, 4))
        slice_bytes = received[..., start - (length - 1) :, :].nbytes
        tracemalloc.start()
        try:
            harness._equalizer_decisions(received, weights, start)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < slice_bytes

    @pytest.mark.parametrize("group_lanes", [1, 4, 8])
    def test_dead_lanes_and_grouping(self, group_lanes, monkeypatch):
        """A diverged lane reports no errors and no decisions, whether its run lives on or froze
        whole on an inf sample; live lanes count as the per-lane route does, whatever
        `_GROUP_LANES` is, and nothing overflows on the way."""
        monkeypatch.setattr(harness, "_GROUP_LANES", group_lanes)
        config = small(mode="mimo", num_runs=3, symbols_per_run=80, equalizer_length=5, delay=3)
        rng = np.random.default_rng(7)
        runs, n, length, delay = 3, config.symbols_per_run, config.equalizer_length, config.delay
        received = rng.normal(size=(runs, 2, n, 4))
        received[2, 1, n - 4] = np.inf  # run 2 froze: both its lanes diverged
        indices = rng.integers(0, modem.NUM_SYMBOLS, size=(2 * runs, n)).astype(np.int8)
        weights = rng.normal(size=(2 * runs, 2 * length, 4))
        weights[1] = 1e308  # lane 1 of run 0 blew up: its products would overflow
        diverged_at = np.array([-1, 40, -1, -1, 12, 12])
        symbols = harness.MIMO_STREAM_SCALE * modem.CONSTELLATION
        grid = (runs, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stage = harness._post_adaptation(
                config, received, indices.reshape(grid + (n,)), symbols, weights.reshape(grid + weights.shape[1:]),
                (diverged_at < 0).reshape(grid),
            )
        stage = {name: value.reshape(-1) for name, value in stage.items()}
        start = n // 2
        for lane in range(2 * runs):
            if diverged_at[lane] >= 0:
                assert (stage["errors"][lane], stage["decisions"][lane]) == (0, 0)
                continue
            decided = lag_matrix_decisions(received[lane // 2], weights[lane], length, start)
            assert stage["errors"][lane] == np.count_nonzero(decided != indices[lane, start - delay : n - delay])
            assert stage["decisions"][lane] == n - start


class TestWienerStage:
    @pytest.mark.parametrize("group_lanes", [1, 4, 8])
    def test_live_runs_match_one_run_solves(self, group_lanes, monkeypatch):
        """The SISO Wiener stage runs beside the SER stage on the runs it is handed: a run that
        froze on an inf sample gets NaN, as does a live run whose sample moments overflow, and
        every other live run gets, bit for bit, the dB of its own one-run statistics, solve and
        score, whatever `_GROUP_LANES` is."""
        monkeypatch.setattr(harness, "_GROUP_LANES", group_lanes)
        config = small(num_runs=9, symbols_per_run=120, equalizer_length=5, delay=2)
        rng = np.random.default_rng(8)
        runs, n, length, delay = config.num_runs, config.symbols_per_run, config.equalizer_length, config.delay
        received = rng.normal(size=(runs, 1, n, 4))
        received[5, 0, n - 3] = np.inf  # run 5 froze
        received[7] *= 1e200  # run 7's squared samples overflow
        indices = rng.integers(0, modem.NUM_SYMBOLS, size=(runs, n)).astype(np.int8)
        diverged_at = np.full(runs, -1)
        diverged_at[5] = n - 3
        weights = rng.normal(size=(runs, length, 4))
        symbols = modem.CONSTELLATION
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stage = harness._post_adaptation(
                config, received, indices[:, None], symbols, weights[:, None], (diverged_at < 0)[:, None]
            )
        stage = {name: value.reshape(-1) for name, value in stage.items()}
        assert np.isnan(stage["wiener_db"][[5, 7]]).all()
        for run in np.setdiff1d(np.flatnonzero(diverged_at < 0), [7]):
            references = symbols[indices[run]]
            problem = wiener.estimate_statistics(received[run], references, length, delay)
            power = quat.norm_sq(references[: problem.sample_count]).mean(-1)
            expected = wiener.statistics_mse(problem, wiener.solve_wiener(problem), power).db
            assert stage["wiener_db"][run] == expected, run
