"""Tests for the QLMS adaptive equalizer."""

import warnings

import numpy as np
import pytest

from quatlink import adaptive, channel, modem, quat, wiener
from quatlink.errors import DimensionMismatchError, DivergenceError

from oracles import dot_left_loop, table_conj, table_mul

# samples per block of the batch kernel's sample window
BLOCK = adaptive._BLOCK


def random_symbols(seed, n):
    rng = channel.make_rng(seed)
    return modem.index_to_symbol(rng.integers(0, modem.NUM_SYMBOLS, n))


class TestStateAndPredict:
    def test_initial_state_is_zero(self):
        state = adaptive.initial_state(5, 0.1)
        assert np.array_equal(state.weights, np.zeros((5, 4)))
        assert state.length == 5

    def test_zero_weights_predict_zero(self):
        state = adaptive.initial_state(4, 0.1)
        rng = np.random.default_rng(60)
        assert np.array_equal(adaptive.predict(state, rng.normal(size=(4, 4))), np.zeros(4))

    def test_unit_impulse_weight_selects_newest_sample(self):
        weights = np.zeros((4, 4))
        weights[0] = quat.ONE
        state = adaptive.EqualizerState(weights, 0.1)
        regressor = np.random.default_rng(61).normal(size=(4, 4))
        assert np.allclose(adaptive.predict(state, regressor), regressor[0])

    def test_predict_matches_bruteforce(self):
        rng = np.random.default_rng(62)
        weights, regressor = rng.normal(size=(8, 4)), rng.normal(size=(8, 4))
        state = adaptive.EqualizerState(weights, 0.1)
        assert np.allclose(adaptive.predict(state, regressor), dot_left_loop(weights, regressor), atol=1e-13)

    def test_dimension_mismatch(self):
        state = adaptive.initial_state(4, 0.1)
        with pytest.raises(DimensionMismatchError):
            adaptive.predict(state, np.zeros((5, 4)))

    def test_error_and_cost(self):
        rng = np.random.default_rng(63)
        state = adaptive.EqualizerState(rng.normal(size=(3, 4)), 0.1)
        x = rng.normal(size=(3, 4))
        reference = adaptive.predict(state, x)
        assert np.allclose(adaptive.error(state, x, reference), np.zeros(4), atol=1e-15)
        zero = adaptive.initial_state(3, 0.1)
        r = quat.quat(1.0, -2.0, 0.5, 0.0)
        e = adaptive.error(zero, x, r)
        assert np.array_equal(e, r)
        assert quat.norm_sq(e) == quat.norm_sq(r)


class TestQlmsStep:
    def test_zero_error_is_fixed_point(self):
        rng = np.random.default_rng(64)
        state = adaptive.EqualizerState(rng.normal(size=(3, 4)), 0.5)
        x = rng.normal(size=(3, 4))
        new_state, e = adaptive.qlms_step(state, x, adaptive.predict(state, x))
        assert np.allclose(e, np.zeros(4), atol=1e-15)
        assert np.allclose(new_state.weights, state.weights, atol=1e-15)

    def test_hand_computed_update(self):
        """L=1, w=0, x=[i], r=j, mu=0.5: e=j and the new weight is 0.5*k."""
        state = adaptive.initial_state(1, 0.5)
        new_state, e = adaptive.qlms_step(state, quat.I[None], quat.J)
        assert np.array_equal(e, quat.J)
        assert np.array_equal(new_state.weights[0], 0.5 * np.array(quat.K))

    def test_real_inputs_collapse_to_classical_lms(self):
        """With purely real data the update must equal w += mu*e*x exactly."""
        rng = np.random.default_rng(65)
        mu, length, steps = 0.05, 6, 60
        x_stream = np.zeros((steps + length, 4))
        x_stream[:, 0] = rng.normal(size=steps + length)
        target_taps = rng.normal(size=length)

        weights_real = np.zeros(length)
        state = adaptive.initial_state(length, mu)
        for n in range(steps):
            regressor = x_stream[n : n + length][::-1].copy()
            reference_value = float(target_taps @ regressor[:, 0])
            reference = quat.quat(reference_value)
            # classical real LMS, accumulation order matched for exact comparison
            err = reference_value - (weights_real * regressor[:, 0]).sum()
            weights_real = weights_real + mu * (err * regressor[:, 0])
            state, _ = adaptive.qlms_step(state, regressor, reference)
            assert np.array_equal(state.weights[:, 0], weights_real)
            assert np.array_equal(state.weights[:, 1:], np.zeros((length, 3)))


class TestRunQlms:
    def test_trace_matches_stepwise_iteration(self):
        """run_qlms must agree exactly with iterating qlms_step by hand.

        Past the first case, the inputs sit on the edges of the kernel's
        sample window: lengths either side of a block boundary, a delay past
        the first block, a run shorter than the filter, and a filter longer
        than a block.
        """
        rng = np.random.default_rng(66)
        cases = [
            (50, 4, 0.02, 2),
            (BLOCK - 1, 4, 0.02, 2),
            (BLOCK, 4, 0.02, 2),
            (BLOCK + 1, 4, 0.02, 2),
            (600, 4, 0.02, 2),
            (600, 4, 0.02, BLOCK + 44),
            (3, 5, 0.02, 1),
            (2 * BLOCK + 100, BLOCK + 44, 0.0005, 3),
        ]
        for n, length, mu, delay in cases:
            signal = rng.normal(size=(n, 4))
            reference = rng.normal(size=(n, 4))
            final, trace = adaptive.run_qlms(signal, reference, length, mu, delay)

            padded = np.concatenate([np.zeros((length - 1, 4)), signal])
            state = adaptive.initial_state(length, mu)
            expected = np.full(n, np.nan)
            for t in range(delay, n):
                regressor = padded[t : t + length][::-1].copy()
                state, e = adaptive.qlms_step(state, regressor, reference[t - delay])
                expected[t] = quat.norm_sq(e)
            assert np.array_equal(trace[delay:], expected[delay:])
            assert np.isnan(trace[:delay]).all()
            assert np.allclose(final.weights, state.weights, atol=1e-15)

    def test_zero_step_size_keeps_trace_flat(self):
        symbols = random_symbols(1, 300)
        _, trace = adaptive.run_qlms(symbols, symbols, length=3, step_size=0.0, delay=0)
        assert np.allclose(trace, 4.0)

    def test_identity_channel_noiseless_convergence(self):
        """Error tail must drop at least 40 dB below the symbol energy."""
        symbols = random_symbols(2, 3000)
        _, trace = adaptive.run_qlms(symbols, symbols, length=1, step_size=0.05, delay=0)
        tail = trace[-300:].mean()
        assert 10 * np.log10(tail / 4.0) < -40.0

    def test_single_step_error_reduction(self):
        """For 0 < mu < 2/|x|^2 the post-update error on the same sample shrinks."""
        rng = np.random.default_rng(67)
        for _ in range(50):
            x = rng.normal(size=(1, 4))
            r = rng.normal(size=4)
            mu = rng.uniform(0.05, 1.95) / quat.norm_sq(x[0])
            state = adaptive.EqualizerState(rng.normal(size=(1, 4)), mu)
            before = quat.norm_sq(adaptive.error(state, x, r))
            if before == 0.0:
                continue
            updated, _ = adaptive.qlms_step(state, x, r)
            after = quat.norm_sq(adaptive.error(updated, x, r))
            assert after < before

    def test_shift_property(self):
        """Delaying signal and reference together shifts the trace unchanged."""
        rng = np.random.default_rng(68)
        n, shift, length, delay = 400, 9, 5, 3
        signal = rng.normal(size=(n, 4))
        reference = rng.normal(size=(n, 4))
        _, trace = adaptive.run_qlms(signal, reference, length, 0.02, delay)
        pad = np.zeros((shift, 4))
        _, shifted = adaptive.run_qlms(
            np.concatenate([pad, signal]), np.concatenate([pad, reference]), length, 0.02, delay
        )
        assert np.array_equal(shifted[shift + delay :], trace[delay:])

    def test_divergence_raises_with_partial_trace(self):
        symbols = random_symbols(3, 500)
        with pytest.raises(DivergenceError) as excinfo:
            adaptive.run_qlms(symbols, symbols, length=8, step_size=5.0, delay=0)
        err = excinfo.value
        assert err.iteration >= 0
        assert err.trace.shape == (err.iteration + 1,)
        assert np.isfinite(err.trace[:-1]).all()

    def test_reference_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            adaptive.run_qlms(np.zeros((10, 4)), np.zeros((9, 4)), 2, 0.1)


class TestBatchKernel:
    def test_single_run_equals_batch_lane(self):
        """A lane's result must not depend on the batch size, odd sizes included."""
        rng = np.random.default_rng(69)
        for lanes in (5, 7, 129):
            signals = rng.normal(size=(lanes, 80, 4))
            references = rng.normal(size=(lanes, 80, 4))
            batch = adaptive.run_qlms_batch(signals[:, None], references, 6, 0.02, 3)
            for lane in range(lanes):
                state, trace = adaptive.run_qlms(signals[lane], references[lane], 6, 0.02, 3)
                assert np.array_equal(trace[3:], batch.traces[lane, 3:])
                assert np.array_equal(state.weights, batch.weights[lane])

    def test_chunking_does_not_change_results(self):
        rng = np.random.default_rng(70)
        signals = rng.normal(size=(7, 60, 4))
        references = rng.normal(size=(7, 60, 4))
        whole = adaptive.run_qlms_batch(signals[:, None], references, 4, 0.03, 1)
        first = adaptive.run_qlms_batch(signals[:3, None], references[:3], 4, 0.03, 1)
        second = adaptive.run_qlms_batch(signals[3:, None], references[3:], 4, 0.03, 1)
        rejoined = np.concatenate([first.traces, second.traces])
        assert np.array_equal(whole.traces, rejoined, equal_nan=True)
        assert np.array_equal(whole.weights, np.concatenate([first.weights, second.weights]))

    def test_batch_divergence_freezes_lane(self):
        rng = np.random.default_rng(71)
        signals = rng.normal(size=(2, 300, 4))
        references = rng.normal(size=(2, 300, 4))
        # second lane gets a catastrophic scale so it alone diverges
        signals[1] *= 100.0
        references[1] *= 100.0
        batch = adaptive.run_qlms_batch(signals[:, None], references, 6, 0.05, 0)
        assert batch.diverged_at[0] == -1
        assert batch.diverged_at[1] >= 0
        cut = int(batch.diverged_at[1])
        assert np.isnan(batch.traces[1, cut + 1 :]).all()
        assert np.isfinite(batch.traces[0]).all()

    def test_frozen_lane_keeps_finite_weights(self):
        """An inf in one lane's input freezes that lane with its pre-divergence weights."""
        rng = np.random.default_rng(73)
        signals = rng.normal(size=(2, 40, 4))
        references = rng.normal(size=(2, 40, 4))
        signals[0, 10, 1] = np.inf
        with np.errstate(invalid="ignore"):  # lane 0's products with inf are NaN
            batch = adaptive.run_qlms_batch(signals[:, None], references, 4, 0.05, 0)
        assert batch.diverged_at.tolist() == [10, -1]
        before = adaptive.run_qlms_batch(signals[:1, None, :10], references[:1, :10], 4, 0.05, 0)
        assert np.isfinite(batch.weights[0]).all()
        assert np.array_equal(batch.weights[0], before.weights[0])
        solo = adaptive.run_qlms_batch(signals[1:, None], references[1:], 4, 0.05, 0)
        assert np.array_equal(batch.weights[1], solo.weights[0])
        assert np.array_equal(batch.traces[1], solo.traces[0])

    def test_frozen_lane_raises_no_warnings(self):
        """The inf that freezes a lane is reported by diverged_at, not by numpy warnings."""
        rng = np.random.default_rng(73)
        signals = rng.normal(size=(2, 40, 4))
        references = rng.normal(size=(2, 40, 4))
        signals[0, 10, 1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = adaptive.run_qlms_batch(signals[:, None], references, 4, 0.05, 0)
        assert batch.diverged_at.tolist() == [10, -1]

    @pytest.mark.parametrize("per_run", [1, 2, 3])
    def test_run_batch_with_symbol_indices_matches_repeated_lanes(self, per_run):
        """S lanes sharing each run's window, with index references, equal the
        float call on np.repeat-ed lanes bit for bit, frozen lane included."""
        rng = np.random.default_rng(76)
        runs, streams, n, length, mu, delay = 3, 2, 600, 4, 0.01, 300  # the run crosses BLOCK
        received = rng.normal(size=(runs, streams, n, 4))
        received[1, 0, 450, 2] = np.inf  # freezes every lane of run 1
        indices = rng.integers(0, modem.NUM_SYMBOLS, (runs * per_run, n)).astype(np.int8)
        table = 0.5 * modem.CONSTELLATION
        shared = adaptive.run_qlms_batch(received, indices, length, mu, delay, symbols=table)
        repeated = adaptive.run_qlms_batch(
            np.repeat(received, per_run, axis=0), 0.5 * modem.index_to_symbol(indices), length, mu, delay
        )
        assert np.array_equal(shared.traces, repeated.traces, equal_nan=True)
        assert np.array_equal(shared.weights, repeated.weights)
        assert np.array_equal(shared.diverged_at, repeated.diverged_at)
        frozen = np.repeat([False, True, False], per_run)
        assert (shared.diverged_at[frozen] == 450).all() and (shared.diverged_at[~frozen] == -1).all()

    @pytest.mark.parametrize("length", [4, 70])
    def test_block_length_does_not_change_results(self, monkeypatch, length):
        """Traces, weights and diverged_at are the same bit for bit for any window
        block, with S = 2 lanes per run, a delay across blocks, filters longer
        than a block and one frozen lane."""
        rng = np.random.default_rng(77)
        runs, streams, n, mu, delay = 3, 2, 600, 0.0005, 300
        received = rng.normal(size=(runs, streams, n, 4))
        indices = rng.integers(0, modem.NUM_SYMBOLS, (2 * runs, n)).astype(np.int8)
        indices[3, 200] = modem.NUM_SYMBOLS  # the table's inf row freezes lane 3 alone, at t = 500
        table = np.concatenate([0.5 * modem.CONSTELLATION, [[np.inf, 0.0, 0.0, 0.0]]])
        results = []
        for block in (1, 3, 64, 256):
            monkeypatch.setattr(adaptive, "_BLOCK", block)
            results.append(adaptive.run_qlms_batch(received, indices, length, mu, delay, symbols=table))
        assert results[0].diverged_at.tolist() == [-1, -1, -1, 500, -1, -1]
        for other in results[1:]:
            assert np.array_equal(other.traces, results[0].traces, equal_nan=True)
            assert np.array_equal(other.weights, results[0].weights)
            assert np.array_equal(other.diverged_at, results[0].diverged_at)

    def test_bad_symbol_indices_rejected(self):
        received = np.zeros((2, 1, 10, 4))
        table = modem.CONSTELLATION
        with pytest.raises(ValueError, match="indices"):
            adaptive.run_qlms_batch(received, np.full((2, 10), 16), 3, 0.01, symbols=table)
        with pytest.raises(ValueError, match="indices"):
            adaptive.run_qlms_batch(received, np.full((2, 10), -1), 3, 0.01, symbols=table)
        with pytest.raises(ValueError, match="integers"):
            adaptive.run_qlms_batch(received, np.zeros((2, 10)), 3, 0.01, symbols=table)
        with pytest.raises(DimensionMismatchError, match="split evenly"):
            adaptive.run_qlms_batch(received, np.zeros((3, 10), dtype=np.int8), 3, 0.01, symbols=table)
        with pytest.raises(DimensionMismatchError):
            adaptive.run_qlms_batch(received, np.zeros((2, 9), dtype=np.int8), 3, 0.01, symbols=table)

    @pytest.mark.parametrize("streams", [1, 2])
    def test_matches_table_arithmetic(self, streams):
        """Traces and weights agree with QLMS stepped in basis-table arithmetic."""
        rng = np.random.default_rng(75)
        lanes, n, length, mu, delay = 3, 300, 5, 0.01, 4
        signals = rng.normal(size=(lanes, streams, n, 4))
        references = rng.normal(size=(lanes, n, 4))
        batch = adaptive.run_qlms_batch(signals, references, length, mu, delay)
        for lane in range(lanes):
            padded = np.concatenate([np.zeros((streams, length - 1, 4)), signals[lane]], axis=1)
            weights = np.zeros((streams * length, 4))
            trace = np.full(n, np.nan)
            for t in range(delay, n):
                regressor = np.concatenate([padded[c, t : t + length][::-1] for c in range(streams)])
                e = references[lane, t - delay] - dot_left_loop(weights, regressor)
                trace[t] = e @ e
                weights = weights + mu * np.array([table_mul(e, table_conj(x)) for x in regressor])
            assert batch.diverged_at[lane] == -1
            assert np.allclose(batch.traces[lane, delay:], trace[delay:], rtol=1e-12, atol=0.0)
            assert np.allclose(batch.weights[lane], weights, rtol=1e-12, atol=1e-15)


class TestStackedRegressors:
    def test_lag_matrix_layout(self):
        """Stacked rows are [stream0 lags, stream1 lags] with newest first."""
        n, length = 6, 3
        rng = np.random.default_rng(72)
        streams = rng.normal(size=(2, n, 4))
        stacked = adaptive.lag_matrix(streams, length)
        assert stacked.shape == (n, 2 * length, 4)
        padded = np.concatenate([np.zeros((2, length - 1, 4)), streams], axis=1)
        for t in range(n):
            for c in range(2):
                for lag in range(length):
                    expected = padded[c, t + length - 1 - lag]
                    assert np.array_equal(stacked[t, c * length + lag], expected)

    def test_zero_second_stream_reduces_to_single(self):
        rng = np.random.default_rng(73)
        signal = rng.normal(size=(120, 4))
        reference = rng.normal(size=(120, 4))
        single_state, single_trace = adaptive.run_qlms(signal, reference, 5, 0.02, 2)
        stacked_signal = np.stack([signal, np.zeros_like(signal)])
        stacked_state, stacked_trace = adaptive.run_qlms(stacked_signal, reference, 5, 0.02, 2)
        assert np.array_equal(stacked_trace[2:], single_trace[2:])
        assert np.array_equal(stacked_state.weights[:5], single_state.weights)
        assert np.array_equal(stacked_state.weights[5:], np.zeros((5, 4)))


class TestAgainstWiener:
    def test_steady_state_close_to_block_optimum(self):
        """On one fixed instance QLMS steady state sits within 3 dB of Wiener."""
        rng = channel.make_rng(74)
        taps = channel.random_channel_taps(rng, 4, normalize=True)
        symbols = modem.index_to_symbol(rng.integers(0, 16, 5000))
        clean = channel.convolve(symbols, taps)
        variance = channel.noise_variance_for_snr(channel.expected_output_power(taps), 20.0)
        received = clean + channel.gaussian_quaternions(rng, variance, clean.shape[0])

        length, delay = 15, 7
        _, trace = adaptive.run_qlms(received, symbols, length, 0.01, delay)
        qlms_db = 10 * np.log10(np.nanmean(trace[-len(trace) // 4 :]) / 4.0)
        problem = wiener.estimate_statistics(received, symbols, length, delay)
        optimum = wiener.solve_wiener(problem)
        wiener_db = wiener.evaluate_mse(optimum, received, symbols, length, delay).db
        assert abs(qlms_db - wiener_db) < 3.0
        assert wiener_db <= qlms_db + 0.5
