"""Tests for the QLMS adaptive equalizer."""

import ctypes
import itertools
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from quatlink import adaptive, channel, cli, kernels, modem, quat, wiener
from quatlink.errors import DimensionMismatchError

from oracles import dot_left_loop, qlms_steps, table_conj, table_mul

# time steps per fill of the C kernels' one sample window
SPAN = int(re.search(r"^#define SPAN (\d+)", kernels._SOURCE.read_text(), re.MULTILINE).group(1))


def random_symbols(seed, n):
    rng = channel.make_rng(seed)
    return modem.index_to_symbol(rng.integers(0, modem.NUM_SYMBOLS, n))


def run_batch(received, references, length, step_size, delay=0):
    """The kernel on (R, C, N, 4) runs against (B, N, 4) references, each sample its own table row."""
    b, n, _ = references.shape
    indices = np.arange(b * n).reshape(b, n)
    return adaptive.run_qlms_batch(received, indices, references.reshape(-1, 4), length, step_size, delay)


def run_one(signal, reference, length, step_size, delay=0):
    """One lane on an (N, 4) or (C, N, 4) signal: (final weights, trace)."""
    signal = signal[None] if signal.ndim == 2 else signal
    result = run_batch(signal[None], reference[None], length, step_size, delay)
    assert result.diverged_at[0] == -1
    return result.weights[0], result.traces[0]


class TestStateAndPredict:
    """The kernel starts from zero weights, and tap 0 multiplies the newest sample."""

    def test_initial_state_is_zero(self):
        rng = np.random.default_rng(60)
        weights, _ = run_one(rng.normal(size=(2, 30, 4)), rng.normal(size=(30, 4)), 5, 0.0)
        assert np.array_equal(weights, np.zeros((10, 4)))

    def test_zero_weights_predict_zero(self):
        """With no adaptation every output is zero, so the trace is norm_sq of the reference."""
        rng = np.random.default_rng(60)
        reference = rng.normal(size=(40, 4))
        _, trace = run_one(rng.normal(size=(40, 4)), reference, 4, 0.0, delay=3)
        assert np.array_equal(trace[3:], quat.norm_sq(reference[:37]))

    def test_unit_impulse_weight_selects_newest_sample(self):
        """The first update from zero weights sets tap 0 alone, and the next output is tap 0 times
        the newest sample."""
        rng = np.random.default_rng(61)
        signal, reference, mu = rng.normal(size=(2, 4)), rng.normal(size=(2, 4)), 0.1
        weights, _ = run_one(signal[:1], reference[:1], 4, mu)
        assert np.allclose(weights[0], mu * table_mul(reference[0], table_conj(signal[0])), rtol=0, atol=1e-15)
        assert np.array_equal(weights[1:], np.zeros((3, 4)))
        _, trace = run_one(signal, reference, 4, mu)
        e = reference[1] - table_mul(weights[0], signal[1])
        assert np.isclose(trace[1], e @ e, rtol=1e-13, atol=0.0)

    def test_dimension_mismatch(self):
        indices, table = np.zeros((1, 10), dtype=np.int8), modem.CONSTELLATION
        with pytest.raises(DimensionMismatchError):
            adaptive.run_qlms_batch(np.zeros((1, 10, 4)), indices, table, 3, 0.1)
        with pytest.raises(DimensionMismatchError):
            adaptive.run_qlms_batch(np.zeros((1, 1, 10, 4)), indices, table[0], 3, 0.1)
        with pytest.raises(DimensionMismatchError):
            adaptive.run_qlms_batch(np.zeros((1, 1, 10, 4)), indices, table, 0, 0.1)

    def test_error_and_cost(self):
        """The trace is norm_sq(reference - output): mu = 1 and x = 1 set the weight to q, then
        the error on x = i is r - q * i, whose products are exact."""
        q, r = quat.quat(1.0, -2.0, 0.5, 0.0), quat.quat(0.25, 3.0, -1.0, 2.0)
        signal, reference = np.stack([quat.ONE, quat.I]), np.stack([q, r])
        weights, trace = run_one(signal, reference, 1, 1.0)
        e = r - quat.mul(q, quat.I)
        assert np.array_equal(trace, [quat.norm_sq(q), quat.norm_sq(e)])
        assert np.array_equal(weights[0], q + quat.mul(e, quat.conj(quat.I)))


class TestQlmsStep:
    def test_zero_error_is_fixed_point(self):
        """Once the output matches the reference the weights stop moving: mu = 1 and x = 1 set
        the weight to q, and a reference q * x on the next sample leaves it at q."""
        rng = np.random.default_rng(64)
        q, x = rng.normal(size=4), rng.normal(size=4)
        weights, trace = run_one(np.stack([quat.ONE, x]), np.stack([q, quat.mul(q, x)]), 1, 1.0)
        assert np.allclose(trace[1], 0.0, atol=1e-28)
        assert np.allclose(weights[0], q, rtol=0.0, atol=1e-15)

    def test_hand_computed_update(self):
        """L=1, w=0, x=[i], r=j, mu=0.5: e=j and the new weight is 0.5*k."""
        weights, trace = run_one(quat.I[None], quat.J[None], 1, 0.5)
        assert np.array_equal(trace, [quat.norm_sq(quat.J)])
        assert np.array_equal(weights[0], 0.5 * np.array(quat.K))

    def test_real_inputs_collapse_to_classical_lms(self):
        """With purely real data the kernel must equal w += mu*e*x exactly, at every step."""
        rng = np.random.default_rng(65)
        mu, length, steps = 0.05, 6, 60
        signal = np.zeros((steps, 4))
        signal[:, 0] = rng.normal(size=steps)
        target_taps = rng.normal(size=length)
        padded = np.concatenate([np.zeros(length - 1), signal[:, 0]])
        regressors = np.stack([padded[n : n + length][::-1] for n in range(steps)])
        reference = np.zeros((steps, 4))
        reference[:, 0] = regressors @ target_taps
        weights_real = np.zeros(length)
        for n in range(steps):
            # classical real LMS, accumulation order matched for exact comparison
            err = reference[n, 0] - (weights_real * regressors[n]).sum()
            weights_real = weights_real + mu * (err * regressors[n])
            weights, trace = run_one(signal[: n + 1], reference[: n + 1], length, mu)
            assert trace[n] == err * err
            assert np.array_equal(weights[:, 0], weights_real)
            assert np.array_equal(weights[:, 1:], np.zeros((length, 3)))


class TestRunQlms:
    def test_trace_matches_stepwise_iteration(self):
        """The kernel must agree exactly with QLMS stepped one tap at a time.

        Past the first case, the inputs sit on the edges of the kernel's
        sample window: lengths either side of a span boundary, a delay past
        the first span, a run shorter than the filter, and a filter longer
        than a span.
        """
        rng = np.random.default_rng(66)
        cases = [
            (50, 4, 0.02, 2),
            (SPAN - 1, 4, 0.02, 2),
            (SPAN, 4, 0.02, 2),
            (SPAN + 1, 4, 0.02, 2),
            (600, 4, 0.02, 2),
            (600, 4, 0.02, SPAN + 44),
            (3, 5, 0.02, 1),
            (2 * SPAN + 100, SPAN + 44, 0.0005, 3),
        ]
        for n, length, mu, delay in cases:
            signal = rng.normal(size=(n, 4))
            reference = rng.normal(size=(n, 4))
            weights, trace = run_one(signal, reference, length, mu, delay)
            expected, expected_weights, _ = qlms_steps(signal[None], reference, length, mu, delay)
            assert np.array_equal(trace, expected, equal_nan=True)
            assert np.isnan(trace[:delay]).all()
            assert np.array_equal(weights, expected_weights)

    def test_zero_step_size_keeps_trace_flat(self):
        symbols = random_symbols(1, 300)
        _, trace = run_one(symbols, symbols, length=3, step_size=0.0, delay=0)
        assert np.allclose(trace, 4.0)

    def test_identity_channel_noiseless_convergence(self):
        """Error tail must drop at least 40 dB below the symbol energy."""
        symbols = random_symbols(2, 3000)
        _, trace = run_one(symbols, symbols, length=1, step_size=0.05, delay=0)
        tail = trace[-300:].mean()
        assert 10 * np.log10(tail / 4.0) < -40.0

    def test_single_step_error_reduction(self):
        """For 0 < mu < 2/|x|^2 the post-update error on the same sample shrinks.

        L = 1: a first random sample moves the weight off zero, then the
        same sample x and reference r come twice."""
        rng = np.random.default_rng(67)
        for _ in range(50):
            x = rng.normal(size=4)
            r = rng.normal(size=4)
            mu = rng.uniform(0.05, 1.95) / quat.norm_sq(x)
            signal = np.stack([0.1 * rng.normal(size=4), x, x])
            reference = np.stack([rng.normal(size=4), r, r])
            _, trace = run_one(signal, reference, 1, mu)
            if trace[1] == 0.0:
                continue
            assert trace[2] < trace[1]

    def test_shift_property(self):
        """Delaying signal and reference together shifts the trace unchanged."""
        rng = np.random.default_rng(68)
        n, shift, length, delay = 400, 9, 5, 3
        signal = rng.normal(size=(n, 4))
        reference = rng.normal(size=(n, 4))
        _, trace = run_one(signal, reference, length, 0.02, delay)
        pad = np.zeros((shift, 4))
        _, shifted = run_one(np.concatenate([pad, signal]), np.concatenate([pad, reference]), length, 0.02, delay)
        assert np.array_equal(shifted[shift + delay :], trace[delay:])

    def test_reference_length_mismatch(self):
        indices = np.zeros((1, 9), dtype=np.int8)
        with pytest.raises(DimensionMismatchError):
            adaptive.run_qlms_batch(np.zeros((1, 1, 10, 4)), indices, modem.CONSTELLATION, 2, 0.1)


class TestBatchKernel:
    def test_single_run_equals_batch_lane(self):
        """A lane's result must not depend on the batch size, odd sizes included,
        nor on sharing its run's stacked regressors with another lane."""
        rng = np.random.default_rng(69)
        for lanes in (5, 7, 129):
            signals = rng.normal(size=(lanes, 80, 4))
            references = rng.normal(size=(lanes, 80, 4))
            batch = run_batch(signals[:, None], references, 6, 0.02, 3)
            for lane in range(lanes):
                weights, trace = run_one(signals[lane], references[lane], 6, 0.02, 3)
                assert np.array_equal(trace[3:], batch.traces[lane, 3:])
                assert np.array_equal(weights, batch.weights[lane])
        table = 0.5 * modem.CONSTELLATION
        for runs in (1, 5, 129):
            received = rng.normal(size=(runs, 2, 80, 4))
            indices = rng.integers(0, modem.NUM_SYMBOLS, (2 * runs, 80)).astype(np.int8)
            batch = adaptive.run_qlms_batch(received, indices, table, 6, 0.02, 3)
            for lane in range(2 * runs):
                weights, trace = run_one(received[lane // 2], table[indices[lane]], 6, 0.02, 3)
                assert np.array_equal(trace[3:], batch.traces[lane, 3:])
                assert np.array_equal(weights, batch.weights[lane])

    def test_chunking_does_not_change_results(self):
        rng = np.random.default_rng(70)
        signals = rng.normal(size=(7, 60, 4))
        references = rng.normal(size=(7, 60, 4))
        whole = run_batch(signals[:, None], references, 4, 0.03, 1)
        first = run_batch(signals[:3, None], references[:3], 4, 0.03, 1)
        second = run_batch(signals[3:, None], references[3:], 4, 0.03, 1)
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
        batch = run_batch(signals[:, None], references, 6, 0.05, 0)
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
        batch = run_batch(signals[:, None], references, 4, 0.05, 0)
        assert batch.diverged_at.tolist() == [10, -1]
        before = run_batch(signals[:1, None, :10], references[:1, :10], 4, 0.05, 0)
        assert np.isfinite(batch.weights[0]).all()
        assert np.array_equal(batch.weights[0], before.weights[0])
        solo = run_batch(signals[1:, None], references[1:], 4, 0.05, 0)
        assert np.array_equal(batch.weights[1], solo.weights[0])
        assert np.array_equal(batch.traces[1], solo.traces[0])

    @pytest.mark.parametrize("at", [10, 39, SPAN - 1, SPAN, 2 * SPAN - 1])
    def test_weight_overflow_freezes_lane(self, at):
        """A finite error whose update overflows the weights freezes the lane at
        that iteration with the weights it used there, at a span's last step
        and at the run's last iteration too."""
        rng = np.random.default_rng(79)
        signals = rng.normal(size=(2, 40, 4))
        references = rng.normal(size=(2, 40, 4))
        # lane 0 keeps zero weights, so its output stays 0 until the update that overflows
        references[0] = 0.0
        references[0, at] = 1.0
        signals[0, at] = 1e308
        batch = run_batch(signals[:, None], references, 4, 0.05, 0)
        assert batch.diverged_at.tolist() == [at, -1]
        assert np.isfinite(batch.traces[0, : at + 1]).all() and np.isnan(batch.traces[0, at + 1 :]).all()
        assert np.array_equal(batch.weights[0], np.zeros((4, 4)))
        solo = run_batch(signals[1:, None], references[1:], 4, 0.05, 0)
        assert np.array_equal(batch.traces[1], solo.traces[0])
        assert np.array_equal(batch.weights[1], solo.weights[0])

    def test_frozen_lane_raises_no_warnings(self):
        """The inf that freezes a lane is reported by diverged_at, not by numpy warnings.
        So is a weight overflow in the middle of a span; numpy's error
        settings are the caller's again afterwards."""
        rng = np.random.default_rng(73)
        signals = rng.normal(size=(2, 40, 4))
        references = rng.normal(size=(2, 40, 4))
        signals[0, 10, 1] = np.inf
        settings = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = run_batch(signals[:, None], references, 4, 0.05, 0)
        assert batch.diverged_at.tolist() == [10, -1]
        # lane 0's update at step `at` overflows its weights; the next output shows it
        at = SPAN + SPAN // 2
        signals = rng.normal(size=(2, 3 * SPAN, 4))
        references = rng.normal(size=(2, 3 * SPAN, 4))
        references[0] = 0.0
        references[0, at] = 1.0
        signals[0, at] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = run_batch(signals[:, None], references, 4, 0.05, 0)
        assert batch.diverged_at.tolist() == [at, -1]
        assert np.geterr() == settings

    def test_lane_blown_mid_block_leaves_its_run_mate(self):
        """One of a run's S = 2 lanes blows up in the middle of a span: it freezes
        at that step with the weights of its run cut before it, and its run-mate
        goes on, equal to its solo run bit for bit."""
        rng = np.random.default_rng(80)
        n, length, mu, delay = 5 * SPAN, 4, 0.01, 5
        at = 2 * SPAN + SPAN // 2
        received = rng.normal(size=(1, 2, n, 4))
        indices = rng.integers(0, modem.NUM_SYMBOLS, (2, n)).astype(np.int8)
        indices[0, at - delay] = modem.NUM_SYMBOLS  # the table's inf row
        table = np.concatenate([0.5 * modem.CONSTELLATION, [[np.inf, 0.0, 0.0, 0.0]]])
        batch = adaptive.run_qlms_batch(received, indices, table, length, mu, delay)
        assert batch.diverged_at.tolist() == [at, -1]
        solo = adaptive.run_qlms_batch(received, indices[1:], table, length, mu, delay)
        assert np.array_equal(batch.traces[1], solo.traces[0], equal_nan=True)
        assert np.array_equal(batch.weights[1], solo.weights[0])
        cut = adaptive.run_qlms_batch(received[:, :, :at], indices[:1, :at], table, length, mu, delay)
        assert np.array_equal(batch.traces[0, :at], cut.traces[0], equal_nan=True)
        assert np.array_equal(batch.weights[0], cut.weights[0])
        assert batch.traces[0, at] == np.inf and np.isnan(batch.traces[0, at + 1 :]).all()

    @pytest.mark.parametrize("per_run", [1, 2])
    @pytest.mark.parametrize("streams", [1, 2])
    def test_freeze_rule_matches_stepwise_oracle(self, streams, per_run):
        """Every lane equals the stepwise oracle, which applies the freeze rule step by
        step: diverged_at, traces (NaN-equal) and weights, exactly.  Blow-ups sit at a
        span's last and first steps, at the last step of a later span and at the
        run's last step, for several delays, each kind in a batch of its own: an
        error past the limit (a 1e200 reference), or a weight overflow with the error
        within it (zero references keep the weights at zero until a unit reference
        meets a 1e308 sample)."""
        rng = np.random.default_rng(81)
        n, length, mu = 3 * SPAN, 4, 0.02
        huge, zero, unit = modem.NUM_SYMBOLS, modem.NUM_SYMBOLS + 1, modem.NUM_SYMBOLS + 2
        table = np.concatenate([0.5 * modem.CONSTELLATION, [[1e200, 0.0, 0.0, 0.0], [0.0] * 4, [1.0] * 4]])
        sites = [SPAN - 1, SPAN, 2 * SPAN - 1, n - 1]
        for delay, overflow in itertools.product((0, 5, SPAN + 2), (False, True)):
            runs = len(sites) + 1  # run k blows up at sites[k]; the last run is left alone
            received = rng.normal(size=(runs, streams, n, 4))
            indices = rng.integers(0, modem.NUM_SYMBOLS, (runs * per_run, n))
            placed = {}
            for k, at in enumerate(sites):
                if at < delay:
                    continue
                placed[k * per_run] = at
                if overflow:
                    indices[k * per_run, : at - delay] = zero
                    indices[k * per_run, at - delay] = unit
                    received[k, 0, at] = 1e308
                else:
                    indices[k * per_run, at - delay] = huge
            batch = adaptive.run_qlms_batch(received, indices, table, length, mu, delay)
            for lane in range(runs * per_run):
                trace, weights, at = qlms_steps(received[lane // per_run], table[indices[lane]], length, mu, delay)
                assert batch.diverged_at[lane] == at == placed.get(lane, at)
                assert np.array_equal(batch.traces[lane], trace, equal_nan=True)
                assert np.array_equal(batch.weights[lane], weights)
            assert (batch.diverged_at[-per_run:] == -1).all()

    @pytest.mark.parametrize("per_run", [1, 2, 3])
    def test_run_batch_with_symbol_indices_matches_repeated_lanes(self, per_run):
        """S lanes sharing each run's window, with index references, equal the
        float call on np.repeat-ed lanes bit for bit, frozen lane included."""
        rng = np.random.default_rng(76)
        runs, streams, n, length, mu, delay = 3, 2, 600, 4, 0.01, 300  # the run crosses spans
        received = rng.normal(size=(runs, streams, n, 4))
        received[1, 0, 450, 2] = np.inf  # freezes every lane of run 1
        indices = rng.integers(0, modem.NUM_SYMBOLS, (runs * per_run, n)).astype(np.int8)
        table = 0.5 * modem.CONSTELLATION
        shared = adaptive.run_qlms_batch(received, indices, table, length, mu, delay)
        repeated = run_batch(
            np.repeat(received, per_run, axis=0), 0.5 * modem.index_to_symbol(indices), length, mu, delay
        )
        assert np.array_equal(shared.traces, repeated.traces, equal_nan=True)
        assert np.array_equal(shared.weights, repeated.weights)
        assert np.array_equal(shared.diverged_at, repeated.diverged_at)
        frozen = np.repeat([False, True, False], per_run)
        assert (shared.diverged_at[frozen] == 450).all() and (shared.diverged_at[~frozen] == -1).all()

    # (N, delay) on the window's edges for any span up to 64: N on either side of 16 and 64
    # and past two windows of 64, delays from 0 to past the first window
    EDGES = [(n, d) for n in (15, 16, 17, 63, 64, 65, 131) for d in (0, 1, 15, 16, 17, 63, 64, 65) if d < n]

    @pytest.mark.parametrize(
        "length,streams,edges", [(4, 2, EDGES), (70, 1, [(17, 1), (131, 65)])], ids=["short-filter", "long-filter"]
    )
    def test_window_edges_match_stepwise_oracle(self, length, streams, edges):
        """Traces, weights and diverged_at equal the stepwise oracle bit for bit on the
        window's edges, with S = 2 lanes per run and one lane frozen in the middle of its
        run; a filter longer than any span takes fewer edges, as the oracle is slow."""
        rng = np.random.default_rng(77)
        table = np.concatenate([0.5 * modem.CONSTELLATION, [[np.inf, 0.0, 0.0, 0.0]]])
        for n, delay in edges:
            received = rng.normal(size=(2, streams, n, 4))
            indices = rng.integers(0, modem.NUM_SYMBOLS, (4, n)).astype(np.int8)
            at = (delay + n) // 2
            indices[1, at - delay] = modem.NUM_SYMBOLS  # the table's inf row freezes lane 1 alone
            batch = adaptive.run_qlms_batch(received, indices, table, length, 0.01, delay)
            for lane in range(4):
                trace, weights, frozen = qlms_steps(received[lane // 2], table[indices[lane]], length, 0.01, delay)
                assert batch.diverged_at[lane] == frozen == (at if lane == 1 else -1)
                assert np.array_equal(batch.traces[lane], trace, equal_nan=True)
                assert np.array_equal(batch.weights[lane], weights)

    def test_strided_views_are_read_in_place(self):
        """A time slice, reversed streams and every other run give the bits of their
        contiguous copies, and the call makes no copy of the view: its traced peak
        stays below the view's bytes."""
        rng = np.random.default_rng(78)
        received = rng.normal(size=(8, 2, 2000, 4))
        for view in (received[..., 300:, :], received[:, ::-1], received[::2]):
            runs, _, n, _ = view.shape
            indices = rng.integers(0, modem.NUM_SYMBOLS, (2 * runs, n)).astype(np.int8)
            table = 0.5 * modem.CONSTELLATION
            copied = adaptive.run_qlms_batch(view.copy(), indices, table, 5, 0.01, 3)
            tracemalloc.start()
            try:
                batch = adaptive.run_qlms_batch(view, indices, table, 5, 0.01, 3)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert not view.flags.c_contiguous and peak < view.nbytes
            assert np.array_equal(batch.traces, copied.traces, equal_nan=True)
            assert np.array_equal(batch.weights, copied.weights)
            assert np.array_equal(batch.diverged_at, copied.diverged_at)

    def test_bad_symbol_indices_rejected(self):
        received = np.zeros((2, 1, 10, 4))
        table = modem.CONSTELLATION
        with pytest.raises(ValueError, match="indices"):
            adaptive.run_qlms_batch(received, np.full((2, 10), 16), table, 3, 0.01)
        with pytest.raises(ValueError, match="indices"):
            adaptive.run_qlms_batch(received, np.full((2, 10), -1), table, 3, 0.01)
        with pytest.raises(ValueError, match="integers"):
            adaptive.run_qlms_batch(received, np.zeros((2, 10)), table, 3, 0.01)
        with pytest.raises(DimensionMismatchError, match="split evenly"):
            adaptive.run_qlms_batch(received, np.zeros((3, 10), dtype=np.int8), table, 3, 0.01)
        with pytest.raises(DimensionMismatchError):
            adaptive.run_qlms_batch(received, np.zeros((2, 9), dtype=np.int8), table, 3, 0.01)

    @pytest.mark.parametrize("streams", [1, 2])
    def test_matches_table_arithmetic(self, streams):
        """Traces and weights agree with QLMS stepped in basis-table arithmetic."""
        rng = np.random.default_rng(75)
        lanes, n, length, mu, delay = 3, 300, 5, 0.01, 4
        signals = rng.normal(size=(lanes, streams, n, 4))
        references = rng.normal(size=(lanes, n, 4))
        batch = run_batch(signals, references, length, mu, delay)
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


class TestCompiledKernel:
    def test_bits_do_not_depend_on_the_instruction_set(self, tmp_path, monkeypatch):
        """The library built at -O0, scalar code, gives the product library's bits: the
        QLMS kernel on a 2x2 batch with one diverging lane, the FIR on a 2x2 grid of
        15 taps, and the block Wiener statistics of 3, 9 and 2 runs (short last groups)
        of 1, 2 and 3 streams.  No contraction or reassociation lets the SIMD width the
        product build picks change a result.  The -O0 build goes through the product's
        loader, which declares all three functions."""
        scalar = tmp_path / "scalar.so"
        subprocess.run(["cc", "-O0", "-fPIC", "-shared", "-o", str(scalar), str(kernels._SOURCE)], check=True)
        rng = np.random.default_rng(82)
        runs, streams, n, length, mu, delay = 2, 2, 5 * SPAN + 3, 15, 0.02, 7
        received = rng.normal(size=(runs, streams, n, 4))
        indices = rng.integers(0, modem.NUM_SYMBOLS, (runs * streams, n)).astype(np.int8)
        indices[2, 40] = modem.NUM_SYMBOLS  # the table's huge row freezes lane 2 alone, at t = 47
        table = np.concatenate([0.5 * modem.CONSTELLATION, [[1e200, 0.0, 0.0, 0.0]]])
        grid = rng.normal(size=(runs, 2, streams, length, 4))
        product = adaptive.run_qlms_batch(received, indices, table, length, mu, delay)
        product_fir = channel.mimo_convolve(received, grid)
        shapes = ((3, 1), (9, 2), (2, 3))  # (runs, streams)
        problems = [(rng.normal(size=(g, c, 300, 4)), rng.normal(size=(g, 300, 4))) for g, c in shapes]
        product_stats = [wiener.estimate_statistics(signal, refs, length, delay) for signal, refs in problems]
        monkeypatch.setattr(kernels, "library", lambda: kernels._load(scalar))
        reference = adaptive.run_qlms_batch(received, indices, table, length, mu, delay)
        assert product.diverged_at.tolist() == reference.diverged_at.tolist() == [-1, -1, 47, -1]
        assert np.array_equal(product.traces, reference.traces, equal_nan=True)
        assert np.array_equal(product.weights, reference.weights)
        fir = channel.mimo_convolve(received, grid)
        assert np.array_equal(product_fir.view(np.int64), fir.view(np.int64))
        for (signal, refs), stats in zip(problems, product_stats):
            again = wiener.estimate_statistics(signal, refs, length, delay)
            assert np.array_equal(stats.autocorrelation.view(np.int64), again.autocorrelation.view(np.int64))
            assert np.array_equal(stats.cross_correlation.view(np.int64), again.cross_correlation.view(np.int64))

    def test_source_compiles_without_warnings(self, tmp_path):
        """`_kernels.c` compiles with every common warning turned into an error."""
        if shutil.which("cc") is None:
            pytest.skip("no C compiler `cc` on the path")
        command = ["cc", "-O2", "-Wall", "-Wextra", "-Werror", "-c", "-o", str(tmp_path / "kernels.o"), str(kernels._SOURCE)]
        done = subprocess.run(command, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_failed_allocation_raises_memory_error(self):
        """All three functions return a c_int status, and the loader's errcheck turns a
        nonzero one, a failed allocation, into a MemoryError that names the function."""
        for name in ("qlms_batch", "mimo_fir", "block_moments"):
            function = getattr(kernels.library(), name)
            assert function.restype is ctypes.c_int
            assert function.errcheck(0, function, ()) == 0
            with pytest.raises(MemoryError, match=name):
                function.errcheck(-1, function, ())

    def test_processes_building_at_once_leave_one_library(self, tmp_path):
        """Two processes that first use the library of a package copy with an empty
        __pycache__ both succeed and leave one library; a later process loads it
        without building again, so it does not even import subprocess."""
        package = tmp_path / "quatlink"
        shutil.copytree(kernels._SOURCE.parent, package, ignore=shutil.ignore_patterns("__pycache__"))
        script = (
            "import sys; import numpy as np; from quatlink import adaptive, modem; "
            "assert adaptive.__file__.startswith(sys.argv[1]); "
            "adaptive.run_qlms_batch(np.ones((1, 1, 8, 4)), np.zeros((1, 8), dtype=np.int8), modem.CONSTELLATION, 2, 0.01); "
            "print('subprocess' in sys.modules)"
        )  # fmt: skip
        env = {**os.environ, "PYTHONPATH": str(tmp_path)}
        command = [sys.executable, "-c", script, str(package)]
        first = [subprocess.Popen(command, env=env, cwd=tmp_path, stdout=subprocess.PIPE, text=True) for _ in range(2)]
        assert [p.communicate(timeout=120)[0] for p in first] == ["True\n", "True\n"]
        assert all(p.returncode == 0 for p in first)
        libraries = list((package / "__pycache__").glob("_kernels-*"))
        assert len(libraries) == 1 and libraries[0].suffix == ".so"
        built = libraries[0].stat()
        again = subprocess.run(command, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert again.returncode == 0 and again.stdout == "False\n"
        assert (libraries[0].stat().st_ino, libraries[0].stat().st_mtime_ns) == (built.st_ino, built.st_mtime_ns)

    @pytest.mark.parametrize(
        "command,workers", [(("no-such-cc", "-O3"), 1), (("cc", "--no-such-option"), 1), (("cc", "--no-such-option"), 2)]
    )
    def test_failing_compiler_ends_the_run_with_one_line(self, command, workers, tmp_path, monkeypatch, capsys):
        """`quatlink run` exits 1 with one line that names the compiler, in a pool worker too."""
        monkeypatch.setattr(kernels, "_COMPILE", command)
        kernels.library.cache_clear()  # the product library, if a test before this one loaded it
        argv = ["run", "--runs", "2", "--symbols", "40", "--workers", str(workers), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot build quatlink's C kernels: ") and f"C compiler {command[0]!r}" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not list(kernels._SOURCE.with_name("__pycache__").glob("*.tmp"))

    def test_sanitized_build_finds_no_fault(self, tmp_path):
        """All three functions, built with AddressSanitizer and UBSan and loaded through
        the product's loader in a child process, run their oracle tests without a report:
        the QLMS kernel with tail groups, the FIR on time slices, broadcast runs and
        reversed streams, and the block statistics with tail groups and strided views.
        The bit-exact oracles would miss an out-of-bounds read that lands in valid
        memory.  About 8 s on a 2-core x86_64 box, half of it the build."""
        if shutil.which("gcc") is None:
            pytest.skip("no gcc on the path")
        runtime = subprocess.run(["gcc", "-print-file-name=libasan.so"], capture_output=True, text=True).stdout.strip()
        if not os.path.isabs(runtime):
            pytest.skip("gcc finds no libasan.so")
        sanitized = tmp_path / "sanitized.so"
        flags = ["-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all", "-ffp-contract=off"]
        subprocess.run(["gcc", *flags, "-fPIC", "-shared", "-o", str(sanitized), str(kernels._SOURCE)], check=True)
        tests = Path(__file__).parent
        selected = [
            "test_adaptive.py::TestBatchKernel::test_single_run_equals_batch_lane",
            "test_adaptive.py::TestBatchKernel::test_window_edges_match_stepwise_oracle",
            "test_channel.py::TestMimoConvolveBits",
            "test_wiener.py::TestCompiledStatistics::test_matches_lag_matrix_outer_products[1-17]",
            "test_wiener.py::TestCompiledStatistics::test_matches_lag_matrix_outer_products[3-9]",
            "test_wiener.py::TestCompiledStatistics::test_views_are_read_in_place",
        ]
        script = (
            "import sys, pytest\n"
            "from quatlink import kernels\n"
            f"library = kernels._load({str(sanitized)!r})\n"
            "kernels.library = lambda: library\n"
            f"sys.exit(pytest.main(['-q', '-s', '-p', 'no:cacheprovider', *{[str(tests / t) for t in selected]!r}]))\n"
        )
        src = str(kernels._SOURCE.parents[1])
        env = {**os.environ, "PYTHONPATH": src, "LD_PRELOAD": runtime, "ASAN_OPTIONS": "detect_leaks=0"}
        done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tests.parent, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        assert " passed" in done.stdout and "failed" not in done.stdout

    def test_unusable_cache_directory_ends_the_run_with_one_line(self, tmp_path):
        """A package copy whose __pycache__ is a regular file cannot hold the library:
        `quatlink run` exits 1 with one line that names the directory."""
        package = tmp_path / "quatlink"
        shutil.copytree(kernels._SOURCE.parent, package, ignore=shutil.ignore_patterns("__pycache__"))
        (package / "__pycache__").write_text("")
        command = [sys.executable, "-m", "quatlink", "run", "--runs", "2", "--symbols", "50", "--out", "out"]
        env = {**os.environ, "PYTHONPATH": str(tmp_path)}
        done = subprocess.run(command, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1
        assert done.stderr.startswith("cannot build quatlink's C kernels: ")
        assert str(package / "__pycache__") in done.stderr
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr

    def test_build_removes_stale_libraries(self, tmp_path):
        """A build removes the cache's libraries of other sources or commands, and keeps
        its own and a temporary file that another process is still building."""
        package = tmp_path / "quatlink"
        shutil.copytree(kernels._SOURCE.parent, package, ignore=shutil.ignore_patterns("__pycache__"))
        cache = package / "__pycache__"
        cache.mkdir()
        stale, building = cache / "_kernels-00000000.so", cache / "_kernels-00000000x1y2.tmp"
        stale.write_text("")
        building.write_text("")
        script = "from quatlink import kernels; print(kernels.library()._name)"
        env = {**os.environ, "PYTHONPATH": str(tmp_path)}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        built = Path(done.stdout.strip())
        assert built.parent == cache and built.suffix == ".so"
        assert sorted(cache.iterdir()) == sorted([built, building])


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
        single_weights, single_trace = run_one(signal, reference, 5, 0.02, 2)
        stacked_signal = np.stack([signal, np.zeros_like(signal)])
        stacked_weights, stacked_trace = run_one(stacked_signal, reference, 5, 0.02, 2)
        assert np.array_equal(stacked_trace[2:], single_trace[2:])
        assert np.array_equal(stacked_weights[:5], single_weights)
        assert np.array_equal(stacked_weights[5:], np.zeros((5, 4)))


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
        _, trace = run_one(received, symbols, length, 0.01, delay)
        qlms_db = 10 * np.log10(np.nanmean(trace[-len(trace) // 4 :]) / 4.0)
        problem = wiener.estimate_statistics(received, symbols, length, delay)
        optimum = wiener.solve_wiener(problem)
        wiener_db = wiener.evaluate_mse(optimum, received, symbols, length, delay).db
        assert abs(qlms_db - wiener_db) < 3.0
        assert wiener_db <= qlms_db + 0.5
