"""Tests for the quaternion FIR channel, noise calibration, and seeding."""

import numpy as np
import pytest

from quatlink import channel, modem, quat
from quatlink.errors import DimensionMismatchError

from oracles import apply_one_run, convolve_loop, fir_steps


class TestRng:
    def test_make_rng_is_deterministic(self):
        a = channel.make_rng(1234).normal(size=8)
        b = channel.make_rng(1234).normal(size=8)
        assert np.array_equal(a, b)

    def test_derive_rng_keys_are_independent(self):
        base = channel.derive_rng(7, 0, 0).normal(size=4)
        other = channel.derive_rng(7, 1, 0).normal(size=4)
        assert not np.array_equal(base, other)

    def test_derive_rng_repeatable(self):
        assert np.array_equal(
            channel.derive_rng(7, 3, 2, 1).normal(size=4),
            channel.derive_rng(7, 3, 2, 1).normal(size=4),
        )

    def test_negative_seed_accepted(self):
        channel.derive_rng(-5, 0).normal()

    @pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, -5, 2**70 + 3])
    def test_derive_rng_state_equals_the_tuple_seed(self, master):
        """The uint32 words give the generator of SeedSequence's (masked seed, key...) tuple,
        and `make_rng` is `derive_rng` with no key."""
        keys = [(), (0,), (0, 0, 0), (3, 2, 1), (2**32, 0, 7), (2**32 - 1, 2**40 + 5, 0), (np.int64(9), 2**64 + 1)]
        for key in keys:
            entropy = (master & 0xFFFFFFFFFFFFFFFF,) + tuple(int(k) for k in key)
            expected = np.random.default_rng(np.random.SeedSequence(entropy)).bit_generator.state
            assert channel.derive_rng(master, *key).bit_generator.state == expected
        assert channel.make_rng(master).bit_generator.state == channel.derive_rng(master).bit_generator.state

    def test_derive_rng_rejects_a_negative_key(self):
        for key in ((-1,), (0, -5), (2**40, -(2**40))):
            with pytest.raises(ValueError):
                channel.derive_rng(0, *key)


class TestGaussianQuaternions:
    def test_zero_variance_is_zero(self):
        draws = channel.gaussian_quaternions(channel.make_rng(0), 0.0, 10)
        assert np.array_equal(draws, np.zeros((10, 4)))
        assert not np.signbit(draws).any()

    def test_sample_statistics(self):
        draws = channel.gaussian_quaternions(channel.make_rng(1), 1.0, 100_000)
        assert np.abs(draws.mean(axis=0)).max() < 0.02
        assert np.allclose(draws.var(axis=0), 1.0, rtol=0.05)
        assert np.isclose(quat.norm_sq(draws).mean(), 4.0, rtol=0.05)

    def test_identical_seeds_identical_draws(self):
        a = channel.gaussian_quaternions(channel.make_rng(5), 0.3, 16)
        b = channel.gaussian_quaternions(channel.make_rng(5), 0.3, 16)
        assert np.array_equal(a, b)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            channel.gaussian_quaternions(channel.make_rng(0), -1.0, 4)

    def test_single_draw_shape(self):
        assert channel.gaussian_quaternions(channel.make_rng(0), 1.0, ()).shape == (4,)


class TestRandomChannel:
    def test_single_tap_normalized(self):
        taps = channel.random_channel_taps(channel.make_rng(2), 1, normalize=True)
        assert np.isclose(quat.norm_sq(taps).sum(), 1.0, atol=1e-12)

    def test_four_taps_normalized(self):
        taps = channel.random_channel_taps(channel.make_rng(3), 4, normalize=True)
        assert np.isclose(quat.norm_sq(taps).sum(), 1.0, atol=1e-12)

    def test_unnormalized_mean_energy_is_one(self):
        rng = channel.make_rng(4)
        energies = [
            quat.norm_sq(channel.random_channel_taps(rng, 4, normalize=False)).sum()
            for _ in range(10_000)
        ]
        assert np.isclose(np.mean(energies), 1.0, rtol=0.05)

    def test_model_validation(self):
        signal = np.zeros((1, 5, 4))
        with pytest.raises(ValueError, match="finite"):
            apply_one_run(np.full((1, 1, 3, 4), np.inf), signal, 0.0, channel.make_rng(0))
        with pytest.raises(ValueError, match="variance"):
            apply_one_run(np.ones((1, 1, 3, 4)), signal, -0.1, channel.make_rng(0))
        with pytest.raises(DimensionMismatchError):
            apply_one_run(np.ones((3, 4)), signal, 0.0, channel.make_rng(0))
        grid = channel.random_mimo_grid(channel.make_rng(0), 1, 1, 4)
        assert grid.shape == (1, 1, 4, 4)
        assert np.isclose(quat.norm_sq(grid).sum(), 1.0, atol=1e-12)


class TestConvolve:
    def test_identity_tap(self):
        rng = np.random.default_rng(50)
        signal = rng.normal(size=(32, 4))
        assert np.allclose(channel.convolve(signal, quat.ONE[None]), signal)

    def test_single_tap_order_sensitive(self):
        out = channel.convolve(quat.I[None], quat.J[None])
        assert np.array_equal(out[0], -quat.K)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(51)
        signal, taps = rng.normal(size=(64, 4)), rng.normal(size=(4, 4))
        assert np.allclose(channel.convolve(signal, taps), convolve_loop(signal, taps), atol=1e-13)

    def test_linearity(self):
        rng = np.random.default_rng(52)
        a, b, taps = rng.normal(size=(40, 4)), rng.normal(size=(40, 4)), rng.normal(size=(3, 4))
        lhs = channel.convolve(a + b, taps)
        rhs = channel.convolve(a, taps) + channel.convolve(b, taps)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_infinite_component_matches_oracle(self):
        """An infinite i component stays infinite: 1j*inf must not make the pair's real part NaN."""
        signal = np.zeros((3, 4))
        signal[1, 1] = np.inf
        taps = np.ones((2, 4))
        out = channel.convolve(signal, taps)
        assert np.array_equal(out, convolve_loop(signal, taps))
        assert np.array_equal(out[2], [-np.inf, np.inf, np.inf, -np.inf])

    def test_taps_longer_than_signal(self):
        signal = quat.ONE[None]
        taps = np.stack([np.array(quat.I), np.array(quat.J), np.array(quat.K)])
        out = channel.convolve(signal, taps)
        assert np.array_equal(out, quat.I[None])

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatchError):
            channel.convolve(np.zeros((0, 4)), np.ones((2, 4)))

    def test_batched_leading_axes(self):
        rng = np.random.default_rng(53)
        signals, taps = rng.normal(size=(5, 20, 4)), rng.normal(size=(5, 3, 4))
        batched = channel.convolve(signals, taps)
        for i in range(5):
            assert np.array_equal(batched[i], channel.convolve(signals[i], taps[i]))


def mimo_loop(signals, grid):
    """Output stream s is the double-loop convolution of each input stream c with grid[s, c], summed over c."""
    return np.stack([sum(convolve_loop(signals[c], taps) for c, taps in enumerate(row)) for row in grid])


def small_integers(rng, shape):
    """Quaternions with components in [-3, 3]: every product and sum below is exact."""
    return rng.integers(-3, 4, size=shape).astype(np.float64)


STREAM_LAYOUTS = pytest.mark.parametrize("outputs,streams", [(1, 1), (2, 2), (3, 2)])


class TestMimoConvolve:
    """The one filter body, pinned exactly against the loop oracle on small-integer inputs."""

    @STREAM_LAYOUTS
    def test_matches_loop_oracle(self, outputs, streams):
        rng = np.random.default_rng(60)
        signals, grid = small_integers(rng, (streams, 30, 4)), small_integers(rng, (outputs, streams, 4, 4))
        out = channel.mimo_convolve(signals, grid)
        assert out.shape == (outputs, 30, 4)
        assert np.array_equal(out, mimo_loop(signals, grid))

    @STREAM_LAYOUTS
    def test_broadcast_run_axis(self, outputs, streams):
        """Runs of signals against one grid, one signal set against runs of grids, and run by run."""
        rng = np.random.default_rng(61)
        signals, grids = small_integers(rng, (3, streams, 20, 4)), small_integers(rng, (3, outputs, streams, 5, 4))
        shared_grid = channel.mimo_convolve(signals, grids[0])
        shared_signals = channel.mimo_convolve(signals[0], grids)
        paired = channel.mimo_convolve(signals, grids)
        for run in range(3):
            assert np.array_equal(shared_grid[run], mimo_loop(signals[run], grids[0]))
            assert np.array_equal(shared_signals[run], mimo_loop(signals[0], grids[run]))
            assert np.array_equal(paired[run], mimo_loop(signals[run], grids[run]))

    @STREAM_LAYOUTS
    def test_taps_longer_than_signal(self, outputs, streams):
        rng = np.random.default_rng(62)
        signals, grid = small_integers(rng, (streams, 3, 4)), small_integers(rng, (outputs, streams, 7, 4))
        assert np.array_equal(channel.mimo_convolve(signals, grid), mimo_loop(signals, grid))

    def test_stream_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            channel.mimo_convolve(np.zeros((3, 10, 4)), np.zeros((2, 2, 1, 4)))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestMimoConvolveBits:
    """The C FIR pinned bit for bit on random floats against the stepwise oracle in its stated order."""

    @STREAM_LAYOUTS
    def test_matches_stepwise_oracle(self, outputs, streams):
        rng = np.random.default_rng(63)
        signals, grid = rng.normal(size=(streams, 40, 4)), rng.normal(size=(outputs, streams, 6, 4))
        assert np.array_equal(channel.mimo_convolve(signals, grid), fir_steps(signals, grid))

    @STREAM_LAYOUTS
    def test_taps_longer_than_signal(self, outputs, streams):
        rng = np.random.default_rng(64)
        signals, grid = rng.normal(size=(streams, 7, 4)), rng.normal(size=(outputs, streams, 20, 4))
        assert np.array_equal(channel.mimo_convolve(signals, grid), fir_steps(signals, grid))

    @STREAM_LAYOUTS
    def test_infinite_component(self, outputs, streams):
        rng = np.random.default_rng(65)
        signals, grid = rng.normal(size=(streams, 12, 4)), rng.normal(size=(outputs, streams, 4, 4))
        signals[-1, 5, 2] = -np.inf
        out = channel.mimo_convolve(signals, grid)
        assert np.isinf(out[:, 5:9]).all() and np.isfinite(np.delete(out, range(5, 9), axis=1)).all()
        assert np.array_equal(out, fir_steps(signals, grid), equal_nan=True)

    @STREAM_LAYOUTS
    def test_broadcast_run_axes(self, outputs, streams):
        """Runs of signals against one grid, and one signal set against a (2, 3) block of grids."""
        rng = np.random.default_rng(66)
        signals, grids = rng.normal(size=(3, streams, 25, 4)), rng.normal(size=(2, 3, outputs, streams, 5, 4))
        shared_grid = channel.mimo_convolve(signals, grids[0, 0])
        shared_signals = channel.mimo_convolve(signals[0], grids)
        for run in range(3):
            assert np.array_equal(shared_grid[run], fir_steps(signals[run], grids[0, 0]))
            for block in range(2):
                assert np.array_equal(shared_signals[block, run], fir_steps(signals[0], grids[block, run]))

    def test_time_slice_is_read_in_place(self):
        """A time slice of a batch, as the SER stage filters, gives the bits of its contiguous copy."""
        rng = np.random.default_rng(67)
        received, grids = rng.normal(size=(4, 2, 300, 4)), rng.normal(size=(4, 3, 2, 15, 4))
        window = received[..., 137:, :]
        assert not window.flags.c_contiguous
        assert same_bits(channel.mimo_convolve(window, grids), channel.mimo_convolve(window.copy(), grids))

    def test_run_broadcast_signal_is_read_in_place(self):
        rng = np.random.default_rng(68)
        signals, grids = rng.normal(size=(2, 50, 4)), rng.normal(size=(5, 2, 2, 4, 4))
        shared = np.broadcast_to(signals, (5,) + signals.shape)
        assert shared.strides[0] == 0
        assert same_bits(channel.mimo_convolve(shared, grids), channel.mimo_convolve(shared.copy(), grids))

    def test_reversed_streams_match_their_copy(self):
        """A negative stream stride, as a stream swap's view has, is read in place too."""
        rng = np.random.default_rng(69)
        signals, grid = rng.normal(size=(3, 2, 40, 4)), rng.normal(size=(2, 2, 3, 4))
        swapped = signals[:, ::-1]
        assert same_bits(channel.mimo_convolve(swapped, grid), channel.mimo_convolve(swapped.copy(), grid))


def one_path(taps):
    """SISO channel: the 1x1 grid of a tap vector."""
    return np.asarray(taps)[None, None]


class TestApplySiso:
    """SISO is the 1x1 case of apply_mimo: one input and one output stream."""

    def test_noiseless_identity_channel(self):
        rng = np.random.default_rng(54)
        signal = rng.normal(size=(20, 4))
        out = apply_one_run(one_path(quat.ONE[None]), signal[None], 0.0, channel.make_rng(0))
        assert np.allclose(out[0], signal)

    def test_pure_noise_power(self):
        variance = 0.25
        out = apply_one_run(one_path(quat.ONE[None]), np.zeros((1, 100_000, 4)), variance, channel.make_rng(1))
        assert np.isclose(quat.norm_sq(out).mean(), 4 * variance, rtol=0.05)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(55)
        signal = rng.normal(size=(1, 64, 4))
        grid = one_path(rng.normal(size=(4, 4)))
        a = apply_one_run(grid, signal, 0.1, channel.make_rng(9))
        b = apply_one_run(grid, signal, 0.1, channel.make_rng(9))
        assert np.array_equal(a, b)


class TestApplyMimo:
    def test_one_by_one_equals_siso(self):
        """The 1x1 case is the tap convolution plus one noise quaternion per sample."""
        rng = np.random.default_rng(56)
        signal = rng.normal(size=(50, 4))
        taps = rng.normal(size=(3, 4))
        noise_rng = channel.make_rng(3)
        siso = channel.convolve(signal, taps) + channel.gaussian_quaternions(noise_rng, 0.2, 50)
        mimo = apply_one_run(one_path(taps), signal[None], 0.2, channel.make_rng(3))
        assert np.array_equal(mimo[0], siso)

    def test_identity_grid_passthrough(self):
        rng = np.random.default_rng(57)
        signals = rng.normal(size=(2, 30, 4))
        grid = np.zeros((2, 2, 1, 4))
        grid[0, 0, 0] = quat.ONE
        grid[1, 1, 0] = quat.ONE
        out = apply_one_run(grid, signals, 0.0, channel.make_rng(0))
        assert np.allclose(out, signals)

    def test_matches_bruteforce_superposition(self):
        rng = np.random.default_rng(58)
        signals = rng.normal(size=(2, 40, 4))
        grid = rng.normal(size=(2, 2, 4, 4))
        out = apply_one_run(grid, signals, 0.0, channel.make_rng(0))
        for r in range(2):
            expected = convolve_loop(signals[0], grid[r, 0]) + convolve_loop(signals[1], grid[r, 1])
            assert np.allclose(out[r], expected, atol=1e-12)

    def test_stream_count_mismatch(self):
        grid = np.zeros((2, 2, 1, 4))
        grid[..., 0] = 1.0
        with pytest.raises(DimensionMismatchError):
            apply_one_run(grid, np.zeros((3, 10, 4)), 0.0, channel.make_rng(0))

    @STREAM_LAYOUTS
    def test_runs_equal_one_run_calls(self, outputs, streams):
        """R runs in one call give each run's one-run call byte for byte, zero noise included."""
        rng = np.random.default_rng(63)
        grids, signals = rng.normal(size=(4, outputs, streams, 3, 4)), rng.normal(size=(4, streams, 50, 4))
        variances = [0.2, 0.0, 1e-3, 3.0]
        together = channel.apply_mimo(grids, signals, variances, [channel.derive_rng(1, k) for k in range(4)])
        assert together.shape == (4, outputs, 50, 4)
        for k in range(4):
            alone = apply_one_run(grids[k], signals[k], variances[k], channel.derive_rng(1, k))
            assert together[k].tobytes() == alone.tobytes()

    def test_one_variance_and_generator_per_run(self):
        grids, signals = np.ones((2, 1, 1, 1, 4)), np.zeros((2, 1, 10, 4))
        with pytest.raises(ValueError):
            channel.apply_mimo(grids, signals, [0.1], [channel.make_rng(0)])
        with pytest.raises(ValueError):
            channel.apply_mimo(grids, signals, [0.1, 0.1], [channel.make_rng(0)])

    def test_random_grid_normalization(self):
        grid = channel.random_mimo_grid(channel.make_rng(6), 2, 2, 4, normalize=True)
        assert grid.shape == (2, 2, 4, 4)
        assert np.isclose(quat.norm_sq(grid).sum(), 1.0, atol=1e-12)

    def test_random_grid_expected_energy(self):
        rng = channel.make_rng(7)
        energies = [
            quat.norm_sq(channel.random_mimo_grid(rng, 2, 2, 4, normalize=False)).sum()
            for _ in range(4000)
        ]
        assert np.isclose(np.mean(energies), 1.0, rtol=0.05)


class TestSnrCalibration:
    def test_equal_power_at_zero_db(self):
        assert channel.noise_variance_for_snr(4.0, 0.0) == 1.0

    def test_twenty_db(self):
        assert np.isclose(channel.noise_variance_for_snr(4.0, 20.0), 0.01)

    def test_infinite_snr_silences_noise(self):
        assert channel.noise_variance_for_snr(4.0, np.inf) == 0.0

    def test_nonpositive_power_rejected(self):
        with pytest.raises(ValueError):
            channel.noise_variance_for_snr(0.0, 10.0)

    def test_nan_snr_rejected(self):
        with pytest.raises(ValueError, match="SNR"):
            channel.noise_variance_for_snr(4.0, np.nan)

    def test_expected_output_power(self):
        taps = channel.random_channel_taps(channel.make_rng(8), 4, normalize=True)
        assert np.isclose(channel.expected_output_power(taps), 4.0, atol=1e-12)

    def test_measured_output_power_matches_expectation(self):
        """Sampled noiseless output power converges to 4x the channel energy."""
        rng = channel.make_rng(9)
        taps = channel.random_channel_taps(rng, 4, normalize=True)
        symbols = modem.index_to_symbol(rng.integers(0, 16, 20_000))
        clean = channel.convolve(symbols, taps)
        assert np.isclose(quat.norm_sq(clean).mean(), 4.0, rtol=0.03)

    def test_measured_snr_within_tolerance(self):
        rng = channel.make_rng(10)
        taps = channel.random_channel_taps(rng, 4, normalize=True)
        symbols = modem.index_to_symbol(rng.integers(0, 16, 100_000))
        clean = channel.convolve(symbols, taps)
        variance = channel.noise_variance_for_snr(channel.expected_output_power(taps), 15.0)
        noise = channel.gaussian_quaternions(rng, variance, clean.shape[0])
        measured = 10 * np.log10(quat.norm_sq(clean).mean() / quat.norm_sq(noise).mean())
        assert abs(measured - 15.0) < 0.3
