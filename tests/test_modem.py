"""Tests for the 16-point 4-D QAM mapper and demapper."""

import tracemalloc

import numpy as np
import pytest

from quatlink import modem, quat
from quatlink.errors import DimensionMismatchError

from oracles import nearest_symbol_indices

ALL_BITS = ((np.arange(16)[:, None] >> np.arange(4)[None, :]) & 1)


class TestModulate:
    def test_all_ones(self):
        assert np.array_equal(modem.modulate(np.array([1, 1, 1, 1])), quat.quat(1, 1, 1, 1))

    def test_all_zeros(self):
        assert np.array_equal(modem.modulate(np.array([0, 0, 0, 0])), quat.quat(-1, -1, -1, -1))

    def test_bijective_over_sixteen_symbols(self):
        symbols = modem.modulate(ALL_BITS)
        assert symbols.shape == (16, 4)
        assert len({tuple(s) for s in symbols}) == 16
        assert (quat.norm_sq(symbols) == 4.0).all()

    def test_index_packing_invariant(self):
        """index = b0 + 2 b1 + 4 b2 + 8 b3 with bit m on component m."""
        symbols = modem.modulate(ALL_BITS)
        expected = ALL_BITS @ np.array([1, 2, 4, 8])
        assert np.array_equal(modem.hard_decisions(symbols), expected)
        assert np.array_equal(modem.index_to_symbol(expected), symbols)

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            modem.modulate(np.array([0, 1, 2, 0]))
        with pytest.raises(DimensionMismatchError):
            modem.modulate(np.array([0, 1, 1]))


class TestDemodulate:
    def test_componentwise_sign(self):
        received = quat.quat(0.9, 1.2, -0.3, 0.1)
        assert np.array_equal(modem.demodulate(received), quat.quat(1, 1, -1, 1))

    def test_constellation_fixed_points(self):
        symbols = modem.CONSTELLATION
        assert np.array_equal(modem.demodulate(symbols), symbols)

    def test_idempotent(self):
        rng = np.random.default_rng(40)
        received = rng.normal(size=(500, 4))
        once = modem.demodulate(received)
        assert np.array_equal(modem.demodulate(once), once)

    def test_matches_nearest_neighbor_oracle(self):
        rng = np.random.default_rng(41)
        received = 3.0 * rng.normal(size=(10_000, 4))
        expected = nearest_symbol_indices(received, modem.CONSTELLATION)
        assert np.array_equal(modem.hard_decisions(received), expected)

    def test_decisions_make_no_input_sized_temporary(self):
        """An (8, 1, 2500, 4) input traces a peak under its own bytes, as uint8 indices
        equal to the int64 sign rule's, +-0, NaN and inf included: the bool signs are
        weighted in one byte each, not cast to int64 first."""
        rng = np.random.default_rng(42)
        received = rng.normal(size=(8, 1, 2500, 4))
        received.reshape(-1)[:10] = [0.0, -0.0, np.nan, np.inf, -np.inf, -np.nan, 0.0, -0.0, np.inf, np.nan]
        tracemalloc.start()
        try:
            decided = modem.hard_decisions(received)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert decided.dtype == np.uint8
        assert np.array_equal(decided, (received >= 0.0).astype(np.int64) @ np.array([1, 2, 4, 8]))
        assert peak < received.nbytes

    def test_zero_component_ties_to_plus_one(self):
        assert np.array_equal(modem.demodulate(quat.quat(0.0, -0.5, 0.0, 0.2)), quat.quat(1, -1, 1, 1))

    def test_round_trip_through_noiseless_channel(self):
        symbols = modem.modulate(ALL_BITS)
        assert np.array_equal(modem.demodulate(symbols), symbols)


class TestConstellationGeometry:
    def test_minimum_squared_distance_is_four(self):
        c = modem.CONSTELLATION
        diff = c[:, None, :] - c[None, :, :]
        distances = (diff * diff).sum(axis=-1)
        off_diagonal = distances[~np.eye(16, dtype=bool)]
        assert off_diagonal.min() == 4.0

    def test_mean_energy_and_mean_point(self):
        c = modem.CONSTELLATION
        assert quat.norm_sq(c).mean() == 4.0
        assert np.array_equal(c.mean(axis=0), np.zeros(4))


class TestCountErrors:
    def test_identical_sequences(self):
        idx = np.arange(16)
        assert modem.count_errors(idx, idx) == (0, 0)

    def test_single_symbol_all_bits_wrong(self):
        assert modem.count_errors(np.array([0b0000]), np.array([0b1111])) == (1, 4)

    def test_matches_naive_counting(self):
        rng = np.random.default_rng(42)
        sent = rng.integers(0, 16, 1000)
        decided = rng.integers(0, 16, 1000)
        symbol_errors = sum(int(s != d) for s, d in zip(sent, decided))
        bit_errors = sum(bin(s ^ d).count("1") for s, d in zip(sent, decided))
        assert modem.count_errors(sent, decided) == (symbol_errors, bit_errors)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            modem.count_errors(np.arange(3), np.arange(4))
