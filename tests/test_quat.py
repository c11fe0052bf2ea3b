"""Tests for the quaternion scalar algebra."""

import numpy as np
import pytest

from quatlink import quat

from oracles import from_moments, table_mul

UNITS = {"1": quat.ONE, "i": quat.I, "j": quat.J, "k": quat.K}


def rand_quats(rng, n):
    return rng.normal(size=(n, 4))


class TestHamiltonTable:
    """The multiplication table must hold exactly on integer components."""

    @pytest.mark.parametrize(
        "left,right,expected",
        [
            ("i", "j", quat.K),
            ("j", "i", -quat.K),
            ("j", "k", quat.I),
            ("k", "j", -quat.I),
            ("k", "i", quat.J),
            ("i", "k", -quat.J),
            ("i", "i", -quat.ONE),
            ("j", "j", -quat.ONE),
            ("k", "k", -quat.ONE),
        ],
    )
    def test_unit_products(self, left, right, expected):
        assert np.array_equal(quat.mul(UNITS[left], UNITS[right]), expected)

    def test_one_plus_i_times_one_plus_j(self):
        """(1+i)(1+j) expands to 1+i+j+k by distributivity and the table."""
        product = quat.mul(quat.quat(1, 1, 0, 0), quat.quat(1, 0, 1, 0))
        assert np.array_equal(product, quat.quat(1, 1, 1, 1))

    def test_matches_table_oracle_exactly_on_integers(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = rng.integers(-5, 6, 4).astype(float)
            b = rng.integers(-5, 6, 4).astype(float)
            assert np.array_equal(quat.mul(a, b), table_mul(a, b))

    def test_matches_table_oracle_on_floats(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            a, b = rng.normal(size=4), rng.normal(size=4)
            assert np.allclose(quat.mul(a, b), table_mul(a, b), rtol=1e-13, atol=1e-13)

    def test_non_commutativity_witness(self):
        assert not np.array_equal(quat.mul(quat.I, quat.J), quat.mul(quat.J, quat.I))


class TestAlgebraLaws:
    def test_associativity(self):
        rng = np.random.default_rng(1)
        a, b, c = (rand_quats(rng, 2000) for _ in range(3))
        lhs = quat.mul(quat.mul(a, b), c)
        rhs = quat.mul(a, quat.mul(b, c))
        scale = np.sqrt(quat.norm_sq(a) * quat.norm_sq(b) * quat.norm_sq(c))
        assert (np.abs(lhs - rhs).max(axis=-1) <= 1e-12 * scale).all()

    def test_distributivity(self):
        rng = np.random.default_rng(2)
        a, b, c = (rand_quats(rng, 2000) for _ in range(3))
        lhs = quat.mul(a, b + c)
        rhs = quat.mul(a, b) + quat.mul(a, c)
        scale = np.sqrt(quat.norm_sq(a) * (quat.norm_sq(b) + quat.norm_sq(c)))
        assert (np.abs(lhs - rhs).max(axis=-1) <= 1e-12 * scale).all()

    def test_norm_multiplicativity(self):
        rng = np.random.default_rng(3)
        a, b = rand_quats(rng, 5000), rand_quats(rng, 5000)
        lhs = quat.norm_sq(quat.mul(a, b))
        rhs = quat.norm_sq(a) * quat.norm_sq(b)
        assert np.allclose(lhs, rhs, rtol=1e-12)


class TestConjugate:
    def test_definition(self):
        assert np.array_equal(quat.conj(quat.quat(1, 1, 1, 1)), quat.quat(1, -1, -1, -1))

    def test_real_is_self_conjugate(self):
        assert np.array_equal(quat.conj(quat.quat(5)), quat.quat(5))

    def test_involution(self):
        rng = np.random.default_rng(4)
        a = rand_quats(rng, 100)
        assert np.array_equal(quat.conj(quat.conj(a)), a)

    def test_anti_automorphism_exact_on_integers(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = rng.integers(-4, 5, 4).astype(float)
            b = rng.integers(-4, 5, 4).astype(float)
            assert np.array_equal(quat.conj(quat.mul(a, b)), quat.mul(quat.conj(b), quat.conj(a)))

    def test_norm_sq_is_real_part_of_self_product(self):
        rng = np.random.default_rng(6)
        a = rand_quats(rng, 500)
        self_products = quat.mul(a, quat.conj(a))
        assert np.allclose(self_products[..., 0], quat.norm_sq(a), rtol=1e-12)
        assert np.allclose(self_products[..., 1:], 0.0, atol=1e-12)


class TestNormSq:
    def test_examples(self):
        assert quat.norm_sq(quat.quat(1, 1, 1, 1)) == 4.0
        assert quat.norm_sq(quat.quat(0)) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        assert (quat.norm_sq(rand_quats(rng, 1000)) >= 0.0).all()


class TestInverse:
    def test_real_case(self):
        assert np.array_equal(quat.inverse(quat.quat(2)), quat.quat(0.5))

    def test_unit_imaginary(self):
        assert np.array_equal(quat.inverse(quat.I), -quat.I)

    def test_one_plus_units(self):
        """inverse(1+i+j+k) must multiply back to one from both sides."""
        a = quat.quat(1, 1, 1, 1)
        inv = quat.inverse(a)
        assert np.allclose(inv, quat.quat(1, -1, -1, -1) / 4.0)
        assert np.allclose(quat.mul(a, inv), quat.ONE, atol=1e-15)
        assert np.allclose(quat.mul(inv, a), quat.ONE, atol=1e-15)

    def test_random_round_trip(self):
        rng = np.random.default_rng(8)
        a = rand_quats(rng, 300)
        product = quat.mul(a, quat.inverse(a))
        assert np.allclose(product, np.broadcast_to(quat.ONE, product.shape), atol=1e-12)

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            quat.inverse(quat.quat(0))

    def test_any_zero_entry_raises(self):
        batch = np.stack([np.array(quat.I), np.zeros(4)])
        with pytest.raises(ZeroDivisionError):
            quat.inverse(batch)


class TestFromMoments:
    """sum a * conj(b) from the real moments sum a b^T, against a direct sum of products."""

    def test_exact_on_integers(self):
        rng = np.random.default_rng(79)
        a, b = rng.integers(-5, 6, (2, 100, 4)).astype(float)
        moments = (a[:, :, None] * b[:, None, :]).sum(axis=0)
        assert np.array_equal(from_moments(moments), quat.mul(a, quat.conj(b)).sum(axis=0))

    def test_runs_and_two_streams_on_floats(self):
        """(G, N, C, 4) samples with C = 2 give every (stream, stream) moment of each run."""
        rng = np.random.default_rng(80)
        a, b = rng.normal(size=(2, 3, 50, 2, 4))
        moments = np.einsum("gtca,gtdb->gcdab", a, b)
        direct = quat.mul(a[:, :, :, None], quat.conj(b)[:, :, None, :]).sum(axis=1)
        assert np.allclose(from_moments(moments), direct, rtol=0.0, atol=1e-13)


class TestPairs:
    def test_product_in_pairs_matches_mul(self):
        """(a1 + b1 j)(a2 + b2 j) = (a1 a2 - b1 conj(b2)) + (a1 b2 + b1 conj(a2)) j."""
        rng = np.random.default_rng(11)
        p, q = rand_quats(rng, 32), rand_quats(rng, 32)
        (pa, pb), (qa, qb) = quat.to_pairs(p), quat.to_pairs(q)
        product = quat.from_pairs(pa * qa - pb * qb.conj(), pa * qb + pb * qa.conj())
        assert np.allclose(product, quat.mul(p, q), rtol=1e-13, atol=1e-13)

    def test_round_trip_is_exact_for_every_value(self):
        q = np.array([[1.0, np.inf, -0.0, 3.0], [np.nan, 2.0, -np.inf, 0.5]])
        a, b = quat.to_pairs(q)
        assert a[0] == complex(1.0, np.inf) and b[1] == complex(-np.inf, 0.5)
        assert np.array_equal(quat.from_pairs(a, b), q, equal_nan=True)
        assert np.signbit(b[0].real)


class TestPlumbing:
    def test_construction_and_parts(self):
        q = quat.quat(1.0, 2.0, 3.0, 4.0)
        assert q.shape == (4,)
        assert q[..., 0] == 1.0

    def test_construction_broadcasts(self):
        q = quat.quat(np.ones(3), 0.0, 0.0, np.arange(3.0))
        assert q.shape == (3, 4)
        assert np.array_equal(q[..., 3], np.arange(3.0))

    def test_bad_trailing_axis_rejected(self):
        with pytest.raises(ValueError):
            quat.mul(np.zeros(3), quat.ONE)

    def test_broadcast_matches_scalar_loop(self):
        """The vectorized product must agree bit for bit with scalar calls."""
        rng = np.random.default_rng(9)
        a, b = rand_quats(rng, 64), rand_quats(rng, 64)
        batch = quat.mul(a, b)
        for idx in range(64):
            assert np.array_equal(batch[idx], quat.mul(a[idx], b[idx]))

    def test_mul_broadcasts_scalar_against_batch(self):
        rng = np.random.default_rng(10)
        a = rand_quats(rng, 16)
        single = quat.quat(0.0, 1.0, 0.0, 0.0)
        assert np.array_equal(quat.mul(single, a)[3], quat.mul(single, a[3]))

    def test_inputs_never_mutated(self):
        a = quat.quat(1, 2, 3, 4)
        snapshot = a.copy()
        quat.mul(a, a), quat.conj(a), quat.inverse(a), quat.to_pairs(a)[0].fill(0.0)
        assert np.array_equal(a, snapshot)
