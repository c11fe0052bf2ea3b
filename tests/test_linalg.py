"""Tests for quaternion vectors, matrices, and the linear solver."""

import numpy as np
import pytest

from quatlink import linalg, quat
from quatlink.errors import DimensionMismatchError, SingularMatrixError

from oracles import dot_left_loop, hermitian_transpose_loop, matmul_loop, matvec_loop, outer_h_loop, table_conj, table_mul


def rand_vec(rng, n):
    return rng.normal(size=(n, 4))


def rand_mat(rng, r, c):
    return rng.normal(size=(r, c, 4))


def hpd_matrix(rng, n):
    """Hermitian positive-definite matrix B B^H + I."""
    b = rand_mat(rng, n, n)
    return matmul_loop(b, hermitian_transpose_loop(b)) + linalg.identity(n)


class TestDotLeft:
    def test_identity_weight(self):
        q = quat.quat(0.3, -0.2, 0.5, 0.7)
        assert np.array_equal(linalg.dot_left(quat.ONE[None], q[None]), q)

    def test_order_sensitive_units(self):
        """[j] . [i] is j*i = -k, not k."""
        assert np.array_equal(linalg.dot_left(quat.J[None], quat.I[None]), -quat.K)

    def test_matches_bruteforce_accumulation(self):
        rng = np.random.default_rng(20)
        w, s = rand_vec(rng, 8), rand_vec(rng, 8)
        assert np.allclose(linalg.dot_left(w, s), dot_left_loop(w, s), rtol=1e-13, atol=1e-13)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linalg.dot_left(np.zeros((3, 4)), np.zeros((4, 4)))


class TestOuterH:
    """Over a one-vector stack, mean_outer_h is the outer product M[r, c] = v[r] * conj(v[c])."""

    def test_scalar_case(self):
        m = linalg.mean_outer_h(quat.ONE[None, None])
        assert np.array_equal(m, quat.ONE[None, None])

    def test_unit_case(self):
        """i * conj(j) = i * (-j) = -k."""
        m = linalg.mean_outer_h(np.stack([quat.I, quat.J])[None])
        assert np.array_equal(m[0, 1], -quat.K)

    def test_elementwise_against_oracle(self):
        rng = np.random.default_rng(21)
        v = rand_vec(rng, 5)
        m = linalg.mean_outer_h(v[None])
        for r in range(5):
            for c in range(5):
                assert np.allclose(m[r, c], table_mul(v[r], table_conj(v[c])), atol=1e-13)

    def test_self_outer_is_hermitian(self):
        rng = np.random.default_rng(22)
        m = linalg.mean_outer_h(rand_vec(rng, 4)[None])
        assert np.allclose(m, hermitian_transpose_loop(m), atol=1e-13)


class TestMatrixOps:
    def test_identity_neutral(self):
        rng = np.random.default_rng(26)
        m = rand_mat(rng, 5, 5)
        assert np.allclose(matmul_loop(linalg.identity(5), m), m, atol=1e-13)
        assert np.allclose(matmul_loop(m, linalg.identity(5)), m, atol=1e-13)


class TestComplexAdjoint:
    def test_one_maps_to_identity(self):
        assert np.array_equal(linalg.to_complex_adjoint(quat.ONE[None, None]), np.eye(2, dtype=complex))

    def test_j_maps_to_symplectic_unit(self):
        assert np.array_equal(
            linalg.to_complex_adjoint(quat.J[None, None]),
            np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex),
        )

    def test_ring_homomorphism(self):
        rng = np.random.default_rng(28)
        p, q = rand_mat(rng, 3, 3), rand_mat(rng, 3, 3)
        lhs = linalg.to_complex_adjoint(matmul_loop(p, q))
        rhs = linalg.to_complex_adjoint(p) @ linalg.to_complex_adjoint(q)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_round_trip(self):
        """Column c of the matrix embedding is the embedding of column c of m."""
        rng = np.random.default_rng(29)
        m = rand_mat(rng, 2, 5)
        columns = linalg.to_complex_adjoint(m)[:, :5].T
        assert np.array_equal(linalg.vector_from_adjoint(columns), m.swapaxes(0, 1))

    def test_vector_embedding_round_trip(self):
        rng = np.random.default_rng(30)
        v = rand_vec(rng, 6)
        assert np.allclose(linalg.vector_from_adjoint(linalg.vector_to_adjoint(v)), v, atol=1e-15)

    def test_adjoint_consistent_with_matvec(self):
        """Embedded matrix times embedded vector equals embedded product."""
        rng = np.random.default_rng(31)
        m, v = rand_mat(rng, 4, 4), rand_vec(rng, 4)
        lhs = linalg.to_complex_adjoint(m) @ linalg.vector_to_adjoint(v)
        rhs = linalg.vector_to_adjoint(matvec_loop(m, v))
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestSolve:
    def test_scalar_division(self):
        x = linalg.solve(quat.quat(2.0)[None, None], quat.quat(1.0, 1.0)[None])
        assert np.allclose(x, quat.quat(0.5, 0.5)[None], atol=1e-15)

    def test_identity_system(self):
        rng = np.random.default_rng(32)
        b = rand_vec(rng, 4)
        assert np.allclose(linalg.solve(linalg.identity(4), b), b, atol=1e-15)

    def test_hermitian_positive_definite_vs_adjoint_oracle(self):
        rng = np.random.default_rng(33)
        a, b = hpd_matrix(rng, 8), rand_vec(rng, 8)
        x = linalg.solve(a, b)
        adjoint_solution = np.linalg.solve(linalg.to_complex_adjoint(a), linalg.vector_to_adjoint(b))
        expected = linalg.vector_from_adjoint(adjoint_solution)
        rel = np.abs(x - expected).max() / np.abs(expected).max()
        assert rel < 1e-10

    def test_residual_up_to_32(self):
        rng = np.random.default_rng(34)
        for n in (1, 2, 5, 16, 32):
            a, b = rand_mat(rng, n, n) + 2.0 * linalg.identity(n), rand_vec(rng, n)
            x = linalg.solve(a, b)
            residual = matvec_loop(a, x) - b
            rel = np.sqrt(quat.norm_sq(residual).sum() / quat.norm_sq(b).sum())
            assert rel < 1e-9, f"size {n}: relative residual {rel:.2e}"

    def test_pivoting_invariance(self):
        rng = np.random.default_rng(35)
        a, b = rand_mat(rng, 6, 6), rand_vec(rng, 6)
        x = linalg.solve(a, b)
        perm = rng.permutation(6)
        x_permuted = linalg.solve(a[perm], b[perm])
        assert np.abs(x - x_permuted).max() / np.abs(x).max() < 1e-10

    def test_zero_leading_pivot_is_handled(self):
        a = np.zeros((2, 2, 4))
        a[0, 1] = quat.ONE
        a[1, 0] = quat.ONE
        b = np.stack([np.array(quat.I), np.array(quat.J)])
        x = linalg.solve(a, b)
        assert np.array_equal(x[0], quat.J)
        assert np.array_equal(x[1], quat.I)

    def test_singular_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            linalg.solve(np.zeros((3, 3, 4)), np.zeros((3, 4)))

    def test_duplicate_rows_raise(self):
        rng = np.random.default_rng(36)
        a = rand_mat(rng, 3, 3)
        a[2] = a[1]
        with pytest.raises(SingularMatrixError):
            linalg.solve(a, rand_vec(rng, 3))

    def test_shape_errors(self):
        with pytest.raises(DimensionMismatchError):
            linalg.solve(np.zeros((2, 3, 4)), np.zeros((2, 4)))
        with pytest.raises(DimensionMismatchError):
            linalg.solve(linalg.identity(3), np.zeros((2, 4)))


class TestMeanOuterH:
    def test_matches_naive_average(self):
        rng = np.random.default_rng(37)
        stack = rng.normal(size=(40, 6, 4))
        naive = np.mean([outer_h_loop(v, v) for v in stack], axis=0)
        assert np.allclose(linalg.mean_outer_h(stack), naive, atol=1e-13)

    def test_result_is_hermitian_psd(self):
        """Sampled correlation matrices must have a nonnegative quadratic form."""
        rng = np.random.default_rng(38)
        m = linalg.mean_outer_h(rng.normal(size=(64, 5, 4)))
        assert np.allclose(m, hermitian_transpose_loop(m), atol=1e-12)
        for _ in range(50):
            x = rand_vec(rng, 5)
            mx = matvec_loop(m, x)
            quad = sum(quat.mul(quat.conj(x[l]), mx[l])[..., 0] for l in range(5))
            assert quad >= -1e-12 * quat.norm_sq(x).sum()
