"""Dense quaternion vectors and matrices.

Vectors are (n, 4) arrays, matrices (rows, cols, 4), both in the component
convention of :mod:`quatlink.quat`.  Because quaternions do not commute, the
package fixes a single convention: coefficients multiply from the LEFT.  A
matrix-vector product is (A x)[r] = sum_c A[r,c] * x[c] with A's entry as the
left factor, and `dot_left(w, s)` is sum_l w[l] * s[l].

`solve` runs quaternion Gaussian elimination with partial pivoting.  The
complex adjoint embedding of matrices (`to_complex_adjoint`) and of vectors
(`vector_to_adjoint`, `vector_from_adjoint`) gives an independent route
through ordinary complex linear algebra: the tests use it to cross-check
`solve` and the Wiener solve, and `wiener.solve_wiener` takes the
eigenvalues and the solve of a run its LDL^H certificate fails on through
these maps.  `mean_outer_h`, the sample correlation matrix,
averages the quaternion outer products directly.
"""

import numpy as np

from . import quat
from .errors import DimensionMismatchError, SingularMatrixError

# Pivot with norm_sq below this fraction of the largest initial entry's
# norm_sq is treated as zero (1e-12 on the norm itself).
SINGULARITY_RTOL = 1e-24


def _vec(v) -> np.ndarray:
    v = quat._q(v)
    if v.ndim != 2 or v.shape[0] == 0:
        raise DimensionMismatchError(f"expected a (n, 4) quaternion vector, got shape {v.shape}")
    return v


def _mat(m) -> np.ndarray:
    m = quat._q(m)
    if m.ndim != 3 or m.shape[0] == 0 or m.shape[1] == 0:
        raise DimensionMismatchError(f"expected a (rows, cols, 4) quaternion matrix, got shape {m.shape}")
    return m


def dot_left(w, s) -> np.ndarray:
    """sum_l w[l] * s[l] with the weights as left factors.

    Broadcasts over leading axes; the reduced axis is the second to last.
    """
    w, s = quat._q(w), quat._q(s)
    if w.shape[-2] != s.shape[-2]:
        raise DimensionMismatchError(f"length mismatch: {w.shape[-2]} vs {s.shape[-2]}")
    return quat.mul(w, s).sum(axis=-2)


def identity(n: int) -> np.ndarray:
    """n-by-n quaternion identity matrix."""
    m = np.zeros((n, n, 4))
    m[np.arange(n), np.arange(n), 0] = 1.0
    return m


def solve(a, b) -> np.ndarray:
    """Solve A x = b over the quaternions (left-multiplication convention).

    Gaussian elimination with partial pivoting by largest pivot norm_sq,
    eliminating with quaternion inverses.  A pivot whose norm_sq falls below
    SINGULARITY_RTOL times the largest entry norm_sq of the input matrix
    raises SingularMatrixError.

    Parameters
    ----------
    a : (n, n, 4) array
    b : (n, 4) array

    Returns
    -------
    (n, 4) array x with sum_c a[r, c] * x[c] = b[r].
    """
    a, b = _mat(a), _vec(b)
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimensionMismatchError(f"matrix must be square, got {a.shape[0]}x{a.shape[1]}")
    if b.shape[0] != n:
        raise DimensionMismatchError(f"matrix is {n}x{n} but right-hand side has length {b.shape[0]}")

    aug = np.concatenate([a, b[:, None, :]], axis=1).astype(np.float64, copy=True)
    threshold = SINGULARITY_RTOL * float(quat.norm_sq(a).max())

    for k in range(n):
        col = quat.norm_sq(aug[k:, k])
        piv = k + int(np.argmax(col))
        if col[piv - k] <= threshold:
            raise SingularMatrixError(f"matrix is singular or numerically singular at pivot {k}")
        if piv != k:
            aug[[k, piv]] = aug[[piv, k]]
        if k + 1 < n:
            factors = quat.mul(aug[k + 1 :, k], quat.inverse(aug[k, k]))
            aug[k + 1 :, k:] -= quat.mul(factors[:, None, :], aug[k, k:][None, :, :])

    x = np.zeros((n, 4))
    for k in range(n - 1, -1, -1):
        rhs = aug[k, n]
        if k + 1 < n:
            rhs = rhs - quat.mul(aug[k, k + 1 : n], x[k + 1 :]).sum(axis=0)
        x[k] = quat.mul(quat.inverse(aug[k, k]), rhs)
    return x


def to_complex_adjoint(m) -> np.ndarray:
    """Embed a (r, c, 4) quaternion matrix as a (2r, 2c) complex matrix.

    Writing each entry q = a + b*j with a = q0 + q1*i and b = q2 + q3*i, the
    image is the block matrix [[A, B], [-conj(B), conj(A)]].  The map is a
    ring homomorphism, so products (and hence solves) can be cross-checked
    through ordinary complex arithmetic.  Leading axes are a batch.
    """
    m = quat._q(m)
    if m.ndim < 3 or m.shape[-3] == 0 or m.shape[-2] == 0:
        raise DimensionMismatchError(f"expected a (..., rows, cols, 4) quaternion matrix, got shape {m.shape}")
    a, b = quat.to_pairs(m)
    return np.block([[a, b], [-b.conj(), a.conj()]])


def vector_to_adjoint(v) -> np.ndarray:
    """First column of the adjoint embedding of a column vector: (..., n, 4) -> (..., 2n) complex."""
    v = quat._q(v)
    if v.ndim < 2 or v.shape[-2] == 0:
        raise DimensionMismatchError(f"expected a (..., n, 4) quaternion vector, got shape {v.shape}")
    a, b = quat.to_pairs(v)
    return np.concatenate([a, -b.conj()], axis=-1)


def vector_from_adjoint(z) -> np.ndarray:
    """Invert `vector_to_adjoint`: (..., 2n) complex -> (..., n, 4)."""
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim < 1 or z.shape[-1] % 2:
        raise DimensionMismatchError(f"adjoint vector must have even length, got shape {z.shape}")
    n = z.shape[-1] // 2
    return quat.from_pairs(z[..., :n], -z[..., n:].conj())


def mean_outer_h(vectors) -> np.ndarray:
    """Average of the outer products M[r, c] = v[r] * conj(v[c]) over the
    leading axis of a (N, n, 4) stack.
    """
    v = quat._q(vectors)
    if v.ndim != 3 or v.shape[0] == 0:
        raise DimensionMismatchError(f"expected a (N, n, 4) stack, got shape {v.shape}")
    return quat.mul(v[:, :, None], quat.conj(v)[:, None]).mean(axis=0)
