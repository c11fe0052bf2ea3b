"""Hamilton quaternion arithmetic on component arrays.

A quaternion q0 + i*q1 + j*q2 + k*q3 is stored as a float64 array whose last
axis has length 4, ordered (q0, q1, q2, q3).  A single quaternion is a
shape-(4,) array, a signal of N samples is (N, 4), and so on.  Every
operation broadcasts over the leading axes (so the same `mul` multiplies two
scalars, a tap by a whole signal, or two stacked signals) and never mutates
its inputs.

`mul` is the one place in Python that the sign convention is written.  The
C kernels of `kernels` write its products out term by term in its order, and
`block_moments` there states the signs that turn the real moments sum a b^T
into sum a*conj(b).
"""

import numpy as np


def _q(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != (4,):
        raise ValueError(f"quaternion array must have a trailing axis of length 4, got shape {x.shape}")
    return x


def quat(q0, q1=0.0, q2=0.0, q3=0.0) -> np.ndarray:
    """Build a quaternion array from four real components (broadcast together)."""
    return np.stack(np.broadcast_arrays(*(np.asarray(c, dtype=np.float64) for c in (q0, q1, q2, q3))), axis=-1)


ONE = quat(1.0)
I = quat(0.0, 1.0)
J = quat(0.0, 0.0, 1.0)
K = quat(0.0, 0.0, 0.0, 1.0)


def mul(a, b) -> np.ndarray:
    """Hamilton product a*b (non-commutative; i*j = k, j*i = -k)."""
    a, b = _q(a), _q(b)
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        (
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        ),
        axis=-1,
    )


def conj(a) -> np.ndarray:
    """Quaternion conjugate: negate the three imaginary components."""
    return _q(a) * np.array([1.0, -1.0, -1.0, -1.0])


def norm_sq(a) -> np.ndarray:
    """Squared norm q0^2 + q1^2 + q2^2 + q3^2, i.e. the real part of a*conj(a)."""
    a = _q(a)
    return (a * a).sum(axis=-1)


def inverse(a) -> np.ndarray:
    """Multiplicative inverse conj(a) / norm_sq(a).

    Raises ZeroDivisionError if any entry is the zero quaternion.
    """
    a = _q(a)
    n = norm_sq(a)
    if np.any(n == 0.0):
        raise ZeroDivisionError("zero quaternion has no inverse")
    return conj(a) / n[..., None]


def to_pairs(q) -> tuple[np.ndarray, np.ndarray]:
    """Complex-pair form q = a + b*j with a = q0 + q1*i and b = q2 + q3*i.

    It serves the complex adjoint maps of `linalg`, which the Wiener solve
    takes.  The pairs are contiguous copies out of a complex view of the
    components, exact for every value; q0 + 1j*q1 is not, as 1j*inf has the
    real part 0*inf = NaN.
    """
    pairs = np.ascontiguousarray(_q(q)).view(np.complex128)
    return pairs[..., 0].copy(), pairs[..., 1].copy()


def from_pairs(a, b) -> np.ndarray:
    """Inverse of `to_pairs`: complex arrays a, b -> (..., 4) components."""
    return np.stack((a.real, a.imag, b.real, b.imag), axis=-1)
