"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately written from first principles (basis-table
multiplication, double loops, exhaustive searches) so the tests never reuse
the vectorized production code paths they are checking.
"""

import numpy as np

# (unit, unit) -> (sign, unit) for the basis {1, i, j, k}
HAMILTON_TABLE = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def table_mul(a, b):
    """Hamilton product via the basis multiplication table and bilinearity."""
    out = np.zeros(4)
    for m in range(4):
        for n in range(4):
            sign, unit = HAMILTON_TABLE[(m, n)]
            out[unit] += sign * a[m] * b[n]
    return out


def table_conj(a):
    return np.array([a[0], -a[1], -a[2], -a[3]])


def dot_left_loop(w, s):
    """sum_l w[l] * s[l] accumulated one scalar product at a time."""
    acc = np.zeros(4)
    for wl, sl in zip(w, s):
        acc = acc + table_mul(wl, sl)
    return acc


def outer_h_loop(a, b):
    """Outer product M[r, c] = a[r] * conj(b[c]), one entry at a time."""
    return np.array([[table_mul(x, table_conj(y)) for y in b] for x in a])


def hermitian_transpose_loop(m):
    """Conjugate transpose result[c, r] = conj(m[r, c]), one entry at a time."""
    return np.array([[table_conj(m[r, c]) for r in range(m.shape[0])] for c in range(m.shape[1])])


def matvec_loop(m, v):
    return np.stack([dot_left_loop(m[r], v) for r in range(m.shape[0])])


def matmul_loop(a, b):
    out = np.zeros((a.shape[0], b.shape[1], 4))
    for r in range(a.shape[0]):
        for c in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[r, c] += table_mul(a[r, k], b[k, c])
    return out


def convolve_loop(signal, taps):
    """Causal left-multiplied FIR convolution, double loop."""
    out = np.zeros_like(signal)
    for n in range(signal.shape[0]):
        for m in range(taps.shape[0]):
            if n - m >= 0:
                out[n] += table_mul(taps[m], signal[n - m])
    return out


def nearest_symbol_indices(points, constellation):
    """Exhaustive nearest-neighbor search over the 16-point constellation."""
    diffs = points[:, None, :] - constellation[None, :, :]
    return np.argmin((diffs * diffs).sum(axis=-1), axis=1)


def solve_via_adjoint(a_adjoint, b_adjoint):
    """Complex linear solve in the adjoint domain (numpy does the work)."""
    return np.linalg.solve(a_adjoint, b_adjoint)
