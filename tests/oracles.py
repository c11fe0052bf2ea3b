"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately written from first principles (basis-table
multiplication, double loops, exhaustive searches) so the tests never reuse
the vectorized production code paths they are checking.  The one exception
is `apply_one_run`, the one-run call of `channel.apply_mimo` that the
channel and harness tests share.  `qlms_steps` multiplies through `quat.mul`,
which the quat tests hold to the basis table, because the compiled QLMS
kernel rounds in `quat.mul`'s order and the oracle must match it exactly.
`fir_steps` takes the compiled FIR's order for the same reason, and
`recursion_statistics` the compiled block statistics' order, with
`from_moments` reading its signs off `quat.mul`, while `convolve_loop` sums
in its own order and pins the sign convention on inputs whose every product
and sum is exact.  `solve_via_adjoint` is the Wiener solve built from the
`linalg` maps, each step on a whole quaternion or adjoint array, which the
pair-form solve of `wiener` must equal bit for bit.
"""

import functools

import numpy as np

from quatlink import channel, linalg, quat
from quatlink.adaptive import ERROR_ENERGY_LIMIT

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


def left_rows(a):
    """L(a) from the basis table, a*b = L(a) b: entry [unit, n] is sign * a[m] for each (m, n) -> (sign, unit)."""
    rows = np.empty((4, 4))
    for (m, n), (sign, unit) in HAMILTON_TABLE.items():
        rows[unit, n] = sign * a[m]
    return rows


def fir_steps(signals, grid):
    """`channel.mimo_convolve` on one run, (C, N, 4) signals and an (S, C, M, 4) grid,
    in the order the C FIR states: each input stream's partial starts at +0.0 and
    adds the taps in ascending m, component k of tap m's term being
    ((L[k, 0] b0 + L[k, 1] b1) + L[k, 2] b2) + L[k, 3] b3 with b = signals[c, t - m];
    the partials are summed in stream order.  The elementwise steps round as the
    C loop's do, so the two agree bit for bit.
    """
    streams, n, _ = signals.shape
    outputs, _, length, _ = grid.shape
    out = np.empty((outputs, n, 4))
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is NaN in both
        for s in range(outputs):
            for c in range(streams):
                partial = np.zeros((n, 4))
                for m in range(min(length, n)):
                    rows, (b0, b1, b2, b3) = left_rows(grid[s, c, m]), signals[c, : n - m].T
                    for k, (l0, l1, l2, l3) in enumerate(rows):
                        partial[m:, k] = partial[m:, k] + (((l0 * b0 + l1 * b1) + l2 * b2) + l3 * b3)
                out[s] = partial if c == 0 else out[s] + partial
    return out


def nearest_symbol_indices(points, constellation):
    """Exhaustive nearest-neighbor search over the 16-point constellation."""
    diffs = points[:, None, :] - constellation[None, :, :]
    return np.argmin((diffs * diffs).sum(axis=-1), axis=1)


def solve_via_adjoint(r, p, ridge):
    """Wiener weights conj((R + ridge*I)^-1 p) of every run, each step on a quaternion or an adjoint array.

    The ridge is added to R as quaternions, R + ridge * I; the sum is embedded
    by `linalg.to_complex_adjoint`, solved against `linalg.vector_to_adjoint(p)`
    by `np.linalg.solve`, read back by `linalg.vector_from_adjoint` and
    conjugated by `quat.conj`.
    """
    ridge = np.asarray(ridge, dtype=np.float64)
    regularized = r + ridge[..., None, None, None] * linalg.identity(r.shape[-2])
    solution = np.linalg.solve(linalg.to_complex_adjoint(regularized), linalg.vector_to_adjoint(p)[..., None])
    return quat.conj(linalg.vector_from_adjoint(solution[..., 0]))


def qlms_steps(received, reference, length, step_size, delay=0):
    """QLMS on one (C, N, 4) run, stepped one tap at a time in `quat.mul` arithmetic.

    The regressor's C*L samples x_k are taken in (lag, stream) order.  A step
    starts from y = 0 and adds y = y + w_k * x_k tap by tap, sets
    e = reference[t - delay] - y and norm_sq(e), then updates each tap to
    w_k + mu * (e * conj(x_k)): the order the kernel states.  The run freezes
    at the first step t whose norm_sq(e) is not <= ERROR_ENERGY_LIMIT (NaN
    included) or whose update leaves non-finite weights: it keeps the weights
    it used at step t, and every later trace entry is NaN.  Returns the (N,)
    norm_sq(e) trace, NaN for t < delay, the (C*L, 4) weights laid out
    [stream 0 lags, stream 1 lags, ...], and the step it froze at, -1 if it
    never did.
    """
    streams, n, _ = received.shape
    padded = np.concatenate([np.zeros((streams, length - 1, 4)), received], axis=1)
    weights = np.zeros((length, streams, 4))
    trace = np.full(n, np.nan)
    diverged_at = -1
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is reported by diverged_at
        for t in range(delay, n):
            samples = padded[:, t : t + length][:, ::-1].swapaxes(0, 1)  # (L, C, 4), samples[l, c] = x_c[t - l]
            products, y = quat.mul(weights, samples), np.zeros(4)
            for lag in range(length):
                for c in range(streams):
                    y = y + products[lag, c]
            e = reference[t - delay] - y
            trace[t] = quat.norm_sq(e)
            updated = weights + step_size * quat.mul(e, quat.conj(samples))
            if not (trace[t] <= ERROR_ENERGY_LIMIT and np.isfinite(updated).all()):
                diverged_at = t
                break
            weights = updated
    return trace, weights.swapaxes(0, 1).reshape(streams * length, 4), diverged_at


# With the basis units E, E[m] * E[n] = +-E[m ^ n], so component i of
# a*conj(b) is a sum over j of a sign times a[i ^ j] b[j].  The signs are
# component i of E[i ^ j] * conj(E[j]).
_ROWS, _COLS = np.indices((4, 4))
_E = np.eye(4)
_MOMENT_SIGNS = quat.mul(_E[_ROWS ^ _COLS], quat.conj(_E))[_ROWS, _COLS, _ROWS]


def from_moments(moments):
    """sum a*conj(b) from the real moment matrices sum a b^T, (..., 4, 4) -> (..., 4).

    A sign/XOR contraction: component i is sum_j sign[i, j] * moments[i ^ j, j],
    its four terms added in turn from j = 0.
    """
    m = np.asarray(moments, dtype=np.float64)
    rows = (functools.reduce(np.add, (_MOMENT_SIGNS[i, j] * m[..., i ^ j, j] for j in range(4))) for i in range(4))
    return np.stack(list(rows), axis=-1)


def recursion_statistics(signal, reference, length, delay):
    """R (G, C*L, C*L, 4) and p (G, C*L, 4) of G runs, a (G, C, N, 4) signal and
    (G, N, 4) references, by the covariance recursion in numpy, in the order
    `wiener.estimate_statistics`' C pass states.

    With x_l of stream c at t the sample c[t - l], zero before the start, the
    first block row of the real moments M[g, c, k, a, c', l, b] = sum_t x_k of c
    [a] x_l of c' [b] and the cross moments sum_t x_l of c [a] r[t - delay][b]
    start at +0.0 and add t = delay, delay + 1, ... in turn.  The first column
    is the transposed first row; each later row is the one before, shifted one
    lag, plus the products of the sample that enters the window less those of
    the one that leaves it, one lag row at a time.  `from_moments` folds the
    4x4 blocks, and both are divided by N - delay.
    """
    g, c, n, _ = signal.shape
    padded = np.concatenate([np.zeros((g, c, length - 1, 4)), signal], axis=2)
    # (G, C, N, L, 4): lags[..., t, l, :] is x_l at t
    lags = np.stack([padded[:, :, length - 1 - l : length - 1 - l + n] for l in range(length)], axis=3)
    moments, cross = np.zeros((g, c, length, 4, c, length, 4)), np.zeros((g, c, length, 4, 4))
    for t in range(delay, n):
        x = lags[:, :, t]
        moments[:, :, 0] = moments[:, :, 0] + x[:, :, 0, :, None, None, None] * x[:, None, None]
        cross = cross + x[..., None] * reference[:, t - delay, None, None, None, :]
    moments[:, :, 1:, :, :, 0, :] = moments[:, :, 0, :, :, 1:, :].transpose(0, 3, 4, 5, 1, 2)
    # head holds the samples d-1-k and tail the samples N-1-k of each stream, k < L-1, zeros before the start
    at = np.subtract.outer([delay - 1, n - 1], np.arange(length - 1))
    edges = np.where((at >= 0)[..., None], signal[:, :, np.maximum(at, 0)], 0.0)  # (G, C, 2, L-1, 4)
    head, tail = np.moveaxis(edges, 2, 0)
    for k in range(1, length):
        step = head[:, :, k - 1, :, None, None, None] * head[:, None, None]
        step -= tail[:, :, k - 1, :, None, None, None] * tail[:, None, None]
        np.add(moments[:, :, k - 1, :, :, :-1, :], step, out=moments[:, :, k, :, :, 1:, :])
    blocks = moments.transpose(0, 1, 2, 4, 5, 3, 6)  # (G, C, L, C, L, 4, 4)
    autocorrelation = from_moments(blocks).reshape(g, c * length, c * length, 4) / (n - delay)
    return autocorrelation, from_moments(cross).reshape(g, c * length, 4) / (n - delay)


def apply_one_run(grid, signals, variance, rng):
    """`channel.apply_mimo` on one run: a (rx, tx, M, 4) grid and (tx, N, 4) signals give (rx, N, 4)."""
    return channel.apply_mimo(np.asarray(grid)[None], np.asarray(signals)[None], [variance], [rng])[0]
