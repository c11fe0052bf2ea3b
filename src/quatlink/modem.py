"""16-point 4-D QAM over the quaternion components.

Each of the four components independently carries one bit and takes the
value -1 or +1, giving a 16-symbol constellation with per-symbol energy 4.
The symbol index packs the bits as b0 + 2*b1 + 4*b2 + 8*b3 with bit m mapped
to component m of (q0, q1, q2, q3); the labeling is natural binary, which is
optimal here because the components are independent binary dimensions.
"""

import numpy as np

from .errors import DimensionMismatchError

NUM_SYMBOLS = 16

# uint8, so the decisions' matmul casts its bool operand to one byte per component, not to int64
_BIT_WEIGHTS = np.array([1, 2, 4, 8], dtype=np.uint8)

# Row s is the symbol with index s.
CONSTELLATION = 2.0 * ((np.arange(NUM_SYMBOLS)[:, None] >> np.arange(4)[None, :]) & 1) - 1.0

_POPCOUNT = np.array([bin(v).count("1") for v in range(NUM_SYMBOLS)])


def modulate(bits) -> np.ndarray:
    """Map bit groups to symbols: component m = +1 if bit m else -1.

    `bits` has shape (..., 4) with entries in {0, 1}; the result has the same
    shape with entries in {-1.0, +1.0}.
    """
    bits = np.asarray(bits)
    if bits.shape[-1:] != (4,):
        raise DimensionMismatchError(f"expected groups of 4 bits, got shape {bits.shape}")
    if not np.isin(bits, (0, 1)).all():
        raise ValueError("bits must be 0 or 1")
    return 2.0 * bits - 1.0


def index_to_symbol(index) -> np.ndarray:
    """Constellation point(s) for index array with values in [0, 16)."""
    return CONSTELLATION[np.asarray(index)]


def hard_decisions(received) -> np.ndarray:
    """Indices of the nearest constellation points (componentwise sign, ties to +1), as uint8."""
    received = np.asarray(received, dtype=np.float64)
    if received.shape[-1:] != (4,):
        raise DimensionMismatchError(f"expected quaternion samples, got shape {received.shape}")
    return (received >= 0.0) @ _BIT_WEIGHTS


def demodulate(received) -> np.ndarray:
    """Nearest constellation point for each sample.

    Minimizing |q - symbol|^2 over the constellation reduces to taking the
    sign of each component; a zero component resolves to +1.
    """
    return index_to_symbol(hard_decisions(received))


def count_errors(sent_indices, decided_indices) -> tuple[int, int]:
    """(symbol errors, bit errors) between two index sequences.

    A symbol error is any index mismatch; bit errors are the Hamming distance
    between the 4-bit indices.
    """
    sent = np.asarray(sent_indices)
    decided = np.asarray(decided_indices)
    if sent.shape != decided.shape:
        raise DimensionMismatchError(f"sequence lengths differ: {sent.shape} vs {decided.shape}")
    symbol_errors = int(np.count_nonzero(sent != decided))
    bit_errors = int(_POPCOUNT[np.bitwise_xor(sent, decided)].sum())
    return symbol_errors, bit_errors
