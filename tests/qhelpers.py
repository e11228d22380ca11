"""Quaternion matrix helpers that only the tests use: magnitudes, products
and adjoints of (..., n, m, 4) ring arrays, computed apart from the
library's complex embedding so that they can check it."""

import numpy as np

from effectorder.quaternion import qconj


def qabs(q: np.ndarray) -> np.ndarray:
    """Entrywise quaternion magnitude sqrt(a^2 + b^2 + c^2 + d^2), by
    hypot so that no square overflows."""
    return np.hypot.reduce(np.asarray(q, dtype=float), axis=-1)


def qmatmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix product of (..., n, m, 4) and (..., m, k, 4) quaternion arrays.

    With entries z + w j, (Z1 + W1 j)(Z2 + W2 j) = (Z1 Z2 - W1 conj(W2))
    + (Z1 W2 + W1 conj(Z2)) j, so four complex matrix products suffice.
    """
    # viewing the last axis as two complex numbers gives (z, w) per entry
    a = np.ascontiguousarray(A, dtype=float).view(complex)
    b = np.ascontiguousarray(B, dtype=float).view(complex)
    z1, w1, z2, w2 = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    return np.stack(
        [z1 @ z2 - w1 @ w2.conj(), z1 @ w2 + w1 @ z2.conj()], axis=-1
    ).view(float)


def qadjoint(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose of an (..., n, m, 4) quaternion array."""
    return qconj(np.asarray(A, dtype=float).swapaxes(-3, -2))

