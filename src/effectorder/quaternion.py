"""Quaternion arrays and the complex embedding.

A quaternion a + bi + cj + dk is stored as a length-4 float vector
(a, b, c, d); a matrix over the quaternions is an (n, m, 4) float array.
Writing an entry as q = z + wj with z = a + bi and w = c + di, the
standard complex embedding sends an (n, n, 4) Hermitian array to the
2n x 2n complex Hermitian matrix

    [[ Z,        W       ],
     [-conj(W),  conj(Z) ]]

which is what eigendecompositions run on.  Every eigenvalue of the
embedded matrix appears with even multiplicity, and spectral projections
commute with the quaternionic structure, so they pull back through
``from_complex``.
"""

from __future__ import annotations

import numpy as np


def qmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product, broadcasting over leading axes of (..., 4) arrays."""
    a1, b1, c1, d1 = np.moveaxis(np.asarray(p, dtype=float), -1, 0)
    a2, b2, c2, d2 = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    return np.stack(
        [
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        ],
        axis=-1,
    )


def qconj(q: np.ndarray) -> np.ndarray:
    """Quaternion conjugate: negate the i, j, k components."""
    out = np.array(q, dtype=float)
    out[..., 1:] = -out[..., 1:]
    return out


def qabs(q: np.ndarray) -> np.ndarray:
    """Entrywise quaternion magnitude sqrt(a^2 + b^2 + c^2 + d^2)."""
    return np.sqrt(np.sum(np.square(np.asarray(q, dtype=float)), axis=-1))


def qmatmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix product of an (n, m, 4) and an (m, k, 4) quaternion array.

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
    """Conjugate transpose of an (n, m, 4) quaternion array."""
    return qconj(np.swapaxes(np.asarray(A, dtype=float), 0, 1))


def to_complex(A: np.ndarray) -> np.ndarray:
    """Embed an (n, m, 4) quaternion array as a 2n x 2m complex matrix."""
    A = np.asarray(A, dtype=float)
    n, m = A.shape[0], A.shape[1]
    Z = A[..., 0] + 1j * A[..., 1]
    W = A[..., 2] + 1j * A[..., 3]
    out = np.empty((2 * n, 2 * m), dtype=complex)
    out[:n, :m], out[:n, m:] = Z, W
    out[n:, :m], out[n:, m:] = -W.conj(), Z.conj()
    return out


def from_complex(C: np.ndarray) -> np.ndarray:
    """Invert :func:`to_complex`, averaging the two redundant copies."""
    C = np.asarray(C, dtype=complex)
    n = C.shape[0] // 2
    m = C.shape[1] // 2
    Z = 0.5 * (C[:n, :m] + C[n:, m:].conj())
    W = 0.5 * (C[:n, m:] - C[n:, :m].conj())
    return np.stack([Z.real, Z.imag, W.real, W.imag], axis=-1)


def qdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Quaternionic inner product sum_k conj(u_k) v_k of two (n, 4) columns."""
    return qmul(qconj(u), v).sum(axis=0)


def qgram_schmidt(A: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of an (n, m, 4) array (right scalars)."""
    A = np.array(A, dtype=float)
    n, m = A.shape[0], A.shape[1]
    out = np.zeros_like(A)
    for j in range(m):
        v = A[:, j, :].copy()
        for i in range(j):
            u = out[:, i, :]
            v = v - qmul(u, qdot(u, v)[None, :])
        nv = np.sqrt(np.sum(np.square(v)))
        if nv < 1e-12:
            raise ValueError("columns are linearly dependent")
        out[:, j, :] = v / nv
    return out


def quaternion_from_rotation(R: np.ndarray) -> np.ndarray:
    """Unit quaternion q with q v conj(q) = R v on the imaginary part.

    R must be (close to) a rotation matrix in SO(3); the result is
    determined up to sign and either representative is returned.
    """
    R = np.asarray(R, dtype=float)
    t = np.trace(R)
    if t > 0:
        s = 2.0 * np.sqrt(1.0 + t)
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    else:
        i = int(np.argmax(np.diag(R)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = 2.0 * np.sqrt(max(1.0 + R[i, i] - R[j, j] - R[k, k], 0.0))
        q = np.empty(4)
        q[0] = (R[k, j] - R[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (R[j, i] + R[i, j]) / s
        q[1 + k] = (R[k, i] + R[i, k]) / s
    return q / np.sqrt(np.sum(np.square(q)))
