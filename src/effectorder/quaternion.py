"""Quaternion arrays and the complex embedding: conversion and test utilities.

A quaternion a + bi + cj + dk is stored as a length-4 float vector
(a, b, c, d); a matrix over the quaternions is an (n, m, 4) float array,
the public format of a herm(n,H) block.  Writing an entry as q = z + wj
with z = a + bi and w = c + di, the standard complex embedding sends an
(n, n, 4) Hermitian array to the 2n x 2n complex Hermitian matrix

    [[ Z,        W       ],
     [-conj(W),  conj(Z) ]]

which is how the library stores a herm(n,H) block: products, inverses,
eigendecompositions and solves all run on it directly.  Every eigenvalue
of the embedded matrix appears with even multiplicity, and spectral
projections commute with the quaternionic structure.  :func:`to_complex`
and :func:`from_complex` convert at the library's public boundary; the
quaternion arithmetic here serves the recovery of a Jordan isomorphism's
twist, the sampling of quaternionic isometries and the tests.
"""

from __future__ import annotations

import numpy as np


def qmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product, broadcasting over leading axes of (..., 4) arrays."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    a1, b1, c1, d1 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    a2, b2, c2, d2 = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.empty(np.broadcast_shapes(p.shape, q.shape))
    out[..., 0] = a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2
    out[..., 1] = a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2
    out[..., 2] = a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2
    out[..., 3] = a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2
    return out


def qconj(q: np.ndarray) -> np.ndarray:
    """Quaternion conjugate: negate the i, j, k components."""
    out = np.array(q, dtype=float)
    out[..., 1:] = -out[..., 1:]
    return out


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


def to_complex(A: np.ndarray) -> np.ndarray:
    """Embed an (..., n, m, 4) quaternion array as (..., 2n, 2m) complex matrices."""
    A = np.asarray(A, dtype=float)
    n, m = A.shape[-3], A.shape[-2]
    out = np.empty(A.shape[:-3] + (2 * n, 2 * m), dtype=complex)
    # written through the (real, imaginary) float view: exact, also for inf and NaN
    c = out.view(float).reshape(out.shape + (2,))
    c[..., :n, :m, :], c[..., :n, m:, :] = A[..., :2], A[..., 2:]  # Z, W
    c[..., n:, :m, 0], c[..., n:, :m, 1] = -A[..., 2], A[..., 3]  # -conj(W)
    c[..., n:, m:, 0], c[..., n:, m:, 1] = A[..., 0], -A[..., 1]  # conj(Z)
    return out


def from_complex(C: np.ndarray) -> np.ndarray:
    """Invert :func:`to_complex` bit for bit: Z and W are read from the top rows."""
    C = np.asarray(C, dtype=complex)
    n = C.shape[-2] // 2
    m = C.shape[-1] // 2
    Z, W = C[..., :n, :m], C[..., :n, m:]
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

