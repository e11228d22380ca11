"""The one owner of the library's LAPACK calls.

On the library's small blocks ``numpy.linalg``'s Python wrapper costs more
than LAPACK, so :func:`solve` and :func:`cholesky` call the gufuncs it calls,
bound at import, with the signature it picks for float64 and complex128
operands, under a fresh ``np.errstate`` per call as it does: numpy 2 refuses
to enter one instance twice, and the thread pool of ``isomorphisms`` calls
both from several threads.  :func:`eigh`, :func:`eigvalsh`, :func:`svd` and
:func:`qr` look ``numpy.linalg`` up at each call, so that a wrapper installed
there sees them.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

_solve = _umath_linalg.solve  # (m,m),(m,n)->(m,n)
_cholesky_lo = _umath_linalg.cholesky_lo  # (m,m)->(m,m)


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^(-1) b by one LU solve, for a square a or a stack of them, and a matrix b
    or a stack of them, broadcast against a; ``LinAlgError`` when a block of a is
    singular, as ``numpy.linalg.solve``, whose result this is bit for bit."""
    signature = "DD->D" if a.dtype.kind == "c" or b.dtype.kind == "c" else "dd->d"
    with np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return _solve(a, b, signature=signature)


def cholesky(a: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of a, or of each block of a stack, as
    ``numpy.linalg.cholesky`` gives it, but nothing is raised: a block that is
    not positive definite is NaN in every entry, and one that holds a NaN (which
    LAPACK may pass) has a NaN last diagonal entry."""
    signature = "D->D" if a.dtype.kind == "c" else "d->d"
    with np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore"):
        return _cholesky_lo(a, signature=signature)


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.linalg.eigh(a)


def eigvalsh(a: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(a)


def svd(a: np.ndarray):
    return np.linalg.svd(a)


def qr(a: np.ndarray):
    return np.linalg.qr(a)
