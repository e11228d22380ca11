from collections import Counter

import numpy as np
import pytest

from effectorder import HermFactor, Ring, SpinFactor, algebra

# one representative of every factor kind, at modest size
FACTOR_KINDS = [
    HermFactor(3, Ring.REAL),
    HermFactor(1, Ring.REAL),
    HermFactor(2, Ring.COMPLEX),
    HermFactor(2, Ring.QUATERNION),
    SpinFactor(3),
]

MIXED = algebra(HermFactor(1), HermFactor(2), SpinFactor(3))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def assert_close(a, b, tol=1e-10):
    __tracebackhide__ = True
    assert np.max(np.abs(np.asarray(a) - np.asarray(b))) <= tol


def assert_embedding_form(factor, m):
    """A stored herm(n,H) block, or a stack of them, is exactly Hermitian and
    exactly of the form [[Z, W], [-conj W, conj Z]]."""
    __tracebackhide__ = True
    n = factor.n
    assert m.shape[-2:] == (2 * n, 2 * n) and m.dtype == complex
    assert np.array_equal(m, m.conj().swapaxes(-2, -1))
    assert np.array_equal(m[..., n:, n:], m[..., :n, :n].conj())
    assert np.array_equal(m[..., n:, :n], -m[..., :n, n:].conj())


class LinalgCounts(Counter):
    @property
    def eigensolves(self) -> int:
        return self["eigh"] + self["eigvalsh"]


@pytest.fixture
def eigensolve_counter(monkeypatch):
    """Counts of the LAPACK calls made through ``numpy.linalg``: the
    eigensolves ``eigh`` and ``eigvalsh`` (their sum is ``.eigensolves``),
    ``cholesky``, ``solve`` and ``qr``; ``clear()`` it after any set-up that
    should not count."""
    counts = LinalgCounts()
    for name in ("eigh", "eigvalsh", "cholesky", "solve", "qr"):
        routine = getattr(np.linalg, name)

        def counted(*args, _routine=routine, _name=name, **kwargs):
            counts[_name] += 1
            return _routine(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts
