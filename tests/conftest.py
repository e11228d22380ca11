import concurrent.futures
from collections import Counter

import numpy as np
import pytest

from effectorder import HermFactor, Ring, SpinFactor, _lapack, algebra, isomorphisms

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
    """Counts of the LAPACK calls the library makes, all through ``_lapack``:
    the eigensolves ``eigh`` and ``eigvalsh`` (their sum is ``.eigensolves``),
    ``cholesky``, ``solve`` and ``qr``; ``clear()`` it after any set-up that
    should not count."""
    counts = LinalgCounts()
    for name in ("eigh", "eigvalsh", "cholesky", "solve", "qr"):
        routine = getattr(_lapack, name)

        def counted(*args, _routine=routine, _name=name, **kwargs):
            counts[_name] += 1
            return _routine(*args, **kwargs)

        monkeypatch.setattr(_lapack, name, counted)
    return counts


@pytest.fixture
def pool(monkeypatch):
    """The module's pool; on one CPU, where it has none, a one-worker pool of the
    test's own, so that the pooled path runs on any machine."""
    real = isomorphisms._thread_pool()
    if real is not None:
        yield real
        return
    own = concurrent.futures.ThreadPoolExecutor(1)
    monkeypatch.setattr(isomorphisms, "_thread_pool", lambda: own)
    yield own
    own.shutdown()
