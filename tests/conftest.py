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


@pytest.fixture
def eigensolve_counter(monkeypatch):
    """Counts of the LAPACK eigensolves made through ``numpy.linalg.eigh``
    and ``eigvalsh`` as ``effectorder.spectral`` calls them; ``clear()`` it
    after any set-up that should not count."""
    from collections import Counter

    from effectorder import spectral

    counts = Counter()
    for name in ("eigh", "eigvalsh"):
        solver = getattr(spectral.np.linalg, name)

        def counted(*args, _solver=solver, _name=name, **kwargs):
            counts[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(spectral.np.linalg, name, counted)
    return counts
