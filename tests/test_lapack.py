"""``_lapack``, the one owner of the library's LAPACK calls: the gufuncs it
calls, its answers against ``numpy.linalg``'s, and its errors on every thread."""

import os
import sys
import threading
import warnings

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from effectorder import (
    CompositeOrderIso,
    DomainError,
    FactorOrderIso,
    HermFactor,
    Ring,
    algebra,
    element_in_factor,
    identity_jordan,
    single_factor,
    unit,
)
from effectorder import _lapack
from effectorder.algebra import _SINGULAR_PENCIL, Element


def random_blocks(rng, shape, complex_):
    """Random positive definite blocks of ``shape`` (n, n) or (k, n, n)."""
    a = rng.standard_normal(shape)
    if complex_:
        a = a + 1j * rng.standard_normal(shape)
    return a @ a.conj().swapaxes(-2, -1) + shape[-1] * np.eye(shape[-1])


SHAPES = [(4, 4), (1, 1), (6, 6), (5, 3, 3), (2, 4, 4)]


class TestGufuncs:
    """The private gufuncs and signatures the module uses, pinned: a numpy that
    moves or changes them fails here."""

    def test_names_and_signatures(self):
        assert _lapack._solve is _umath_linalg.solve
        assert _lapack._cholesky_lo is _umath_linalg.cholesky_lo
        assert _umath_linalg.solve.signature == "(m,m),(m,n)->(m,n)"
        assert _umath_linalg.cholesky_lo.signature == "(m,m)->(m,m)"
        assert {"dd->d", "DD->D"} <= set(_umath_linalg.solve.types)
        assert {"d->d", "D->D"} <= set(_umath_linalg.cholesky_lo.types)

    @pytest.mark.parametrize(
        "dtypes, signature",
        [((float, float), "dd->d"), ((complex, complex), "DD->D"), ((complex, float), "DD->D"), ((float, complex), "DD->D")],
    )
    def test_solve_signature(self, dtypes, signature, monkeypatch):
        seen = []
        monkeypatch.setattr(_lapack, "_solve", lambda a, b, signature: seen.append(signature))
        _lapack.solve(np.eye(2, dtype=dtypes[0]), np.eye(2, dtype=dtypes[1]))
        assert seen == [signature]

    @pytest.mark.parametrize("dtype, signature", [(float, "d->d"), (complex, "D->D")])
    def test_cholesky_signature(self, dtype, signature, monkeypatch):
        seen = []
        monkeypatch.setattr(_lapack, "_cholesky_lo", lambda a, signature: seen.append(signature))
        _lapack.cholesky(np.eye(2, dtype=dtype))
        assert seen == [signature]

    def test_float64_and_complex128_out(self):
        for dtype in (float, complex):
            a = np.eye(3, dtype=dtype)
            assert _lapack.solve(a, a).dtype == dtype
            assert _lapack.cholesky(a).dtype == dtype


class TestAgainstNumpyLinalg:
    """Bit for bit ``numpy.linalg``'s answers, on blocks and on stacks."""

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_solve(self, shape, complex_, rng):
        a = random_blocks(rng, shape, complex_) + rng.standard_normal(shape)
        b = random_blocks(rng, shape, complex_)
        assert np.array_equal(_lapack.solve(a, b), np.linalg.solve(a, b))

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_solve_broadcasts_one_right_hand_side(self, shape, complex_, rng):
        # the LU inverse: one identity for a whole stack
        a = random_blocks(rng, shape, complex_)
        eye = np.eye(shape[-1])
        want = np.linalg.solve(a, np.broadcast_to(eye, shape))
        assert np.array_equal(_lapack.solve(a, eye), want)

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_cholesky(self, shape, complex_, rng):
        a = random_blocks(rng, shape, complex_)
        assert np.array_equal(_lapack.cholesky(a), np.linalg.cholesky(a))

    def test_singular_solve_raises_numpys_error(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(np.linalg.LinAlgError) as want:
            np.linalg.solve(a, np.eye(2))
        with pytest.raises(_lapack.LinAlgError) as got:
            _lapack.solve(a, np.eye(2))
        assert _lapack.LinAlgError is np.linalg.LinAlgError
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("name", ["eigh", "eigvalsh", "svd", "qr"])
    def test_others_look_numpy_linalg_up_at_each_call(self, name, monkeypatch, rng):
        # so that a wrapper installed on numpy.linalg afterwards sees the library's calls
        routine, calls = getattr(np.linalg, name), []
        monkeypatch.setattr(np.linalg, name, lambda a: calls.append(a) or routine(a))
        a = random_blocks(rng, (3, 3), False)
        got, want = getattr(_lapack, name)(a), routine(a)
        assert len(calls) == 1
        for g, w in zip(got if isinstance(got, tuple) else (got,), want if isinstance(want, tuple) else (want,)):
            assert np.array_equal(g, w)


class TestEffectTest:
    """A failed factorization is NaN: the effect test reads it and raises nothing."""

    TOL = 1e-8

    @pytest.mark.parametrize("factor", [HermFactor(3), HermFactor(3, Ring.COMPLEX), HermFactor(2, Ring.QUATERNION)], ids=str)
    def test_nan_or_indefinite_blocks_fail_quietly(self, factor, rng):
        kind = factor._kind
        half = 0.5 * kind.identity()
        outside = half.copy()
        outside[0, 0] = 1.5
        nan = half.copy()
        nan[-1, -1] = np.nan
        nan_off = half.copy()
        nan_off[-1, 0] = np.nan
        lo, hi = -self.TOL, 1.0 + self.TOL
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kind.within(half, lo, hi)
            for bad in (outside, nan, nan_off, -half):
                assert not kind.within(bad, lo, hi)
            for bad in (nan, nan_off, -half):  # and the cone test
                assert not kind.within(bad, lo, np.inf)
            # a stack fails when one block does
            for bad in (outside, nan, -half):
                assert not kind.within(np.stack([half, bad, half]), lo, hi)
            assert kind.within(np.stack([half, half]), lo, hi)

    def test_a_failed_factorization_is_nan(self):
        # LAPACK flags the indefinite block, which is all NaN; it may pass a NaN
        # block, whose factor is NaN at least in the last diagonal entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stack = np.stack([np.eye(3), -np.eye(3), np.full((3, 3), np.nan), 2.0 * np.eye(3)])
            r = _lapack.cholesky(stack)
        assert np.isnan(r[1]).all() and np.isnan(r[2, -1, -1])
        assert np.array_equal(r[0], np.eye(3)) and np.array_equal(r[3], np.sqrt(2.0) * np.eye(3))


def singular_map(n):
    """A map on herm(n,R) and an effect whose backward pencil is singular: the
    image of e/2 under z = diag(1e-9, 1, ..., 1) rounds onto the boundary."""
    f = HermFactor(n)
    iso = FactorOrderIso(0.5, element_in_factor(f, np.diag([1e-9] + [1.0] * (n - 1))), identity_jordan(f))
    return iso, iso.apply(0.5 * unit(iso.algebra))


class TestSingularPencil:
    """A singular LU solve is the pencil's DomainError, word for word, on any thread."""

    def test_on_the_calling_thread(self, pool):
        iso, image = singular_map(96)
        assert iso._large
        with pytest.raises(DomainError) as info:
            iso.inverse_apply(image)
        assert str(info.value) == _SINGULAR_PENCIL

    def test_on_a_pool_worker(self, pool):
        iso, image = singular_map(96)
        future = pool.submit(iso._pencil, image._block(0), False)
        assert isinstance(future.exception(), DomainError)
        assert str(future.exception()) == _SINGULAR_PENCIL

    def test_in_a_pooled_composite(self, pool, monkeypatch):
        # herm(96,R) twice: the first pencil stays on the calling thread, and the
        # second, the singular one, runs on the pool, which the calling thread's
        # solve waits for, so that the walk cannot take it back
        regular = FactorOrderIso(0.5, 0.8 * unit(single_factor(HermFactor(96))), identity_jordan(HermFactor(96)))
        iso, image = singular_map(96)
        alg = algebra(HermFactor(96), HermFactor(96))
        comp = CompositeOrderIso(alg, alg, (), (), ((0, 0), (1, 1)), (regular, iso))
        assert comp._pooled
        x = Element(alg, [0.5 * np.eye(96), image.block(0)])
        main, started, raised = threading.get_ident(), threading.Event(), []
        solve = _lapack.solve

        def spied(a, b):
            if threading.get_ident() == main:
                started.wait(10.0)
            else:
                started.set()
            try:
                return solve(a, b)
            except _lapack.LinAlgError:
                raised.append(threading.get_ident())
                raise

        monkeypatch.setattr(_lapack, "solve", spied)
        with pytest.raises(DomainError) as info:
            comp.inverse_apply(x)
        assert str(info.value) == _SINGULAR_PENCIL
        assert started.is_set() and raised and main not in raised


def test_threads_interleave_solves_and_effect_tests(rng):
    # every call enters an errstate of its own: numpy 2 refuses to enter one twice;
    # more threads than CPUs, switching often, so that the calls interleave
    kind = HermFactor(4)._kind
    regular = random_blocks(rng, (4, 4), False)
    rhs = rng.standard_normal((4, 4))
    want = np.linalg.solve(regular, rhs)
    singular = np.outer(np.arange(1.0, 5.0), np.arange(1.0, 5.0))
    inside, outside = 0.5 * np.eye(4), np.diag([0.5, 0.5, 0.5, 1.5])
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    n_threads = min(cpus, 7) + 1
    barrier, failures = threading.Barrier(n_threads), []

    def work():
        barrier.wait()
        for k in range(200):
            try:
                if k % 4 == 0:
                    ok = np.array_equal(_lapack.solve(regular, rhs), want)
                elif k % 4 == 1:
                    try:
                        _lapack.solve(singular, rhs)
                        ok = False
                    except _lapack.LinAlgError:
                        ok = True
                elif k % 4 == 2:
                    ok = kind.within(inside, -1e-8, 1.0 + 1e-8) is True
                else:
                    ok = kind.within(outside, -1e-8, 1.0 + 1e-8) is False
            except Exception as exc:  # a TypeError from a shared errstate, say
                failures.append(repr(exc))
                continue
            if not ok:
                failures.append(f"call {k} answered wrong")

    threads = [threading.Thread(target=work) for _ in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
