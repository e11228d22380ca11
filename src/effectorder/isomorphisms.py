"""Order isomorphisms of effect algebras [0, e] in closed form.

The engine room of the package.  For a single matrix or spin factor,
every order isomorphism of [0, e] that preserves the invertible part is

    f(x) = mobius_t( U_{(z^2+e)^(1/2)} ( e - (e + U_{z^(-1)} J x)^(-1) ) )

for a parameter t < 1, an interior-positive z, and a Jordan isomorphism
J.  On the invertible part it equals the interior form
(U_y J x^(-1) + e - y^2)^(-1) with y^2 = (1 - t) z^2 (e + z^2)^(-1), that is
f(x) = y^(-1) (e + w d)^(-1) w y^(-1) with w = J x and d = y^(-2) - e.

Everything but x is fixed by the map, so it is folded into one pencil.
Write w = u x~ u* with x~ = x, or conj(x) when J is conjugate-linear.
Since u is unitary and d y = y d,

    u* (e + w d) y = A + x~ B,    (A, B, C) = u* (y, y d, y^(-1)),

so  f(x) = (A + x~ B)^(-1) x~ C  and  f^(-1)(F) = (C* - F B*)^(-1) F A*,
conjugated at the end when J is. Each direction is two products and one
solve, and needs no inverse of x or F.  For every effect the solves are
nonsingular, e + w d because d > -e and e - (U_y F) d because F <= e, so
this one form holds, continuously, on all of [0, e] and no limit is needed
at the boundary.  On a spin factor, e, the unit vector part zhat of z and
J x span a copy of herm(2,R) in which z is diagonal; u applies first
(forward) or u^T last (backward), and the same pencil runs with u = e.
There A, B and C are diagonal, and the 2x2 solve is done in floats.

For a direct sum, an order isomorphism routes the rank-one (disengaged)
coordinates through a bijection with arbitrary scalar order isomorphisms
of [0, 1] and applies one closed-form factor map per engaged factor;
``CompositeOrderIso`` is that data.

A matrix block's two halves, its effect test (one product and one Cholesky)
and its pencil solve, read only the input, and numpy releases the GIL inside
LAPACK and matmul.  A map with a matrix block of stored order at least 64
(herm(n,H) counts 2n) runs the halves of all its matrix blocks at once: the
largest pencil on the calling thread, the others on a module thread pool of
one worker per CPU the process may run on, less one, made on first use (and
again in a forked child).  The results are read in block order, so outputs
and refusals are those of one sequential loop.  Spin blocks, rank-one
coordinates and maps with no large block run inline, as everything does on
one CPU.  Pin a multi-threaded BLAS to one thread (OPENBLAS_NUM_THREADS=1,
say), or its threads and the pool's oversubscribe the CPUs.

The one-parameter Mobius family

    mobius_t(x) = x o (t x + (1 - t) e)^(-1),       t < 1,

is a group of effect-algebra automorphisms with composition law
t * s = t + s - t s and inverse parameter t / (t - 1).
"""

from __future__ import annotations

import math
import os
import threading
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Union

import numpy as np

from . import quaternion as quat
from .algebra import (
    AlgebraDescriptor,
    DomainError,
    Element,
    Factor,
    HermFactor,
    Ring,
    ShapeMismatchError,
    SingularElementError,
    SpinFactor,
    _adjoint,
    _block_dtype_shape,
    _block_quad,
    _block_sup,
    _cast_array,
    _check_same_algebra,
    _element,
    _from_real,
    _hermitize,
    _identity_block,
    _invert,
    _invert_block,
    _real_part,
    _ring_array,
    _spin_radius,
    _stored_block,
    jordan_product,
    quad_rep,
    random_gaussian,
    single_factor,
    sup_norm,
    unit,
)
from .spectral import (
    _block_floor,
    _matrix_within,
    _singular_tol,
    apply_function,
    invert_element,
    min_eigenvalue,
    pseudo_inv_sqrt,
    range_projection,
    spectral_decompose,
    spectrum_within,
    sqrt_element,
)
from .order import _check_effect, _order_tol, in_cone, leq

if TYPE_CHECKING:  # imported with the pool: concurrent.futures takes ~9 ms to import
    from concurrent.futures import Future, ThreadPoolExecutor


class RecoveryError(RuntimeError):
    """A probed map failed the checks for the assumed closed form."""


MOBIUS_PARAM_MAX = 1.0 - 1e-12
RECOVERY_TOL = 1e-6  # recovery's residual checks, relative to the images' scale


def check_mobius_param(t: float) -> float:
    t = float(t)
    if not (math.isfinite(t) and t < MOBIUS_PARAM_MAX):
        raise DomainError(f"Mobius parameter must be finite with t < 1, got {t}")
    return t


def mobius_scalar(t: float, s: float) -> float:
    return s / (t * s + (1.0 - t))


def mobius_compose(t: float, s: float) -> float:
    """Parameter of the composition: mobius_t after mobius_s."""
    check_mobius_param(t)
    check_mobius_param(s)
    return t + s - t * s


def mobius_invert_param(t: float) -> float:
    check_mobius_param(t)
    return t / (t - 1.0)


def mobius_apply(t: float, x: Element) -> Element:
    """The effect-algebra automorphism x -> x o (t x + (1 - t) e)^(-1),
    computed through the functional calculus as s -> s / (t s + 1 - t)."""
    check_mobius_param(t)
    _check_effect(x)
    return spectral_decompose(x).apply(lambda s: mobius_scalar(t, s))


# --- interval stretching and the cone <-> interval anti-isomorphism --------

def interval_top_map(x: Element, y: Element, direction: str = "forward") -> Element:
    """Order isomorphism between [0, r(x)] and [0, x].

    ``forward``  : y in [0, r(x)]  ->  U_{x^(1/2)} y in [0, x]
    ``backward`` : y in [0, x]     ->  U_s y with s the pseudo inverse
                   square root of x (exact inverse in finite dimension).
    """
    if direction == "forward":
        if not (in_cone(y) and leq(y, range_projection(x))):
            raise DomainError("y is not in [0, r(x)]")
        return quad_rep(sqrt_element(x), y)
    if direction == "backward":
        if not (in_cone(y) and leq(y, x)):
            raise DomainError("y is not in [0, x]")
        return quad_rep(pseudo_inv_sqrt(x), y)
    raise ValueError(f"unknown direction: {direction!r}")


def cone_interval_map(x: Element, direction: str) -> Element:
    """Order anti-isomorphism between (0, e] and the cone:
    x -> x^(-1) - e one way, x -> (x + e)^(-1) back.

    Each direction is one Cholesky factorization per matrix block
    (:func:`spectrum_within`) and one LU solve per block.  Eigenvalues are
    computed only to tell the errors apart: DomainError outside (0, e] or
    the cone, to ``order._order_tol``, and SingularElementError where the
    inverse would take an eigenvalue within ``spectral._singular_tol`` of
    zero, the test of :func:`invert_element`.
    """
    e = unit(x.algebra)
    if direction == "interval_to_cone":
        scale = sup_norm(x)
        stol = _singular_tol(scale)
        if not spectrum_within(x, stol, 1.0 + _order_tol(scale)):
            _check_effect(x)
            # the effect tolerance admits tiny negative eigenvalues, whose
            # inverses would land far outside the cone
            lo = min_eigenvalue(x)
            if not lo > 0.0:
                raise DomainError(f"x is not invertible: least eigenvalue {lo}")
            raise SingularElementError(f"eigenvalue {lo} within {stol} of zero")
        return _invert(x) - e
    if direction == "cone_to_interval":
        tol = _order_tol(sup_norm(x))
        w = x + e
        stol = _singular_tol(sup_norm(w))
        # x > -tol keeps x + e above stol unless |x| is near 1e8
        if not spectrum_within(x, max(-tol, stol - 1.0)):
            lo = min_eigenvalue(x)
            if not lo > -tol:
                raise DomainError(f"x is not in the cone: least eigenvalue {lo}")
            raise SingularElementError(f"x + e has eigenvalue {lo + 1.0}, not above {stol}")
        return _invert(w)
    raise ValueError(f"unknown direction: {direction!r}")


# --- Jordan isomorphisms of single factors ----------------------------------

def _isometry_factor(factor: Factor) -> HermFactor:
    """The factor whose ring arrays hold a Jordan isomorphism's isometry u:
    herm(d,R) for spin(d), the factor itself otherwise."""
    return HermFactor(factor.d) if isinstance(factor, SpinFactor) else factor


@dataclass(frozen=True, eq=False)
class FactorJordanIso:
    """Jordan isomorphism of one type I factor, given by an isometry u.

    Hermitian factors: x -> u tau(x) u* for an isometry u over the ring,
    with tau either the identity or (complex factors only) entrywise
    conjugation.  Spin(d) factors: (a, v) -> (a, u v) for a real
    orthogonal d x d matrix u, a ring array of herm(d,R).  ``algebra``, the
    one-factor algebra, and ``_u``, u as the library stores a block (the
    complex embedding over H), are kept at construction.
    """

    factor: Factor
    u: np.ndarray
    conjugate: bool = False

    def __post_init__(self) -> None:
        f = _isometry_factor(self.factor)
        if self.conjugate and f.ring is not Ring.COMPLEX:
            raise ValueError("conjugation flag only applies to complex factors")
        u = _cast_array(self.u, *_block_dtype_shape(f), "u")
        m = _stored_block(f, u)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the check
            gram = m @ _adjoint(m) - _identity_block(f)
        # negated so that NaN entries fail the check
        if not _block_sup(f, gram) <= 1e-10:
            raise ValueError("u is not an isometry")
        u.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "_u", m)
        object.__setattr__(self, "algebra", single_factor(self.factor))

    def apply(self, x: Element) -> Element:
        if x.algebra != self.algebra:
            raise ShapeMismatchError("element does not live in this factor")
        f, b, u = self.factor, x._blocks[0], self._u
        if isinstance(f, SpinFactor):
            out = np.concatenate(([b[0]], u @ b[1:]))
        else:
            out = _hermitize(f, u @ (b.conj() if self.conjugate else b) @ _adjoint(u))
        return _element(self.algebra, [out])

    def inverted(self) -> "FactorJordanIso":
        # the inverse of x -> u conj(x) u* is y -> u^T conj(y) conj(u)
        f = _isometry_factor(self.factor)
        u = self.u.T if self.conjugate else _ring_array(f, _adjoint(self._u))
        return FactorJordanIso(self.factor, u, self.conjugate)

    def inverse_apply(self, y: Element) -> Element:
        return self.inverted().apply(y)


def identity_jordan(factor: Factor) -> FactorJordanIso:
    f = _isometry_factor(factor)
    return FactorJordanIso(factor, _ring_array(f, _identity_block(f)))


# --- the closed-form factor order isomorphism -------------------------------

@dataclass(frozen=True, eq=False)
class FactorOrderIso:
    """Parameters (t < 1, interior z, Jordan isomorphism J) of the
    closed-form order isomorphism of a factor's effect algebra.

    Construction folds y, d and J into the pencil (A, B, C) = u* (y, y d,
    y^(-1)) of the module docstring: u* (e + w d) y = A + x~ B for w = J x =
    u x~ u*, so f(x) = (A + x~ B)^(-1) x~ C and f^(-1)(F) = (C* - F B*)^(-1)
    F A*.  Over H the pencil is kept in the complex embedding, as every
    block is, on a spin factor in the herm(2,R) copy where zhat = diag(-1, 1)
    (and u = e there), as the diagonals of A, B and C, whose 2x2 solve is
    done in floats (:func:`_solve_diagonal_pencil`), with no LAPACK call.
    """

    t: float
    z: Element
    jordan: FactorJordanIso

    def __post_init__(self) -> None:
        check_mobius_param(self.t)
        if self.z.algebra != self.jordan.algebra:
            raise ShapeMismatchError("z must live in the target factor")
        dec = spectral_decompose(self.z)
        if not dec.eigenvalues[0] > 0.0:
            raise DomainError("z must be interior-positive")
        # A and C from y and y^(-1) on the spectrum of z; then B = C - A,
        # since y^(-1) - y d = y (y^2 d = e - y^2).  That keeps C* - F B*
        # equal to A* at F = e, where for small z it cancels two large terms
        c = 1.0 - self.t
        s = np.array(dec.eigenvalues)[dec.clusters[0]]
        y = np.sqrt(c) * (s / np.hypot(1.0, s))  # sqrt(c / (1 + s^2)) s, with no s^2
        vals = (y, 1.0 / y)
        f, basis = self.jordan.factor, dec.bases[0]
        if isinstance(f, SpinFactor):
            # g(z) = diag(g_0, g_1) in the kernel's copy, kept as (g_0, g_1); z = c e gives g_0 I
            object.__setattr__(self, "_zhat", 2.0 * basis[-1, 1:])
            A, C = (g[[0, -1]] for g in vals)
        else:
            # u* V g(s) V* for the eigenbasis V of z
            w = _adjoint(self.jordan._u) @ basis
            A, C = ((w * g) @ basis.conj().T for g in vals)
        B = C - A
        object.__setattr__(self, "_forward", (A, B, C))
        object.__setattr__(self, "_backward", (C.conj().T, -B.conj().T, A.conj().T))
        object.__setattr__(self, "_large", isinstance(f, HermFactor) and len(A) >= _POOL_MIN_ORDER)

    @property
    def algebra(self) -> AlgebraDescriptor:
        return self.jordan.algebra

    def apply(self, x: Element) -> Element:
        """f(x) = (A + x~ B)^(-1) x~ C (module docstring)."""
        return self._run(x, True)

    def inverse_apply(self, y: Element) -> Element:
        """f^(-1)(F) = (C* - F B*)^(-1) F A*: the pencil of :meth:`apply`
        with its three matrices adjointed and reversed, B negated."""
        return self._run(y, False)

    def _run(self, x: Element, forward: bool) -> Element:
        if x.algebra is not self.algebra and x.algebra != self.algebra:
            raise ShapeMismatchError("element does not live in this factor")
        b = x._blocks[0]
        sup = _block_sup(self.jordan.factor, b)
        tol = _order_tol(sup)
        _check_effect(x, sup < 1.0 + tol)  # no entry of an effect reaches 1 + tol
        return _element(self.algebra, _map_blocks([(self, b)], forward, tol, self._large))

    def _inside(self, b: np.ndarray, tol: float) -> bool:
        """The effect test of the stored block b at tol; the caller has checked
        that every entry has modulus below 1 + tol."""
        f = self.jordan.factor
        if isinstance(f, SpinFactor):  # eigenvalues a -/+ |v|, as in spectrum_within; NaN fails
            a, r = float(b[0]), _spin_radius(b)
            return r < a + tol and r < 1.0 + tol - a
        return _matrix_within(f, b, -tol, 1.0 + tol)

    def _pencil(self, b: np.ndarray, forward: bool) -> np.ndarray:
        """One direction's pencil on the stored block b of an effect: the stored output block."""
        f, jord = self.jordan.factor, self.jordan
        A, B, C = self._forward if forward else self._backward
        if isinstance(f, SpinFactor):
            a = float(b[0])
            v = jord._u @ b[1:] if forward else b[1:]
            # the copy of herm(2,R): (a, p0 zhat + w) -> [[a - p0, p1], [p1, a + p0]]
            # for w orthogonal to zhat, p1 = |w|; p1 = 0 only when w = 0
            p0 = float(self._zhat @ v)
            w = v - p0 * self._zhat
            p1 = math.hypot(*w.tolist())
            x00, x01, x10, x11 = _solve_diagonal_pencil(a - p0, p1, a + p0, A, B, C)
            v = (x11 - x00) * self._zhat + (x01 + x10) / (p1 or 1.0) * w
            v = v if forward else jord._u.T @ v
            return np.concatenate(([x00 + x11], v)) / 2.0
        m = b.conj() if jord.conjugate and forward else b
        try:
            out = np.linalg.solve(A + m @ B, m @ C)
        except np.linalg.LinAlgError as exc:
            raise DomainError(_SINGULAR_PENCIL) from exc
        if jord.conjugate and not forward:
            out = out.conj()
        return _hermitize(f, out)


# an eigenvalue of z near 0 rounds an image onto the boundary, where the pencil is singular
_SINGULAR_PENCIL = "singular pencil: z has an eigenvalue too close to 0"


# A matrix block of at least this stored order (herm(n,H) stores 2n) is large, and a
# map with a large block runs its matrix blocks' halves on the thread pool.  Set at the
# crossover of one direction, inline against pooled: about 64 on herm(n,C), about 96
# on herm(n,R); the table is in CHANGES.md, in the entry that overlaps the effect
# test and the pencil solve.
_POOL_MIN_ORDER = 64

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _thread_pool() -> ThreadPoolExecutor | None:
    """The pool of the matrix blocks' halves, made on first use, with one worker per
    CPU this process may run on but the calling thread's; None on one CPU."""
    global _pool
    with _pool_lock:
        if _pool is None:
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
            if (cpus or 1) > 1:
                from concurrent.futures import ThreadPoolExecutor

                _pool = ThreadPoolExecutor(cpus - 1, thread_name_prefix="effectorder")
        return _pool


def _forget_pool() -> None:
    """In a forked child, where the parent's workers do not run."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _map_blocks(maps: list, forward: bool, tol: float, pooled: bool) -> list[np.ndarray]:
    """The stored output blocks of the (FactorOrderIso, stored block) pairs maps in
    one direction, each block decided at tol, with every entry below 1 + tol.

    Each block's effect test, then its pencil, block by block; the first failure
    raises.  With ``pooled`` and a pool, the matrix blocks' halves start first,
    the largest pencil here, the others on the pool, and the same walk reads their
    results, running here any half the pool has not started: it raises what the
    inline walk raises, and no task outlives it.  Pool tasks call no public
    function: a refusal's message is built here."""
    pool = _thread_pool() if pooled else None
    done: dict[int, Future] = {}  # by half: 2k the test of block k, 2k + 1 its pencil
    try:
        if pool is not None:
            from concurrent.futures import Future, wait

            matrix = [k for k, (iso, _) in enumerate(maps) if isinstance(iso.jordan.factor, HermFactor)]
            keep = max(matrix, key=lambda k: len(maps[k][1]))
            for k in matrix:
                iso, b = maps[k]
                done[2 * k] = pool.submit(iso._inside, b, tol)
                if k != keep:
                    done[2 * k + 1] = pool.submit(iso._pencil, b, forward)
            iso, b = maps[keep]
            kept = done[2 * keep + 1] = Future()
            try:
                kept.set_result(iso._pencil(b, forward))
            except Exception as exc:  # raised in the walk, in its turn
                kept.set_exception(exc)
        out = []
        for k, (iso, b) in enumerate(maps):
            # a half that the pool has not started is taken back and run here
            test, pencil = done.get(2 * k), done.get(2 * k + 1)
            if not (iso._inside(b, tol) if test is None or test.cancel() else test.result()):
                _check_effect(Element(iso.algebra, (b,), _stored=True), False)
            out.append(iso._pencil(b, forward) if pencil is None or pencil.cancel() else pencil.result())
    except BaseException:
        if done:  # so the pool is there, and wait imported
            for fut in done.values():
                fut.cancel()
            wait(done.values())
        raise
    return out


def _solve_diagonal_pencil(m00: float, m01: float, m11: float, A, B, C) -> tuple:
    """(A + m B)^(-1) m C as (x00, x01, x10, x11), for m = [[m00, m01], [m01, m11]]
    and diagonal A, B, C given as their diagonals: an LU solve in floats with partial
    pivoting (the larger pivot of the first column); an exact zero pivot is a singular
    pencil."""
    (a0, a1), (b0, b1), (c0, c1) = A.tolist(), B.tolist(), C.tolist()
    top = (a0 + m00 * b0, m01 * b1, m00 * c0, m01 * c1)
    low = (m01 * b0, a1 + m11 * b1, m01 * c0, m11 * c1)
    (p, q, g0, g1), (r, s, h0, h1) = (low, top) if abs(low[0]) > abs(top[0]) else (top, low)
    if p != 0.0:
        ell = r / p
        s -= ell * q
    if p == 0.0 or s == 0.0:
        raise DomainError(_SINGULAR_PENCIL)
    x10, x11 = (h0 - ell * g0) / s, (h1 - ell * g1) / s
    return (g0 - q * x10) / p, (g1 - q * x11) / p, x10, x11


def compose_factor_isos(
    outer: FactorOrderIso, inner: FactorOrderIso
) -> tuple[Callable[[Element], Element], Callable[[Element], Element]]:
    """Function composition (outer o inner, its inverse).  Canonical
    (t, z, J) parameters of the composite can be recovered by probing
    with :func:`recover_factor_iso`."""
    if inner.algebra != outer.algebra:
        raise ShapeMismatchError("factor mismatch in composition")
    return (
        lambda x: outer.apply(inner.apply(x)),
        lambda y: inner.inverse_apply(outer.inverse_apply(y)),
    )


def interior_iso_apply(
    y: Element, x: Element, jordan: FactorJordanIso | None = None
) -> Element:
    """The order isomorphism of the invertible part (0, e] induced by the
    positive-cone map U_y J:   x -> (U_y J x^(-1) - y^2 + e)^(-1).

    Evaluated literally, through x^(-1), so that it stays an independent
    reference for the closed form of :class:`FactorOrderIso`."""
    if not spectrum_within(y, 0.0):
        raise DomainError("y must be interior-positive")
    _check_effect(x)
    w = invert_element(x, "strict")
    if jordan is not None:
        w = jordan.apply(w)
    e = unit(y.algebra)
    w = quad_rep(y, w) - jordan_product(y, y) + e
    return invert_element(w, "strict")


def params_from_cone_map(
    y: Element, jordan: FactorJordanIso, lam: float | None = None
) -> FactorOrderIso:
    """Convert the interior form (y, J) into closed-form parameters.

    For any lam above the spectrum of y^2 the triple

        t = 1 - lam,   z = y (lam e - y^2)^(-1/2),   J

    induces the same map on (0, e]; the default is lam = 1 + max eig(y^2).
    """
    if y.algebra != jordan.algebra:
        raise ShapeMismatchError("y must live in the target factor")
    dec = spectral_decompose(y)
    lo, hi = dec.eigenvalues[0], dec.eigenvalues[-1]
    if not lo > 0.0:
        raise DomainError("y must be interior-positive")
    top = hi * hi
    if lam is None:
        lam = 1.0 + top
    lam = float(lam)
    if lam <= top + 1e-12 * (1.0 + top):
        raise DomainError(f"lam = {lam} is not above the spectrum of y^2 (top {top})")
    z = dec.apply(lambda s: s / math.sqrt(lam - s * s))
    return FactorOrderIso(1.0 - lam, z, jordan)


def transitivity_witness(w: Element) -> Element:
    """The y = (w^(-1) - e)^(1/2) whose (U_y x^(-1) - y^2 + e)^(-1) sends e/2 to w; demands
    0 < w < e with a margin, not the order tolerance, that keeps y finite and interior."""
    tol = 1e-9 * (1.0 + sup_norm(w))
    if not spectrum_within(w, tol, 1.0 - tol):
        raise DomainError("w must be strictly between 0 and e")
    return apply_function(w, lambda s: np.sqrt(1.0 / s - 1.0))


# --- scalar order isomorphisms of [0, 1] ------------------------------------

@dataclass(frozen=True)
class PhiScalarIso:
    """Scalar Mobius map s -> s / (t s + 1 - t) on [0, 1]."""

    t: float

    def __post_init__(self) -> None:
        check_mobius_param(self.t)

    def __call__(self, s: float) -> float:
        return mobius_scalar(self.t, s)

    def inverse(self, s: float) -> float:
        return mobius_scalar(mobius_invert_param(self.t), s)


@dataclass(frozen=True, eq=False)
class PwlScalarIso:
    """Piecewise-linear order isomorphism of [0, 1] through fixed knots."""

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        ks = tuple((float(a), float(b)) for a, b in self.knots)
        if len(ks) < 2 or ks[0] != (0.0, 0.0) or ks[-1] != (1.0, 1.0):
            raise ValueError("knots must run from (0,0) to (1,1)")
        cols = np.array(ks).T
        if not np.all(np.isfinite(cols)):
            raise ValueError("knots must be finite")
        if np.any(np.diff(cols) <= 0.0):
            raise ValueError("knots must be strictly increasing in both coordinates")
        object.__setattr__(self, "knots", ks)
        object.__setattr__(self, "_cols", tuple(zip(*ks)))  # (xs, ys), for both directions

    def __call__(self, s: float) -> float:
        xs, ys = self._cols
        return _interp(s, xs, ys)

    def inverse(self, s: float) -> float:
        xs, ys = self._cols
        return _interp(s, ys, xs)


def _interp(s: float, xs: tuple[float, ...], ys: tuple[float, ...]) -> float:
    """np.interp(s, xs, ys) for one s, bit for bit, on strictly increasing
    finite knots: found by bisection, and numpy's slope (s - x_j) + y_j inside."""
    s = float(s)
    if s != s:
        return s
    j = max(bisect_right(xs, s) - 1, 0)  # s below xs[0] = 0 takes ys[0], as xs[0] does
    if j == len(xs) - 1 or s <= xs[j]:
        return ys[j]
    return (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j]) * (s - xs[j]) + ys[j]


ScalarOrderIso = Union[PhiScalarIso, PwlScalarIso]


# --- composite order isomorphisms of direct sums -----------------------------

@dataclass(frozen=True, eq=False)
class CompositeOrderIso:
    """Order isomorphism [0, e_M] -> [0, e_N] of direct sums.

    Disengaged (rank-one) coordinates are routed by the bijection
    ``sigma`` through scalar order isomorphisms of [0, 1], indexed by the
    source coordinate; engaged factors are matched by ``engaged_pairs``
    and mapped by one closed-form :class:`FactorOrderIso` each.
    """

    source: AlgebraDescriptor
    target: AlgebraDescriptor
    sigma: tuple[tuple[int, int], ...]
    scalar_isos: tuple[ScalarOrderIso, ...]
    engaged_pairs: tuple[tuple[int, int], ...]
    engaged_isos: tuple[FactorOrderIso, ...]

    def __post_init__(self) -> None:
        if len(self.sigma) != len(self.scalar_isos):
            raise ValueError("one scalar isomorphism per disengaged coordinate")
        if len(self.engaged_pairs) != len(self.engaged_isos):
            raise ValueError("one factor isomorphism per engaged pair")

        # each sorted side must equal a strictly increasing index tuple, so no index repeats
        def sides(pairs) -> tuple[tuple[int, ...], tuple[int, ...]]:
            return tuple(sorted(i for i, _ in pairs)), tuple(sorted(j for _, j in pairs))

        src, dst = self.source, self.target
        if sides(self.sigma) != (src.disengaged_indices, dst.disengaged_indices):
            raise ValueError("sigma is not a bijection of the disengaged indices")
        if sides(self.engaged_pairs) != (src.engaged_indices, dst.engaged_indices):
            raise ValueError("engaged matching is not a bijection of the engaged indices")
        for (i, j), iso in zip(self.engaged_pairs, self.engaged_isos):
            if self.source.factors[i] != self.target.factors[j]:
                raise ValueError(f"matched factors {i} -> {j} differ in kind")
            if iso.jordan.algebra.factors != (self.target.factors[j],):
                raise ValueError(f"factor isomorphism {i} -> {j} lives in the wrong factor")
        object.__setattr__(self, "_pooled", any(iso._large for iso in self.engaged_isos))

    def apply(self, x: Element) -> Element:
        return self._run(x, True)

    def inverse_apply(self, y: Element) -> Element:
        return self._run(y, False)

    def _run(self, x: Element, forward: bool) -> Element:
        src = self.source if forward else self.target
        dst = self.target if forward else self.source
        if x.algebra is not src and x.algebra != src:
            raise ShapeMismatchError("element does not live in the expected algebra")
        # every block is decided at the tolerance of x's sup, the largest block sup:
        # rank-one coordinates here, the rest by _map_blocks
        scalars = [(i, j) if forward else (j, i) for i, j in self.sigma]
        engaged = [(i, j) if forward else (j, i) for i, j in self.engaged_pairs]
        # the real part of a herm(1,.) block is its top-left entry's, also over H
        coords = [float(x._blocks[a][0, 0].real) for a, _ in scalars]
        sups = [_block_sup(src.factors[a], x._blocks[a]) for a, _ in engaged]
        tol = _order_tol(scale := max([abs(s) for s in coords] + sups))
        # no entry of an effect reaches 1 + tol: each sup is compared, as max skips a NaN
        _check_effect(x, all(s < 1.0 + tol for s in sups))
        out: list[np.ndarray | None] = [None] * len(dst.factors)
        for (a, b), f, s in zip(scalars, self.scalar_isos, coords):
            _check_effect(x, -tol < s < 1.0 + tol)  # in_effect_interval of the 1 x 1 block
            s = min(max(s, 0.0), 1.0)
            out[b] = _from_real(dst.factors[b], [[f(s) if forward else f.inverse(s)]])
        maps = [(iso, x._blocks[a]) for (a, _), iso in zip(engaged, self.engaged_isos)]
        for (_, b), y in zip(engaged, _map_blocks(maps, forward, tol, self._pooled)):
            out[b] = y
        return _element(dst, out)


def coordinate_squeeze_iso(n: int) -> tuple[CompositeOrderIso, Element]:
    """Automorphism of [0, e] on the n-fold sum of lines squeezing the
    k-th coordinate of e/2 down to 2^(-k), exactly.

    The k-th scalar map is the Mobius map with parameter t_k = 2 - 2^k
    (so 1/(2 - t_k) = 2^(-k)); the minimum coordinate of the image is
    2^(-n), so no spectral floor survives as n grows even though every
    finite stage stays inside (0, e].
    """
    if not 1 <= n <= 1023:  # t_n needs 2^n as a finite float
        raise ValueError("n must be in [1, 1023]")
    alg = AlgebraDescriptor(tuple(HermFactor(1, Ring.REAL) for _ in range(n)))
    iso = CompositeOrderIso(
        source=alg,
        target=alg,
        sigma=tuple((k, k) for k in range(n)),
        scalar_isos=tuple(PhiScalarIso(2.0 - 2.0 ** (k + 1)) for k in range(n)),
        engaged_pairs=(),
        engaged_isos=(),
    )
    image = iso.apply(0.5 * unit(alg))
    return iso, image


# --- parameter recovery from a black-box map ---------------------------------

def _unit_from_rank_one(factor: HermFactor, b: np.ndarray) -> np.ndarray:
    """The n x 1 column u with b = u u* from a rank-one projection block, stored
    as a block is: over H its 2n x 2 embedding, columns m and n + m of b's."""
    diag = np.diagonal(_real_part(factor, b))
    m = int(np.argmax(diag))
    if diag[m] <= 1e-8:
        raise RecoveryError("probe image is not a rank-one projection")
    return b[:, m :: factor.n] * (1.0 / np.sqrt(diag[m]))


def _probe_plan(factor: Factor) -> np.ndarray:
    """The extractors' basis blocks as one stack, in probing order: E_00 and
    E_0j + E_j0 on herm(n,.) for n > 1, then i (E_01 - E_10) over C, or it
    and j (E_01 - E_10) over H; the basis vectors (0, e_i) on spin(d)."""
    if isinstance(factor, SpinFactor):
        return np.eye(factor.d + 1)[1:]
    n, ring = factor.n, factor.ring
    real = np.zeros((n if n > 1 else 0, n, n))
    for j in range(len(real)):
        real[j, 0, j] = real[j, j, 0] = 1.0
    blocks = _from_real(factor, real)
    if n == 1 or ring is Ring.REAL:
        return blocks
    im = np.array([1j]) if ring is Ring.COMPLEX else np.eye(4)[1:3]  # units i, or i and j
    twists = np.zeros((len(im), n, n) + im.shape[1:], dtype=im.dtype)  # ring arrays
    twists[:, 0, 1], twists[:, 1, 0] = im, -im
    return np.concatenate((blocks, _stored_block(factor, twists)))


def _extract_hermitian_jordan(factor: HermFactor, basis: np.ndarray, imgs: np.ndarray) -> dict:
    """The FactorJordanIso arguments read off imgs, J's images of the basis
    blocks of :func:`_probe_plan`."""
    n, ring = factor.n, factor.ring
    if n == 1:
        return {"u": _ring_array(factor, _identity_block(factor))}

    # J(E_00) = c_0 c_0*, and J(E_0j + E_j0) c_0 = c_j since c_0* c_0 = 1, c_j* c_0 = 0;
    # over H, column h of c_j's 2n x 2 embedding is column j + h n of U's
    c0 = _unit_from_rank_one(factor, imgs[0])
    cs = np.stack([c0] + [img @ c0 for img in imgs[1:n]])
    U = cs.transpose(1, 2, 0).reshape(len(c0), -1)

    if ring is Ring.REAL:
        return {"u": U}

    if ring is Ring.COMPLEX:
        probe_im, img = basis[n], imgs[n]
        lin = U @ probe_im @ U.conj().T
        conj = U @ probe_im.conj() @ U.conj().T
        if np.abs(img - lin).max() <= RECOVERY_TOL * n:
            return {"u": U}
        if np.abs(img - conj).max() <= RECOVERY_TOL * n:
            return {"u": U, "conjugate": True}
        raise RecoveryError("map is neither linear nor conjugate-linear")

    # quaternions: U* Jm(x) U = conj(w) x w entrywise for the unit w of c_0's
    # phase; the twist unit p = conj(w) solves r_a p = p a, r_a = conj(w) a w
    qbasis = np.eye(4)
    r = quat.from_complex(_adjoint(U) @ imgs[n:] @ U)[:, 0, 1]  # r_a for a = i, j
    rows = [(quat.qmul(r_a, qbasis) - quat.qmul(qbasis, qbasis[a])).T for a, r_a in zip((1, 2), r)]
    _, sing, vt = np.linalg.svd(np.concatenate(rows))
    if sing[-1] > 1e-6:
        raise RecoveryError("inner twist is not a rotation")
    u = quat.qmul(quat.from_complex(U), vt[-1])
    # the null vector's sign is arbitrary; in normal form the real component
    # of u with the largest modulus (the first in C order) is positive
    if u.flat[np.argmax(np.abs(u))] < 0.0:
        u = -u
    return {"u": u}


def _extract_spin_jordan(factor: SpinFactor, basis: np.ndarray, imgs: np.ndarray) -> dict:
    """u's columns are the images of the basis vectors (0, e_i)."""
    if np.abs(imgs[:, 0]).max() > RECOVERY_TOL * 10:
        raise RecoveryError("spin probe image has a scalar part")
    return {"u": imgs[:, 1:].T}


def _over_stack(factor: Factor, kernel, stack: np.ndarray) -> np.ndarray:
    """kernel(factor, .) on a (k, ...) stack of blocks: matrix kernels take
    the stack at once, spin closed forms run block by block."""
    if isinstance(factor, SpinFactor):
        return np.stack([kernel(factor, b) for b in stack])
    return kernel(factor, stack)


def _probe(name: str, fn: Callable[..., Element], *args) -> Element:
    try:
        return fn(*args)
    except (DomainError, SingularElementError) as exc:
        raise RecoveryError(f"{name} left the invertible part: {exc}") from exc


def recover_factor_iso(
    g: Callable[[Element], Element],
    source: AlgebraDescriptor,
    target: AlgebraDescriptor,
    seed: int = 0,
) -> FactorOrderIso:
    """Recover closed-form parameters (t, z, J) from black-box evaluations
    of an order isomorphism g of the invertible parts (0, e].

    Carried through the anti-isomorphism of :func:`cone_interval_map`, g
    becomes the cone map fhat(x) = g((x + e)^(-1))^(-1) - e, which must be
    the linear map U_y J.  The probe plan is fixed before the first probe:
    the unit, the extractors' basis blocks (:func:`_probe_plan`) and 3
    Gaussian agreement points drawn from seed.  fhat(e) = y^2 gives y^(-1)
    and, at the end, z from one decomposition; every other point x goes through
    L(x) = fhat(x + c e) - c fhat(e), so that an affine offset in fhat fails
    the agreement check, with c = 1 + max(0, -Gershgorin floor of x): then
    x + c e >= e, so its input (x + c e + e)^(-1) lies in (0, e/2] and needs
    no membership test.  g is called once per probe, in plan order; each
    step around it runs once on the stack of all probes (spin factors loop):
    an LU solve for the inputs, then for the images cone_interval_map's
    Cholesky test at each image's own scale, an LU solve and U_{y^(-1)}.
    J = U_{y^(-1)} L is read off a Hermitian factor's rank-one probes: E_00
    gives a unit column c_0, and column j is J(E_0j + E_j0) c_0.  Over C one
    more probe tells linear from conjugate-linear; over H the twist unit p
    that the phase of c_0 leaves is the null vector of the 8 x 4 system
    r_a p - p a = 0 (a = i, j), with its sign fixed so that the real
    component of u with the largest modulus is positive.  A spin factor's
    u is its image of the basis vectors.  For every kind the u so read is
    replaced by its polar factor, the nearest isometry, so that probe noise
    within RECOVERY_TOL is left to the agreement check, the one check of g:
    every order isomorphism has this form, so J = U_{y^(-1)} L must agree
    with the recovered J at the 3 agreement points.  Raises RecoveryError
    when an image leaves the invertible part (naming the first such probe:
    the unit probe, extraction probe j or agreement probe j, from 1), when
    that check fails (to RECOVERY_TOL), or when :class:`FactorJordanIso`
    refuses the projected u.
    """
    if len(source.factors) != 1 or len(target.factors) != 1:
        raise DomainError("recovery operates on single factors")
    if source.factors[0] != target.factors[0]:
        raise DomainError("source and target factors must be of the same kind")
    factor, e_s = source.factors[0], unit(source)
    e, basis, rng = e_s._blocks[0], _probe_plan(factor), np.random.default_rng(seed)
    agree = [random_gaussian(source, rng) for _ in range(3)]
    names = ["unit probe"] + [f"extraction probe {j + 1}" for j in range(len(basis))]
    names += [f"agreement probe {j + 1}" for j in range(len(agree))]

    # the unit probe is x = e with c = 0
    xs = np.concatenate(([e], basis, [a._blocks[0] for a in agree]))
    floors = _over_stack(factor, _block_floor, xs[1:])
    cs = np.concatenate(([0.0], np.maximum(0.0, -floors) + 1.0)).reshape((-1,) + (1,) * e.ndim)
    inputs = _over_stack(factor, _invert_block, xs + cs * e + e)
    imgs = [_probe(name, g, _element(source, [b])) for name, b in zip(names, inputs)]
    for img in imgs:
        _check_same_algebra(img, e_s)

    # fhat = cone_interval_map of every image, within (stol, 1 + tol) at its own scale: one test
    # and one solve for matrix blocks; image by image on spin factors, or to name a failing image
    Fs = np.stack([img._blocks[0] for img in imgs])
    scales = np.array([sup_norm(img) for img in imgs])[:, None, None]
    lo, hi = _singular_tol(scales), 1.0 + _order_tol(scales)
    matrix = isinstance(factor, HermFactor) and np.all(scales < hi)  # an entry >= hi fails
    if matrix and _matrix_within(factor, Fs, lo, hi):
        fhat = _invert_block(factor, Fs) - e
    else:
        outs = [_probe(n, cone_interval_map, F, "interval_to_cone") for n, F in zip(names, imgs)]
        fhat = np.stack([out._blocks[0] for out in outs])
    dec = spectral_decompose(_element(source, [fhat[0]]))
    if not dec.eigenvalues[0] > 0.0:  # negated so that NaN fails
        raise RecoveryError("probed image of the unit is not interior")
    y_inv = dec.apply(lambda s: 1.0 / math.sqrt(s))._blocks[0]
    Ls = fhat[1:] - cs[1:] * fhat[0]
    Js = _over_stack(factor, lambda f, b: _block_quad(f, y_inv, b), Ls)

    extract = _extract_spin_jordan if isinstance(factor, SpinFactor) else _extract_hermitian_jordan
    parts = extract(factor, basis, Js[: len(basis)])
    f = _isometry_factor(factor)
    try:  # a failed SVD (LinAlgError) is a ValueError too
        w, _, vh = np.linalg.svd(_stored_block(f, parts.pop("u")))
        jord = FactorJordanIso(factor, _ring_array(f, w @ vh), **parts)
    except ValueError as exc:
        raise RecoveryError(f"recovered Jordan isomorphism: {exc}") from exc

    for a, ja in zip(agree, Js[len(basis) :]):
        err = _block_sup(factor, ja - jord.apply(a)._blocks[0])
        if err > RECOVERY_TOL * (1.0 + _block_sup(factor, ja)):
            raise RecoveryError("recovered Jordan isomorphism disagrees with the probes")

    # params_from_cone_map(y, J, lam) on the spectrum s of y^2 = fhat(e), with no
    # decomposition of y: z = y (lam e - y^2)^(-1/2) = (s / (lam - s))^(1/2)
    lam = 1.0 + dec.eigenvalues[-1]
    return FactorOrderIso(1.0 - lam, dec.apply(lambda s: math.sqrt(s / (lam - s))), jord)
