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
conjugated at the end when J is: the inverse is the same form with a second
pencil.  So a direction is one record, which the factor's kind builds and
solves, (pencil, conjugate the input, conjugate the solve): two products
and one solve, with no inverse of x or F.  For every effect the solves are
nonsingular, e + w d because d > -e and e - (U_y F) d because F <= e, so
this one form holds, continuously, on all of [0, e] and no limit is needed
at the boundary.  On a spin factor, e, the unit vector part zhat of z and
J x span a copy of herm(2,R) in which z, A, B and C are diagonal; there a
direction is (pencil, zhat, u applied first, u^T applied last), its pencil
that of u = e, and the 2x2 solve is done in floats.

Through x -> x^(-1) - e the map is the cone map fhat = U_y J, so a composition
and an inverse are closed-form maps too, (g o f)^ = U_{y_g} U_{J_g y_f} J_g J_f and
(f^(-1))^ = J^(-1) U_{y^(-1)}: :func:`_from_cone` reads (t, z, J) off a cone map's
images of its kind's ``probes``, cone elements with e first, for ``compose``,
``inverted`` and recovery alike.  Recovery reads fhat(x + e) - fhat(e) at every
probe x but e, so an affine fhat = U_y J + b fails: b cancels there but stays
in fhat(e) = y^2 + b, and U_{y'^(-1)} of those differences is no Jordan
automorphism.

For a direct sum, an order isomorphism routes the rank-one (disengaged)
coordinates through a bijection with arbitrary scalar order isomorphisms
of [0, 1] and applies one closed-form factor map per engaged factor;
``CompositeOrderIso`` is that data.

A direction's one effect test, of its whole argument, and the pencil solve
of each matrix block read only the input, and numpy releases the GIL inside
LAPACK and matmul, so a map with a large matrix block runs them on a thread
pool (:func:`_map_blocks`).  Pin a multi-threaded BLAS to one thread
(OPENBLAS_NUM_THREADS=1, say), or its threads and the pool's oversubscribe
the CPUs.

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

from .algebra import (
    AlgebraDescriptor,
    DomainError,
    Element,
    Factor,
    HermFactor,
    Ring,
    ShapeMismatchError,
    SingularElementError,
    _adjoint,
    _cast_array,
    _check_same_algebra,
    _element,
    _invert,
    _interned,
    _size,
    jordan_product,
    quad_rep,
    random_gaussian,
    single_factor,
    sup_norm,
    unit,
)
from .spectral import (
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
from .order import ORDER_TOL, _check_effect, _in_effect, _order_tol, in_cone, leq

if TYPE_CHECKING:  # imported with the pool: concurrent.futures takes ~9 ms to import
    from concurrent.futures import ThreadPoolExecutor


class RecoveryError(RuntimeError):
    """A probed map failed the checks for the assumed closed form."""


MOBIUS_PARAM_MAX = 1.0 - 1e-12
RECOVERY_TOL = 1e-6  # recovery's residual checks, relative to the images' scale
_AGREEMENT_PROBES = 3  # Gaussian points of recovery's one check of the black box


def _real(value, what: str) -> float:
    """value as a Python float, once it is a real number; else DomainError naming ``what``."""
    if not isinstance(value, (str, bytes, complex, np.complexfloating)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise DomainError(f"{what} must be a real number, got {value!r}")


def check_mobius_param(t: float) -> float:
    """t as a Python float, once it is a finite real number below MOBIUS_PARAM_MAX."""
    if type(t) is not float:
        t = _real(t, "Mobius parameter")
    if not (math.isfinite(t) and t < MOBIUS_PARAM_MAX):
        bound = f"t < MOBIUS_PARAM_MAX = {MOBIUS_PARAM_MAX}"
        raise DomainError(f"Mobius parameter must be finite with {bound}, got {t}")
    return t


def mobius_scalar(t: float, s: float) -> float:
    """s / (t s + 1 - t) as s / (1 - t (1 - s)), whose denominator is exactly 1 at s = 1:
    0 and 1 stay fixed for every accepted t, also where 1 - t rounds to -t (t <= -1e16)."""
    return s / (1.0 - t * (1.0 - s))


def mobius_compose(t: float, s: float) -> float:
    """Parameter of the composition: mobius_t after mobius_s, once it is in the family."""
    t, s = check_mobius_param(t), check_mobius_param(s)
    return check_mobius_param(t + s - t * s)


def mobius_invert_param(t: float) -> float:
    """Parameter of the inverse map, in the family only for t > -M / (1 - M), M = MOBIUS_PARAM_MAX."""
    t = check_mobius_param(t)
    return check_mobius_param(t / (t - 1.0))


def mobius_apply(t: float, x: Element) -> Element:
    """The effect-algebra automorphism x -> x o (t x + (1 - t) e)^(-1),
    computed through the functional calculus by :func:`mobius_scalar`."""
    t = check_mobius_param(t)
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
        k = self.factor._kind.isometry
        if self.conjugate and not k.conjugable:
            raise ValueError("conjugation flag only applies to complex factors")
        u = _cast_array(self.u, k.dtype, k.shape, "u")
        m = k.stored(u)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the check
            gram = m @ _adjoint(m) - k.identity()
        # negated so that NaN entries fail the check
        if not k.sup(gram) <= 1e-10:
            raise ValueError("u is not an isometry")
        u.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "_u", m)
        object.__setattr__(self, "algebra", single_factor(self.factor))

    def apply(self, x: Element) -> Element:
        if x.algebra != self.algebra:
            raise ShapeMismatchError("element does not live in this factor")
        return _element(self.algebra, [self.factor._kind.act(self._u, x._groups[0], self.conjugate)])

    def inverted(self) -> "FactorJordanIso":
        # the inverse of x -> u conj(x) u* is y -> u^T conj(y) conj(u)
        k = self.factor._kind.isometry
        u = self.u.T if self.conjugate else k.ring_array(_adjoint(self._u))
        return FactorJordanIso(self.factor, u, self.conjugate)

    def inverse_apply(self, y: Element) -> Element:
        return self.inverted().apply(y)


def identity_jordan(factor: Factor) -> FactorJordanIso:
    k = factor._kind.isometry
    return FactorJordanIso(factor, k.ring_array(k.identity()))


# --- the closed-form factor order isomorphism -------------------------------

@dataclass(frozen=True, eq=False)
class FactorOrderIso:
    """Parameters (t < 1, interior z, Jordan isomorphism J) of the
    closed-form order isomorphism of a factor's effect algebra.

    Construction folds y, d and J into the pencil (A, B, C) = u* (y, y d,
    y^(-1)) of the module docstring and that of the inverse, which the
    factor's kind builds as the two directions, (backward, forward), and
    solves (``pencils``, ``solve``).
    """

    t: float
    z: Element
    jordan: FactorJordanIso

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", check_mobius_param(self.t))
        if self.z.algebra != self.jordan.algebra:
            raise ShapeMismatchError("z must live in the target factor")
        dec = spectral_decompose(self.z)
        if not dec.eigenvalues[0] > 0.0:
            raise DomainError("z must be interior-positive")
        # A and C from y and y^(-1) on the spectrum of z; then B = C - A,
        # since y^(-1) - y d = y (y^2 d = e - y^2).  That keeps C* - F B*
        # equal to A* at F = e, where for small z it cancels two large terms
        c, s = 1.0 - self.t, np.array(dec.eigenvalues)
        y = np.sqrt(c) * (s / np.hypot(1.0, s))  # sqrt(c / (1 + s^2)) s, with no s^2
        with np.errstate(over="ignore", divide="ignore"):  # an infinite y^(-1) fails the check
            ys = (y, 1.0 / y)
        if not ys[1].max() < math.inf:
            raise DomainError(f"z is too close to 0 for t = {self.t}: y^(-1) overflows at {s[0]}")
        kind, jord, idx = self.jordan.factor._kind, self.jordan, dec.clusters[0][0]
        directions = kind.pencils(jord._u, jord.conjugate, dec.bases[0][0], (y[idx], ys[1][idx]))
        object.__setattr__(self, "_ys", ys)  # y and y^(-1) on the spectrum of z, for the cone map
        object.__setattr__(self, "_directions", directions)
        object.__setattr__(self, "_kind", kind)
        object.__setattr__(self, "_large", kind.cost >= _POOL_MIN_COST)

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
        (out,) = _map_blocks(x, [(self._kind, self._directions[forward], x._block(0))], self._large)
        return _element(self.algebra, [out[None]])  # the one block as its group's (1, ...) view

    def _cone(self, xs: np.ndarray) -> np.ndarray:
        """The cone map fhat = U_y J on a stack of stored blocks."""
        kind, jord = self._kind, self.jordan
        y = spectral_decompose(self.z).combine(self._ys[0])._groups[0]
        return kind.quad(np.broadcast_to(y, xs.shape), kind.act(jord._u, xs, jord.conjugate))

    def compose(self, inner: FactorOrderIso) -> FactorOrderIso:
        """The map self after inner in closed form, read off its cone map by :func:`_from_cone`."""
        if inner.algebra != self.algebra:
            raise ShapeMismatchError("factor mismatch in composition")
        return _from_cone(self.jordan.factor, self._cone(inner._cone(self._kind.probes)))[0]

    def inverted(self) -> FactorOrderIso:
        """The inverse map in closed form, read off its cone map by :func:`_from_cone`."""
        kind, inv, xs = self._kind, self.jordan.inverted(), self._kind.probes
        y_inv = spectral_decompose(self.z).combine(self._ys[1])._groups[0]
        out = kind.act(inv._u, kind.quad(np.broadcast_to(y_inv, xs.shape), xs), inv.conjugate)
        return _from_cone(self.jordan.factor, out)[0]


# A block whose pencil costs at least this (its kind's ``cost``) is large, and a map with
# a large block runs its effect test and matrix pencils on the thread pool.  Set at the
# crossover of one direction, inline against pooled, on herm(n,C), n about 56; so
# herm(n,R) blocks are large from n = 89 (the measured crossover table is in CHANGES.md).
_POOL_MIN_COST = 4 * 56**3

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _thread_pool() -> ThreadPoolExecutor | None:
    """The pool of the effect tests and matrix pencils, made on first use, with one
    worker per CPU this process may run on but the calling thread's; None on one CPU."""
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


def _map_blocks(x: Element, maps: list, pooled: bool) -> list[np.ndarray]:
    """The stored output blocks of the (kind, direction, stored block of x) triples maps,
    each the kind's ``solve``, once x has passed the one effect test (order._check_effect).

    The test of x, then each block's pencil in turn; the first failure raises, and a
    refusal of x wins over any pencil's.  With ``pooled`` and a pool, the test and the
    matrix pencils start first, the costliest pencil here, the rest on the pool, and the
    same walk reads their results, running here any task the pool has not started: it
    raises what the inline walk raises, and no task outlives it.  Pool tasks call no
    public function: a refusal's message is built here."""
    pool = _thread_pool() if pooled else None
    test, done = None, {}  # done: the pencil of block k, by k
    try:
        if pool is not None:
            from concurrent.futures import Future, wait

            test = pool.submit(_in_effect, x)
            # the matrix blocks: a spin pencil costs 0 and runs inline
            matrix = [k for k, (kind, _, _) in enumerate(maps) if kind.cost]
            keep = max(matrix, key=lambda k: maps[k][0].cost)
            for k in matrix:
                if k != keep:
                    done[k] = pool.submit(maps[k][0].solve, *maps[k][1:])
            kind, direction, b = maps[keep]
            kept = done[keep] = Future()
            try:
                kept.set_result(kind.solve(direction, b))
            except Exception as exc:  # raised in the walk, after the test
                kept.set_exception(exc)
        # a task that the pool has not started is taken back and run here; a failed
        # test is run again here, so that the refusal names x's spectrum
        if test is None or test.cancel() or not test.result():
            _check_effect(x)
        out = []
        for k, (kind, direction, b) in enumerate(maps):
            pencil = done.get(k)
            out.append(kind.solve(direction, b) if pencil is None or pencil.cancel() else pencil.result())
    except BaseException:
        if test is not None:  # so the pool is there, and wait imported
            futures = [test, *done.values()]
            for fut in futures:
                fut.cancel()
            wait(futures)
        raise
    return out


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
    lam = 1.0 + top if lam is None else _real(lam, "lam")
    if not (math.isfinite(lam) and lam > top + 1e-12 * (1.0 + top)):
        raise DomainError(f"lam = {lam} is not finite and above the spectrum of y^2 (top {top})")
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
        object.__setattr__(self, "t", check_mobius_param(self.t))

    def __call__(self, s: float) -> float:
        return mobius_scalar(self.t, s)

    def inverse(self, s: float) -> float:
        # the map of parameter t / (t - 1), written in t since that rounds to 1 for t <= -1e16
        return s * (1.0 - self.t) / (1.0 - self.t * s)


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
        for name in ("sigma", "engaged_pairs"):  # each routing as pairs of plain ints
            pairs = tuple(tuple(_size(k, f"an index of {name}") for k in p) for p in getattr(self, name))
            object.__setattr__(self, name, pairs)
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
        object.__setattr__(self, "_plans", {})  # by direction, each made on first use

    def _plan(self, forward: bool) -> tuple:
        """Everything one direction reads, made on first use and kept in ``_plans``: its
        source and target, whether each source group is of rank one, and per target
        group each member's route.  A rank-one member's is its scalar map, bound as f
        or f.inverse, and the slot of its source in the vector of the source's rank-one
        coordinates, read group by group, each group's in member order; an engaged
        member's is its map's kind and direction and its source factor, as (group, member)."""
        src, dst = (self.source, self.target) if forward else (self.target, self.source)
        slots = {i: k for k, i in enumerate(i for f, ids in src.groups if f.rank == 1 for i in ids)}
        routes = {}
        for (i, j), f in zip(self.sigma, self.scalar_isos):
            a, b = (i, j) if forward else (j, i)
            routes[b] = (f if forward else f.inverse, slots[a])
        for (i, j), iso in zip(self.engaged_pairs, self.engaged_isos):
            a, b = (i, j) if forward else (j, i)
            routes[b] = (iso._kind, iso._directions[forward], src._where[a])
        lines = [f.rank == 1 for f, _ in src.groups]
        plan = self._plans[forward] = src, dst, lines, [[routes[j] for j in ids] for _, ids in dst.groups]
        return plan

    def apply(self, x: Element) -> Element:
        return self._run(x, True)

    def inverse_apply(self, y: Element) -> Element:
        return self._run(y, False)

    def _run(self, x: Element, forward: bool) -> Element:
        src, dst, lines, routes = self._plans.get(forward) or self._plan(forward)
        if x.algebra is not src and x.algebra != src:
            raise ShapeMismatchError("element does not live in the expected algebra")
        engaged = [group for (f, _), group in zip(dst.groups, routes) if f.rank > 1]
        maps = [(kind, d, x._groups[g][m]) for group in engaged for kind, d, (g, m) in group]
        outs = iter(_map_blocks(x, maps, self._pooled))
        # the real part of a herm(1,.) block is its top-left entry's, also over H
        coords = [s for line, g in zip(lines, x._groups) if line for s in g[..., 0, 0].real.ravel().tolist()]
        out = []
        for (f, _), group in zip(dst.groups, routes):
            if f.rank == 1:
                images = [fn(min(max(coords[a], 0.0), 1.0)) for fn, a in group]
                out.append(f._kind.from_real(np.array(images).reshape(len(images), 1, 1)))
            else:
                out.append(np.array([next(outs) for _ in group]))
        return _element(dst, out)


def coordinate_squeeze_iso(n: int) -> tuple[CompositeOrderIso, Element]:
    """Automorphism of [0, e] on the n-fold sum of lines squeezing the
    k-th coordinate of e/2 down to 2^(-k), exactly.

    The k-th scalar map is the Mobius map with parameter t_k = 2 - 2^k
    (so 1/(2 - t_k) = 2^(-k)); the minimum coordinate of the image is
    2^(-n), so no spectral floor survives as n grows even though every
    finite stage stays inside (0, e].
    """
    n = _size(n, "n")
    if not 1 <= n <= 1023:  # t_n needs 2^n as a finite float
        raise ValueError("n must be in [1, 1023]")
    alg = _interned((HermFactor(1, Ring.REAL),) * n)
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

def _from_cone(factor: Factor, images: np.ndarray) -> tuple[FactorOrderIso, np.ndarray]:
    """The canonical map of the cone map fhat = U_y J, and J's images of any further points,
    from fhat of the kind's ``probes``, whose first is e (images[0] = fhat(e) = y^2), then of
    those points.  y^2 is clustered relative to its own scale, so a small y^2 keeps its
    distinct eigenvalues.  The kind reads J (``extract_jordan``), u becomes its polar factor,
    and lam = 1 + max eig(y^2) gives z = (s / (lam - s))^(1/2) on the spectrum s of y^2
    (:func:`params_from_cone_map`).  RecoveryError when y^2 is not interior or J cannot be
    read as an isometry."""
    kind, y2 = factor._kind, images[0]
    m = len(kind.probes)
    dec = spectral_decompose(_element(single_factor(factor), [y2[None]]), 1e-8 * kind.sup(y2))
    if not dec.eigenvalues[0] > 0.0:  # negated so that NaN fails
        raise RecoveryError("image of the unit is not interior")
    y_inv = dec.apply(lambda s: 1.0 / math.sqrt(s))._block(0)
    Js = kind.quad(np.broadcast_to(y_inv, images.shape), images)
    try:
        u, conjugate = kind.extract_jordan(Js[:m], RECOVERY_TOL)
    except ValueError as exc:
        raise RecoveryError(str(exc)) from exc
    try:  # a failed SVD (LinAlgError) is a ValueError too
        jord = FactorJordanIso(factor, kind.isometry.polar(u), conjugate)
    except ValueError as exc:
        raise RecoveryError(f"recovered Jordan isomorphism: {exc}") from exc
    lam = 1.0 + dec.eigenvalues[-1]
    return FactorOrderIso(1.0 - lam, dec.apply(lambda s: math.sqrt(s / (lam - s))), jord), Js[m:]


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
    U_y J.  The probe plan, fixed before the first probe, is the kind's cone
    ``probes``, e first, and 3 agreement points a o a for Gaussian a drawn from
    seed.  e goes in as itself, the unit probe; every other point x goes in as
    x + e, and L(x) = fhat(x + e) - fhat(e), one constant shift: so every input
    (x + 2e)^(-1) lies in (0, e/2] and needs no membership test.  g is called
    once per probe, in plan order, and each step around it runs once on the
    stack of all probes.  :func:`_from_cone` reads (t, z, J) off fhat(e) = y^2
    and the L images; the one check of g is that J = U_{y^(-1)} L agrees with
    the recovered J, to RECOVERY_TOL, at the agreement points.  An affine cone
    map fhat = U_y J + b fails: b cancels in L but stays in fhat(e) = y^2 + b,
    so U_{y'^(-1)} L is no Jordan automorphism, and the extractor or the
    agreement check refuses it.  RecoveryError when an image leaves the
    invertible part (naming the first such probe: the unit probe, extraction
    probe j or agreement probe j, from 1), when that check fails, or when the
    reader refuses the images.
    """
    if len(source.factors) != 1 or len(target.factors) != 1:
        raise DomainError("recovery operates on single factors")
    if source.factors[0] != target.factors[0]:
        raise DomainError("source and target factors must be of the same kind")
    factor, e_s = source.factors[0], unit(source)
    kind, e, rng = factor._kind, e_s._block(0), np.random.default_rng(seed)
    gs = np.stack([random_gaussian(source, rng)._block(0) for _ in range(_AGREEMENT_PROBES)])
    agree = kind.jordan(gs, gs)
    names = ["unit probe"] + [f"extraction probe {j}" for j in range(1, len(kind.probes))]
    names += [f"agreement probe {j + 1}" for j in range(_AGREEMENT_PROBES)]

    xs = np.concatenate((kind.probes, agree))
    xs[1:] += e  # the points whose fhat is read: e, then x + e
    inputs = kind.inverse(xs + e)
    # each input block as the (1, ...) group of its element
    imgs = [_probe(name, g, _element(source, [b])) for name, b in zip(names, inputs[:, None])]
    for img in imgs:
        _check_same_algebra(img, e_s)

    # fhat = cone_interval_map of every image: one test and one solve on the stack, as an
    # element of the m-fold sum, at bounds no looser than any image's own (stol, 1 + tol);
    # image by image when that fails, which names a failing image or passes them all
    Fs = np.stack([img._block(0) for img in imgs])
    stack = _element(_interned((factor,) * len(Fs)), [Fs])
    if spectrum_within(stack, _singular_tol(kind.sup(Fs)), 1.0 + ORDER_TOL):
        fhat = kind.inverse(Fs) - e
    else:
        outs = [_probe(n, cone_interval_map, F, "interval_to_cone") for n, F in zip(names, imgs)]
        fhat = np.stack([out._block(0) for out in outs])
    fhat[1:] -= fhat[0]  # L
    iso, Js = _from_cone(factor, fhat)
    jord = iso.jordan
    for ja, want in zip(Js, kind.act(jord._u, agree, jord.conjugate)):
        if kind.sup(ja - want) > RECOVERY_TOL * (1.0 + kind.sup(ja)):
            raise RecoveryError("recovered Jordan isomorphism disagrees with the probes")
    return iso
