"""Finite-dimensional atomic JBW-algebras and their Jordan primitives.

An algebra is an explicit direct sum of type I factors: Hermitian
matrix factors over the reals, complexes, or quaternions, and spin
factors R + R^d with the product

    (a, v) o (b, w) = (ab + <v, w>, aw + bv).

Elements are block vectors, one block per factor.  Everything here is
immutable and every operation is a pure function, so values can be
shared freely across threads.

A matrix block over H is stored as its 2n x 2n complex embedding, so
that every kernel runs on it as on herm(2n,C); the public format is the
(n, n, 4) ring array, which ``Element.block(i)`` returns (see the comment
above :func:`_stored_block`).

Blocks from outside the library (:func:`element_from_blocks`,
:func:`element_in_factor`, the parser in ``serialization``) pass one
validator, :func:`_checked_block`: cast to the factor's dtype and shape,
finite, asymmetry |b - b*| <= 1e-6 (1 + |b|) in the largest entry modulus,
then stored and replaced by (b + b*) / 2; its cast also serves
``FactorJordanIso``.  Documents store a ring array as its
:func:`_real_view`, floats of shape (n, n), (n, n, 2) or (n, n, 4) over R,
C or H.  Inside the library every element comes from the trusted
:func:`_element`, which only freezes its arrays.  Sums and real multiples
of Hermitian blocks stay exactly Hermitian (and over H exactly of the
embedding's form), so only the producers whose floating-point arithmetic
can break symmetry (non-commuting products, eigenbasis sums, solves,
Jordan isomorphisms, raw samples) restore it with :func:`_hermitize`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence, Union

import numpy as np

from . import quaternion as quat


class Ring(enum.Enum):
    """Scalar field of a Hermitian matrix factor."""

    REAL = "R"
    COMPLEX = "C"
    QUATERNION = "H"


class ShapeMismatchError(ValueError):
    """Operands live in different algebras or a block has the wrong shape."""


class DomainError(ValueError):
    """An argument lies outside the order region an operation requires."""


class SingularElementError(ValueError):
    """Strict inversion was requested for an element with ~zero spectrum."""


class NonFiniteBlockError(ValueError):
    """A block from outside the library has a NaN or infinite entry."""


class NonHermitianBlockError(ValueError):
    """A matrix block from outside the library is far from Hermitian."""


@dataclass(frozen=True)
class HermFactor:
    """Hermitian n x n matrices over ``ring``; rank n, atoms of rank one."""

    n: int
    ring: Ring = Ring.REAL

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("Hermitian factor needs n >= 1")
        if not isinstance(self.ring, Ring):
            raise ValueError("ring must be a Ring")

    @property
    def rank(self) -> int:
        return self.n

    @property
    def dim(self) -> int:
        """Real vector-space dimension of the factor."""
        n = self.n
        if self.ring is Ring.REAL:
            return n * (n + 1) // 2
        if self.ring is Ring.COMPLEX:
            return n * n
        return n * (2 * n - 1)

    def __str__(self) -> str:
        return f"herm({self.n},{self.ring.value})"


@dataclass(frozen=True)
class SpinFactor:
    """Spin factor R + R^d for d >= 2; rank 2 regardless of d."""

    d: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("spin factor needs d >= 2; use herm(1,R) for lines")

    @property
    def rank(self) -> int:
        return 2

    @property
    def dim(self) -> int:
        return self.d + 1

    def __str__(self) -> str:
        return f"spin({self.d})"


Factor = Union[HermFactor, SpinFactor]


@dataclass(frozen=True)
class AlgebraDescriptor:
    """An ordered, non-empty list of factors defining a direct sum."""

    factors: tuple[Factor, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("an algebra needs at least one factor")
        for f in self.factors:
            if not isinstance(f, (HermFactor, SpinFactor)):
                raise ValueError(f"unknown factor type: {f!r}")

    @property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors)

    @property
    def dim(self) -> int:
        return sum(f.dim for f in self.factors)

    @property
    def disengaged_indices(self) -> tuple[int, ...]:
        """Indices of the rank-one (associative) factors."""
        return tuple(i for i, f in enumerate(self.factors) if f.rank == 1)

    @property
    def engaged_indices(self) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.factors) if f.rank > 1)

    def __str__(self) -> str:
        return " + ".join(str(f) for f in self.factors)


@lru_cache(maxsize=1024)
def _interned(factors: tuple[Factor, ...]) -> AlgebraDescriptor:
    """The one descriptor of a factor tuple, shared by :func:`algebra`,
    :func:`single_factor` and the document parser, so that the algebra of
    an element and that of a map built from the same factors are one object."""
    return AlgebraDescriptor(factors)


def algebra(*factors: Factor) -> AlgebraDescriptor:
    """Convenience constructor: ``algebra(HermFactor(2), SpinFactor(3))``; interned."""
    return _interned(factors)


def single_factor(factor: Factor) -> AlgebraDescriptor:
    """The one-factor algebra containing ``factor``; interned."""
    return _interned((factor,))


# --- blocks ---------------------------------------------------------------

def _block_dtype_shape(factor: Factor) -> tuple[type, tuple[int, ...]]:
    """dtype and shape of a block in the public format (the ring array)."""
    if isinstance(factor, HermFactor):
        n = factor.n
        if factor.ring is Ring.COMPLEX:
            return complex, (n, n)
        if factor.ring is Ring.QUATERNION:
            return float, (n, n, 4)
        return float, (n, n)
    return float, (factor.d + 1,)


# Ring arrays, the public format of a matrix block, are (n, m) float over R,
# (n, m) complex over C and (n, m, 4) float over H.  Inside the library a
# block over H is stored as its 2n x 2m complex embedding (``quaternion``
# module), so every kernel runs on a real or complex matrix, over H exactly
# as over C; element_from_blocks, Element(alg, blocks), the documents and
# FactorJordanIso(u=...) convert once with _stored_block, and Element.blocks,
# Element.block(i) and FactorJordanIso.u convert back with _ring_array.
# Matrix helpers also take a (k, ...) stack of blocks and act on each; spin
# helpers take one block.

def _stored_block(factor: Factor, a) -> np.ndarray:
    """A block in the public format as the library stores it; not copied over R and C."""
    if isinstance(factor, HermFactor) and factor.ring is Ring.QUATERNION:
        return quat.to_complex(a)
    return a


def _ring_array(factor: Factor, b: np.ndarray) -> np.ndarray:
    """Invert :func:`_stored_block`; over H a fresh array, read from the top rows."""
    if isinstance(factor, HermFactor) and factor.ring is Ring.QUATERNION:
        return quat.from_complex(b)
    return b


def _real_part(factor: HermFactor, b: np.ndarray) -> np.ndarray:
    """Entrywise real part of a stored matrix's ring array, as a real array."""
    # over H the ring array's real part is that of the embedding's top-left block
    return b[..., : factor.n, : factor.n].real


def _from_real(factor: HermFactor, m) -> np.ndarray:
    """A real (..., n, n) array, or nested list, as the stored matrix of the same ring array."""
    if factor.ring is Ring.QUATERNION:
        n = factor.n
        out = np.zeros(np.shape(m)[:-2] + (2 * n, 2 * n), dtype=complex)
        out[..., :n, :n] = out[..., n:, n:] = m
        return out
    return np.array(m, dtype=complex if factor.ring is Ring.COMPLEX else float)


def _real_view(factor: HermFactor, b: np.ndarray) -> np.ndarray:
    """A stored matrix as the floats of its ring array: (n, n) over R, (n, n, 2)
    over C and (n, n, 4) over H."""
    b = _ring_array(factor, b)
    return np.stack((b.real, b.imag), axis=-1) if factor.ring is Ring.COMPLEX else b


def _real_view_shape(factor: HermFactor) -> tuple[int, ...]:
    """(n, n), (n, n, 2) or (n, n, 4): the shape of a block's real view."""
    dtype, shape = _block_dtype_shape(factor)
    return shape + (2,) if dtype is complex else shape


def _from_real_view(factor: HermFactor, v: np.ndarray) -> np.ndarray:
    """The ring array whose :func:`_real_view` is v, bit for bit."""
    return np.ascontiguousarray(v).view(complex)[..., 0] if factor.ring is Ring.COMPLEX else v


def _identity_block(factor: Factor) -> np.ndarray:
    if isinstance(factor, HermFactor):
        return _from_real(factor, np.eye(factor.n))
    b = np.zeros(factor.d + 1)
    b[0] = 1.0
    return b


def _zero_block(factor: Factor) -> np.ndarray:
    if isinstance(factor, HermFactor):
        return _from_real(factor, np.zeros((factor.n, factor.n)))
    return np.zeros(factor.d + 1)


def _adjoint(b: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a stored matrix, or of each in a stack."""
    return b.conj().swapaxes(-2, -1)


@lru_cache(maxsize=None)
def _quaternion_swap(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, signs) with sigma(m) = signs * conj(m[..., rows, cols]), where
    sigma(m) = J conj(m) J^T for J = [[0, I], [-I, 0]] of size 2n: the 2n x 2n
    complex matrices of the form [[Z, W], [-conj W, conj Z]] are those with
    sigma(m) = m.  rows and cols swap the halves; signs is -1 where one index
    is in each half."""
    half = np.r_[np.arange(n, 2 * n), np.arange(n)]
    s = np.r_[np.ones(n), -np.ones(n)]
    return half[:, None], half[None, :], np.outer(s, s)


def _hermitize(factor: Factor, b: np.ndarray) -> np.ndarray:
    """Average a matrix block with its adjoint; spin blocks are returned as they are.

    Over H the average h = (b + b*) / 2 is averaged with sigma(h) as well
    (:func:`_quaternion_swap`), which keeps it exactly Hermitian and makes it
    exactly of the form [[Z, W], [-conj W, conj Z]].
    """
    if isinstance(factor, SpinFactor):
        return b
    h = 0.5 * (b + _adjoint(b))
    if factor.ring is not Ring.QUATERNION:
        return h
    rows, cols, signs = _quaternion_swap(factor.n)
    return 0.5 * (h + signs * h[..., rows, cols].conj())


def _block_sup(factor: Factor, b: np.ndarray) -> float:
    """The largest entry modulus of a block's ring array: over H that of a
    quaternion z + w j, read from the embedding's top rows as hypot(|z|, |w|)."""
    if isinstance(factor, HermFactor) and factor.ring is Ring.QUATERNION:
        a = np.abs(b[..., : factor.n, :])
        return float(np.hypot(a[..., : factor.n], a[..., factor.n :]).max())
    return float(np.abs(b).max())


def _spin_radius(b: np.ndarray) -> float:
    """|v| of the spin block (a, v) by hypot, so that no square overflows."""
    return math.hypot(*b[1:].tolist())


@dataclass(frozen=True, eq=False, init=False)
class Element:
    """A block vector with one Hermitian (or spin) block per factor.

    ``Element(alg, blocks)`` takes ring arrays, converts the quaternion ones
    to their embedding and stores the rest as given, with no copy or check
    (:func:`element_from_blocks` validates).  ``blocks`` and ``block(i)`` give
    the ring arrays back: the stored arrays over R, C and spin, and over H a
    read-only (n, n, 4) array built on first read and kept.  Library code
    reads the stored blocks, ``_blocks``.
    """

    algebra: AlgebraDescriptor
    _blocks: tuple[np.ndarray, ...]
    # not fields: ``spectral.spectral_decompose`` stores the element's
    # default-tolerance decomposition here, on elements with read-only blocks;
    # ``blocks`` stores the ring arrays
    _decomposition = None
    _view = None

    def __init__(self, algebra: AlgebraDescriptor, blocks, *, _stored: bool = False):
        if not _stored:
            blocks = [_stored_block(f, b) for f, b in zip(algebra.factors, blocks)]
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "_blocks", tuple(blocks))

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        view = self._view
        if view is None:
            view = tuple(_ring_array(f, b) for f, b in zip(self.algebra.factors, self._blocks))
            for a, b in zip(view, self._blocks):
                if a is not b:
                    a.setflags(write=False)
            object.__setattr__(self, "_view", view)
        return view

    def block(self, i: int) -> np.ndarray:
        return self.blocks[i]

    def __add__(self, other: "Element") -> "Element":
        _check_same_algebra(self, other)
        return _element(self.algebra, [a + b for a, b in zip(self._blocks, other._blocks)])

    def __sub__(self, other: "Element") -> "Element":
        _check_same_algebra(self, other)
        return _element(self.algebra, [a - b for a, b in zip(self._blocks, other._blocks)])

    def __neg__(self) -> "Element":
        return _element(self.algebra, [-b for b in self._blocks])

    def __rmul__(self, c: float) -> "Element":
        return _element(self.algebra, [float(c) * b for b in self._blocks])

    def __mul__(self, c: float) -> "Element":
        return self.__rmul__(c)

    def __repr__(self) -> str:
        return f"<Element of {self.algebra}>"


def _check_same_algebra(x: Element, y: Element) -> None:
    if x.algebra != y.algebra:
        raise ShapeMismatchError(f"algebras differ: {x.algebra} vs {y.algebra}")


def _element(alg: AlgebraDescriptor, blocks: Iterable[np.ndarray]) -> Element:
    """Trusted constructor: freezes the given stored blocks in place.

    The caller guarantees that the blocks have the factors' stored shapes,
    are Hermitian (over H also of the embedding's form), and are owned by no
    one who writes to them: fresh results, or blocks of other (frozen)
    elements.  Nothing is copied or checked.
    """
    blocks = tuple(blocks)
    for b in blocks:
        b.setflags(write=False)
    return Element(alg, blocks, _stored=True)


def _cast_array(value, dtype: type, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A fresh ``dtype`` array of ``shape`` from ``value``; a value that does not
    convert, or a non-zero imaginary part for a float ``dtype``, is a ShapeMismatchError."""
    try:  # numpy's errors for entries it cannot convert (strings, objects, huge ints)
        arr = np.asarray(value)
        if dtype is float and np.iscomplexobj(arr):
            if np.any(arr.imag):
                raise ValueError("a real ring has no imaginary part")
            arr = arr.real
        arr = np.array(arr, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ShapeMismatchError(f"{what}: {exc}") from exc
    if arr.shape != shape:
        raise ShapeMismatchError(f"{what}: expected shape {shape}, got {arr.shape}")
    return arr


def _checked_block(factor: Factor, value, what: str) -> np.ndarray:
    """The validator of blocks from outside the library (module docstring)."""
    b = _cast_array(value, *_block_dtype_shape(factor), what)
    if not np.all(np.isfinite(b)):
        raise NonFiniteBlockError(f"{what} has non-finite entries")
    if isinstance(factor, SpinFactor):
        return b
    b = _stored_block(factor, b)
    asym = _block_sup(factor, b - _adjoint(b))
    if asym > 1e-6 * (1.0 + _block_sup(factor, b)):
        raise NonHermitianBlockError(f"{what}: asymmetry {asym:g} exceeds tolerance")
    return _hermitize(factor, b)


def element_from_blocks(alg: AlgebraDescriptor, blocks: Sequence[np.ndarray]) -> Element:
    """Validating constructor for blocks from outside the library: copies
    them and checks shapes and finiteness.  A matrix block b with asymmetry
    |b - b*| above 1e-6 (1 + |b|) raises NonHermitianBlockError; below it,
    b is replaced by (b + b*) / 2, so serialization noise is harmless."""
    if len(blocks) != len(alg.factors):
        raise ShapeMismatchError(f"expected {len(alg.factors)} blocks, got {len(blocks)}")
    pairs = enumerate(zip(alg.factors, blocks))
    return _element(alg, [_checked_block(f, b, f"block {i}") for i, (f, b) in pairs])


def unit(alg: AlgebraDescriptor) -> Element:
    """The order unit e: identity matrix blocks, (1, 0) spin blocks."""
    return _element(alg, [_identity_block(f) for f in alg.factors])


def zero(alg: AlgebraDescriptor) -> Element:
    return _element(alg, [_zero_block(f) for f in alg.factors])


def element_in_factor(factor: Factor, block: np.ndarray) -> Element:
    """Wrap one block as an element of the single-factor algebra."""
    return element_from_blocks(single_factor(factor), [block])


def sup_norm(x: Element) -> float:
    """Largest entry magnitude across all blocks (a computable norm
    equivalent to the operator norm at these sizes; used to scale
    tolerances); NaN when some entry is NaN."""
    sups = [_block_sup(f, b) for f, b in zip(x.algebra.factors, x._blocks)]
    # max() drops a NaN that follows a number; the sum keeps it
    return math.nan if math.isnan(sum(sups)) else max(sups)


def canonical_trace(x: Element) -> float:
    """Sum of the normalized traces: matrix trace per Hermitian block,
    2 * alpha per spin block.  Projections have trace equal to rank."""
    total = 0.0
    for f, b in zip(x.algebra.factors, x._blocks):
        if isinstance(f, SpinFactor):
            total += 2.0 * float(b[0])
        else:
            total += float(np.trace(_real_part(f, b)))
    return total


# --- Jordan operations ----------------------------------------------------

def _block_jordan(factor: Factor, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if isinstance(factor, SpinFactor):
        alpha = a[0] * b[0] + a[1:] @ b[1:]
        v = a[0] * b[1:] + b[0] * a[1:]
        return np.concatenate(([alpha], v))
    # for Hermitian a, b the adjoint of ab is ba
    return _hermitize(factor, a @ b)


def jordan_product(x: Element, y: Element) -> Element:
    """x o y = (xy + yx) / 2 on matrix blocks, the spin rule on spin blocks."""
    _check_same_algebra(x, y)
    return _element(
        x.algebra,
        [_block_jordan(f, a, b) for f, a, b in zip(x.algebra.factors, x._blocks, y._blocks)],
    )


def triple_product(x: Element, y: Element, z: Element) -> Element:
    """Jordan triple product {x,y,z} = (x o y) o z + (z o y) o x - (x o z) o y."""
    _check_same_algebra(x, y)
    _check_same_algebra(x, z)
    return (
        jordan_product(jordan_product(x, y), z)
        + jordan_product(jordan_product(z, y), x)
        - jordan_product(jordan_product(x, z), y)
    )


def _block_quad(factor: Factor, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if isinstance(factor, SpinFactor):
        # U_a b = 2 a o (a o b) - a^2 o b, expanded for a = (alpha, v), b = (beta, w)
        alpha, v, beta, w = a[0], a[1:], b[0], b[1:]
        aa, vv, vw = alpha * alpha, v @ v, v @ w
        return np.concatenate((
            [(aa + vv) * beta + 2.0 * alpha * vw], (aa - vv) * w + 2.0 * (alpha * beta + vw) * v
        ))
    return _hermitize(factor, a @ b @ a)


def quad_rep(x: Element, y: Element) -> Element:
    """Quadratic representation U_x y = {x,y,x}; equals x y x blockwise
    on matrix factors."""
    _check_same_algebra(x, y)
    return _element(
        x.algebra,
        [_block_quad(f, a, b) for f, a, b in zip(x.algebra.factors, x._blocks, y._blocks)],
    )


def _invert_block(factor: Factor, b: np.ndarray) -> np.ndarray:
    """b^(-1) by one LU solve for a matrix block or a stack of them, and by
    (a, -v) / (a^2 - |v|^2) for a spin block; the caller has checked that
    every block is invertible."""
    if isinstance(factor, SpinFactor):
        # a^2 - |v|^2 as the product of the two eigenvalues a -/+ |v|
        nv = _spin_radius(b)
        return np.concatenate(([b[0]], -b[1:])) / ((b[0] - nv) * (b[0] + nv))
    eye = np.eye(b.shape[-1])
    # a stack gets a stacked identity: numpy < 2 reads an (M, M) one as M vectors
    return _hermitize(factor, np.linalg.solve(b, eye if b.ndim == 2 else eye[None]))


def _invert(x: Element) -> Element:
    """x^(-1) by :func:`_invert_block`; the caller has checked that x is invertible."""
    return _element(x.algebra, [_invert_block(f, b) for f, b in zip(x.algebra.factors, x._blocks)])


# --- raw Gaussian sampling (classes needing spectra live in sampling.py) ---

def random_gaussian(alg: AlgebraDescriptor, rng: np.random.Generator) -> Element:
    """Standard Gaussian Hermitian element; the raw material for the
    seeded sample classes."""
    blocks = []
    for f in alg.factors:
        if isinstance(f, SpinFactor):
            blocks.append(rng.standard_normal(f.d + 1))
        elif f.ring is Ring.COMPLEX:
            a = rng.standard_normal((f.n, f.n)) + 1j * rng.standard_normal((f.n, f.n))
            blocks.append(a)
        elif f.ring is Ring.QUATERNION:
            blocks.append(_stored_block(f, rng.standard_normal((f.n, f.n, 4))))
        else:
            blocks.append(rng.standard_normal((f.n, f.n)))
    return _element(alg, [_hermitize(f, b) for f, b in zip(alg.factors, blocks)])
