"""Finite-dimensional atomic JBW-algebras and their Jordan primitives.

An algebra is an explicit direct sum of type I factors: Hermitian
matrix factors over the reals, complexes, or quaternions, and spin
factors R + R^d with the product

    (a, v) o (b, w) = (ab + <v, w>, aw + bv).

Elements are block vectors, one block per factor.  Everything here is
immutable and every operation is a pure function, so values can be
shared freely across threads.
"""

from __future__ import annotations

import enum
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


def algebra(*factors: Factor) -> AlgebraDescriptor:
    """Convenience constructor: ``algebra(HermFactor(2), SpinFactor(3))``."""
    return AlgebraDescriptor(tuple(factors))


@lru_cache(maxsize=None)
def single_factor(factor: Factor) -> AlgebraDescriptor:
    """The one-factor algebra containing ``factor``; cached."""
    return AlgebraDescriptor((factor,))


# --- blocks ---------------------------------------------------------------

def _block_dtype_shape(factor: Factor) -> tuple[type, tuple[int, ...]]:
    if isinstance(factor, HermFactor):
        n = factor.n
        if factor.ring is Ring.COMPLEX:
            return complex, (n, n)
        if factor.ring is Ring.QUATERNION:
            return float, (n, n, 4)
        return float, (n, n)
    return float, (factor.d + 1,)


# Ring arrays are (n, m) float over R, (n, m) complex over C and (n, m, 4)
# float over H.  Other modules handle them only through this module's
# private block helpers, so no code outside it branches on that layout.

def _mm(factor: HermFactor, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of two ring arrays."""
    return quat.qmatmul(a, b) if factor.ring is Ring.QUATERNION else a @ b


def _real_part(factor: HermFactor, b: np.ndarray) -> np.ndarray:
    """Entrywise real part of a ring array, as a real array."""
    return b[..., 0] if factor.ring is Ring.QUATERNION else b.real


def _from_real(factor: HermFactor, m: np.ndarray) -> np.ndarray:
    """A real array as a ring array of the same matrix shape."""
    if factor.ring is Ring.QUATERNION:
        out = np.zeros(m.shape + (4,))
        out[..., 0] = m
        return out
    return np.array(m, dtype=complex if factor.ring is Ring.COMPLEX else float)


def _embed(factor: HermFactor, b: np.ndarray) -> np.ndarray:
    """The real or complex matrix eigensolvers run on (2n x 2n over H)."""
    return quat.to_complex(b) if factor.ring is Ring.QUATERNION else b


def _unembed(factor: HermFactor, c: np.ndarray) -> np.ndarray:
    """Invert :func:`_embed`."""
    return quat.from_complex(c) if factor.ring is Ring.QUATERNION else c


def _identity_block(factor: Factor) -> np.ndarray:
    if isinstance(factor, HermFactor):
        return _from_real(factor, np.eye(factor.n))
    b = np.zeros(factor.d + 1)
    b[0] = 1.0
    return b


def _zero_block(factor: Factor) -> np.ndarray:
    dtype, shape = _block_dtype_shape(factor)
    return np.zeros(shape, dtype=dtype)


def _adjoint_block(factor: Factor, b: np.ndarray) -> np.ndarray:
    if isinstance(factor, SpinFactor):
        return b
    if factor.ring is Ring.QUATERNION:
        return quat.qadjoint(b)
    return b.conj().T


def _hermitize(factor: Factor, b: np.ndarray) -> np.ndarray:
    """Average a block with its adjoint; the identity for spin blocks."""
    if isinstance(factor, SpinFactor):
        return np.array(b, dtype=float)
    return 0.5 * (b + _adjoint_block(factor, b))


def _block_sup(factor: Factor, b: np.ndarray) -> float:
    if isinstance(factor, HermFactor) and factor.ring is Ring.QUATERNION:
        return float(quat.qabs(b).max())
    return float(np.abs(b).max())


@dataclass(frozen=True, eq=False)
class Element:
    """A block vector with one Hermitian (or spin) block per factor."""

    algebra: AlgebraDescriptor
    blocks: tuple[np.ndarray, ...]

    def block(self, i: int) -> np.ndarray:
        return self.blocks[i]

    def __add__(self, other: "Element") -> "Element":
        _check_same_algebra(self, other)
        return _element(self.algebra, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other: "Element") -> "Element":
        _check_same_algebra(self, other)
        return _element(self.algebra, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self) -> "Element":
        return _element(self.algebra, [-b for b in self.blocks])

    def __rmul__(self, c: float) -> "Element":
        return _element(self.algebra, [float(c) * b for b in self.blocks])

    def __mul__(self, c: float) -> "Element":
        return self.__rmul__(c)

    def __repr__(self) -> str:
        return f"<Element of {self.algebra}>"


def _check_same_algebra(x: Element, y: Element) -> None:
    if x.algebra != y.algebra:
        raise ShapeMismatchError(f"algebras differ: {x.algebra} vs {y.algebra}")


def _element(alg: AlgebraDescriptor, blocks: Iterable[np.ndarray]) -> Element:
    """Trusted constructor: hermitizes each block and freezes the arrays."""
    frozen = []
    for f, b in zip(alg.factors, blocks):
        nb = _hermitize(f, b)
        nb.setflags(write=False)
        frozen.append(nb)
    return Element(alg, tuple(frozen))


def element_from_blocks(alg: AlgebraDescriptor, blocks: Sequence[np.ndarray]) -> Element:
    """Validating constructor: checks shapes and finiteness, symmetrizes.

    Hermitian blocks are replaced by (b + b*) / 2 rather than rejected,
    so tiny serialization noise never invalidates an element.
    """
    if len(blocks) != len(alg.factors):
        raise ShapeMismatchError(
            f"expected {len(alg.factors)} blocks, got {len(blocks)}"
        )
    cast = []
    for i, (f, b) in enumerate(zip(alg.factors, blocks)):
        dtype, shape = _block_dtype_shape(f)
        arr = np.array(b, dtype=dtype)
        if arr.shape != shape:
            raise ShapeMismatchError(
                f"block {i}: expected shape {shape}, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"block {i} has non-finite entries")
        cast.append(arr)
    return _element(alg, cast)


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
    tolerances)."""
    return max(_block_sup(f, b) for f, b in zip(x.algebra.factors, x.blocks))


def canonical_trace(x: Element) -> float:
    """Sum of the normalized traces: matrix trace per Hermitian block,
    2 * alpha per spin block.  Projections have trace equal to rank."""
    total = 0.0
    for f, b in zip(x.algebra.factors, x.blocks):
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
    return 0.5 * (_mm(factor, a, b) + _mm(factor, b, a))


def jordan_product(x: Element, y: Element) -> Element:
    """x o y = (xy + yx) / 2 on matrix blocks, the spin rule on spin blocks."""
    _check_same_algebra(x, y)
    return _element(
        x.algebra,
        [_block_jordan(f, a, b) for f, a, b in zip(x.algebra.factors, x.blocks, y.blocks)],
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
        # U_a b = 2 a o (a o b) - a^2 o b
        ab = _block_jordan(factor, a, b)
        return 2.0 * _block_jordan(factor, a, ab) - _block_jordan(
            factor, _block_jordan(factor, a, a), b
        )
    return _mm(factor, _mm(factor, a, b), a)


def quad_rep(x: Element, y: Element) -> Element:
    """Quadratic representation U_x y = {x,y,x}; equals x y x blockwise
    on matrix factors."""
    _check_same_algebra(x, y)
    return _element(
        x.algebra,
        [_block_quad(f, a, b) for f, a, b in zip(x.algebra.factors, x.blocks, y.blocks)],
    )


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
            blocks.append(rng.standard_normal((f.n, f.n, 4)))
        else:
            blocks.append(rng.standard_normal((f.n, f.n)))
    return _element(alg, blocks)
