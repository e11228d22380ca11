"""Finite-dimensional atomic JBW-algebras and their Jordan primitives.

An algebra is an explicit direct sum of type I factors: Hermitian
matrix factors over the reals, complexes, or quaternions, and spin
factors R + R^d with the product

    (a, v) o (b, w) = (ab + <v, w>, aw + bv).

Elements are block vectors, one block per factor, stored by factor group:
equal factors, wherever they sit, form one group (``AlgebraDescriptor.groups``),
kept as one (k, ...) stack of its k members' blocks, k = 1 included, and every
kernel runs once per group.  Everything here is immutable and every operation
is a pure function, so values can be shared freely across threads.

A factor's kind, ``f._kind``, given at construction and shared by equal
factors, is one private class per stored kind (real matrix, complex matrix,
the quaternion embedding, the spin vector) that owns every kernel reading
such a block, so no other code asks which kind a factor is.  The kinds make
every LAPACK call through ``_lapack``, its one owner.  Over H a block is
stored as its 2n x 2n complex embedding and runs as on herm(2n,C); the
public format is the (n, n, 4) ring array, which ``Element.blocks`` and
``block(i)`` give per factor, read-only.

Blocks from outside the library, also those the kinds read from documents,
pass one validator, :func:`_checked_block`; inside it every element comes
from the trusted :func:`_element`, which only freezes its arrays.  Sums and
real multiples of Hermitian blocks stay exactly Hermitian (and over H of the
embedding's form), so only the producers whose arithmetic can break symmetry
(non-commuting products, eigenbasis sums, solves, Jordan isomorphisms, raw
samples) restore it with the kind's ``hermitize``.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Any, Iterable, Sequence, Union

import numpy as np

from . import _lapack
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


# the document codes that the kinds' block readers raise; ``serialization`` has the rest
BAD_SCHEMA = "BAD_SCHEMA"
SHAPE_MISMATCH = "SHAPE_MISMATCH"


class SchemaError(ValueError):
    """A document failed schema or invariant validation."""

    def __init__(self, code: str, path: str, message: str):
        super().__init__(f"{code} at {path}: {message}")
        self.code = code
        self.path = path
        self.message = message


def _need(obj: dict, key: str, path: str) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(BAD_SCHEMA, path, f"missing field {key!r}")
    return obj[key]


def _number(cast: type, value: Any, path: str) -> Any:
    """cast(value) for a numeric document field, which must be a JSON number
    (not a bool or a string) and, for ``int`` fields, integral."""
    # exact types: bool is a subclass of int
    if type(value) is not float and type(value) is not int:
        raise SchemaError(BAD_SCHEMA, path, f"expected a number, got {value!r}")
    if cast is int and type(value) is float and not value.is_integer():
        raise SchemaError(BAD_SCHEMA, path, f"expected an integer, got {value!r}")
    try:
        return cast(value)
    except OverflowError as exc:
        raise SchemaError(BAD_SCHEMA, path, f"number out of range: {value!r}") from exc


def _size(value, what: str) -> int:
    """A factor's size as a plain int; a bool or a non-integer is a ValueError."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class HermFactor:
    """Hermitian n x n matrices over ``ring``; rank n, atoms of rank one."""

    n: int
    ring: Ring = Ring.REAL

    def __post_init__(self) -> None:
        n = _size(self.n, "n")
        if n < 1:
            raise ValueError("Hermitian factor needs n >= 1")
        if not isinstance(self.ring, Ring):
            raise ValueError("ring must be a Ring")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_kind", _kind_of(_RING_KINDS[self.ring], n))

    @property
    def rank(self) -> int:
        return self.n

    @property
    def dim(self) -> int:
        """Real vector-space dimension of the factor."""
        return self._kind.dim

    def __str__(self) -> str:
        return f"herm({self.n},{self.ring.value})"


@dataclass(frozen=True)
class SpinFactor:
    """Spin factor R + R^d for d >= 2; rank 2 regardless of d."""

    d: int

    def __post_init__(self) -> None:
        d = _size(self.d, "d")
        if d < 2:
            raise ValueError("spin factor needs d >= 2; use herm(1,R) for lines")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_kind", _kind_of(_Spin, d))

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

    @cached_property
    def disengaged_indices(self) -> tuple[int, ...]:
        """Indices of the rank-one (associative) factors."""
        return tuple(i for i, f in enumerate(self.factors) if f.rank == 1)

    @cached_property
    def engaged_indices(self) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.factors) if f.rank > 1)

    @cached_property
    def groups(self) -> tuple[tuple[Factor, tuple[int, ...]], ...]:
        """(factor, indices) of each group of equal factors, by first appearance."""
        first = dict.fromkeys(self.factors)
        return tuple((f, tuple(i for i, g in enumerate(self.factors) if g == f)) for f in first)

    @cached_property
    def _where(self) -> tuple[tuple[int, int], ...]:
        """(g, m) of each factor: its block is ``x._groups[g][m]``."""
        where = {i: (g, m) for g, (_, c) in enumerate(self.groups) for m, i in enumerate(c)}
        return tuple(where[i] for i in range(len(self.factors)))

    @cached_property
    def _unit(self) -> "Element":
        return _constant(self, lambda kind: kind.identity())

    @cached_property
    def _zero(self) -> "Element":
        return _constant(self, lambda kind: kind.zero())

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


# --- factor kinds ------------------------------------------------------------

@lru_cache(maxsize=64)
def _identity(m: int, stack: bool = False) -> np.ndarray:
    """The m x m real identity, or the (1, m, m) stack of it, read-only: one per order and shape."""
    eye = np.eye(m).reshape((1, m, m) if stack else (m, m))
    eye.setflags(write=False)
    return eye


def _adjoint(b: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a stored matrix, or of each in a stack."""
    return b.conj().swapaxes(-2, -1)


_SINGULAR_PENCIL = "singular pencil: z has an eigenvalue too close to 0"  # it rounds onto the boundary

# the bound 2^_WIDE_EXP, above which a matrix effect test scales its block down
_WIDE_EXP = 500
_WIDE = math.ldexp(1.0, _WIDE_EXP)


@lru_cache(maxsize=1024)
def _kind_of(cls: type, n: int):
    """The one kind of class cls and order n, shared by equal factors."""
    return cls(n)


# A kind is what every block of one factor is, and it owns every kernel that reads
# such a block (README, "Factor kinds", lists them).  Its methods take a stored
# block, or a group's (k, ...) stack of them where the caller runs a group.
# herm(n,C) refines herm(n,R) and the quaternion embedding refines herm(n,C).


class _Real:
    """herm(n,R): a block is stored as its ring array, a real symmetric matrix."""

    ring = Ring.REAL
    dtype = float
    scalar: tuple[int, ...] = ()  # the floats of one scalar in a document
    tail: tuple[int, ...] = ()  # of the ring array's shape, after (n, n)
    twists = None  # the imaginary units recovery probes, as ring scalars
    conjugable = False  # can a Jordan isomorphism be conjugate-linear?

    def __init__(self, n: int):
        self.n, self.shape, self.isometry = n, (n, n) + self.tail, self
        eye = self.identity()  # the pencil's cost: its stored order cubed, 4x when complex
        self.cost = len(eye) ** 3 * (4 if np.iscomplexobj(eye) else 1)

    @property
    def dim(self) -> int:  # n real diagonal entries and n(n - 1)/2 ring scalars above them
        return self.n + self.n * (self.n - 1) // 2 * math.prod(self.scalar)

    # -- format --

    def stored(self, a: np.ndarray) -> np.ndarray:
        """A ring array as stored, not copied; ``ring_array`` inverts it (over H fresh)."""
        return a

    ring_array = stored

    def from_real(self, m) -> np.ndarray:
        """A real (..., n, n) array, or nested list, as the stored matrix of the same ring array."""
        return np.array(m, dtype=self.dtype)

    def identity(self) -> np.ndarray:
        return self.from_real(_identity(self.n))

    def zero(self) -> np.ndarray:
        return np.zeros_like(self.identity())

    def hermitize(self, b: np.ndarray) -> np.ndarray:
        """Average a stored matrix, or each in a stack, with its adjoint."""
        return 0.5 * (b + _adjoint(b))

    def sup(self, b: np.ndarray) -> float:
        """The largest entry modulus of the ring array of b, or over a stack; NaN when an entry is NaN."""
        return float(np.maximum.reduce(np.abs(b), axis=None))

    def trace(self, b: np.ndarray):
        # over H the ring array's real part is that of the embedding's top-left block
        return b[..., : self.n, : self.n].real.trace(0, -2, -1)

    def gaussian(self, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(self.shape)

    # -- Jordan operations; for Hermitian a, b the adjoint of ab is ba --

    def jordan(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.hermitize(a @ b)

    def quad(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.hermitize(a @ b @ a)

    def inverse(self, b: np.ndarray) -> np.ndarray:
        # by one LU solve, of an invertible b; the identity broadcasts over a stack
        return self.hermitize(_lapack.solve(b, _identity(b.shape[-1])))

    # -- spectra --

    def eigh(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and eigenvector columns (over H each eigenvalue twice)."""
        if b.shape[-1] == 1:
            # 1x1 fast path; the entry is real after hermitization
            return b[..., 0].real, np.ones(b.shape, dtype=b.dtype)
        return _lapack.eigh(b)

    def combine(self, basis: np.ndarray, idx, values: np.ndarray) -> np.ndarray:
        """Sum values[i] p_i as (V * vals) V* on each block of a group, for its (k, n, n)
        eigenbases and the (k, n) clusters idx of their eigenpairs."""
        return self.hermitize((basis * values[idx][:, None, :]) @ _adjoint(basis))

    def eigenvalues(self, b: np.ndarray) -> np.ndarray:
        if b.shape[-1] == 1:
            return b[..., 0].real.copy()
        return _lapack.eigvalsh(b)

    def within(self, m: np.ndarray, lo: float, hi: float) -> bool:
        """Does the spectrum of m (each block of a stack) lie in (lo, hi), for finite
        lo < hi or hi = inf?  The caller has checked that no entry reaches
        max(|lo|, |hi|).  One Cholesky factorization of (m - lo e)(hi e - m); when a
        finite bound exceeds 2^500, of m, lo and hi scaled by one power of two first,
        which keeps the product from overflowing and rounds only entries that underflow."""
        if self.n == 1:  # compare the entries
            return all(lo < s < hi for s in m[..., 0, 0].real.ravel().tolist())
        if (lo < -_WIDE or hi > _WIDE) and hi < math.inf:
            s = math.ldexp(1.0, _WIDE_EXP - math.frexp(max(-lo, hi))[1])
            m, lo, hi = s * m, s * lo, s * hi
        eye = _identity(m.shape[-1], True)  # as a stack: broadcasting (n, n) over one costs more
        p = m - lo * eye
        if hi < math.inf:
            # the factors commute; cholesky reads one triangle, so the
            # rounding asymmetry of the product does not matter
            p = p @ ((hi - lo) * eye - p)
        # a block that fails (or holds a NaN) has a NaN last diagonal entry; a sum keeps it
        d = _lapack.cholesky(p)[..., -1, -1].tolist()
        d = sum(d) if isinstance(d, list) else d
        return d == d

    # -- isometries and the closed-form map --

    def act(self, u: np.ndarray, b: np.ndarray, conjugate: bool) -> np.ndarray:
        """x -> u x~ u* on a stored block, or each of a stack, x~ = conj(x) when ``conjugate``."""
        return self.hermitize(u @ (b.conj() if conjugate else b) @ _adjoint(u))

    def random_isometry(self, rng: np.random.Generator) -> tuple[np.ndarray, bool]:
        """A seeded isometry's ring array and conjugate flag (over C drawn too)."""
        return _lapack.qr(self.gaussian(rng))[0], self.conjugable and bool(rng.integers(0, 2))

    def polar(self, u: np.ndarray) -> np.ndarray:
        """The polar factor of the ring array u, the nearest isometry, as a ring array."""
        w, _, vh = _lapack.svd(self.stored(u))
        return self.ring_array(w @ vh)

    def pencils(self, u: np.ndarray, conjugate: bool, basis: np.ndarray, vals) -> tuple:
        """The (backward, forward) directions for :meth:`solve`, each (pencil, conjugate the
        input, conjugate the solve): (A, B, C) = u* V (y, y d, y^(-1)) V* for the eigenbasis
        V of z, vals = (y, y^(-1)) on its eigenpairs and B = C - A, and (C*, -B*, A*)."""
        w = _adjoint(u) @ basis
        A, C = ((w * g) @ basis.conj().T for g in vals)
        B = C - A
        return ((C.conj().T, -B.conj().T, A.conj().T), False, conjugate), ((A, B, C), conjugate, False)

    def solve(self, direction: tuple, b: np.ndarray) -> np.ndarray:
        """(A + m B)^(-1) m C for m = b, or conj(b) first; its conjugate when the direction says."""
        (A, B, C), before, after = direction
        m = b.conj() if before else b
        try:
            out = _lapack.solve(A + m @ B, m @ C)
        except _lapack.LinAlgError as exc:
            raise DomainError(_SINGULAR_PENCIL) from exc
        if after:
            out = out.conj()
        return self.hermitize(out)

    # -- recovery --

    @cached_property
    def probes(self) -> np.ndarray:
        """e, then the cone elements whose images J is read from, as one read-only stack:
        for n > 1 the rank-one v v* for v = e_0 and v = e_0 + e_j, then v = e_0 + a e_1
        for each imaginary unit a in ``twists``, whose (0, 1) entry is conj(a) = -a."""
        n = self.n
        vs = np.eye(n)[: n if n > 1 else 0]
        vs[:, 0] = 1.0
        stack = [self.identity()[None], self.from_real(vs[:, :, None] * vs[:, None, :])]
        if n > 1 and self.twists is not None:
            im = self.twists
            off = np.zeros((len(im), n, n) + im.shape[1:], dtype=im.dtype)  # ring arrays
            off[:, 0, 1], off[:, 1, 0] = -im, im
            stack.append(self.from_real(np.diag(vs[1])) + self.stored(off))  # E_00 + E_11 - a E_01 + a E_10
        stack = np.concatenate(stack)
        stack.setflags(write=False)
        return stack

    def extract_jordan(self, imgs: np.ndarray, tol: float) -> tuple:
        """(u, conjugate) of J read off imgs, J's images of :attr:`probes`, or ValueError."""
        n = self.n
        if n == 1:
            return self.ring_array(self.identity()), False
        # J(v v*) = (U v)(U v)*, so J(E_00) = c_0 c_0*, and J(v v*) c_0 = c_0 + c_j for
        # v = e_0 + e_j since c_0* c_0 = 1, c_j* c_0 = 0; over H, column h of c_j's
        # 2n x 2 embedding is column j + h n of U's
        c0 = self._unit_from_rank_one(imgs[1])
        cs = np.concatenate(([c0], imgs[2 : n + 1] @ c0 - c0))
        U = cs.transpose(1, 2, 0).reshape(len(c0), -1)
        return self._twist(U, imgs[n + 1 :], tol)

    def _unit_from_rank_one(self, b: np.ndarray) -> np.ndarray:
        """The n x 1 column u with b = u u* from a rank-one projection block, stored
        as a block is: over H its 2n x 2 embedding, columns m and n + m of b's."""
        diag = b.diagonal().real[: self.n]
        m = int(np.argmax(diag))
        if diag[m] <= 1e-8:
            raise ValueError("probe image is not a rank-one projection")
        return b[:, m :: self.n] * (1.0 / np.sqrt(diag[m]))

    def _twist(self, U: np.ndarray, imgs: np.ndarray, tol: float) -> tuple:
        return U, False

    # -- documents --

    def factor_obj(self) -> dict:
        return {"kind": "herm", "n": self.n, "ring": self.ring.value}

    def block_to_obj(self, b: np.ndarray) -> list:
        """The floats of the ring array as nested lists, a complex number as its (re, im) pair."""
        a = np.ascontiguousarray(self.ring_array(b))
        return a.view(float).reshape(self.shape[:2] + self.scalar).tolist()

    def block_from_obj(self, rows: Any, path: str) -> np.ndarray:
        """The ring array of :meth:`block_to_obj`'s nested lists: one ``np.array``."""
        n = self.n
        if not isinstance(rows, list) or len(rows) != n or any(
            not isinstance(r, list) or len(r) != n for r in rows
        ):
            raise SchemaError(SHAPE_MISMATCH, path, f"expected an {n}x{n} array")
        tail = self.scalar
        for r, row in enumerate(rows):
            for c, s in enumerate(row):
                if tail and not (isinstance(s, list) and len(s) == tail[0]):
                    msg = f"bad scalar for ring {self.ring.value}"
                    raise SchemaError(BAD_SCHEMA, f"{path}[{r}][{c}]", msg)
                for v in s if tail else (s,):
                    if type(v) is not float:  # the common case; _number tests the rest
                        _number(float, v, f"{path}[{r}][{c}]")
        return np.array(rows, dtype=float).view(self.dtype).reshape(self.shape)

    def jordan_to_obj(self, u: np.ndarray, conjugate: bool) -> dict:
        return {"u": self.block_to_obj(u), "tau": "conj" if conjugate else "id"}

    def jordan_u_from_obj(self, obj: dict, path: str) -> np.ndarray:
        return self.block_from_obj(_need(obj, "u", path), f"{path}.u")


class _Complex(_Real):
    """herm(n,C): a block is stored as its ring array, a complex Hermitian matrix."""

    ring = Ring.COMPLEX
    dtype = complex
    scalar = (2,)
    twists = np.array([1j])
    conjugable = True

    def gaussian(self, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(self.shape) + 1j * rng.standard_normal(self.shape)

    def _twist(self, U, imgs, tol):
        # one more probe, the last, tells linear from conjugate-linear
        probe_im, img = self.probes[-1], imgs[0]
        lin = U @ probe_im @ U.conj().T
        conj = U @ probe_im.conj() @ U.conj().T
        if np.abs(img - lin).max() <= tol * self.n:
            return U, False
        if np.abs(img - conj).max() <= tol * self.n:
            return U, True
        raise ValueError("map is neither linear nor conjugate-linear")


class _Quaternion(_Complex):
    """herm(n,H): a block is stored as the 2n x 2n complex embedding
    [[Z, W], [-conj W, conj Z]] of its (n, n, 4) ring array (``quaternion``)."""

    ring = Ring.QUATERNION
    dtype = float
    scalar = tail = (4,)
    twists = np.eye(4)[1:3]  # i and j
    conjugable = False

    def stored(self, a):
        return quat.to_complex(a)

    def ring_array(self, b):
        return quat.from_complex(b)

    def from_real(self, m):
        n = self.n
        out = np.zeros(np.shape(m)[:-2] + (2 * n, 2 * n), dtype=complex)
        out[..., :n, :n] = out[..., n:, n:] = m
        return out

    @cached_property
    def _swap(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, signs) with sigma(m) = signs * conj(m[..., rows, cols]), where
        sigma(m) = J conj(m) J^T for J = [[0, I], [-I, 0]] of size 2n: the 2n x 2n
        complex matrices of the form [[Z, W], [-conj W, conj Z]] are those with
        sigma(m) = m.  rows and cols swap the halves; signs is -1 where one index
        is in each half."""
        n = self.n
        half = np.r_[np.arange(n, 2 * n), np.arange(n)]
        s = np.r_[np.ones(n), -np.ones(n)]
        return half[:, None], half[None, :], np.outer(s, s)

    def hermitize(self, b):
        """The average h = (b + b*) / 2, averaged with sigma(h) as well (:attr:`_swap`),
        which keeps it exactly Hermitian and exactly of the embedding's form."""
        h = 0.5 * (b + _adjoint(b))
        rows, cols, signs = self._swap
        return 0.5 * (h + signs * h[..., rows, cols].conj())

    def sup(self, b):
        # that of a quaternion z + w j, read from the embedding's top rows as hypot(|z|, |w|)
        n = self.n
        a = np.abs(b[..., :n, :])
        return float(np.maximum.reduce(np.hypot(a[..., :n], a[..., n:]), axis=None))

    def gaussian(self, rng):
        return self.stored(rng.standard_normal(self.shape))

    def eigenvalues(self, b):
        # a quaternionic eigenvalue counts once, not twice as in the embedding
        return super().eigenvalues(b)[..., ::2]

    def random_isometry(self, rng):
        return quat.qgram_schmidt(rng.standard_normal(self.shape)), False

    def _twist(self, U, imgs, tol):
        # U* Jm(x) U = conj(w) x w entrywise for the unit w of c_0's phase; the twist
        # unit p = conj(w) solves r_a p = p a, r_a = conj(w) a w, for a = i, j, read
        # off the (0, 1) entries, since each twist probe's is -a
        qbasis = np.eye(4)
        r = -quat.from_complex(_adjoint(U) @ imgs @ U)[:, 0, 1]
        rows = [(quat.qmul(r_a, qbasis) - quat.qmul(qbasis, qbasis[a])).T for a, r_a in zip((1, 2), r)]
        _, sing, vt = _lapack.svd(np.concatenate(rows))
        if sing[-1] > 1e-6:
            raise ValueError("inner twist is not a rotation")
        u = quat.qmul(quat.from_complex(U), vt[-1])
        # the null vector's sign is arbitrary; in normal form the real component
        # of u with the largest modulus (the first in C order) is positive
        if u.flat[np.argmax(np.abs(u))] < 0.0:
            u = -u
        return u, False


_RING_KINDS = {kind.ring: kind for kind in (_Real, _Complex, _Quaternion)}


def _each_member(collect, blocks: int = 1):
    """A spin method of one block run member by member on a group's (k, d + 1) stacks, its
    first ``blocks`` arguments, into ``collect``: the one place spin maps over a stack."""

    def wrap(one):
        @functools.wraps(one)
        def method(self, *args):
            if args[0].ndim == 1:
                return one(self, *args)
            rest = args[blocks:]
            return collect([one(self, *member, *rest) for member in zip(*args[:blocks])])
        return method
    return wrap


class _Spin:
    """spin(d): a block (a, v) is stored as the vector of its d + 1 coordinates,
    with eigenvalues a -/+ |v| and idempotents (1, -/+ v/|v|) / 2."""

    dtype = float
    cost = 0  # the 2x2 pencil runs inline, in floats

    def __init__(self, d: int):
        self.d, self.shape = d, (d + 1,)
        self.isometry = _kind_of(_Real, d)  # u is a real orthogonal d x d matrix

    @staticmethod
    def _radius(b: np.ndarray) -> float:
        """|v| of the spin block (a, v) by hypot, so that no square overflows."""
        return math.hypot(*b[1:].tolist())

    stored = ring_array = hermitize = _Real.stored  # the identity: a spin block is its own ring array
    zero, sup, gaussian = _Real.zero, _Real.sup, _Real.gaussian

    def identity(self):
        return np.eye(1, self.d + 1)[0]

    def trace(self, b):
        return 2.0 * b[..., 0]

    @_each_member(np.array, blocks=2)
    def jordan(self, a, b):
        alpha = a[0] * b[0] + a[1:] @ b[1:]
        v = a[0] * b[1:] + b[0] * a[1:]
        return np.concatenate(([alpha], v))

    @_each_member(np.array, blocks=2)
    def quad(self, a, b):
        # U_a b = 2 a o (a o b) - a^2 o b, expanded for a = (alpha, v), b = (beta, w)
        alpha, v, beta, w = a[0], a[1:], b[0], b[1:]
        aa, vv, vw = alpha * alpha, v @ v, v @ w
        return np.concatenate((
            [(aa + vv) * beta + 2.0 * alpha * vw], (aa - vv) * w + 2.0 * (alpha * beta + vw) * v
        ))

    @_each_member(np.array)
    def inverse(self, b):
        nv = self._radius(b)  # a^2 - |v|^2 as the product of the two eigenvalues a -/+ |v|
        return np.concatenate(([b[0]], -b[1:])) / ((b[0] - nv) * (b[0] + nv))

    @_each_member(lambda members: tuple(map(np.array, zip(*members))))
    def eigh(self, b):
        """The eigenvalues a -/+ |v| and one idempotent (1, -/+ v/|v|) / 2 per row; for
        v = 0 the eigenvalue a twice, with the idempotents (1, -/+ w) / 2 of the unit w = e_1."""
        alpha = float(b[0])
        nv = self._radius(b)
        if nv < np.finfo(float).tiny:
            nv, u = 0.0, 0.5 * np.eye(1, self.d)[0]
        else:
            u = (0.5 / nv) * b[1:]
        return np.array([alpha - nv, alpha + nv]), np.array([[0.5, *-u], [0.5, *u]])

    def combine(self, basis, idx, values):
        return np.array([values[i] @ b for b, i in zip(basis, idx)])

    @_each_member(np.array)
    def eigenvalues(self, b):
        nv = self._radius(b)
        return np.array([b[0] - nv, b[0] + nv])

    def within(self, b, lo, hi):
        """Does the spectrum a -/+ r of b (each block of a stack) lie in (lo, hi)?  In floats,
        so that no sum overflows; NaN fails."""
        for a, *v in b.reshape(-1, self.d + 1).tolist():
            r = math.hypot(*v)
            if not (r < a - lo and r < hi - a):
                return False
        return True

    def act(self, u, b, conjugate):  # on one block or a (k, d + 1) stack
        return np.concatenate((b[..., :1], (u @ b[..., 1:, None])[..., 0]), axis=-1)

    def pencils(self, u, conjugate, basis, vals):
        """The diagonal pencil on the copy of herm(2,R) spanned by e, zhat and J x, in which
        z = diag(s_-, s_+), kept as diagonals; directions are (pencil, zhat, first, last)."""
        (A, C), zhat = vals, 2.0 * basis[-1, 1:]
        B = C - A
        return ((C, -B, A), zhat, None, u.T), ((A, B, C), zhat, u, None)

    def solve(self, direction, b):
        """The pencil on the copy of x, with first applied before it and last after it, if not None."""
        pencil, zhat, first, last = direction
        a = float(b[0])
        v = b[1:] if first is None else first @ b[1:]
        # the copy of herm(2,R): (a, p0 zhat + w) -> [[a - p0, p1], [p1, a + p0]]
        # for w orthogonal to zhat, p1 = |w|; p1 = 0 only when w = 0
        p0 = float(zhat @ v)
        w = v - p0 * zhat
        p1 = math.hypot(*w.tolist())
        x00, x01, x10, x11 = self._solve_diagonal_pencil(a - p0, p1, a + p0, *pencil)
        v = (x11 - x00) * zhat + (x01 + x10) / (p1 or 1.0) * w
        v = v if last is None else last @ v
        return np.concatenate(([x00 + x11], v)) / 2.0

    @staticmethod
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

    @cached_property
    def probes(self):  # e, then (1, e_i), read-only
        stack = np.eye(self.d + 1)
        stack[:, 0] = 1.0
        stack.setflags(write=False)
        return stack

    def extract_jordan(self, imgs, tol):  # J(1, e_i) = (1, u e_i): u's columns are the vector parts
        if np.abs(imgs[:, 0] - 1.0).max() > tol * 10:
            raise ValueError("spin probe image has a scalar part other than 1")
        return imgs[1:, 1:].T, False

    def factor_obj(self):
        return {"kind": "spin", "d": self.d}

    def block_to_obj(self, b):
        alpha, *v = b.tolist()
        return {"alpha": alpha, "v": v}

    def block_from_obj(self, obj, path):
        alpha, v = _need(obj, "alpha", path), _need(obj, "v", path)
        if not isinstance(v, list) or len(v) != self.d:
            raise SchemaError(SHAPE_MISMATCH, path, f"expected a vector of length {self.d}")
        return [_number(float, c, path) for c in (alpha, *v)]

    def jordan_to_obj(self, u, conjugate):
        return {"O": u.tolist()}

    def jordan_u_from_obj(self, obj, path):
        return self.isometry.block_from_obj(_need(obj, "O", path), f"{path}.O")


@dataclass(frozen=True, eq=False, init=False)
class Element:
    """A block vector, one Hermitian (or spin) block per factor, stored by group.

    ``Element(alg, blocks)`` takes ring arrays, converts the quaternion ones and
    stacks each group read-only, unchecked (:func:`element_from_blocks` validates).
    ``blocks`` and ``block(i)`` give read-only ring arrays back, built on first read
    and kept: views of the group arrays (over H fresh arrays).  Library code reads
    the group arrays, ``_groups``, and a factor's stored block, ``_block(i)``.
    """

    algebra: AlgebraDescriptor
    _groups: tuple[np.ndarray, ...]
    # not fields: ``spectral.spectral_decompose`` stores the default-tolerance
    # decomposition here, on elements with read-only arrays; ``blocks``, the ring arrays
    _decomposition = None
    _view = None

    def __init__(self, algebra: AlgebraDescriptor, blocks, *, _stored: bool = False):
        if not _stored:
            blocks = _grouped(algebra, [f._kind.stored(b) for f, b in zip(algebra.factors, blocks)])
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "_groups", tuple(blocks))

    def _block(self, i: int) -> np.ndarray:
        g, m = self.algebra._where[i]
        return self._groups[g][m]

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        if self._view is None:
            factors = enumerate(self.algebra.factors)
            view = tuple(f._kind.ring_array(self._block(i)) for i, f in factors)
            for a in view:
                a.setflags(write=False)
            object.__setattr__(self, "_view", view)
        return self._view

    def block(self, i: int) -> np.ndarray:
        return self.blocks[i]

    def __add__(self, other: "Element") -> "Element":
        _check_same_algebra(self, other)
        return _element(self.algebra, [a + b for a, b in zip(self._groups, other._groups)])

    def __sub__(self, other: "Element") -> "Element":
        _check_same_algebra(self, other)
        return _element(self.algebra, [a - b for a, b in zip(self._groups, other._groups)])

    def __neg__(self) -> "Element":
        return _element(self.algebra, [-b for b in self._groups])

    def __rmul__(self, c: float) -> "Element":
        return _element(self.algebra, [float(c) * b for b in self._groups])

    def __mul__(self, c: float) -> "Element":
        return self.__rmul__(c)

    def __repr__(self) -> str:
        return f"<Element of {self.algebra}>"


def _check_same_algebra(x: Element, y: Element) -> None:
    if x.algebra != y.algebra:
        raise ShapeMismatchError(f"algebras differ: {x.algebra} vs {y.algebra}")


def _element(alg: AlgebraDescriptor, groups: Iterable[np.ndarray]) -> Element:
    """Trusted constructor: freezes the given group arrays in place, unchecked; they
    have the stored shapes, are Hermitian (over H of the embedding's form), and no
    one writes to them: fresh results, or arrays of other (frozen) elements."""
    groups = tuple(groups)
    for g in groups:
        g.setflags(write=False)
    return Element(alg, groups, _stored=True)


def _grouped(alg: AlgebraDescriptor, blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The group arrays of one stored block per factor: fresh read-only (k, ...) stacks."""
    groups = [np.array([blocks[i] for i in c]) for _, c in alg.groups]
    for g in groups:
        g.setflags(write=False)
    return groups


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
    kind = factor._kind
    b = _cast_array(value, kind.dtype, kind.shape, what)
    if not np.all(np.isfinite(b)):
        raise NonFiniteBlockError(f"{what} has non-finite entries")
    b = kind.stored(b)
    h = kind.hermitize(b)
    asym = 2.0 * kind.sup(b - h)  # |b - b*|, as b - h = (b - b*) / 2; 0 on spin blocks
    if asym > 1e-6 * (1.0 + kind.sup(b)):
        raise NonHermitianBlockError(f"{what}: asymmetry {asym:g} exceeds tolerance")
    return h


def element_from_blocks(alg: AlgebraDescriptor, blocks: Sequence[np.ndarray]) -> Element:
    """Validating constructor for blocks from outside the library: copies
    them and checks shapes and finiteness.  A matrix block b with asymmetry
    |b - b*| above 1e-6 (1 + |b|) raises NonHermitianBlockError; below it,
    b is replaced by (b + b*) / 2, so serialization noise is harmless."""
    if len(blocks) != len(alg.factors):
        raise ShapeMismatchError(f"expected {len(alg.factors)} blocks, got {len(blocks)}")
    pairs = enumerate(zip(alg.factors, blocks))
    return _element(alg, _grouped(alg, [_checked_block(f, b, f"block {i}") for i, (f, b) in pairs]))


def _constant(alg: AlgebraDescriptor, block) -> Element:
    """The element whose every block is ``block(kind)``: one block per group,
    repeated down its stack."""
    groups = []
    for f, c in alg.groups:
        b = block(f._kind)
        groups.append(np.array(np.broadcast_to(b, (len(c),) + b.shape)))
    return _element(alg, groups)


def unit(alg: AlgebraDescriptor) -> Element:
    """The order unit e: identity matrix blocks, (1, 0) spin blocks; one per descriptor."""
    return alg._unit


def zero(alg: AlgebraDescriptor) -> Element:
    """The zero element; one per descriptor."""
    return alg._zero


def element_in_factor(factor: Factor, block: np.ndarray) -> Element:
    """Wrap one block as an element of the single-factor algebra."""
    return element_from_blocks(single_factor(factor), [block])


def sup_norm(x: Element) -> float:
    """Largest entry magnitude across all blocks (a computable norm
    equivalent to the operator norm at these sizes; used to scale
    tolerances); NaN when some entry is NaN."""
    sups = [f._kind.sup(g) for (f, _), g in zip(x.algebra.groups, x._groups)]
    # max() drops a NaN that follows a number; the sum keeps it
    return math.nan if math.isnan(sum(sups)) else max(sups)


def canonical_trace(x: Element) -> float:
    """Sum of the normalized traces: matrix trace per Hermitian block,
    2 * alpha per spin block.  Projections have trace equal to rank."""
    traces = [f._kind.trace(g) for (f, _), g in zip(x.algebra.groups, x._groups)]
    total = 0.0
    for g, m in x.algebra._where:  # summed in factor order
        total += traces[g][m].tolist()
    return total


# --- Jordan operations ----------------------------------------------------

def jordan_product(x: Element, y: Element) -> Element:
    """x o y = (xy + yx) / 2 on matrix blocks, the spin rule on spin blocks."""
    _check_same_algebra(x, y)
    pairs = zip(x.algebra.groups, x._groups, y._groups)
    return _element(x.algebra, [f._kind.jordan(a, b) for (f, _), a, b in pairs])


def triple_product(x: Element, y: Element, z: Element) -> Element:
    """Jordan triple product {x,y,z} = (x o y) o z + (z o y) o x - (x o z) o y."""
    _check_same_algebra(x, y)
    _check_same_algebra(x, z)
    return (
        jordan_product(jordan_product(x, y), z)
        + jordan_product(jordan_product(z, y), x)
        - jordan_product(jordan_product(x, z), y)
    )


def quad_rep(x: Element, y: Element) -> Element:
    """Quadratic representation U_x y = {x,y,x}; equals x y x blockwise
    on matrix factors."""
    _check_same_algebra(x, y)
    pairs = zip(x.algebra.groups, x._groups, y._groups)
    return _element(x.algebra, [f._kind.quad(a, b) for (f, _), a, b in pairs])


def _invert(x: Element) -> Element:
    """x^(-1), group by group; the caller has checked that x is invertible."""
    pairs = zip(x.algebra.groups, x._groups)
    return _element(x.algebra, [f._kind.inverse(g) for (f, _), g in pairs])


# --- raw Gaussian sampling (classes needing spectra live in sampling.py) ---

def random_gaussian(alg: AlgebraDescriptor, rng: np.random.Generator) -> Element:
    """Standard Gaussian Hermitian element; the raw material for the
    seeded sample classes.  Drawn factor by factor, in factor order."""
    blocks = _grouped(alg, [f._kind.gaussian(rng) for f in alg.factors])
    return _element(alg, [f._kind.hermitize(g) for (f, _), g in zip(alg.groups, blocks)])
