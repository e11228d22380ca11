"""Spectral decomposition and functional calculus, per factor type.

Hermitian blocks go through ``numpy.linalg.eigh``, a quaternionic one on
the 2n x 2n complex embedding it is stored as (eigenvalues come in pairs,
and the spectral projections keep the embedding's form); spin blocks have
the closed form

    eigenvalues a +/- |v|   with idempotents (1, +/- v/|v|) / 2.

A decomposition keeps, per factor group (``algebra`` module docstring),
the eigenbases and the cluster index of every eigenpair, a matrix group's
as one stack from one ``eigh`` of the group's stack.  Eigenvalues closer
than ``cluster_tol`` share a cluster, which is what makes jump functions
such as the range projection stable in floating point.  Elements Sum c_i p_i
are rebuilt group by group from the bases by
:meth:`SpectralDecomposition.combine`; the projections p_i themselves are
only built when asked for.

An element is decomposed at most once at the default cluster tolerance:
:func:`spectral_decompose` stores the result in the element's private
``_decomposition`` attribute, which lives as long as the element, so all
the functional calculus on one element shares one eigensolve per block.
It stores only on elements whose arrays are all read-only, as every
element the library builds is; an explicit ``cluster_tol`` bypasses the
store, and the stored decomposition's arrays are read-only as well.

Yes/no spectral questions are factorizations, not eigensolves:
:func:`spectrum_within` decides whether a spectrum lies in an open
interval by one Cholesky factorization per matrix block.  Strict inverses
are solves: one LU solve per matrix block (``algebra._invert``).
Eigenvalues are computed where a value is needed, such as the singularity
test of :func:`invert_element` or the text of an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    DomainError,
    Element,
    HermFactor,
    Ring,
    SingularElementError,
    SpinFactor,
    _adjoint,
    _block_sup,
    _element,
    _hermitize,
    _identity,
    _invert,
    _spin_radius,
    sup_norm,
)

Factor = HermFactor | SpinFactor


def _block_eigh(factor: Factor, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of one block, or of each in a matrix stack, and
    the basis :meth:`combine` uses.

    Hermitian blocks: eigenvector columns (of the complex embedding over
    the quaternions, so every eigenvalue appears twice).  Spin blocks: one
    idempotent per row.
    """
    if isinstance(factor, SpinFactor):
        alpha, v = float(b[0]), b[1:]
        nv = _spin_radius(b)
        if nv < np.finfo(float).tiny:
            return np.array([alpha]), np.eye(1, factor.d + 1)
        u = (0.5 / nv) * v
        return np.array([alpha - nv, alpha + nv]), np.array([[0.5, *-u], [0.5, *u]])
    if b.shape[-1] == 1:
        # 1x1 fast path; the entry is real after hermitization
        return b[..., 0].real, np.ones(b.shape, dtype=b.dtype)
    return np.linalg.eigh(b)


def block_eigenvalues(factor: Factor, b: np.ndarray) -> np.ndarray:
    """Eigenvalues of one stored block (``Element._block(i)``), or of each in
    a matrix stack, ascending, with multiplicity (a quaternionic eigenvalue
    counts once, not twice as in the embedding)."""
    if isinstance(factor, SpinFactor):
        if b.ndim > 1:  # a group's stack, member by member
            return np.array([block_eigenvalues(factor, m) for m in b])
        nv = _spin_radius(b)
        return np.array([b[0] - nv, b[0] + nv])
    if b.shape[-1] == 1:
        return b[..., 0].real.copy()
    w = np.linalg.eigvalsh(b)
    return w[..., ::2] if factor.ring is Ring.QUATERNION else w


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Strictly increasing eigenvalues lam_i with orthogonal projections
    p_i summing to the unit; Sum lam_i p_i reconstructs the element.

    ``bases[g]`` is group g's eigenbasis (see :func:`_block_eigh`), a stack
    for a matrix group of several members, and ``clusters[g][..., j]`` the
    index i of the eigenvalue each member's j-th eigenpair belongs to; a
    spin group of several members keeps a tuple of both, one per member,
    since a spin block with v = 0 has one eigenpair.  ``_extremes`` is the
    (least, greatest) eigenvalue before clustering, which cone and [0, e]
    membership read.
    """

    algebra: AlgebraDescriptor
    eigenvalues: tuple[float, ...]
    bases: tuple[np.ndarray, ...]
    clusters: tuple[np.ndarray, ...]
    zero_tol: float
    _extremes: tuple[float, float]

    def combine(self, values: Sequence[float]) -> Element:
        """Sum values[i] p_i, built group by group as (V * vals) V*."""
        values = np.asarray(values, dtype=float)
        groups = []
        for (f, _), basis, idx in zip(self.algebra.groups, self.bases, self.clusters):
            if not isinstance(f, SpinFactor):
                vals = values[idx]
                if vals.ndim == 1:
                    groups.append(_hermitize(f, (basis * vals) @ basis.conj().T))
                else:  # a stack
                    groups.append(_hermitize(f, (basis * vals[:, None, :]) @ _adjoint(basis)))
            elif isinstance(basis, tuple):
                groups.append(np.array([values[i] @ b for b, i in zip(basis, idx)]))
            else:
                groups.append(values[idx] @ basis)
        return _element(self.algebra, groups)

    @cached_property
    def projections(self) -> tuple[Element, ...]:
        """The spectral projections p_i, built on first access."""
        return tuple(self.combine(row) for row in np.eye(len(self.eigenvalues)))

    def apply(self, f: Callable[[float], float]) -> Element:
        """f(x) = Sum f(lam_i) p_i; raises if f is not finite on the spectrum."""
        vals = []
        for lam in self.eigenvalues:
            try:
                val = float(f(lam))
            except (ArithmeticError, ValueError) as exc:
                raise DomainError(f"function undefined at eigenvalue {lam}: {exc}") from exc
            if not np.isfinite(val):
                raise DomainError(f"function not finite at eigenvalue {lam}")
            vals.append(val)
        return self.combine(vals)

    def reconstruct(self) -> Element:
        return self.combine(self.eigenvalues)

    def positive_min(self) -> float:
        """Least eigenvalue above the zero threshold; +inf if none."""
        pos = [lam for lam in self.eigenvalues if lam > self.zero_tol]
        return min(pos) if pos else float("inf")


def spectral_decompose(x: Element, cluster_tol: float | None = None) -> SpectralDecomposition:
    """Cluster the per-block eigenpairs into a global decomposition of x;
    the default ``cluster_tol`` is 1e-8 (1 + |x|).  Raises DomainError on a
    non-finite entry, where LAPACK's answers are arbitrary.

    With the default ``cluster_tol`` the result is stored on x, for x's
    lifetime, and returned by every later default call; being
    deterministic, it is what a fresh call would return.  It is stored only
    when every block of x is read-only, so an element whose arrays can
    still be written is decomposed afresh each time.  An explicit
    ``cluster_tol`` neither reads nor writes the stored decomposition.
    """
    if cluster_tol is not None:
        return _decompose(x, float(cluster_tol))
    dec = _stored_decomposition(x)
    if dec is None:
        dec = _decompose(x, None)
        if not any(g.flags.writeable for g in x._groups):
            object.__setattr__(x, "_decomposition", dec)
    return dec


def _stored_decomposition(x: Element) -> SpectralDecomposition | None:
    """The default-tolerance decomposition stored on x, if any."""
    return x._decomposition


def _decompose(x: Element, cluster_tol: float | None) -> SpectralDecomposition:
    scale = sup_norm(x)
    if not math.isfinite(scale):
        raise DomainError(f"element has a non-finite entry (sup norm {scale})")
    tol = 1e-8 * (1.0 + scale) if cluster_tol is None else cluster_tol
    bases, clusters, owned = [], [], []
    # (eigenvalue, factor, index, the member's cluster row), sorted by the
    # first three, which are unique, so that rows are never compared
    pairs: list[tuple] = []
    for (f, ids), g in zip(x.algebra.groups, x._groups):
        if isinstance(f, SpinFactor) and len(ids) > 1:
            # one basis per member: a spin block with v = 0 has one eigenpair
            ws, basis = zip(*[_block_eigh(f, b) for b in g])
            idx = tuple(np.empty(len(w), dtype=np.intp) for w in ws)
            owned += basis + idx
        else:
            ws, basis = _block_eigh(f, g)
            idx = np.empty(ws.shape, dtype=np.intp)
            owned += basis, idx
        bases.append(basis)
        clusters.append(idx)
        for i, w, row in zip(ids, ws, idx) if len(ids) > 1 else ((ids[0], ws, idx),):
            pairs.extend((lam, i, j, row) for j, lam in enumerate(w.tolist()))
    pairs.sort()

    # one pass over the sorted spectrum: a gap above tol starts a cluster,
    # whose eigenvalue is the mean of its members
    eigenvalues: list[float] = []
    members: list[float] = []
    for lam, _, j, row in pairs:
        if members and lam - members[-1] > tol:
            eigenvalues.append(sum(members) / len(members))
            members = []
        members.append(lam)
        row[j] = len(eigenvalues)
    eigenvalues.append(sum(members) / len(members))
    for a in owned:  # shared by every caller of a stored decomposition
        a.setflags(write=False)
    return SpectralDecomposition(
        x.algebra, tuple(eigenvalues), tuple(bases), tuple(clusters), tol,
        (pairs[0][0], pairs[-1][0]),
    )


def apply_function(x: Element, f: Callable[[float], float]) -> Element:
    """Continuous/Borel functional calculus f(x) on the point spectrum."""
    return spectral_decompose(x).apply(f)


def extreme_eigenvalues(x: Element) -> tuple[float, float]:
    """(least, greatest) eigenvalue across all blocks in one pass; both
    NaN when some block has a non-finite entry."""
    lows, highs = [0.0] * len(x.algebra.factors), [0.0] * len(x.algebra.factors)
    for (f, ids), g in zip(x.algebra.groups, x._groups):
        # LAPACK raises on NaN entries and min/max would drop a NaN
        if not np.isfinite(g).all():
            return np.nan, np.nan
        w = block_eigenvalues(f, g)
        if len(ids) == 1:
            lows[ids[0]], highs[ids[0]] = float(w[0]), float(w[-1])
        else:
            for i, lo, hi in zip(ids, w[:, 0].tolist(), w[:, -1].tolist()):
                lows[i], highs[i] = lo, hi
    # in factor order: min and max keep the first of equal values, as of 0.0 and -0.0
    return min(lows), max(highs)


def spectrum_within(x: Element, lo: float, hi: float = math.inf) -> bool:
    """Does every eigenvalue of x lie in the open interval (lo, hi)?

    No eigensolve: (s - lo)(hi - s) > 0 exactly on (lo, hi), so a matrix
    block passes iff (x - lo e)(hi e - x) is positive definite, which one
    Cholesky factorization decides (of x - lo e alone when hi is
    infinite).  Spin and 1 x 1 blocks use their closed-form eigenvalues.
    An entry of modulus at least max(|lo|, |hi|) bounds the operator norm,
    so it fails the block at once; that keeps the product from overflowing
    for |lo|, |hi| up to about 1e150.  False when x has a non-finite entry
    or the interval is empty.
    """
    if not lo < hi:
        return False
    if lo == -math.inf:
        if hi == math.inf:
            return math.isfinite(sup_norm(x))
        x, lo, hi = -x, -hi, math.inf
    for (f, _), g in zip(x.algebra.groups, x._groups):
        if isinstance(f, SpinFactor):
            if not all(_spin_within(b, lo, hi) for b in (g if g.ndim > 1 else (g,))):
                return False
        elif not (_block_sup(f, g) < max(abs(lo), abs(hi)) and _matrix_within(f, g, lo, hi)):
            return False
    return True


def _spin_within(b: np.ndarray, lo: float, hi: float) -> bool:
    """Do the eigenvalues a -/+ r of the spin block b lie in (lo, hi)?  Written
    so that no sum overflows, and NaN fails."""
    a, r = float(b[0]), _spin_radius(b)
    return r < a - lo and r < hi - a


def _matrix_within(f: HermFactor, m: np.ndarray, lo, hi) -> bool:
    """:func:`spectrum_within` on one stored matrix block m (over H its
    complex embedding), or on a (k, M, M) stack, which passes when every
    block does, for a finite lo < hi, or finite (k, 1, 1) bounds; the caller
    has checked that every entry has modulus below max(|lo|, |hi|) (so m is
    finite).  1 x 1 blocks compare their entry, unless the bounds are arrays."""
    if f.n == 1 and not isinstance(hi, np.ndarray):
        if m.ndim == 2:
            return lo < float(m[0, 0].real) < hi
        return all(lo < s < hi for s in m[:, 0, 0].real.tolist())
    eye = _identity(m.shape[-1])
    p = m - lo * eye
    if isinstance(hi, np.ndarray) or hi < math.inf:
        # the factors commute; cholesky reads one triangle, so the
        # rounding asymmetry of the product does not matter
        p = p @ ((hi - lo) * eye - p)
    try:
        np.linalg.cholesky(p)
    except np.linalg.LinAlgError:
        return False
    return True


def eigenvalue_floor(x: Element) -> float:
    """A lower bound on the least eigenvalue from the entries alone, with no
    eigensolve: the left end of the Gershgorin discs of each matrix block
    (of its complex embedding over H), a - |v| on spin blocks.  NaN when
    some entry is NaN."""
    floors = [np.asarray(_block_floor(f, g)) for (f, _), g in zip(x.algebra.groups, x._groups)]
    return float(np.min([floors[g][m] for g, m in x.algebra._where]))


def _block_floor(f: Factor, b: np.ndarray):
    """:func:`eigenvalue_floor` of one block, or of each in a stack."""
    if isinstance(f, SpinFactor):
        if b.ndim > 1:
            return np.array([_block_floor(f, m) for m in b])
        return float(b[0]) - _spin_radius(b)
    diag = b.diagonal(0, -2, -1).real
    return (diag - (np.abs(b).sum(axis=-1) - np.abs(diag))).min(axis=-1)


def min_eigenvalue(x: Element) -> float:
    """Least eigenvalue across all blocks (no clustering; cheap path)."""
    return extreme_eigenvalues(x)[0]


def max_eigenvalue(x: Element) -> float:
    return extreme_eigenvalues(x)[1]


def positive_min_eigenvalue(x: Element) -> float:
    return spectral_decompose(x).positive_min()


def range_projection(x: Element) -> Element:
    """Smallest projection p with U_p x = x, i.e. the indicator of
    (0, inf) applied to x.  Requires x in the cone (up to tolerance)."""
    dec = spectral_decompose(x)
    _require_cone(dec)
    return dec.apply(lambda t: 1.0 if t > dec.zero_tol else 0.0)


def _singular_tol(scale: float) -> float:
    return 1e-10 * (1.0 + scale)


def invert_element(x: Element, mode: str = "strict") -> Element:
    """Inverse of x.

    ``strict``  : 1/x by one LU solve per block; raises
                  SingularElementError when some eigenvalue has magnitude
                  <= _singular_tol(|x|) = 1e-10 (1 + |x|).
    ``pseudo``  : spectral; inverts eigenvalues above the cluster
                  threshold and keeps the rest at zero.
    """
    if mode == "strict":
        scale = sup_norm(x)
        if not math.isfinite(scale):
            raise DomainError(f"element has a non-finite entry (sup norm {scale})")
        tol = _singular_tol(scale)
        ws = [block_eigenvalues(f, g) for (f, _), g in zip(x.algebra.groups, x._groups)]
        if any(w[np.abs(w) <= tol].size for w in ws):
            # name the first such eigenvalue in factor order
            bad = [w[np.abs(w) <= tol] for w in (ws[g][m] for g, m in x.algebra._where)]
            first = next(b for b in bad if b.size)[0]
            raise SingularElementError(f"eigenvalue {first} within {tol} of zero")
        return _invert(x)
    if mode == "pseudo":
        dec = spectral_decompose(x)
        return dec.apply(lambda t: 1.0 / t if abs(t) > dec.zero_tol else 0.0)
    raise ValueError(f"unknown inversion mode: {mode!r}")


def _require_cone(dec: SpectralDecomposition) -> None:
    """order.in_cone's open bound (a default zero_tol is order._order_tol(|x|))."""
    if not dec._extremes[0] > -dec.zero_tol:
        raise DomainError(f"not in the cone: min eigenvalue {dec._extremes[0]}")


def sqrt_element(x: Element) -> Element:
    """Positive square root of a cone element (tiny negatives clamped)."""
    dec = spectral_decompose(x)
    _require_cone(dec)
    return dec.apply(lambda t: np.sqrt(t) if t > 0.0 else 0.0)


def pseudo_inv_sqrt(x: Element) -> Element:
    """t -> t^(-1/2) on the strictly positive spectrum, 0 on the kernel."""
    dec = spectral_decompose(x)
    _require_cone(dec)
    return dec.apply(lambda t: 1.0 / np.sqrt(t) if t > dec.zero_tol else 0.0)


def range_approximants(x: Element, n: int) -> tuple[Element, Element, Element]:
    """The truncated inverse-square-root family at level n.

    With f_n(t) = t^(-1/2) for t >= 1/n and n^(3/2) t below, returns

        (f_n(x),  [t f_n(t)^2](x),  [t^(1/2) f_n(t)](x)).

    The last two stabilize exactly to the range projection once
    n > 1 / min positive eigenvalue.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    dec = spectral_decompose(x)
    _require_cone(dec)
    cut = 1.0 / float(n)

    def f(t: float) -> float:
        t = max(t, 0.0)
        return t ** -0.5 if t >= cut else float(n) ** 1.5 * t

    def g(t: float) -> float:
        t = max(t, 0.0)
        return 1.0 if t >= cut else float(n) ** 3 * t ** 3

    def h(t: float) -> float:
        t = max(t, 0.0)
        return 1.0 if t >= cut else float(n) ** 1.5 * t ** 1.5

    return dec.apply(f), dec.apply(g), dec.apply(h)
