"""Spectral decomposition and functional calculus.

Each block's eigenpairs come from its factor's kind (``algebra``): one
``eigh`` of a matrix group's stack, a closed form on spin blocks.  A
decomposition keeps, per factor group, the eigenbases and the cluster
index of every eigenpair.  Eigenvalues closer
than ``cluster_tol`` share a cluster, which is what makes jump functions
such as the range projection stable in floating point.  Elements Sum c_i p_i
are rebuilt group by group from the bases by
:meth:`SpectralDecomposition.combine`; the projections p_i themselves are
only built when asked for.

An element is decomposed at most once at the default cluster tolerance
(:func:`spectral_decompose`), so all the functional calculus on one element
shares one eigensolve per block.

Yes/no spectral questions are factorizations, not eigensolves
(:func:`spectrum_within`), and strict inverses are solves; eigenvalues are
computed where a value is needed, such as the singularity test of
:func:`invert_element` or the text of an error.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    DomainError,
    Element,
    Factor,
    SingularElementError,
    _element,
    _invert,
    sup_norm,
)


def block_eigenvalues(factor: Factor, b: np.ndarray) -> np.ndarray:
    """Eigenvalues of one stored block (``Element._block(i)``), or of each in a
    group's stack, ascending, with multiplicity (over H each counts once)."""
    return factor._kind.eigenvalues(b)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Strictly increasing eigenvalues lam_i with orthogonal projections
    p_i summing to the unit; Sum lam_i p_i reconstructs the element.

    ``bases[g]`` is group g's stack of eigenbases (its kind's ``eigh``), one
    per member, and ``clusters[g][m, j]`` the index i of the eigenvalue that
    member m's j-th eigenpair belongs to.  ``_extremes`` is the
    (least, greatest) eigenvalue before clustering, which cone and [0, e]
    membership read, and ``_ranks[i]`` the rank of p_i.
    """

    algebra: AlgebraDescriptor
    eigenvalues: tuple[float, ...]
    bases: tuple[np.ndarray, ...]
    clusters: tuple[np.ndarray, ...]
    zero_tol: float
    _extremes: tuple[float, float]
    _ranks: tuple[int, ...]

    def combine(self, values: Sequence[float]) -> Element:
        """Sum values[i] p_i, built group by group as (V * vals) V*."""
        values = np.asarray(values, dtype=float)
        parts = zip(self.algebra.groups, self.bases, self.clusters)
        return _element(self.algebra, [f._kind.combine(b, idx, values) for (f, _), b, idx in parts])

    @cached_property
    def projections(self) -> tuple[Element, ...]:
        """The spectral projections p_i, built on first access."""
        return tuple(self.combine(row) for row in np.eye(len(self.eigenvalues)))

    def apply(self, f: Callable[[float], float]) -> Element:
        """f(x) = Sum f(lam_i) p_i; raises if f is not a finite real number on the spectrum."""
        vals = []
        for lam in self.eigenvalues:
            try:
                val = f(lam)
            except (ArithmeticError, ValueError) as exc:
                raise DomainError(f"function undefined at eigenvalue {lam}: {exc}") from exc
            # checked, not caught: float() would drop an imaginary part, or raise TypeError
            if not isinstance(val, numbers.Real):
                raise DomainError(f"function undefined at eigenvalue {lam}: {val!r} is not a real number")
            val = float(val)
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
    the default ``cluster_tol`` is 1e-8 (1 + |x|), and +inf gives one cluster.
    Raises DomainError on a non-finite entry, where LAPACK's answers are
    arbitrary, and ValueError on a NaN or negative ``cluster_tol``.

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
    if not tol >= 0.0:  # negated so that NaN fails
        raise ValueError(f"cluster_tol must be a number >= 0, got {cluster_tol}")
    bases, clusters = [], []
    # (eigenvalue, factor, index, the member's cluster row, the eigenpair's rank), sorted by
    # the first three, which are unique; an eigenpair weighs its factor's rank over its block's
    # eigenpairs: 1, but 1/2 over H (each eigenvalue twice)
    pairs: list[tuple] = []
    for (f, ids), g in zip(x.algebra.groups, x._groups):
        ws, basis = f._kind.eigh(g)
        idx = np.empty(ws.shape, dtype=np.intp)
        bases.append(basis)
        clusters.append(idx)
        r = f.rank / ws.shape[-1]
        for i, w, row in zip(ids, ws.tolist(), idx):
            pairs.extend((lam, i, j, row, r) for j, lam in enumerate(w))
    pairs.sort()

    # one pass over the sorted spectrum: a gap above tol starts a cluster,
    # whose eigenvalue is the mean of its members and whose rank their sum
    eigenvalues: list[float] = []
    members: list[float] = []
    ranks, rank = [], 0.0
    for lam, _, j, row, r in pairs:
        if members and lam - members[-1] > tol:
            eigenvalues.append(sum(members) / len(members))
            ranks.append(int(rank))
            members, rank = [], 0.0
        members.append(lam)
        rank += r
        row[j] = len(eigenvalues)
    eigenvalues.append(sum(members) / len(members))
    ranks.append(int(rank))
    for a in bases + clusters:  # shared by every caller of a stored decomposition
        a.setflags(write=False)
    return SpectralDecomposition(
        x.algebra, tuple(eigenvalues), tuple(bases), tuple(clusters), tol,
        (pairs[0][0], pairs[-1][0]), tuple(ranks),
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
    so it fails the block at once.  False when x has a non-finite entry or
    the interval is empty.
    """
    if not lo < hi:
        return False
    if lo == -math.inf:
        if hi == math.inf:
            return math.isfinite(sup_norm(x))
        x, lo, hi = -x, -hi, math.inf
    return _within(x, [f._kind.sup(g) for (f, _), g in zip(x.algebra.groups, x._groups)], lo, hi)


def _within(x: Element, sups: Sequence[float], lo: float, hi: float) -> bool:
    """The group loop of :func:`spectrum_within`, given the sup of each group of x: the
    one caller of the kinds' ``within``, which calls nothing else, so a pool thread may
    run it.  Every sup is compared before any ``within`` runs, so no kind sees an entry
    that reaches max(|lo|, |hi|), nor the bounds of a tolerance read off an infinite sup."""
    bound = max(abs(lo), abs(hi))
    groups = zip(x.algebra.groups, x._groups)
    return all(s < bound for s in sups) and all(f._kind.within(g, lo, hi) for (f, _), g in groups)


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
