"""Spectral decomposition and functional calculus, per factor type.

Hermitian blocks over R and C go through ``numpy.linalg.eigh``;
quaternionic blocks through the 2n x 2n complex embedding (eigenvalues
come in pairs and spectral projections pull back through
``from_complex``); spin blocks have the closed form

    eigenvalues a +/- |v|   with idempotents (1, +/- v/|v|) / 2.

A decomposition keeps, per block, the eigenbasis and the cluster index of
every eigenpair.  Eigenvalues closer than ``cluster_tol`` share a cluster,
which is what makes jump functions such as the range projection stable in
floating point.  Elements Sum c_i p_i are rebuilt block by block from the
bases by :meth:`SpectralDecomposition.combine`; the projections p_i
themselves are only built when asked for.
"""

from __future__ import annotations

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
    _element,
    _embed,
    _unembed,
    sup_norm,
)

Factor = HermFactor | SpinFactor


def default_cluster_tol(x: Element) -> float:
    return 1e-8 * (1.0 + sup_norm(x))


def _block_eigh(factor: Factor, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of one block and the basis :meth:`combine` uses.

    Hermitian blocks: eigenvector columns (of the complex embedding over
    the quaternions, so every eigenvalue appears twice).  Spin blocks: one
    idempotent per row.
    """
    if isinstance(factor, SpinFactor):
        alpha, v = float(b[0]), b[1:]
        nv = float(np.linalg.norm(v))
        if nv < np.finfo(float).tiny:
            return np.array([alpha]), np.eye(1, factor.d + 1)
        u = (0.5 / nv) * v
        return np.array([alpha - nv, alpha + nv]), np.array([[0.5, *-u], [0.5, *u]])
    c = _embed(factor, b)
    if len(c) == 1:
        # 1x1 fast path; the entry is real after hermitization
        return np.array([c[0, 0].real]), np.ones((1, 1), dtype=c.dtype)
    return np.linalg.eigh(c)


def block_eigenvalues(factor: Factor, b: np.ndarray) -> np.ndarray:
    """Eigenvalues of one block, ascending, with multiplicity (a
    quaternionic eigenvalue counts once, not twice as in the embedding)."""
    if isinstance(factor, SpinFactor):
        nv = float(np.linalg.norm(b[1:]))
        return np.array([b[0] - nv, b[0] + nv])
    c = _embed(factor, b)
    if len(c) == 1:
        return np.array([c[0, 0].real])
    w = np.linalg.eigvalsh(c)
    return w[::2] if factor.ring is Ring.QUATERNION else w


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Strictly increasing eigenvalues lam_i with orthogonal projections
    p_i summing to the unit; Sum lam_i p_i reconstructs the element.

    ``bases[k]`` is block k's eigenbasis (see :func:`_block_eigh`) and
    ``clusters[k][j]`` the index i of the eigenvalue its j-th eigenpair
    belongs to.
    """

    algebra: AlgebraDescriptor
    eigenvalues: tuple[float, ...]
    bases: tuple[np.ndarray, ...]
    clusters: tuple[np.ndarray, ...]
    zero_tol: float

    def combine(self, values: Sequence[float]) -> Element:
        """Sum values[i] p_i, built block by block as (V * vals) V*."""
        values = np.asarray(values, dtype=float)
        blocks = []
        for f, basis, idx in zip(self.algebra.factors, self.bases, self.clusters):
            vals = values[idx]
            if isinstance(f, SpinFactor):
                blocks.append(vals @ basis)
                continue
            blocks.append(_unembed(f, (basis * vals) @ basis.conj().T))
        return _element(self.algebra, blocks)

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
    """Cluster the per-block eigenpairs into a global decomposition of x."""
    tol = default_cluster_tol(x) if cluster_tol is None else float(cluster_tol)
    bases, clusters = [], []
    pairs: list[tuple[float, int, int]] = []
    for k, (f, b) in enumerate(zip(x.algebra.factors, x.blocks)):
        w, basis = _block_eigh(f, b)
        bases.append(basis)
        clusters.append(np.empty(len(w), dtype=np.intp))
        pairs.extend((lam, k, j) for j, lam in enumerate(w.tolist()))
    pairs.sort()

    # one pass over the sorted spectrum: a gap above tol starts a cluster,
    # whose eigenvalue is the mean of its members
    eigenvalues: list[float] = []
    members: list[float] = []
    for lam, k, j in pairs:
        if members and lam - members[-1] > tol:
            eigenvalues.append(sum(members) / len(members))
            members = []
        members.append(lam)
        clusters[k][j] = len(eigenvalues)
    eigenvalues.append(sum(members) / len(members))
    return SpectralDecomposition(
        x.algebra, tuple(eigenvalues), tuple(bases), tuple(clusters), tol
    )


def apply_function(x: Element, f: Callable[[float], float]) -> Element:
    """Continuous/Borel functional calculus f(x) on the point spectrum."""
    return spectral_decompose(x).apply(f)


def extreme_eigenvalues(x: Element) -> tuple[float, float]:
    """(least, greatest) eigenvalue across all blocks in one pass."""
    lo, hi = np.inf, -np.inf
    for f, b in zip(x.algebra.factors, x.blocks):
        w = block_eigenvalues(f, b)
        lo, hi = min(lo, float(w[0])), max(hi, float(w[-1]))
    return lo, hi


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


def invert_element(x: Element, mode: str = "strict") -> Element:
    """Spectral inverse.

    ``strict``  : 1/x; raises SingularElementError when some eigenvalue
                  has magnitude <= 1e-10 * (1 + |x|).
    ``pseudo``  : inverts eigenvalues above the cluster threshold and
                  keeps the rest at zero.
    """
    dec = spectral_decompose(x)
    if mode == "strict":
        tol = 1e-10 * (1.0 + sup_norm(x))
        bad = [lam for lam in dec.eigenvalues if abs(lam) <= tol]
        if bad:
            raise SingularElementError(f"eigenvalue {bad[0]} within {tol} of zero")
        return dec.apply(lambda t: 1.0 / t)
    if mode == "pseudo":
        return dec.apply(lambda t: 1.0 / t if abs(t) > dec.zero_tol else 0.0)
    raise ValueError(f"unknown inversion mode: {mode!r}")


def _require_cone(dec: SpectralDecomposition) -> None:
    if dec.eigenvalues and dec.eigenvalues[0] < -dec.zero_tol:
        raise DomainError(f"not in the cone: min eigenvalue {dec.eigenvalues[0]}")


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
