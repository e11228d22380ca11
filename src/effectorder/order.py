"""Cone and effect-algebra order predicates, projections, and the centre.

The partial order is x <= y iff y - x has non-negative spectrum.  Every
cone and [0, e] membership test in the library uses one tolerance,
``_order_tol``, decided by the Cholesky factorizations of :func:`spectrum_within`,
so the boundary is open: an eigenvalue at -tol (or 1 + tol) is outside.

Inside the effect algebra [0, e] arbitrary sets of projections have
suprema and infima; the meet of two projections is recovered spectrally
from p + q (its eigenvalue-2 eigenspace is fixed by both), and the join by
De Morgan duality through the order anti-isomorphism x -> e - x.

The centre of a block direct sum is spanned by the factor identities, so
central projections and the induced splittings are index-set operations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    AlgebraDescriptor,
    DomainError,
    Element,
    ShapeMismatchError,
    _check_same_algebra,
    _element,
    _grouped,
    _interned,
    sup_norm,
    unit,
)
from .spectral import (
    _within,
    extreme_eigenvalues,
    positive_min_eigenvalue,
    range_projection,
    spectral_decompose,
    spectrum_within,
)


ORDER_TOL = 1e-8
# absolute: the projection, interior and centre flags compare with the fixed points 0 and 1
FLAG_TOL = 1e-8


def _order_tol(scale: float) -> float:
    """The tolerance of every cone and [0, e] membership test, for operands of sup norm scale."""
    return ORDER_TOL * (1.0 + scale)


def leq(x: Element, y: Element) -> bool:
    """x <= y in the cone order: the spectrum of y - x lies in the open
    interval (-_order_tol(|x| + |y|), inf)."""
    _check_same_algebra(x, y)
    return spectrum_within(y - x, -_order_tol(sup_norm(x) + sup_norm(y)))


def in_cone(x: Element) -> bool:
    """The spectrum of x lies in (-tol, inf), tol = _order_tol(|x|)."""
    return spectrum_within(x, -_order_tol(sup_norm(x)))


def in_effect_interval(x: Element) -> bool:
    """Membership in [0, e], the check of every order isomorphism: the
    spectrum lies in (-tol, 1 + tol), tol = _order_tol(|x|)."""
    return _in_effect(x)


def _in_effect(x: Element) -> bool:
    """:func:`in_effect_interval`, reading each group's sup once; it calls only the
    kinds, so a pool thread may run it."""
    sups = [f._kind.sup(g) for (f, _), g in zip(x.algebra.groups, x._groups)]
    tol = _order_tol(max(sups))  # a NaN sup fails its own comparison in _within
    return _within(x, sups, -tol, 1.0 + tol)


def _check_effect(x: Element) -> None:
    """Raise DomainError, naming x's spectrum, unless in_effect_interval(x)."""
    if not _in_effect(x):
        lo, hi = extreme_eigenvalues(x)
        raise DomainError(f"argument is outside [0, e]: spectrum in [{lo}, {hi}]")


@dataclass(frozen=True)
class OrderClass:
    in_cone: bool
    in_interior: bool
    in_effect: bool
    in_invertible_effect: bool
    is_projection: bool
    is_atom: bool


def classify(x: Element) -> OrderClass:
    """Order-region flags of x: cone and effect open at _order_tol(|x|) on the extreme eigenvalues,
    as :func:`in_cone` and :func:`in_effect_interval`; interior and projection on the cluster
    means, to FLAG_TOL; atoms are projections of rank one."""
    dec = spectral_decompose(x)
    lo, hi = dec._extremes
    tol = _order_tol(sup_norm(x))
    cone = lo > -tol
    interior = dec.eigenvalues[0] > FLAG_TOL
    effect = cone and hi < 1.0 + tol
    proj = all(abs(lam) <= FLAG_TOL or abs(lam - 1.0) <= FLAG_TOL for lam in dec.eigenvalues)
    atom = proj and sum(r for lam, r in zip(dec.eigenvalues, dec._ranks) if lam > FLAG_TOL) == 1
    return OrderClass(
        in_cone=cone,
        in_interior=interior,
        in_effect=effect,
        in_invertible_effect=effect and interior,
        is_projection=proj,
        is_atom=atom,
    )


def _require_projection(p: Element, what: str) -> None:
    if not classify(p).is_projection:
        raise DomainError(f"{what} is not a projection")


def proj_meet(p: Element, q: Element) -> Element:
    """Greatest lower bound of two projections inside [0, e]: the
    spectral projection of p + q at eigenvalue 2.

    The eigenvalue-2 test is deliberately tight (1e-11, with fine
    clustering): genuine intersections sit at 2 up to ~1e-14 rounding,
    while ranges meeting at a small angle theta produce eigenvalues
    2 - theta^2/2, and wrongly including one would violate m <= p by
    about theta/2 (the square root of the gap)."""
    _check_same_algebra(p, q)
    _require_projection(p, "p")
    _require_projection(q, "q")
    dec = spectral_decompose(p + q, cluster_tol=1e-13)
    return dec.apply(lambda lam: 1.0 if lam >= 2.0 - 1e-11 else 0.0)


def proj_join(p: Element, q: Element) -> Element:
    """Least upper bound: e - ((e - p) meet (e - q))."""
    e = unit(p.algebra)
    return e - proj_meet(e - p, e - q)


def dominates_atom(x: Element, p: Element) -> tuple[bool, float | None]:
    """Does x dominate the atom p, i.e. does some lam > 0 give lam p <= x?

    Equivalent (in finite dimension) to p <= r(x); the reported witness
    is the least strictly positive eigenvalue of x.
    """
    _check_same_algebra(x, p)
    if not in_cone(x):
        raise DomainError("x must lie in the cone")
    if not classify(p).is_atom:
        raise DomainError("p is not an atom")
    ok = leq(p, range_projection(x))
    return (True, positive_min_eigenvalue(x)) if ok else (False, None)


def central_structure(alg: AlgebraDescriptor) -> tuple[list[Element], tuple[int, ...]]:
    """Generators of the centre (the factor identities, one per factor)
    and the disengaged index set (the rank-one factors)."""
    gens = []
    for i in range(len(alg.factors)):
        blocks = [f._kind.zero() for f in alg.factors]
        blocks[i] = alg.factors[i]._kind.identity()
        gens.append(_element(alg, _grouped(alg, blocks)))
    return gens, alg.disengaged_indices


def central_mask(z: Element) -> tuple[bool, ...]:
    """Per-factor 0/1 pattern of a central projection; raises if some
    block is neither 0 nor the identity to FLAG_TOL in every entry."""
    mask = []
    for i, f in enumerate(z.algebra.factors):
        b, kind = z._block(i), f._kind
        if kind.sup(b) <= FLAG_TOL:
            mask.append(False)
        elif kind.sup(b - kind.identity()) <= FLAG_TOL:
            mask.append(True)
        else:
            raise DomainError("not a central projection (block is neither 0 nor identity)")
    return tuple(mask)


def _sides(z: Element) -> list[tuple[list[int], AlgebraDescriptor | None]]:
    """(factor indices, their interned sub-algebra or None) inside, then outside, central z."""
    mask, factors = central_mask(z), z.algebra.factors
    sides = [[i for i, m in enumerate(mask) if m is side] for side in (True, False)]
    return [(ids, _interned(tuple(factors[i] for i in ids)) if ids else None) for ids in sides]


def split_by_central(x: Element, z: Element) -> tuple[Element | None, Element | None]:
    """Split x into its parts inside and outside the central projection z.

    Each part is an element of the corresponding sub-algebra; a side with
    no factors is returned as None.  ``unsplit_by_central`` recombines.
    """
    _check_same_algebra(x, z)
    parts = (_element(s, _grouped(s, [x._block(i) for i in ids])) if ids else None for ids, s in _sides(z))
    return tuple(parts)


def unsplit_by_central(
    alg: AlgebraDescriptor, z: Element, inside: Element | None, outside: Element | None
) -> Element:
    """Inverse of :func:`split_by_central`; exact block reassembly.  z must live in alg, and each
    part where split_by_central puts it, None for a side with no factors; else ShapeMismatchError."""
    sides, got = _sides(z), [getattr(p, "algebra", None) for p in (inside, outside)]
    if z.algebra != alg or got != [sub for _, sub in sides]:
        raise ShapeMismatchError(f"parts in {got[0]} and {got[1]} and z in {z.algebra} do not make up {alg}")
    blocks = {i: p._block(k) for (ids, _), p in zip(sides, (inside, outside)) for k, i in enumerate(ids)}
    return _element(alg, _grouped(alg, [blocks[i] for i in range(len(alg.factors))]))


def has_totally_ordered_interval(x: Element) -> bool:
    """True when [0, x] is a chain: x is zero or a positive multiple of
    an atom (one strictly positive eigenvalue, projection of rank one)."""
    if not in_cone(x):
        raise DomainError("x must lie in the cone")
    dec = spectral_decompose(x)
    return [r for lam, r in zip(dec.eigenvalues, dec._ranks) if lam > dec.zero_tol] in ([], [1])
