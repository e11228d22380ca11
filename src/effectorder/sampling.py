"""Seeded, reproducible random elements and isomorphisms.

Everything is deterministic in the seed (or the supplied generator), so
property suites can freeze failures and reports are replayable.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    Element,
    Factor,
    _element,
    _grouped,
    _seed,
    jordan_product,
    random_gaussian,
    single_factor,
    unit,
)
from .isomorphisms import (
    CompositeOrderIso,
    FactorJordanIso,
    FactorOrderIso,
    PhiScalarIso,
    PwlScalarIso,
    ScalarOrderIso,
)
from .spectral import apply_function, max_eigenvalue, spectral_decompose

SAMPLE_CLASSES = (
    "general",
    "cone",
    "interior",
    "effect",
    "invertible_effect",
    "projection",
    "atom",
)


def sample_element(alg: AlgebraDescriptor, rng: np.random.Generator, cls: str = "general") -> Element:
    """Draw one element of the requested class from a generator."""
    if cls == "general":
        return random_gaussian(alg, rng)
    if cls == "cone":
        g = random_gaussian(alg, rng)
        return jordan_product(g, g)
    if cls == "interior":
        g = random_gaussian(alg, rng)
        return jordan_product(g, g) + 0.1 * unit(alg)
    if cls == "effect":
        g = random_gaussian(alg, rng)
        return apply_function(g, lambda t: min(max(t, 0.0), 1.0))
    if cls == "invertible_effect":
        g = random_gaussian(alg, rng)
        return apply_function(g, lambda t: min(max(t, 0.05), 1.0))
    if cls == "projection":
        g = random_gaussian(alg, rng)
        dec = spectral_decompose(g)
        return dec.combine(rng.integers(0, 2, size=len(dec.eigenvalues)))
    if cls == "atom":
        i = int(rng.integers(0, len(alg.factors)))
        a = sample_atom(alg.factors[i], rng)
        blocks = [a._block(0) if j == i else f._kind.zero() for j, f in enumerate(alg.factors)]
        return _element(alg, _grouped(alg, blocks))
    raise ValueError(f"unknown sample class: {cls!r}")


def sample_atom(factor: Factor, rng: np.random.Generator) -> Element:
    """A random atom (rank-one projection) of a single factor."""
    alg = single_factor(factor)
    for _ in range(8):
        dec = spectral_decompose(random_gaussian(alg, rng))
        atoms = [i for i, r in enumerate(dec._ranks) if r == 1]
        if atoms:
            return dec.combine(np.eye(len(dec.eigenvalues))[atoms[rng.integers(0, len(atoms))]])
    raise RuntimeError("could not sample an atom (degenerate spectra)")


def random_element(alg: AlgebraDescriptor, seed: int, cls: str = "general") -> Element:
    """Deterministic-in-seed random element of the given class; ``seed`` is read by ``_seed``."""
    return sample_element(alg, np.random.default_rng(_seed(seed)), cls)


def random_jordan_iso(factor: Factor, rng: np.random.Generator) -> FactorJordanIso:
    # spin(d) draws its u like herm(d,R); a complex J is conjugate-linear or not at random
    return FactorJordanIso(factor, *factor._kind.isometry.random_isometry(rng))


def random_factor_iso(factor: Factor, rng: np.random.Generator) -> FactorOrderIso:
    """Random closed-form parameters with z well conditioned (spectrum
    clamped into [0.3, 1.7]) so that round trips stay at ~1e-12."""
    t = float(rng.uniform(-2.5, 0.9))
    g = random_gaussian(single_factor(factor), rng)
    z = apply_function(g, lambda v: min(max(v, 0.3), 1.7))
    return FactorOrderIso(t, z, random_jordan_iso(factor, rng))


def random_scalar_iso(rng: np.random.Generator) -> ScalarOrderIso:
    if rng.random() < 0.5:
        return PhiScalarIso(float(rng.uniform(-2.5, 0.9)))
    xs = np.sort(rng.uniform(0.05, 0.95, size=3))
    ys = np.sort(rng.uniform(0.05, 0.95, size=3))
    knots = ((0.0, 0.0), *zip(xs.tolist(), ys.tolist()), (1.0, 1.0))
    return PwlScalarIso(knots)


def random_composite_iso(
    source: AlgebraDescriptor, target: AlgebraDescriptor, rng: np.random.Generator
) -> CompositeOrderIso:
    """Random order isomorphism between two (isomorphic) direct sums:
    a random routing of the rank-one coordinates and one random factor
    isomorphism per engaged factor, matched within each factor kind."""
    src_d, dst_d = source.disengaged_indices, target.disengaged_indices
    if len(src_d) != len(dst_d):
        raise ValueError("algebras differ in their disengaged parts")
    perm = rng.permutation(len(src_d))
    sigma = tuple((src_d[k], dst_d[int(perm[k])]) for k in range(len(src_d)))
    scalars = tuple(random_scalar_iso(rng) for _ in src_d)

    groups: dict[Factor, tuple[list[int], list[int]]] = defaultdict(lambda: ([], []))
    for i in source.engaged_indices:
        groups[source.factors[i]][0].append(i)
    for j in target.engaged_indices:
        groups[target.factors[j]][1].append(j)
    pairs: list[tuple[int, int]] = []
    for kind in sorted(groups, key=str):
        s_list, t_list = groups[kind]
        if len(s_list) != len(t_list):
            raise ValueError(f"factor kind {kind} has no partner; algebras not isomorphic")
        p = rng.permutation(len(s_list))
        pairs.extend((s_list[k], t_list[int(p[k])]) for k in range(len(s_list)))
    pairs.sort()
    isos = tuple(random_factor_iso(target.factors[j], rng) for _, j in pairs)
    return CompositeOrderIso(source, target, sigma, scalars, tuple(pairs), isos)


def sample_ordered_pair(
    alg: AlgebraDescriptor, rng: np.random.Generator
) -> tuple[Element, Element]:
    """A comparable pair 0 <= x <= y <= e, built constructively as
    (s c1, s (c1 + c2)) for cone elements c1, c2 and a suitable scale."""
    c1 = sample_element(alg, rng, "cone")
    c2 = sample_element(alg, rng, "cone")
    top = c1 + c2
    m = max(max_eigenvalue(top), 1e-9)
    s = float(rng.uniform(0.1, 1.0)) / m
    return s * c1, s * top
