"""Order isomorphisms of effect algebras [0, e] in closed form.

The engine room of the package.  For a single matrix or spin factor,
every order isomorphism of [0, e] that preserves the invertible part is

    f(x) = mobius_t( U_{(z^2+e)^(1/2)} ( e - (e + U_{z^(-1)} J x)^(-1) ) )

for a parameter t < 1, an interior-positive z, and a Jordan isomorphism
J.  The map is evaluated exactly as composed steps; since x lies in
[0, e], the spectrum of e + U_{z^(-1)} J x is >= 1 and the strict
inverse always exists, so no limiting process is needed at the boundary.

For a direct sum, an order isomorphism routes the rank-one (disengaged)
coordinates through a bijection with arbitrary scalar order isomorphisms
of [0, 1] and applies one closed-form factor map per engaged factor;
``CompositeOrderIso`` is that data.

The one-parameter Mobius family

    mobius_t(x) = x o (t x + (1 - t) e)^(-1),       t < 1,

is a group of effect-algebra automorphisms with composition law
t * s = t + s - t s and inverse parameter t / (t - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

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
    SpinFactor,
    _adjoint_block,
    _block_dtype_shape,
    _block_sup,
    _element,
    _from_real,
    _identity_block,
    _mm,
    _real_part,
    element_in_factor,
    jordan_product,
    quad_rep,
    random_gaussian,
    single_factor,
    sup_norm,
    unit,
)
from .spectral import (
    apply_function,
    extreme_eigenvalues,
    invert_element,
    max_eigenvalue,
    min_eigenvalue,
    pseudo_inv_sqrt,
    range_projection,
    spectral_decompose,
    sqrt_element,
)
from .order import leq


class RecoveryError(RuntimeError):
    """A probed map failed the checks for the assumed closed form."""


MOBIUS_PARAM_MAX = 1.0 - 1e-12


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


def _check_effect(x: Element, lo: float, hi: float) -> None:
    """Raise unless the spectrum [lo, hi] of x lies in [0, 1] up to tolerance."""
    tol = 1e-8 * (1.0 + sup_norm(x))
    if lo < -tol or hi > 1.0 + tol:
        raise DomainError(f"argument is outside [0, e]: spectrum in [{lo}, {hi}]")


def mobius_apply(t: float, x: Element) -> Element:
    """The effect-algebra automorphism x -> x o (t x + (1 - t) e)^(-1),
    computed through the functional calculus as s -> s / (t s + 1 - t)."""
    check_mobius_param(t)
    dec = spectral_decompose(x)
    _check_effect(x, dec.eigenvalues[0], dec.eigenvalues[-1])
    return dec.apply(lambda s: mobius_scalar(t, s))


# --- interval stretching and the cone <-> interval anti-isomorphism --------

def interval_top_map(x: Element, y: Element, direction: str = "forward") -> Element:
    """Order isomorphism between [0, r(x)] and [0, x].

    ``forward``  : y in [0, r(x)]  ->  U_{x^(1/2)} y in [0, x]
    ``backward`` : y in [0, x]     ->  U_s y with s the pseudo inverse
                   square root of x (exact inverse in finite dimension).
    """
    rx = range_projection(x)
    zero_x = 0.0 * x
    if direction == "forward":
        if not (leq(zero_x, y) and leq(y, rx)):
            raise DomainError("y is not in [0, r(x)]")
        return quad_rep(sqrt_element(x), y)
    if direction == "backward":
        if not (leq(zero_x, y) and leq(y, x)):
            raise DomainError("y is not in [0, x]")
        return quad_rep(pseudo_inv_sqrt(x), y)
    raise ValueError(f"unknown direction: {direction!r}")


def cone_interval_map(x: Element, direction: str) -> Element:
    """Order anti-isomorphism between (0, e] and the cone:
    x -> x^(-1) - e one way, x -> (x + e)^(-1) back."""
    e = unit(x.algebra)
    if direction == "interval_to_cone":
        _check_effect(x, *extreme_eigenvalues(x))
        return invert_element(x, "strict") - e
    if direction == "cone_to_interval":
        if min_eigenvalue(x) < -1e-8 * (1.0 + sup_norm(x)):
            raise DomainError("x is not in the cone")
        return invert_element(x + e, "strict")
    raise ValueError(f"unknown direction: {direction!r}")


# --- Jordan isomorphisms of single factors ----------------------------------

@dataclass(frozen=True, eq=False)
class FactorJordanIso:
    """Jordan isomorphism of one type I factor.

    Hermitian factors: x -> u tau(x) u* for an isometry u over the ring,
    with tau either the identity or (complex factors only) entrywise
    conjugation.  Spin factors: (a, v) -> (a, O v) for orthogonal O.
    """

    factor: Factor
    u: np.ndarray | None = None
    conjugate: bool = False
    rotation: np.ndarray | None = None

    def __post_init__(self) -> None:
        if isinstance(self.factor, SpinFactor):
            if self.rotation is None or self.u is not None:
                raise ValueError("spin isomorphism needs a rotation matrix only")
            O = np.array(self.rotation, dtype=float)
            if O.shape != (self.factor.d, self.factor.d):
                raise ShapeMismatchError("rotation has the wrong shape")
            # negated so that NaN entries fail the check
            if not np.abs(O.T @ O - np.eye(self.factor.d)).max() <= 1e-10:
                raise ValueError("rotation is not orthogonal")
            O.setflags(write=False)
            object.__setattr__(self, "rotation", O)
            return
        if self.u is None or self.rotation is not None:
            raise ValueError("Hermitian isomorphism needs an isometry u only")
        f = self.factor
        if self.conjugate and f.ring is not Ring.COMPLEX:
            raise ValueError("conjugation flag only applies to complex factors")
        dtype, shape = _block_dtype_shape(f)
        u = np.array(self.u, dtype=dtype)
        if u.shape != shape:
            raise ShapeMismatchError("u has the wrong shape")
        gram = _mm(f, u, _adjoint_block(f, u)) - _identity_block(f)
        if not _block_sup(f, gram) <= 1e-10:  # negated, as above
            raise ValueError("u is not an isometry")
        u.setflags(write=False)
        object.__setattr__(self, "u", u)

    @property
    def algebra(self) -> AlgebraDescriptor:
        return single_factor(self.factor)

    def apply(self, x: Element) -> Element:
        if x.algebra != self.algebra:
            raise ShapeMismatchError("element does not live in this factor")
        f, b = self.factor, x.block(0)
        if isinstance(f, SpinFactor):
            out = np.concatenate(([b[0]], self.rotation @ b[1:]))
        else:
            arg = b.conj() if self.conjugate else b
            out = _mm(f, _mm(f, self.u, arg), _adjoint_block(f, self.u))
        return _element(self.algebra, [out])

    def inverted(self) -> "FactorJordanIso":
        if isinstance(self.factor, SpinFactor):
            return FactorJordanIso(self.factor, rotation=self.rotation.T)
        if self.conjugate:
            # inverse of x -> u conj(x) u* is y -> u^T conj(y) conj(u)
            return FactorJordanIso(self.factor, u=self.u.T, conjugate=True)
        return FactorJordanIso(self.factor, u=_adjoint_block(self.factor, self.u))

    def inverse_apply(self, y: Element) -> Element:
        return self.inverted().apply(y)


def identity_jordan(factor: Factor) -> FactorJordanIso:
    if isinstance(factor, SpinFactor):
        return FactorJordanIso(factor, rotation=np.eye(factor.d))
    return FactorJordanIso(factor, u=_identity_block(factor))


# --- the closed-form factor order isomorphism -------------------------------

@dataclass(frozen=True, eq=False)
class FactorOrderIso:
    """Parameters (t < 1, interior z, Jordan isomorphism J) of the
    closed-form order isomorphism of a factor's effect algebra."""

    t: float
    z: Element
    jordan: FactorJordanIso

    def __post_init__(self) -> None:
        check_mobius_param(self.t)
        if self.z.algebra != self.jordan.algebra:
            raise ShapeMismatchError("z must live in the target factor")
        if min_eigenvalue(self.z) <= 0.0:
            raise DomainError("z must be interior-positive")
        # quantities reused by every application
        e = unit(self.algebra)
        z2e = jordan_product(self.z, self.z) + e
        object.__setattr__(self, "_z_inv", invert_element(self.z, "strict"))
        object.__setattr__(self, "_stretch", apply_function(z2e, np.sqrt))
        object.__setattr__(self, "_stretch_inv", apply_function(z2e, lambda v: v ** -0.5))
        object.__setattr__(self, "_jordan_inv", self.jordan.inverted())

    @property
    def algebra(self) -> AlgebraDescriptor:
        return self.jordan.algebra

    def apply(self, x: Element) -> Element:
        """Evaluate mobius_t(U_{(z^2+e)^(1/2)}(e - (e + U_{z^(-1)} J x)^(-1)))."""
        _check_effect(x, *extreme_eigenvalues(x))
        w = self.jordan.apply(x)
        w = quad_rep(self._z_inv, w)
        # e - (e + w)^(-1) = [v/(1+v)](w): one pass, spectrum of e+w >= 1
        w = apply_function(w, lambda v: v / (1.0 + v))
        w = quad_rep(self._stretch, w)
        return mobius_apply(self.t, w)

    def inverse_apply(self, y: Element) -> Element:
        """Stepwise inversion of :meth:`apply`."""
        w = mobius_apply(mobius_invert_param(self.t), y)
        w = quad_rep(self._stretch_inv, w)
        dec = spectral_decompose(w)
        if dec.eigenvalues[-1] >= 1.0 - 1e-12:
            raise DomainError("argument is not in the image of the map")
        # (e - w)^(-1) - e = [v/(1-v)](w)
        w = dec.apply(lambda v: v / (1.0 - v))
        w = quad_rep(self.z, w)
        return self._jordan_inv.apply(w)


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
    positive-cone map U_y J:   x -> (U_y J x^(-1) - y^2 + e)^(-1)."""
    if min_eigenvalue(y) <= 0.0:
        raise DomainError("y must be interior-positive")
    _check_effect(x, *extreme_eigenvalues(x))
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

        t = 1 - lam,   z = U_{y^(1/2)} (lam e - y^2)^(-1/2),   J

    induces the same map on (0, e]; the default is lam = 1 + max eig(y^2).
    """
    if y.algebra != jordan.algebra:
        raise ShapeMismatchError("y must live in the target factor")
    if min_eigenvalue(y) <= 0.0:
        raise DomainError("y must be interior-positive")
    y2 = jordan_product(y, y)
    top = max_eigenvalue(y2)
    if lam is None:
        lam = 1.0 + top
    lam = float(lam)
    if lam <= top + 1e-12 * (1.0 + top):
        raise DomainError(f"lam = {lam} is not above the spectrum of y^2 (top {top})")
    e = unit(y.algebra)
    s = apply_function(lam * e - y2, lambda v: v ** -0.5)
    z = quad_rep(sqrt_element(y), s)
    return FactorOrderIso(1.0 - lam, z, jordan)


def transitivity_witness(w: Element) -> Element:
    """The y with (U_y x^(-1) - y^2 + e)^(-1) sending e/2 to w, namely
    y = (w^(-1) - e)^(1/2); demands 0 < w < e strictly."""
    tol = 1e-9 * (1.0 + sup_norm(w))
    e = unit(w.algebra)
    if min_eigenvalue(w) <= tol or min_eigenvalue(e - w) <= tol:
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
        return mobius_scalar(self.t / (self.t - 1.0), s)


@dataclass(frozen=True, eq=False)
class PwlScalarIso:
    """Piecewise-linear order isomorphism of [0, 1] through fixed knots."""

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        ks = tuple((float(a), float(b)) for a, b in self.knots)
        if len(ks) < 2 or ks[0] != (0.0, 0.0) or ks[-1] != (1.0, 1.0):
            raise ValueError("knots must run from (0,0) to (1,1)")
        if not np.all(np.isfinite(ks)):
            raise ValueError("knots must be finite")
        xs = [k[0] for k in ks]
        ys = [k[1] for k in ks]
        if any(b <= a for a, b in zip(xs, xs[1:])) or any(
            b <= a for a, b in zip(ys, ys[1:])
        ):
            raise ValueError("knots must be strictly increasing in both coordinates")
        object.__setattr__(self, "knots", ks)

    def __call__(self, s: float) -> float:
        xs = np.array([k[0] for k in self.knots])
        ys = np.array([k[1] for k in self.knots])
        return float(np.interp(s, xs, ys))

    def inverse(self, s: float) -> float:
        xs = np.array([k[0] for k in self.knots])
        ys = np.array([k[1] for k in self.knots])
        return float(np.interp(s, ys, xs))


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
        src_d = sorted(i for i, _ in self.sigma)
        dst_d = sorted(j for _, j in self.sigma)
        if src_d != sorted(self.source.disengaged_indices) or dst_d != sorted(
            set(j for _, j in self.sigma)
        ) or dst_d != sorted(self.target.disengaged_indices):
            raise ValueError("sigma is not a bijection of the disengaged indices")
        src_e = sorted(i for i, _ in self.engaged_pairs)
        dst_e = sorted(j for _, j in self.engaged_pairs)
        if src_e != sorted(self.source.engaged_indices) or dst_e != sorted(
            set(j for _, j in self.engaged_pairs)
        ) or dst_e != sorted(self.target.engaged_indices):
            raise ValueError("engaged matching is not a bijection of the engaged indices")
        for (i, j), iso in zip(self.engaged_pairs, self.engaged_isos):
            if self.source.factors[i] != self.target.factors[j]:
                raise ValueError(f"matched factors {i} -> {j} differ in kind")
            if iso.algebra != single_factor(self.target.factors[j]):
                raise ValueError(f"factor isomorphism {i} -> {j} lives in the wrong factor")

    def apply(self, x: Element, direction: str = "forward") -> Element:
        if direction not in ("forward", "backward"):
            raise ValueError(f"unknown direction: {direction!r}")
        fwd = direction == "forward"
        src = self.source if fwd else self.target
        dst = self.target if fwd else self.source
        if x.algebra != src:
            raise ShapeMismatchError("element does not live in the expected algebra")
        _check_effect(x, *extreme_eigenvalues(x))
        out: list[np.ndarray | None] = [None] * len(dst.factors)
        for (i, j), f in zip(self.sigma, self.scalar_isos):
            a, b = (i, j) if fwd else (j, i)
            s = float(np.clip(_real_part(src.factors[a], x.block(a))[0, 0], 0.0, 1.0))
            v = f(s) if fwd else f.inverse(s)
            out[b] = _from_real(dst.factors[b], np.full((1, 1), v))
        for (i, j), iso in zip(self.engaged_pairs, self.engaged_isos):
            a, b = (i, j) if fwd else (j, i)
            xi = element_in_factor(src.factors[a], x.block(a))
            yi = iso.apply(xi) if fwd else iso.inverse_apply(xi)
            out[b] = yi.block(0)
        return _element(dst, out)

    def inverse_apply(self, y: Element) -> Element:
        return self.apply(y, "backward")


def coordinate_squeeze_iso(n: int) -> tuple[CompositeOrderIso, Element]:
    """Automorphism of [0, e] on the n-fold sum of lines squeezing the
    k-th coordinate of e/2 down to 2^(-k), exactly.

    The k-th scalar map is the Mobius map with parameter t_k = 2 - 2^k
    (so 1/(2 - t_k) = 2^(-k)); the minimum coordinate of the image is
    2^(-n), so no spectral floor survives as n grows even though every
    finite stage stays inside (0, e].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
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
    """n x 1 column u with b = u u* from a rank-one projection block."""
    diag = np.diagonal(_real_part(factor, b))
    m = int(np.argmax(diag))
    if diag[m] <= 1e-8:
        raise RecoveryError("probe image is not a rank-one projection")
    return b[:, m : m + 1] * (1.0 / np.sqrt(diag[m]))


def _extract_hermitian_jordan(
    Jm: Callable[[Element], Element], factor: HermFactor, tol: float
) -> FactorJordanIso:
    n, ring = factor.n, factor.ring
    if n == 1:
        return identity_jordan(factor)

    def probe(block: np.ndarray) -> np.ndarray:
        return Jm(element_in_factor(factor, block)).block(0)

    def basis_block(entries: dict[tuple[int, int], float]) -> np.ndarray:
        m = np.zeros((n, n))
        for (r, c), v in entries.items():
            m[r, c] = v
        return _from_real(factor, m)

    c0 = _unit_from_rank_one(factor, probe(basis_block({(0, 0): 1.0})))
    cols = [c0]
    for j in range(1, n):
        half = basis_block({(0, 0): 0.5, (j, j): 0.5, (0, j): 0.5, (j, 0): 0.5})
        w = _unit_from_rank_one(factor, probe(half))
        # w = (c0 + c_j) a for a ring scalar a = c0* w; a^(-1) = a* / |a|^2
        a = _mm(factor, _adjoint_block(factor, c0), w)
        mag = _block_sup(factor, a)
        if mag < 0.1:
            raise RecoveryError("degenerate phase alignment probe")
        cols.append(_mm(factor, w, _adjoint_block(factor, a)) / mag**2 - c0)
    U = np.concatenate(cols, axis=1)
    gram = _mm(factor, _adjoint_block(factor, U), U) - _identity_block(factor)
    if _block_sup(factor, gram) > 1e-6:
        raise RecoveryError("extracted columns are not orthonormal")

    if ring is Ring.REAL:
        return FactorJordanIso(factor, u=U)

    if ring is Ring.COMPLEX:
        probe_im = np.zeros((n, n), dtype=complex)
        probe_im[0, 1], probe_im[1, 0] = 1j, -1j
        img = probe(probe_im)
        lin = U @ probe_im @ U.conj().T
        conj = U @ probe_im.conj() @ U.conj().T
        if np.abs(img - lin).max() <= tol * n:
            return FactorJordanIso(factor, u=U)
        if np.abs(img - conj).max() <= tol * n:
            return FactorJordanIso(factor, u=U, conjugate=True)
        raise RecoveryError("map is neither linear nor conjugate-linear")

    # quaternions: undo the residual inner twist psi(x) = U* Jm(x) U
    def twisted(axis: int) -> np.ndarray:
        b = np.zeros((n, n, 4))
        b[0, 1, axis] = 1.0
        b[1, 0, axis] = -1.0
        return _mm(factor, _mm(factor, _adjoint_block(factor, U), probe(b)), U)[0, 1]

    r_i, r_j = twisted(1), twisted(2)
    r_k = quat.qmul(r_i, r_j)
    R = np.column_stack([r_i[1:], r_j[1:], r_k[1:]])
    if np.abs(R.T @ R - np.eye(3)).max() > 1e-6:
        raise RecoveryError("inner twist is not a rotation")
    delta = quat.quaternion_from_rotation(R)
    u = quat.qmul(U, np.broadcast_to(delta, U.shape))
    return FactorJordanIso(factor, u=u)


def _extract_spin_jordan(
    Jm: Callable[[Element], Element], factor: SpinFactor, tol: float
) -> FactorJordanIso:
    d = factor.d
    cols = []
    for i in range(d):
        b = np.zeros(d + 1)
        b[1 + i] = 1.0
        img = Jm(element_in_factor(factor, b)).block(0)
        if abs(img[0]) > tol * 10:
            raise RecoveryError("spin probe image has a scalar part")
        cols.append(img[1:])
    O = np.column_stack(cols)
    if np.abs(O.T @ O - np.eye(d)).max() > 1e-6:
        raise RecoveryError("extracted spin action is not orthogonal")
    return FactorJordanIso(factor, rotation=O)


def recover_factor_iso(
    g: Callable[[Element], Element],
    source: AlgebraDescriptor,
    target: AlgebraDescriptor,
    seed: int = 0,
    check_tol: float = 1e-6,
) -> FactorOrderIso:
    """Recover closed-form parameters (t, z, J) from black-box evaluations
    of an order isomorphism g of the invertible parts (0, e].

    The induced cone map fhat(x) = g((x + e)^(-1))^(-1) - e must be
    linear of the form U_y J; it is probed on shifted arguments, y is
    read off as (fhat(e))^(1/2), and J = U_{y^(-1)} fhat is identified
    factor-by-factor from its action on rank-one projections.  Raises
    :class:`RecoveryError` when any linearity, orthonormality, or
    agreement check fails.
    """
    if len(source.factors) != 1 or len(target.factors) != 1:
        raise DomainError("recovery operates on single factors")
    if source.factors[0] != target.factors[0]:
        raise DomainError("source and target factors must be of the same kind")
    e_s, e_t = unit(source), unit(target)

    def fhat(x: Element) -> Element:
        img = g(invert_element(x + e_s, "strict"))
        if min_eigenvalue(img) <= 0.0:
            raise RecoveryError("image of an invertible effect is not invertible")
        return invert_element(img, "strict") - e_t

    def L(x: Element) -> Element:
        c = max(0.0, -min_eigenvalue(x)) + 1.0
        return fhat(x + c * e_s) - fhat(c * e_s)

    rng = np.random.default_rng(seed)
    for _ in range(3):
        a = random_gaussian(source, rng)
        b = random_gaussian(source, rng)
        la, lb = L(a), L(b)
        scale = 1.0 + sup_norm(la) + sup_norm(lb)
        if sup_norm(L(a + b) - (la + lb)) > check_tol * scale:
            raise RecoveryError("probed cone map is not additive")
        if sup_norm(L(1.75 * a) - 1.75 * la) > check_tol * scale:
            raise RecoveryError("probed cone map is not homogeneous")

    ye2 = L(e_s)
    if min_eigenvalue(ye2) <= 0.0:
        raise RecoveryError("probed image of the unit is not interior")
    y = sqrt_element(ye2)
    y_inv = invert_element(y, "strict")

    def Jm(x: Element) -> Element:
        return quad_rep(y_inv, L(x))

    factor = source.factors[0]
    if isinstance(factor, SpinFactor):
        jord = _extract_spin_jordan(Jm, factor, check_tol)
    else:
        jord = _extract_hermitian_jordan(Jm, factor, check_tol)

    for _ in range(3):
        a = random_gaussian(source, rng)
        ja = Jm(a)
        if sup_norm(ja - jord.apply(a)) > check_tol * (1.0 + sup_norm(ja)):
            raise RecoveryError("recovered Jordan isomorphism disagrees with the probes")

    return params_from_cone_map(y, jord, 1.0 + max_eigenvalue(ye2))
