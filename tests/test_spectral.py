import math
import warnings

import numpy as np
import pytest

from effectorder import (
    AlgebraDescriptor,
    DomainError,
    Element,
    HermFactor,
    Ring,
    SingularElementError,
    SpinFactor,
    apply_function,
    dump_document,
    element_from_blocks,
    element_in_factor,
    in_cone,
    in_effect_interval,
    invert_element,
    jordan_product,
    leq,
    load_document,
    max_eigenvalue,
    min_eigenvalue,
    positive_min_eigenvalue,
    pseudo_inv_sqrt,
    quad_rep,
    random_composite_iso,
    random_jordan_iso,
    range_approximants,
    range_projection,
    sample_element,
    single_factor,
    spectral_decompose,
    sqrt_element,
    sup_norm,
    unit,
    zero,
)
from effectorder import quaternion as quat
from effectorder.algebra import _adjoint
from effectorder.spectral import (
    block_eigenvalues,
    extreme_eigenvalues,
    spectrum_within,
)

from conftest import FACTOR_KINDS, MIXED, assert_embedding_form
import qhelpers as qh


def herm(rows, ring=Ring.REAL):
    rows = np.array(rows, dtype=complex if ring is Ring.COMPLEX else float)
    return element_in_factor(HermFactor(rows.shape[0], ring), rows)


def spin(alpha, v):
    return element_in_factor(SpinFactor(len(v)), np.array([alpha, *v], dtype=float))


class TestDecomposition:
    def test_diagonal_with_multiplicity(self):
        x = herm(np.diag([2.0, 2.0, 5.0]))
        dec = spectral_decompose(x)
        assert dec.eigenvalues == (2.0, 5.0)
        np.testing.assert_allclose(dec.projections[0].block(0), np.diag([1.0, 1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(dec.projections[1].block(0), np.diag([0.0, 0.0, 1.0]), atol=1e-12)

    def test_spin_closed_form(self):
        dec = spectral_decompose(spin(0.0, [1.0, 0.0]))
        assert dec.eigenvalues == (-1.0, 1.0)
        np.testing.assert_allclose(dec.projections[0].block(0), [0.5, -0.5, 0.0])
        np.testing.assert_allclose(dec.projections[1].block(0), [0.5, 0.5, 0.0])

    def test_spin_closed_form_at_a_huge_radius(self):
        # |v| = 1e200 squares past the float range; every spin site takes it by hypot
        x = spin(0.0, [1e200, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert block_eigenvalues(SpinFactor(2), x.block(0)).tolist() == [-1e200, 1e200]
            assert spectral_decompose(x).eigenvalues == (-1e200, 1e200)
            assert spectrum_within(x, -2e200, 2e200) and not spectrum_within(x, -1e200, 2e200)

    def test_scalar_multiple_of_unit(self):
        x = 3.0 * unit(MIXED)
        dec = spectral_decompose(x)
        assert dec.eigenvalues == (3.0,)
        assert sup_norm(dec.projections[0] - unit(MIXED)) <= 1e-12

    @pytest.mark.parametrize("x", [herm(np.diag([0.0, 0.5, 1.0])), herm(np.eye(3))], ids=["diag", "unit"])
    @pytest.mark.parametrize("tol", [math.nan, -1.0, -1e-300])
    def test_a_nan_or_negative_cluster_tol_is_refused(self, x, tol):
        # NaN merged diag(0, 0.5, 1) into one cluster of rank 3, and -1 split e into
        # the eigenvalues (1, 1, 1), which are not strictly increasing
        with pytest.raises(ValueError, match="cluster_tol"):
            spectral_decompose(x, tol)

    def test_an_infinite_cluster_tol_gives_one_cluster(self):
        dec = spectral_decompose(herm(np.diag([0.0, 0.5, 1.0])), math.inf)
        assert dec.eigenvalues == (0.5,) and dec._ranks == (3,)
        assert spectral_decompose(herm(np.diag([0.0, 0.5, 1.0])), 0.0).eigenvalues == (0.0, 0.5, 1.0)

    @pytest.mark.parametrize("factor", FACTOR_KINDS, ids=str)
    def test_invariants_on_random_input(self, factor, rng):
        alg = single_factor(factor)
        for _ in range(25):
            x = sample_element(alg, rng, "general")
            dec = spectral_decompose(x)
            assert all(a < b for a, b in zip(dec.eigenvalues, dec.eigenvalues[1:]))
            # reconstruction
            assert sup_norm(dec.reconstruct() - x) <= 1e-9 * (1 + sup_norm(x))
            # idempotent, mutually orthogonal, summing to e
            total = dec.projections[0]
            for p in dec.projections[1:]:
                total = total + p
            assert sup_norm(total - unit(alg)) <= 1e-9
            for i, p in enumerate(dec.projections):
                assert sup_norm(jordan_product(p, p) - p) <= 1e-9
                for q in dec.projections[i + 1 :]:
                    assert sup_norm(jordan_product(p, q)) <= 1e-9

    def test_cluster_shared_across_blocks(self):
        # herm(2,H) with spectrum {0.3, 0.7} beside a spin block whose
        # eigenvalues sit 1e-12 below and above them
        alg = AlgebraDescriptor((HermFactor(2, Ring.QUATERNION), SpinFactor(3)))
        u = quat.qgram_schmidt(np.random.default_rng(5).standard_normal((2, 2, 4)))
        d = np.zeros((2, 2, 4))
        d[0, 0, 0], d[1, 1, 0] = 0.3, 0.7
        hb = qh.qmatmul(qh.qmatmul(u, d), qh.qadjoint(u))
        x = element_from_blocks(alg, [hb, np.array([0.5, 0.2 + 1e-12, 0.0, 0.0])])
        dec = spectral_decompose(x)
        k = len(dec.eigenvalues)
        assert k == 2
        np.testing.assert_allclose(dec.eigenvalues, [0.3, 0.7], atol=1e-11)
        for idx in dec.clusters:
            assert set(idx.ravel().tolist()) == {0, 1}

        calls = []
        dec.apply(lambda t: calls.append(t) or t)
        assert len(calls) == k

        # a jump between the two blocks' copies of 0.3 still sees one value
        jump = dec.apply(lambda t: 1.0 if t > 0.3 - 0.5e-12 else 0.0)
        np.testing.assert_allclose(
            block_eigenvalues(alg.factors[0], jump._block(0)),
            block_eigenvalues(alg.factors[1], jump._block(1)),
            atol=1e-12,
        )

        for i in range(k):
            assert sup_norm(dec.combine(np.eye(k)[i]) - dec.projections[i]) <= 1e-15

    def test_mixed_algebra_global_projections(self, rng):
        x = sample_element(MIXED, rng, "general")
        dec = spectral_decompose(x)
        assert sup_norm(dec.reconstruct() - x) <= 1e-9 * (1 + sup_norm(x))


class TestApplyFunction:
    def test_identity_and_constant(self, rng):
        x = sample_element(MIXED, rng, "general")
        assert sup_norm(apply_function(x, lambda t: t) - x) <= 1e-9
        assert sup_norm(apply_function(x, lambda t: 1.0) - unit(MIXED)) <= 1e-9

    def test_floor_function_by_hand(self):
        x = herm(np.diag([0.5, 0.0]))
        out = apply_function(x, lambda t: max(t, 0.25))
        np.testing.assert_allclose(out.block(0), np.diag([0.5, 0.25]), atol=1e-12)

    @pytest.mark.parametrize("factor", FACTOR_KINDS, ids=str)
    def test_multiplicative_on_polynomials(self, factor, rng):
        alg = single_factor(factor)
        for _ in range(15):
            x = sample_element(alg, rng, "general")
            cf = rng.uniform(-1, 1, size=5)
            cg = rng.uniform(-1, 1, size=5)
            f = lambda t: float(np.polyval(cf, t))  # noqa: E731
            g = lambda t: float(np.polyval(cg, t))  # noqa: E731
            lhs = apply_function(x, lambda t: f(t) * g(t))
            rhs = jordan_product(apply_function(x, f), apply_function(x, g))
            assert sup_norm(lhs - rhs) <= 1e-8 * (1 + sup_norm(rhs))

    def test_rejects_non_finite_values(self):
        x = herm(np.diag([1.0, 0.0]))
        with pytest.raises(DomainError):
            apply_function(x, lambda t: 1.0 / t)

    @pytest.mark.parametrize(
        "f", [np.emath.sqrt, lambda t: t ** 0.5, lambda t: None], ids=["emath_sqrt", "power", "none"]
    )
    def test_rejects_values_that_are_not_real_numbers(self, f):
        # a complex value is not truncated to its real part, and no TypeError escapes
        x = herm(np.diag([-1.0, 0.25]))
        message = r"^function undefined at eigenvalue -1\.0: .* is not a real number$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                apply_function(x, f)

    def test_type_error_inside_the_function_is_not_relabelled(self):
        def f(t):
            raise TypeError("inside f")

        with pytest.raises(TypeError, match="^inside f$"):
            apply_function(herm(np.diag([-1.0, 0.25])), f)


class TestRangeProjection:
    def test_diagonal(self):
        np.testing.assert_allclose(
            range_projection(herm(np.diag([3.0, 0.0]))).block(0), np.diag([1.0, 0.0]), atol=1e-12
        )

    def test_unit(self):
        assert sup_norm(range_projection(unit(MIXED)) - unit(MIXED)) <= 1e-12

    def test_spin_case(self):
        # (1,(1,0)) has eigenvalues 0 and 2; the range is the idempotent at 2
        r = range_projection(spin(1.0, [1.0, 0.0]))
        np.testing.assert_allclose(r.block(0), [0.5, 0.5, 0.0], atol=1e-12)

    def test_fixes_its_element(self, rng):
        for _ in range(10):
            x = sample_element(MIXED, rng, "cone")
            r = range_projection(x)
            assert sup_norm(quad_rep(r, x) - x) <= 1e-8 * (1 + sup_norm(x))
            assert sup_norm(jordan_product(r, r) - r) <= 1e-9

    def test_smallest_such_projection(self, rng):
        # removing any spectral piece from r(x) no longer fixes x
        x = sample_element(MIXED, rng, "cone")
        dec = spectral_decompose(x)
        r = range_projection(x)
        for lam, p in zip(dec.eigenvalues, dec.projections):
            if lam > dec.zero_tol:
                smaller = r - p
                assert sup_norm(quad_rep(smaller, x) - x) > 1e-6

    def test_rejects_non_cone(self):
        with pytest.raises(DomainError):
            range_projection(herm(np.diag([1.0, -1.0])))


class TestInversion:
    def test_strict_diagonal(self):
        out = invert_element(herm(np.diag([2.0, 4.0])), "strict")
        np.testing.assert_allclose(out.block(0), np.diag([0.5, 0.25]), atol=1e-14)

    def test_pseudo_diagonal(self):
        out = invert_element(herm(np.diag([2.0, 0.0])), "pseudo")
        np.testing.assert_allclose(out.block(0), np.diag([0.5, 0.0]), atol=1e-14)

    def test_spin_strict(self):
        # (2,(1,0)) has eigenvalues 1 and 3; inverse is (2,(-1,0))/3
        out = invert_element(spin(2.0, [1.0, 0.0]), "strict")
        np.testing.assert_allclose(out.block(0), np.array([2.0, -1.0, 0.0]) / 3.0, atol=1e-14)

    def test_strict_product_is_unit(self, rng):
        x = sample_element(MIXED, rng, "interior")
        xi = invert_element(x, "strict")
        assert sup_norm(jordan_product(x, xi) - unit(MIXED)) <= 1e-9

    def test_singular_rejected(self):
        with pytest.raises(SingularElementError):
            invert_element(herm(np.diag([1.0, 0.0])), "strict")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            invert_element(unit(MIXED), "fast")


class TestEigenvalueQueries:
    def test_diagonal_min(self):
        assert min_eigenvalue(herm(np.diag([1.0, 3.0]))) == 1.0

    def test_spin_formula(self, rng):
        for _ in range(10):
            b = rng.standard_normal(4)
            x = spin(b[0], b[1:])
            expect = b[0] - np.linalg.norm(b[1:])
            assert abs(min_eigenvalue(x) - expect) <= 1e-12
            assert abs(max_eigenvalue(x) - (b[0] + np.linalg.norm(b[1:]))) <= 1e-12

    def test_unit(self):
        assert min_eigenvalue(unit(MIXED)) == 1.0


def scalar_truncated_family(t, n):
    """Independent scalar oracle for the truncated inverse-sqrt family."""
    f = t ** -0.5 if t >= 1.0 / n else n ** 1.5 * t
    return f, t * f * f, np.sqrt(t) * f


class TestRangeApproximants:
    def test_unit_fixed_point(self):
        e = unit(MIXED)
        for n in (1, 2, 7):
            for out in range_approximants(e, n):
                assert sup_norm(out - e) <= 1e-12

    def test_piecewise_values_level_one(self):
        x = herm(np.diag([4.0, 0.0]))
        fs = [np.diag([scalar_truncated_family(t, 1)[k] for t in (4.0, 0.0)]) for k in range(3)]
        out = range_approximants(x, 1)
        for got, expect in zip(out, fs):
            np.testing.assert_allclose(got.block(0), expect, atol=1e-13)

    def test_piecewise_values_below_cut(self):
        x = herm(np.diag([0.25, 0.0]))
        out = range_approximants(x, 2)
        expect = [np.diag([scalar_truncated_family(t, 2)[k] for t in (0.25, 0.0)]) for k in range(3)]
        for got, exp in zip(out, expect):
            np.testing.assert_allclose(got.block(0), exp, atol=1e-13)
        # spot value: f_2(1/4) = 2^(3/2)/4 = 2^(-1/2)
        assert abs(out[0].block(0)[0, 0] - 2.0 ** -0.5) <= 1e-14

    @pytest.mark.parametrize("factor", FACTOR_KINDS, ids=str)
    def test_exact_stabilization(self, factor, rng):
        alg = single_factor(factor)
        for _ in range(10):
            c = sample_element(alg, rng, "cone")
            eigs = spectral_decompose(c).eigenvalues
            x = apply_function(c, lambda v: v if v > eigs[len(eigs) // 2] else 0.0)
            if sup_norm(x) < 1e-9:
                x = c
            lam = positive_min_eigenvalue(x)
            n = int(1.0 / lam) + 2
            _, g, h = range_approximants(x, n)
            r = range_projection(x)
            assert sup_norm(g - r) <= 1e-12
            assert sup_norm(h - r) <= 1e-12

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError):
            range_approximants(unit(MIXED), 0)


class TestPseudoInverseRealizesBackwardMap:
    @pytest.mark.parametrize("factor", FACTOR_KINDS, ids=str)
    def test_roundtrip_through_interval(self, factor, rng):
        alg = single_factor(factor)
        for _ in range(10):
            c = sample_element(alg, rng, "cone")
            eigs = spectral_decompose(c).eigenvalues
            x = apply_function(c, lambda v: v if v > eigs[len(eigs) // 2] else 0.0)
            if sup_norm(x) < 1e-9:
                x = c
            w = quad_rep(range_projection(x), sample_element(alg, rng, "effect"))
            y = quad_rep(sqrt_element(x), w)  # y in [0, x]
            back = quad_rep(pseudo_inv_sqrt(x), y)
            assert leq(0.0 * x, y) and leq(y, x)
            assert sup_norm(quad_rep(sqrt_element(x), back) - y) <= 1e-8 * (1 + sup_norm(y))
            assert sup_norm(back - w) <= 1e-8 * (1 + sup_norm(w))


SPECTRAL_CALLS = {
    "sqrt_element": sqrt_element,
    "pseudo_inv_sqrt": pseudo_inv_sqrt,
    "range_projection": range_projection,
    "invert_element": invert_element,
    "apply_function": lambda x: apply_function(x, lambda v: v),
}


def half_unit_with(alg, k, value):
    """e/2 with the first real entry of block k (a spin block's scalar part)
    replaced by ``value``."""
    blocks = [np.array(b) for b in (0.5 * unit(alg)).blocks]
    blocks[k][(0,) * blocks[k].ndim] = value
    return Element(alg, tuple(blocks))


class TestNonFiniteElements:
    """LAPACK's eigenpairs of a non-finite matrix are arbitrary, so every
    decomposition refuses it instead of computing on them."""

    @pytest.mark.parametrize("name", SPECTRAL_CALLS)
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("factor", FACTOR_KINDS, ids=str)
    def test_raises_domain_error(self, factor, value, name):
        x = half_unit_with(single_factor(factor), 0, value)
        with pytest.raises(DomainError):
            SPECTRAL_CALLS[name](x)

    @pytest.mark.parametrize("name", SPECTRAL_CALLS)
    def test_nan_after_a_finite_block(self, name):
        x = half_unit_with(MIXED, len(MIXED.factors) - 1, np.nan)
        assert np.isnan(sup_norm(x))
        with pytest.raises(DomainError):
            SPECTRAL_CALLS[name](x)


def eigenvalues_within(x, lo, hi):
    """The predicate spectrum_within decides, computed from the eigenvalues."""
    return all(
        lo < v < hi for i, f in enumerate(x.algebra.factors) for v in block_eigenvalues(f, x._block(i))
    )


def diagonal_projection(factor):
    """A projection with eigenvalues exactly 0 and 1 (the unit on a line)."""
    if isinstance(factor, SpinFactor):
        return element_in_factor(factor, np.r_[0.5, 0.5, np.zeros(factor.d - 1)])
    d = np.diag([1.0] + [0.0] * (factor.n - 1))
    if factor.ring is Ring.QUATERNION:
        d = np.stack([d] + [np.zeros_like(d)] * 3, axis=-1)
    return element_in_factor(factor, d)


class TestSpectrumWithin:
    TOL = 1e-8

    @pytest.mark.parametrize("hi", [1.0 + TOL, math.inf], ids=["effect", "cone"])
    @pytest.mark.parametrize("factor", FACTOR_KINDS, ids=str)
    def test_agrees_with_eigenvalues_near_the_ends(self, factor, hi, rng):
        lo = -self.TOL
        dec = spectral_decompose(sample_element(single_factor(factor), rng, "general"))
        k = len(dec.eigenvalues)
        ends = [(lo, 0)] + ([(hi, k - 1)] if hi < math.inf else [])
        for end, slot in ends:
            for off in (-2.0, -0.5, 0.5, 2.0):
                vals = [0.5] * k
                vals[slot] = end + off * self.TOL
                x = dec.combine(vals)
                expect = lo < vals[slot] < hi
                assert eigenvalues_within(x, lo, hi) == expect
                assert spectrum_within(x, lo, hi) == expect

    @pytest.mark.parametrize("factor", FACTOR_KINDS, ids=str)
    def test_projections_with_exact_eigenvalues(self, factor):
        # the interval is open: an eigenvalue exactly at an end is outside
        alg = single_factor(factor)
        p, tol = diagonal_projection(factor), self.TOL
        bounds = [(0.0, 1.0), (-tol, 1.0 + tol), (0.0, 1.0 + tol), (-tol, 1.0), (0.0, math.inf), (-tol, math.inf)]
        for x in (p, unit(alg), 0.0 * unit(alg)):
            for lo, hi in bounds:
                assert spectrum_within(x, lo, hi) == eigenvalues_within(x, lo, hi)
        assert spectrum_within(p, -tol, 1.0 + tol)
        assert not spectrum_within(p, 0.0, 1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("factor", FACTOR_KINDS + [MIXED], ids=str)
    def test_non_finite_is_outside(self, factor, value):
        alg = factor if isinstance(factor, AlgebraDescriptor) else single_factor(factor)
        x = half_unit_with(alg, len(alg.factors) - 1, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lo, hi in [(-self.TOL, 1.0 + self.TOL), (0.0, math.inf), (-math.inf, 1.0), (-math.inf, math.inf)]:
                assert not spectrum_within(x, lo, hi)

    def test_empty_or_nan_interval(self):
        e = unit(MIXED)
        assert not spectrum_within(e, 1.0, 1.0)
        assert not spectrum_within(e, math.nan, 2.0)
        assert not spectrum_within(e, 0.0, math.nan)
        assert spectrum_within(e, -math.inf, math.inf)
        assert spectrum_within(e, -math.inf, 1.5) and not spectrum_within(e, -math.inf, 1.0)

    @pytest.mark.parametrize(
        "factor", [HermFactor(2), HermFactor(3, Ring.COMPLEX), HermFactor(2, Ring.QUATERNION)], ids=str
    )
    def test_huge_bounds_on_matrix_blocks(self, factor, rng):
        # eigenvalues from 1e155 to 2e155, whose product (x - lo e)(hi e - x) is past
        # the float range: the kind scales it by a power of two first
        dec = spectral_decompose(sample_element(single_factor(factor), rng, "general"))
        k = len(dec.eigenvalues)
        x = dec.combine(np.linspace(1e155, 2e155, k))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lo, hi in [(0.0, 4e155), (5e154, 3e155), (-1e300, 1e300), (0.0, 1.9e155), (1.5e155, 3e155)]:
                assert spectrum_within(x, lo, hi) == eigenvalues_within(x, lo, hi) == (lo < 1e155 and 2e155 < hi)

    @pytest.mark.parametrize("scale", [1e155, 1e200, 1e250, 1e308])
    @pytest.mark.parametrize("factor", FACTOR_KINDS, ids=str)
    def test_huge_entries(self, factor, scale, rng):
        dec = spectral_decompose(sample_element(single_factor(factor), rng, "general"))
        k = len(dec.eigenvalues)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for low in (0.25, -0.5):
                x = scale * dec.combine(np.linspace(low, 1.5, k) if k > 1 else [low])
                cone_tol = 1e-9 * (1.0 + sup_norm(x))
                assert spectrum_within(x, -cone_tol) == (low > 0) == in_cone(x)
                effect_tol = 1e-8 * (1.0 + sup_norm(x))
                assert not spectrum_within(x, -effect_tol, 1.0 + effect_tol)
                assert not in_effect_interval(x)


class TestStackedKernels:
    # recovery runs the matrix kernels once on a (k, ...) stack of blocks, and every
    # kernel runs once per group: each block of the result is the kernel's result on
    # that block, bit for bit
    MATRIX_KINDS = [f for f in FACTOR_KINDS if isinstance(f, HermFactor)]

    @pytest.mark.parametrize("factor", MATRIX_KINDS + [SpinFactor(3), SpinFactor(6)], ids=str)
    def test_stack_agrees_with_each_block(self, factor, rng):
        alg, kind = single_factor(factor), factor._kind
        xs = [sample_element(alg, rng, "invertible_effect")._block(0) for _ in range(3)]
        wide = []  # members for the kernels that take |v| by hypot
        if isinstance(factor, SpinFactor):
            xs.append(0.5 * kind.identity())  # v = 0
            wide.append(np.r_[1.0, 1e200, np.zeros(factor.d - 1)])  # |v|^2 overflows
        jord = random_jordan_iso(factor, rng)
        kernels = [
            kind.inverse, kind.hermitize, kind.ring_array, lambda b: kind.stored(kind.ring_array(b)),
            lambda b: kind.quad(np.broadcast_to(xs[0], b.shape), b),
            lambda b: kind.jordan(np.broadcast_to(xs[0], b.shape), b),
            lambda b: kind.act(jord._u, b, jord.conjugate),
        ]
        if isinstance(factor, HermFactor):
            kernels.append(_adjoint)
        wide_kernels = [kind.eigenvalues, lambda b: kind.eigh(b)[0], lambda b: kind.eigh(b)[1]]
        for kernel, members in [(k, xs) for k in kernels] + [(k, xs + wide) for k in wide_kernels]:
            got = kernel(np.stack(members))
            assert len(got) == len(members)
            for x, g in zip(members, got):
                assert np.array_equal(g, kernel(x))
        # combine runs on a group's eigenbases alone: the stack's against 1-stacks
        vals, basis = kind.eigh(np.stack(xs))
        idx = np.broadcast_to(np.arange(vals.shape[-1]), vals.shape)  # one cluster per eigenpair
        values = np.linspace(-1.0, 2.0, vals.shape[-1])
        got = kind.combine(basis, idx, values)
        for k, g in enumerate(got):
            assert np.array_equal(g, kind.combine(basis[k : k + 1], idx[k : k + 1], values)[0])
        # sup and within reduce over the stack
        assert kind.sup(np.stack(xs)) == max(kind.sup(x) for x in xs)
        if isinstance(factor, SpinFactor):  # the matrix kinds' within: test_one_factorization_decides_every_block
            for members in (xs, xs + wide):
                for lo, hi in ((0.0, 1.0), (0.4, 0.6), (-1.0, math.inf)):
                    want = all(kind.within(x, lo, hi) for x in members)
                    assert kind.within(np.stack(members), lo, hi) is want

    @pytest.mark.parametrize("factor", MATRIX_KINDS + [SpinFactor(3), SpinFactor(6)], ids=str)
    def test_one_block_broadcasts_over_a_stack(self, factor, rng):
        # quad and jordan of one block against a stack, either way round, equal the
        # member-by-member result bit for bit, as the matrix kinds' products broadcast
        alg, kind = single_factor(factor), factor._kind
        a, *xs = [sample_element(alg, rng, "invertible_effect")._block(0) for _ in range(4)]
        if isinstance(factor, SpinFactor):
            xs.append(0.5 * kind.identity())  # v = 0
        for op in (kind.quad, kind.jordan):
            for got, want in [(op(a, np.stack(xs)), [op(a, x) for x in xs]),
                              (op(np.stack(xs), a), [op(x, a) for x in xs])]:
                assert got.shape == (len(xs),) + a.shape
                assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("factor", [f for f in MATRIX_KINDS if f.ring is Ring.QUATERNION], ids=str)
    def test_quaternion_stacks_keep_the_embedding_form(self, factor, rng):
        alg = single_factor(factor)
        xs = np.stack([sample_element(alg, rng, "invertible_effect")._block(0) for _ in range(3)])
        kind = factor._kind
        for out in (kind.inverse(xs), kind.hermitize(xs @ xs), kind.quad(xs[0], xs)):
            assert_embedding_form(factor, out)

    @pytest.mark.parametrize("factor", MATRIX_KINDS, ids=str)
    def test_one_factorization_decides_every_block(self, factor, rng, eigensolve_counter):
        # a stack passes iff each of its blocks does, in one Cholesky call (none on lines)
        xs = [sample_element(single_factor(factor), rng, "invertible_effect") for _ in range(3)]
        m = np.stack([x._block(0) for x in xs])
        ends = np.array([extreme_eigenvalues(x) for x in xs])
        lo, hi = ends.min() - 1e-6, ends.max() + 1e-6
        within, eye = factor._kind.within, factor._kind.identity()
        eigensolve_counter.clear()
        assert within(m, lo, hi)
        assert eigensolve_counter["cholesky"] == (factor.n > 1)
        for k in range(len(xs)):
            # block k alone pushed past either bound by 1e-6
            for shift in (lo - 1e-6 - ends[k, 0], hi + 1e-6 - ends[k, 1]):
                pushed = m.copy()
                pushed[k] = m[k] + shift * eye
                assert not within(pushed, lo, hi)
                assert [within(b, lo, hi) for b in pushed] == [j != k for j in range(len(xs))]


# three matrix blocks with n >= 2, each one eigh; the line and the spin
# block are decomposed in closed form
STORE_ALG = AlgebraDescriptor(
    (
        HermFactor(1),
        HermFactor(3),
        HermFactor(2, Ring.COMPLEX),
        HermFactor(2, Ring.QUATERNION),
        SpinFactor(3),
    )
)
STORE_EIGHS = 3


LIBRARY_BUILDERS = {
    "element_from_blocks": lambda rng: element_from_blocks(
        MIXED, [np.array([[0.5]]), 0.3 * np.eye(2), np.array([1.0, 0.2, 0.0, 0.1])]
    ),
    "unit": lambda rng: unit(MIXED),
    "zero": lambda rng: zero(MIXED),
    "load_document": lambda rng: load_document(
        dump_document(sample_element(MIXED, rng, "effect"))
    ),
    "CompositeOrderIso.apply": lambda rng: random_composite_iso(MIXED, MIXED, rng).apply(
        sample_element(MIXED, rng, "effect")
    ),
}


class TestStoredDecomposition:
    """spectral_decompose stores its default-tolerance result on the element."""

    def test_helpers_share_one_eigensolve_per_block(self, rng, eigensolve_counter):
        x = sample_element(STORE_ALG, rng, "effect")
        eigensolve_counter.clear()
        range_projection(x)
        sqrt_element(x)
        pseudo_inv_sqrt(x)
        apply_function(x, lambda t: t * t)
        range_approximants(x, 3)
        positive_min_eigenvalue(x)
        assert eigensolve_counter["eigh"] == STORE_EIGHS
        assert eigensolve_counter.eigensolves == STORE_EIGHS

    def test_explicit_cluster_tol_neither_reads_nor_writes(self, rng, eigensolve_counter):
        x = sample_element(STORE_ALG, rng, "effect")
        eigensolve_counter.clear()
        fine = spectral_decompose(x, cluster_tol=1e-13)
        assert fine.zero_tol == 1e-13
        dec = spectral_decompose(x)
        assert dec is not fine and dec.zero_tol == 1e-8 * (1.0 + sup_norm(x))
        assert spectral_decompose(x, cluster_tol=1e-13) is not dec
        assert spectral_decompose(x) is dec
        assert eigensolve_counter["eigh"] == 3 * STORE_EIGHS

    def test_writable_element_is_decomposed_afresh(self):
        # Element(...) freezes the stacks it makes; stored ones are taken as given
        stack = np.diag([1.0, 2.0, 3.0])[None]
        x = Element(single_factor(HermFactor(3)), (stack,), _stored=True)
        assert spectral_decompose(x).eigenvalues == pytest.approx((1.0, 2.0, 3.0))
        stack[0, 0, 0] = 5.0
        assert spectral_decompose(x).eigenvalues == pytest.approx((2.0, 3.0, 5.0))

    @pytest.mark.parametrize("build", LIBRARY_BUILDERS.values(), ids=LIBRARY_BUILDERS)
    def test_library_elements_are_read_only_and_stored(self, build, rng):
        x = build(rng)
        assert not any(b.flags.writeable for b in x.blocks)
        dec = spectral_decompose(x)
        assert spectral_decompose(x) is dec
        # callers share the stored decomposition, so its arrays are frozen too
        assert not any(a.flags.writeable for a in dec.bases + dec.clusters)
