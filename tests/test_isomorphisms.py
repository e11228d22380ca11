import numpy as np
import pytest

from effectorder import (
    CompositeOrderIso,
    DomainError,
    FactorJordanIso,
    FactorOrderIso,
    HermFactor,
    PhiScalarIso,
    PwlScalarIso,
    Ring,
    SpinFactor,
    algebra,
    apply_function,
    compose_factor_isos,
    cone_interval_map,
    coordinate_squeeze_iso,
    element_in_factor,
    identity_jordan,
    interior_iso_apply,
    interval_top_map,
    jordan_product,
    leq,
    max_eigenvalue,
    min_eigenvalue,
    mobius_apply,
    mobius_compose,
    mobius_invert_param,
    mobius_scalar,
    params_from_cone_map,
    quad_rep,
    random_composite_iso,
    random_factor_iso,
    random_jordan_iso,
    range_projection,
    sample_atom,
    sample_element,
    sample_ordered_pair,
    single_factor,
    sup_norm,
    transitivity_witness,
    unit,
    zero,
)

from conftest import FACTOR_KINDS, MIXED

H1 = single_factor(HermFactor(1))
H2 = single_factor(HermFactor(2))


def herm(rows, ring=Ring.REAL):
    rows = np.array(rows, dtype=complex if ring is Ring.COMPLEX else float)
    return element_in_factor(HermFactor(rows.shape[0], ring), rows)


class TestMobiusFamily:
    def test_zero_parameter_is_identity(self, rng):
        x = sample_element(MIXED, rng, "effect")
        assert sup_norm(mobius_apply(0.0, x) - x) <= 1e-12

    def test_half_on_half_unit(self):
        out = mobius_apply(0.5, 0.5 * unit(MIXED))
        assert sup_norm(out - (2.0 / 3.0) * unit(MIXED)) <= 1e-14

    def test_endpoints_fixed(self, rng):
        e = unit(MIXED)
        for t in (-3.0, 0.0, 0.9):
            assert sup_norm(mobius_apply(t, e) - e) <= 1e-14
            assert sup_norm(mobius_apply(t, zero(MIXED))) <= 1e-14

    def test_composition_parameter(self):
        assert mobius_compose(0.5, 0.5) == 0.75
        assert mobius_invert_param(0.0) == 0.0
        assert mobius_invert_param(0.5) == -1.0
        assert mobius_compose(0.5, -1.0) == 0.0

    def test_group_law_on_elements(self, rng):
        for _ in range(30):
            t = float(rng.uniform(-3, 0.95))
            s = float(rng.uniform(-3, 0.95))
            x = sample_element(MIXED, rng, "effect")
            lhs = mobius_apply(t, mobius_apply(s, x))
            rhs = mobius_apply(mobius_compose(t, s), x)
            assert sup_norm(lhs - rhs) <= 1e-9

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            mobius_apply(1.0, unit(MIXED))
        with pytest.raises(DomainError):
            mobius_compose(1.5, 0.0)
        with pytest.raises(DomainError):
            PhiScalarIso(-np.inf)

    def test_rejects_outside_effect_interval(self):
        with pytest.raises(DomainError):
            mobius_apply(0.5, 2.0 * unit(MIXED))


class TestIntervalTopMap:
    def test_diagonal_forward(self):
        x = herm(np.diag([4.0, 0.0]))
        y = herm(np.diag([1.0, 0.0]))
        out = interval_top_map(x, y, "forward")
        np.testing.assert_allclose(out.block(0), np.diag([4.0, 0.0]), atol=1e-12)

    def test_zero_maps_to_zero(self, rng):
        x = sample_element(MIXED, rng, "cone")
        for direction in ("forward", "backward"):
            assert sup_norm(interval_top_map(x, zero(MIXED), direction)) <= 1e-12

    @pytest.mark.parametrize("factor", FACTOR_KINDS, ids=str)
    def test_roundtrip_and_order(self, factor, rng):
        from effectorder import spectral_decompose

        alg = single_factor(factor)
        for _ in range(10):
            c = sample_element(alg, rng, "cone")
            eigs = spectral_decompose(c).eigenvalues
            x = apply_function(c, lambda v: v if v > eigs[len(eigs) // 2] else 0.0)
            if sup_norm(x) < 1e-9:
                x = c
            y = quad_rep(range_projection(x), sample_element(alg, rng, "effect"))
            fwd = interval_top_map(x, y, "forward")
            assert leq(zero(alg), fwd) and leq(fwd, x)
            back = interval_top_map(x, fwd, "backward")
            assert sup_norm(back - y) <= 1e-8 * (1 + sup_norm(y))

    def test_rejects_out_of_interval(self):
        x = herm(np.diag([4.0, 0.0]))
        with pytest.raises(DomainError):
            interval_top_map(x, herm(np.diag([0.0, 1.0])), "forward")


class TestConeIntervalMap:
    def test_fixed_endpoints_swap(self):
        e = unit(MIXED)
        assert sup_norm(cone_interval_map(e, "interval_to_cone")) <= 1e-12
        assert sup_norm(cone_interval_map(zero(MIXED), "cone_to_interval") - e) <= 1e-12

    def test_half_unit(self):
        out = cone_interval_map(0.5 * unit(MIXED), "interval_to_cone")
        assert sup_norm(out - unit(MIXED)) <= 1e-12

    def test_mutually_inverse_and_order_reversing(self, rng):
        for _ in range(20):
            x = sample_element(MIXED, rng, "invertible_effect")
            c = cone_interval_map(x, "interval_to_cone")
            assert min_eigenvalue(c) >= -1e-10
            back = cone_interval_map(c, "cone_to_interval")
            assert sup_norm(back - x) <= 1e-8 * (1 + sup_norm(x))
            y = apply_function(x, lambda v: min(1.0, v + 0.05))  # x <= y in (0, e]
            assert leq(x, y)
            assert leq(
                cone_interval_map(y, "interval_to_cone"),
                cone_interval_map(x, "interval_to_cone"),
            )

    def test_rejects_singular(self):
        from effectorder import SingularElementError

        with pytest.raises((DomainError, SingularElementError)):
            cone_interval_map(herm(np.diag([1.0, 0.0])), "interval_to_cone")


def scalar_closed_form(t, z, s):
    """Scalar oracle for the closed-form factor map with J = id."""
    w = s / (z * z)
    w = 1.0 - 1.0 / (1.0 + w)
    w = (z * z + 1.0) * w
    return w / (t * w + (1.0 - t))


class TestFactorOrderIso:
    def test_scalar_example_two_thirds(self):
        f = HermFactor(1)
        iso = FactorOrderIso(0.0, unit(H1), identity_jordan(f))
        out = iso.apply(0.5 * unit(H1))
        assert abs(out.block(0)[0, 0] - 2.0 / 3.0) <= 1e-14

    def test_endpoints_fixed_for_any_parameters(self, rng):
        for factor in FACTOR_KINDS:
            alg = single_factor(factor)
            iso = random_factor_iso(factor, rng)
            assert sup_norm(iso.apply(zero(alg))) <= 1e-12
            assert sup_norm(iso.apply(unit(alg)) - unit(alg)) <= 1e-12

    def test_projection_fixed_in_simple_case(self):
        # t=0, z=e, J=id: f(x) = 2(e - (e+x)^(-1)); on diag(1,0): diag(1,0)
        f = HermFactor(2)
        iso = FactorOrderIso(0.0, unit(H2), identity_jordan(f))
        x = herm(np.diag([1.0, 0.0]))
        assert sup_norm(iso.apply(x) - x) <= 1e-14

    def test_matches_scalar_oracle(self, rng):
        f = HermFactor(1)
        for _ in range(20):
            t = float(rng.uniform(-3, 0.9))
            z0 = float(rng.uniform(0.3, 2.0))
            s = float(rng.uniform(0, 1))
            iso = FactorOrderIso(t, element_in_factor(f, [[z0]]), identity_jordan(f))
            got = iso.apply(element_in_factor(f, [[s]])).block(0)[0, 0]
            assert abs(got - scalar_closed_form(t, z0, s)) <= 1e-13

    @pytest.mark.parametrize("factor", FACTOR_KINDS, ids=str)
    def test_apply_inverse_roundtrip(self, factor, rng):
        alg = single_factor(factor)
        for _ in range(25):
            iso = random_factor_iso(factor, rng)
            x = sample_element(alg, rng, "effect")
            assert sup_norm(iso.inverse_apply(iso.apply(x)) - x) <= 1e-8

    @pytest.mark.parametrize("factor", FACTOR_KINDS, ids=str)
    def test_order_preserved_both_directions(self, factor, rng):
        alg = single_factor(factor)
        for _ in range(15):
            iso = random_factor_iso(factor, rng)
            x, y = sample_ordered_pair(alg, rng)
            assert min_eigenvalue(iso.apply(y) - iso.apply(x)) >= -1e-9
            u, v = sample_ordered_pair(alg, rng)
            assert min_eigenvalue(iso.inverse_apply(v) - iso.inverse_apply(u)) >= -1e-9

    def test_invertibility_preserved_exactly_both_ways(self, rng):
        factor = HermFactor(3)
        alg = single_factor(factor)
        for _ in range(10):
            iso = random_factor_iso(factor, rng)
            x = sample_element(alg, rng, "invertible_effect")
            assert min_eigenvalue(iso.apply(x)) > 0
            g = sample_element(alg, rng, "general")
            x_sing = apply_function(g, lambda v: min(max(v, 0.0), 1.0))
            if min_eigenvalue(x_sing) < 1e-12:
                assert min_eigenvalue(iso.apply(x_sing)) <= 1e-8

    def test_atom_intervals_preserved(self, rng):
        for factor in FACTOR_KINDS:
            if factor.rank < 2:
                continue
            iso = random_factor_iso(factor, rng)
            p = sample_atom(factor, rng)
            for lam in (0.05, 0.5, 1.0):
                from effectorder import spectral_decompose

                img = iso.apply(lam * p)
                pos = [v for v in spectral_decompose(img).eigenvalues if v > 1e-8]
                assert len(pos) == 1

    def test_parameter_validation(self):
        f = HermFactor(1)
        with pytest.raises(DomainError):
            FactorOrderIso(1.0, unit(H1), identity_jordan(f))
        with pytest.raises(DomainError):
            FactorOrderIso(0.0, zero(H1), identity_jordan(f))

    def test_composition_is_function_composition(self, rng):
        factor = HermFactor(2)
        alg = single_factor(factor)
        f = random_factor_iso(factor, rng)
        g = random_factor_iso(factor, rng)
        fwd, inv = compose_factor_isos(f, g)
        x = sample_element(alg, rng, "effect")
        assert sup_norm(fwd(x) - f.apply(g.apply(x))) == 0.0
        assert sup_norm(inv(fwd(x)) - x) <= 1e-8


class TestInteriorIso:
    def test_unit_parameter_half(self):
        out = interior_iso_apply(unit(H2), 0.5 * unit(H2))
        assert sup_norm(out - 0.5 * unit(H2)) <= 1e-14

    def test_unit_is_fixed(self, rng):
        y = sample_element(MIXED, rng, "interior")
        assert sup_norm(interior_iso_apply(y, unit(MIXED)) - unit(MIXED)) <= 1e-10

    def test_scaled_unit_example(self):
        y = (3.0 ** -0.5) * unit(H2)
        out = interior_iso_apply(y, 0.5 * unit(H2))
        assert sup_norm(out - 0.75 * unit(H2)) <= 1e-13

    def test_rejects_singular_argument(self):
        with pytest.raises((DomainError, Exception)):
            interior_iso_apply(unit(H2), herm(np.diag([1.0, 0.0])))


class TestParamsFromConeMap:
    def test_unit_lambda_two(self):
        f = HermFactor(1)
        iso = params_from_cone_map(unit(H1), identity_jordan(f), 2.0)
        assert iso.t == -1.0
        assert sup_norm(iso.z - unit(H1)) <= 1e-14

    def test_unit_lambda_four(self):
        f = HermFactor(1)
        iso = params_from_cone_map(unit(H1), identity_jordan(f), 4.0)
        assert iso.t == -3.0
        assert sup_norm(iso.z - (3.0 ** -0.5) * unit(H1)) <= 1e-14

    @pytest.mark.parametrize("factor", FACTOR_KINDS, ids=str)
    def test_agreement_with_interior_form(self, factor, rng):
        alg = single_factor(factor)
        for _ in range(10):
            y = apply_function(
                sample_element(alg, rng, "general"), lambda v: min(max(v, 0.3), 1.7)
            )
            jord = random_jordan_iso(factor, rng)
            lam0 = 1.0 + max_eigenvalue(jordan_product(y, y))
            x = sample_element(alg, rng, "invertible_effect")
            ref = interior_iso_apply(y, x, jord)
            for lam in (lam0, lam0 + 2.0):
                got = params_from_cone_map(y, jord, lam).apply(x)
                assert sup_norm(got - ref) <= 1e-8 * (1 + sup_norm(ref))

    def test_rejects_small_lambda(self):
        f = HermFactor(1)
        with pytest.raises(DomainError):
            params_from_cone_map(2.0 * unit(H1), identity_jordan(f), 1.0)


class TestTransitivity:
    def test_half_unit_fixed_point(self):
        w = 0.5 * unit(MIXED)
        y = transitivity_witness(w)
        assert sup_norm(y - unit(MIXED)) <= 1e-14
        assert sup_norm(interior_iso_apply(y, 0.5 * unit(MIXED)) - w) <= 1e-13

    def test_three_quarters(self):
        w = 0.75 * unit(H2)
        y = transitivity_witness(w)
        assert sup_norm(y - (3.0 ** -0.5) * unit(H2)) <= 1e-14

    def test_random_targets(self, rng):
        for _ in range(25):
            g = sample_element(MIXED, rng, "general")
            w = apply_function(g, lambda v: min(max(v, 0.08), 0.92))
            y = transitivity_witness(w)
            img = interior_iso_apply(y, 0.5 * unit(MIXED))
            assert sup_norm(img - w) <= 1e-8

    def test_rejects_boundary(self):
        with pytest.raises(DomainError):
            transitivity_witness(unit(MIXED))

    def test_inverse_witness_sends_target_to_half_unit(self, rng):
        # the companion map with y = (w^(-1) - e)^(-1/2) carries w back to e/2
        for _ in range(10):
            g = sample_element(MIXED, rng, "general")
            w = apply_function(g, lambda v: min(max(v, 0.1), 0.9))
            y_back = apply_function(w, lambda s: (1.0 / s - 1.0) ** -0.5)
            img = interior_iso_apply(y_back, w)
            assert sup_norm(img - 0.5 * unit(MIXED)) <= 1e-10


class TestJordanIso:
    def test_identity_data(self, rng):
        for factor in FACTOR_KINDS:
            alg = single_factor(factor)
            x = sample_element(alg, rng, "general")
            assert sup_norm(identity_jordan(factor).apply(x) - x) <= 1e-14

    def test_permutation_swaps_diagonal(self):
        f = HermFactor(2)
        J = FactorJordanIso(f, u=np.array([[0.0, 1.0], [1.0, 0.0]]))
        x = herm(np.diag([3.0, 7.0]))
        np.testing.assert_allclose(J.apply(x).block(0), np.diag([7.0, 3.0]), atol=1e-14)

    def test_spin_reflection_preserves_product(self, rng):
        f = SpinFactor(3)
        alg = single_factor(f)
        J = FactorJordanIso(f, rotation=-np.eye(3))
        x = sample_element(alg, rng, "general")
        y = sample_element(alg, rng, "general")
        out = J.apply(x)
        np.testing.assert_allclose(out.block(0)[1:], -x.block(0)[1:])
        assert out.block(0)[0] == x.block(0)[0]
        lhs = J.apply(jordan_product(x, y))
        rhs = jordan_product(J.apply(x), J.apply(y))
        assert sup_norm(lhs - rhs) <= 1e-12

    @pytest.mark.parametrize("factor", FACTOR_KINDS, ids=str)
    def test_unit_and_product_preserved(self, factor, rng):
        alg = single_factor(factor)
        J = random_jordan_iso(factor, rng)
        assert sup_norm(J.apply(unit(alg)) - unit(alg)) <= 1e-10
        for _ in range(5):
            x = sample_element(alg, rng, "general")
            y = sample_element(alg, rng, "general")
            lhs = J.apply(jordan_product(x, y))
            rhs = jordan_product(J.apply(x), J.apply(y))
            assert sup_norm(lhs - rhs) <= 1e-10 * (1 + sup_norm(rhs))
            assert sup_norm(J.inverse_apply(J.apply(x)) - x) <= 1e-10

    def test_rejects_non_isometry(self):
        with pytest.raises(ValueError):
            FactorJordanIso(HermFactor(2), u=np.array([[1.0, 1.0], [0.0, 1.0]]))
        for factor, data in [
            (HermFactor(2), {"u": np.full((2, 2), np.nan)}),
            (HermFactor(2, Ring.COMPLEX), {"u": np.full((2, 2), complex(0.0, np.nan))}),
            (HermFactor(2, Ring.QUATERNION), {"u": np.full((2, 2, 4), np.nan)}),
            (SpinFactor(3), {"rotation": np.full((3, 3), np.nan)}),
        ]:
            with pytest.raises(ValueError):
                FactorJordanIso(factor, **data)


class TestCompositeOrderIso:
    def build_example(self):
        src = algebra(HermFactor(1), HermFactor(2))
        pwl = PwlScalarIso(((0.0, 0.0), (0.5, 0.25), (1.0, 1.0)))
        engaged = FactorOrderIso(0.0, unit(H2), identity_jordan(HermFactor(2)))
        return CompositeOrderIso(src, src, ((0, 0),), (pwl,), ((1, 1),), (engaged,))

    def test_worked_example(self):
        iso = self.build_example()
        src = iso.source
        x = element_in_factor(HermFactor(1), [[0.5]])
        from effectorder import element_from_blocks

        xx = element_from_blocks(src, [np.array([[0.5]]), 0.5 * np.eye(2)])
        out = iso.apply(xx)
        np.testing.assert_allclose(out.block(0), [[0.25]], atol=1e-14)
        np.testing.assert_allclose(out.block(1), (2.0 / 3.0) * np.eye(2), atol=1e-14)

    def test_endpoints(self, rng):
        src = algebra(HermFactor(1), HermFactor(1), HermFactor(2), SpinFactor(3))
        dst = algebra(SpinFactor(3), HermFactor(1), HermFactor(2), HermFactor(1))
        iso = random_composite_iso(src, dst, rng)
        assert sup_norm(iso.apply(zero(src))) <= 1e-12
        assert sup_norm(iso.apply(unit(src)) - unit(dst)) <= 1e-12

    def test_roundtrip_with_routing(self, rng):
        src = algebra(HermFactor(1), HermFactor(1), HermFactor(2), SpinFactor(3))
        dst = algebra(SpinFactor(3), HermFactor(1), HermFactor(2), HermFactor(1))
        for _ in range(20):
            iso = random_composite_iso(src, dst, rng)
            x = sample_element(src, rng, "effect")
            assert sup_norm(iso.inverse_apply(iso.apply(x)) - x) <= 1e-8
            y = sample_element(dst, rng, "effect")
            assert sup_norm(iso.apply(iso.inverse_apply(y)) - y) <= 1e-8

    def test_order_preservation(self, rng):
        src = algebra(HermFactor(1), HermFactor(2))
        for _ in range(20):
            iso = random_composite_iso(src, src, rng)
            x, y = sample_ordered_pair(src, rng)
            assert min_eigenvalue(iso.apply(y) - iso.apply(x)) >= -1e-9

    def test_validation_rejects_bad_matching(self):
        src = algebra(HermFactor(1), HermFactor(2))
        pwl = PwlScalarIso(((0.0, 0.0), (1.0, 1.0)))
        engaged = FactorOrderIso(0.0, unit(H2), identity_jordan(HermFactor(2)))
        with pytest.raises(ValueError):
            CompositeOrderIso(src, src, ((0, 1),), (pwl,), ((1, 1),), (engaged,))

    def test_rejects_wrong_algebra(self, rng):
        iso = self.build_example()
        with pytest.raises(Exception):
            iso.apply(unit(MIXED))


class TestCoordinateSqueeze:
    def test_level_one_is_identity(self):
        iso, image = coordinate_squeeze_iso(1)
        assert iso.scalar_isos[0].t == 0.0
        assert image.block(0)[0, 0] == 0.5

    def test_level_three_values(self):
        _, image = coordinate_squeeze_iso(3)
        got = [float(image.block(k)[0, 0]) for k in range(3)]
        assert got == [0.5, 0.25, 0.125]

    def test_level_twenty_exact(self):
        _, image = coordinate_squeeze_iso(20)
        for k in range(20):
            assert float(image.block(k)[0, 0]) == 2.0 ** -(k + 1)
        assert min(float(image.block(k)[0, 0]) for k in range(20)) == 2.0 ** -20

    def test_image_stays_invertible_at_each_level(self):
        _, image = coordinate_squeeze_iso(12)
        assert min_eigenvalue(image) == 2.0 ** -12 > 0.0


class TestOperatorFormIdentities:
    """Cross-checks against alternative operator-level routes: resolvent
    forms of the Mobius maps, the stretch-parameter chain, and the
    factorization that transfers invertibility through the closed form."""

    def test_mobius_resolvent_form_positive_parameter(self, rng):
        from effectorder import invert_element

        e = unit(MIXED)
        for _ in range(10):
            t = float(rng.uniform(0.05, 0.95))
            x = sample_element(MIXED, rng, "effect")
            alt = (1.0 / t) * e - ((1.0 - t) / t ** 2) * invert_element(
                x + (1.0 / t - 1.0) * e, "strict"
            )
            assert sup_norm(alt - mobius_apply(t, x)) <= 1e-10

    def test_mobius_resolvent_form_negative_parameter(self, rng):
        from effectorder import invert_element

        e = unit(MIXED)
        for _ in range(10):
            t = float(rng.uniform(-4.0, -0.05))
            x = sample_element(MIXED, rng, "effect")
            alt = (1.0 / t) * e + ((1.0 - t) / t ** 2) * invert_element(
                (1.0 - 1.0 / t) * e - x, "strict"
            )
            assert sup_norm(alt - mobius_apply(t, x)) <= 1e-10

    def test_stretch_parameter_chain(self, rng):
        # the converted z satisfies z^2 + e = lam (lam e - y^2)^(-1)
        from effectorder import invert_element

        for factor in FACTOR_KINDS:
            alg = single_factor(factor)
            y = apply_function(
                sample_element(alg, rng, "general"), lambda v: min(max(v, 0.3), 1.6)
            )
            y2 = jordan_product(y, y)
            lam = 1.0 + max_eigenvalue(y2) + 0.7
            iso = params_from_cone_map(y, identity_jordan(factor), lam)
            assert iso.t == 1.0 - lam
            lhs = jordan_product(iso.z, iso.z) + unit(alg)
            rhs = lam * invert_element(lam * unit(alg) - y2, "strict")
            assert sup_norm(lhs - rhs) <= 1e-10 * (1 + sup_norm(rhs))

    def test_invertibility_factorization(self, rng):
        # e - (e + w)^(-1) = w o (e + w)^(-1) for w in the cone
        from effectorder import invert_element

        e = unit(MIXED)
        for _ in range(10):
            w = sample_element(MIXED, rng, "cone")
            inv = invert_element(w + e, "strict")
            assert sup_norm((e - inv) - jordan_product(w, inv)) <= 1e-10


class TestScalarIsos:
    def test_pwl_interpolation_and_inverse(self):
        f = PwlScalarIso(((0.0, 0.0), (0.5, 0.25), (1.0, 1.0)))
        assert f(0.5) == 0.25
        assert f(0.25) == 0.125
        assert f.inverse(0.25) == 0.5
        assert abs(f.inverse(f(0.3)) - 0.3) <= 1e-15

    def test_pwl_validation(self):
        with pytest.raises(ValueError):
            PwlScalarIso(((0.0, 0.0), (0.6, 0.5), (0.4, 0.7), (1.0, 1.0)))
        with pytest.raises(ValueError):
            PwlScalarIso(((0.1, 0.0), (1.0, 1.0)))

    def test_phi_scalar_matches_mobius(self):
        f = PhiScalarIso(-1.0)
        assert f(0.5) == mobius_scalar(-1.0, 0.5)
        assert abs(f.inverse(f(0.37)) - 0.37) <= 1e-15
