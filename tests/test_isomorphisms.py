import concurrent.futures
import inspect
import json
import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from effectorder import (
    SchemaError,
    CompositeOrderIso,
    DomainError,
    Element,
    SingularElementError,
    ShapeMismatchError,
    FactorJordanIso,
    FactorOrderIso,
    HermFactor,
    PhiScalarIso,
    PwlScalarIso,
    Ring,
    SpinFactor,
    algebra,
    apply_function,
    cone_interval_map,
    coordinate_squeeze_iso,
    dump_document,
    element_in_factor,
    identity_jordan,
    interior_iso_apply,
    interval_top_map,
    jordan_product,
    leq,
    load_document,
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
    recover_factor_iso,
    sample_atom,
    sample_element,
    sample_ordered_pair,
    single_factor,
    spectral_decompose,
    sup_norm,
    transitivity_witness,
    unit,
    zero,
)

from effectorder import isomorphisms
from effectorder.algebra import _Quaternion, _Real, _Spin
from effectorder import quaternion as quat

from conftest import FACTOR_KINDS, MIXED, assert_close

H1 = single_factor(HermFactor(1))
# herm(1,.) is a rank-one coordinate of a direct sum, never an engaged factor
ENGAGED_KINDS = [f for f in FACTOR_KINDS if f.rank > 1]
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

    @pytest.mark.parametrize("t", ["0.5", b"0.5", 0.5 + 0j, np.complex64(0.5), np.complex128(0.5)], ids=repr)
    def test_a_string_or_complex_parameter_is_refused(self, t):
        for make in (PhiScalarIso, lambda t: mobius_apply(t, unit(MIXED)), mobius_invert_param):
            with pytest.raises(DomainError, match="must be a real number"):
                make(t)

    def test_the_refusal_names_the_bound_it_enforces(self):
        # 1 - 1e-13 is below 1, but above MOBIUS_PARAM_MAX = 1 - 1e-12
        with pytest.raises(DomainError) as info:
            PhiScalarIso(1.0 - 1e-13)
        assert f"t < MOBIUS_PARAM_MAX = {isomorphisms.MOBIUS_PARAM_MAX}" in str(info.value)

    def test_a_numpy_parameter_is_stored_and_used_as_a_float(self, rng):
        t32 = np.float32(0.5)
        iso = PhiScalarIso(t32)
        assert type(iso.t) is float and iso == PhiScalarIso(float(t32))
        assert type(iso(0.3)) is float and abs(iso.inverse(iso(0.3)) - 0.3) <= 1e-15
        assert type(mobius_compose(t32, t32)) is float and type(mobius_invert_param(t32)) is float
        x = sample_element(MIXED, rng, "effect")
        got, want = mobius_apply(t32, x), mobius_apply(float(t32), x)
        assert all(np.array_equal(a, b) for a, b in zip(got._groups, want._groups))

    @pytest.mark.parametrize("t", [-1e300, -1e13, -1e12])
    def test_an_inverse_parameter_outside_the_family_is_refused(self, t):
        # t / (t - 1) rounds to MOBIUS_PARAM_MAX or above for t <= -1e12, to 1.0 at -1e300
        with pytest.raises(DomainError, match="MOBIUS_PARAM_MAX"):
            mobius_invert_param(t)

    @pytest.mark.parametrize("t, s", [(-1e300, -1e300), (0.99999999, 0.99999999)])
    def test_a_composed_parameter_outside_the_family_is_refused(self, t, s):
        # -inf, and 0.9999999999999999 above MOBIUS_PARAM_MAX
        with pytest.raises(DomainError, match="MOBIUS_PARAM_MAX"):
            mobius_compose(t, s)

    def test_a_float32_line_map_round_trips(self, rng):
        iso = CompositeOrderIso(H1, H1, ((0, 0),), (PhiScalarIso(np.float32(-1.7)),), (), ())
        for s in np.linspace(0.0, 1.0, 11):
            x = s * unit(H1)
            assert sup_norm(iso.inverse_apply(iso.apply(x)) - x) <= 1e-12


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

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_rejects_non_cone_x(self, direction):
        x = herm(np.diag([1.0, -0.5]))
        with pytest.raises(DomainError):
            interval_top_map(x, zero(H2), direction)

    def test_backward_builds_no_range_projection(self, monkeypatch):
        x = herm(np.diag([4.0, 0.0]))
        y = herm(np.diag([1.0, 0.0]))

        def unused(x):
            raise AssertionError("range_projection called")

        monkeypatch.setattr(isomorphisms, "range_projection", unused)
        out = interval_top_map(x, y, "backward")
        np.testing.assert_allclose(out.block(0), np.diag([0.25, 0.0]), atol=1e-12)


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

    def test_rejects_negative_eigenvalue_within_effect_tolerance(self):
        with pytest.raises(DomainError):
            cone_interval_map(herm(np.diag([-1e-9, 0.5])), "interval_to_cone")

    @pytest.mark.parametrize(
        "diag, direction, error",
        [
            ([1.0, 0.0], "interval_to_cone", DomainError),
            ([-1e-9, 0.5], "interval_to_cone", DomainError),
            ([1.5, 0.5], "interval_to_cone", DomainError),
            ([np.nan, 0.5], "interval_to_cone", DomainError),
            ([1e-12, 0.5], "interval_to_cone", SingularElementError),
            ([-1.0, 2.0], "cone_to_interval", DomainError),
            ([np.inf, 0.5], "cone_to_interval", DomainError),
            # within the cone tolerance 1e-8 (1 + 1e9), but x + e is singular
            ([-1.0, 1e9], "cone_to_interval", SingularElementError),
        ],
    )
    def test_error_kinds(self, diag, direction, error):
        x = Element(H2, (np.diag(diag),))  # unvalidated, so NaN and inf get through
        with pytest.raises(error) as err:
            cone_interval_map(x, direction)
        assert type(err.value) is error

    def test_accepts_both_tolerance_edges(self):
        assert sup_norm(cone_interval_map(herm(np.diag([-1e-12, 1.0])), "cone_to_interval")) <= 1.0 + 1e-12
        x = herm(np.diag([3e-10, 1.0 + 5e-9]))
        assert sup_norm(cone_interval_map(x, "interval_to_cone")) >= 3e9


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

    @pytest.mark.parametrize("factor", ENGAGED_KINDS, ids=str)
    def test_a_float32_parameter_survives_its_document(self, factor, rng):
        ref = random_factor_iso(factor, rng)
        iso = FactorOrderIso(np.float32(0.3), ref.z, ref.jordan)
        assert type(iso.t) is float
        comp = CompositeOrderIso(iso.algebra, iso.algebra, (), (), ((0, 0),), (iso,))
        back = load_document(dump_document(comp))
        x = sample_element(iso.algebra, rng, "effect")
        assert np.array_equal(back.apply(x)._block(0), comp.apply(x)._block(0))

    @pytest.mark.parametrize("factor, z", [
        (HermFactor(2), np.diag([1e-309, 1.0])),
        (HermFactor(4, Ring.COMPLEX), np.diag([1e-309, 1.0, 1.0, 1.0]).astype(complex)),
        (HermFactor(2, Ring.QUATERNION), np.diag([1e-309, 1.0])[..., None] * np.eye(4)[0]),
        (SpinFactor(3), np.array([1e-310, 0.0, 0.0, 0.0])),
    ], ids=str)
    def test_a_z_whose_y_inverse_overflows_is_refused(self, factor, z):
        # y = ((1 - t) / (1 + z^2))^(1/2) z; at the parent 1/y overflowed with a
        # RuntimeWarning and every image was NaN
        with pytest.raises(DomainError, match="too close to 0"):
            FactorOrderIso(0.5, element_in_factor(factor, z), identity_jordan(factor))

    def test_the_overflow_bound_moves_with_t(self):
        # the rule is a finite y^(-1), not a bound on z: at t = -1e6, 1e-309 is accepted
        f = HermFactor(2)
        iso = FactorOrderIso(-1e6, herm(np.diag([1e-309, 1.0])), identity_jordan(f))
        assert sup_norm(iso.apply(unit(H2)) - unit(H2)) <= 1e-8
        with pytest.raises(DomainError, match="too close to 0"):
            FactorOrderIso(-1e6, herm(np.diag([1e-315, 1.0])), identity_jordan(f))

    def test_a_document_with_such_a_z_is_not_interior(self, rng):
        obj = json.loads(dump_document(random_composite_iso(H2, H2, rng)))
        obj["engaged"][0].update(t=0.5, z=[[1e-309, 0.0], [0.0, 1.0]])
        with pytest.raises(SchemaError) as info:
            load_document(json.dumps(obj))
        assert info.value.code == "NOT_INTERIOR" and info.value.path == "iso.engaged[0].z"

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
        fg = f.compose(g)
        x = sample_element(alg, rng, "effect")
        assert sup_norm(fg.apply(x) - f.apply(g.apply(x))) <= 1e-10
        assert sup_norm(fg.inverse_apply(fg.apply(x)) - x) <= 1e-8


# every factor kind, herm(3,C) (whose maps may be conjugate-linear), herm(3,H) and spin(6)
CLOSED_FORM_KINDS = FACTOR_KINDS + [HermFactor(3, Ring.COMPLEX), HermFactor(3, Ring.QUATERNION), SpinFactor(6)]


def seeded_pairs(factor, count=5):
    """count seeded pairs of maps; over C each of the four conjugate flag pairs in turn."""
    for seed in range(count):
        rng = np.random.default_rng(seed)
        f, g = random_factor_iso(factor, rng), random_factor_iso(factor, rng)
        if getattr(factor, "ring", None) is Ring.COMPLEX:
            f, g = (FactorOrderIso(h.t, h.z, FactorJordanIso(factor, h.jordan.u, bool(seed >> k & 1)))
                    for k, h in enumerate((f, g)))
        yield f, g, [sample_element(f.algebra, rng, "effect") for _ in range(3)]


class TestClosedFormComposition:
    """compose and inverted read their closed form off the exact cone map."""

    @pytest.mark.parametrize("factor", CLOSED_FORM_KINDS, ids=str)
    def test_compose_is_function_composition(self, factor):
        for f, g, xs in seeded_pairs(factor):
            gf = g.compose(f)
            for x in xs:
                assert sup_norm(gf.apply(x) - g.apply(f.apply(x))) <= 1e-10

    @pytest.mark.parametrize("factor", CLOSED_FORM_KINDS, ids=str)
    def test_inverted_is_the_inverse_map(self, factor):
        for f, _, xs in seeded_pairs(factor):
            inv = f.inverted()
            for x in xs:
                assert sup_norm(inv.apply(x) - f.inverse_apply(x)) <= 1e-10

    @pytest.mark.parametrize("factor", CLOSED_FORM_KINDS, ids=str)
    def test_a_map_after_its_inverse_fixes_effects(self, factor):
        for f, _, xs in seeded_pairs(factor):
            ident = f.compose(f.inverted())
            for x in xs:
                assert sup_norm(ident.apply(x) - x) <= 1e-12

    def test_inverted_reads_a_small_unit_image_at_its_own_scale(self):
        # at t = -1e9 the inverse's y^2 = J^(-1)(y^(-2)) is about 1e-9: clustered at an
        # absolute 1e-8, its distinct eigenvalues merged, and inverted() was off by 0.2
        rng = np.random.default_rng(0)
        b = random_factor_iso(HermFactor(3), rng)
        f = FactorOrderIso(-1e9, b.z, b.jordan)
        inv = f.inverted()
        for _ in range(10):
            x = sample_element(f.algebra, rng, "effect")
            assert sup_norm(inv.apply(x) - f.inverse_apply(x)) <= 1e-7

    @pytest.mark.parametrize(
        "factor", [HermFactor(2, Ring.COMPLEX), HermFactor(2, Ring.QUATERNION), SpinFactor(4)], ids=str
    )
    def test_inverted_at_the_end_of_the_family(self, factor):
        # at t = -1e12 the inverse's y^2 is about 1e-12, and its merged eigenvalues made
        # the extractor refuse the cone map; the inverse is steep at 0 there (it sends an
        # eigenvalue of 1e-17 to about 1e-5), so on effects clipped at 0 the two
        # evaluations agree to about 1e-5
        for seed in range(6):
            rng = np.random.default_rng(seed)
            b = random_factor_iso(factor, rng)
            f = FactorOrderIso(-1e12, b.z, b.jordan)
            inv = f.inverted()
            for _ in range(5):
                x = sample_element(f.algebra, rng, "effect")
                assert sup_norm(inv.apply(x) - f.inverse_apply(x)) <= 1e-4

    @pytest.mark.parametrize("factor", CLOSED_FORM_KINDS, ids=str)
    def test_recovery_of_the_composition_gives_the_same_parameters(self, factor):
        alg = single_factor(factor)
        for f, g, _ in seeded_pairs(factor):
            gf = g.compose(f)
            rec = recover_factor_iso(lambda x: g.apply(f.apply(x)), alg, alg)
            assert abs(rec.t - gf.t) <= 1e-8 and sup_norm(rec.z - gf.z) <= 1e-8
            assert rec.jordan.conjugate == gf.jordan.conjugate
            assert np.abs(rec.jordan.u - gf.jordan.u).max() <= 1e-8

    def test_maps_of_different_factors_do_not_compose(self, rng):
        f = random_factor_iso(HermFactor(2), rng)
        for g in (random_factor_iso(HermFactor(3), rng), random_factor_iso(HermFactor(2, Ring.COMPLEX), rng)):
            with pytest.raises(ShapeMismatchError):
                f.compose(g)
            with pytest.raises(ShapeMismatchError):
                g.compose(f)


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

    @pytest.mark.parametrize("lam", ["3", b"3", 3 + 0j, np.complex128(3), [3.0], float("nan"), float("inf")], ids=repr)
    def test_lam_must_be_a_finite_real_number(self, lam):
        # at the parent "3" gave t = -2, a complex lam raised TypeError, and nan and inf
        # were refused with messages about the function or the Mobius parameter
        with pytest.raises(DomainError, match="^lam"):
            params_from_cone_map(unit(H1), identity_jordan(HermFactor(1)), lam)

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
        J = FactorJordanIso(f, u=-np.eye(3))
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
            (SpinFactor(3), {"u": np.full((3, 3), np.nan)}),
            (SpinFactor(3), {"u": 2.0 * np.eye(3)}),
        ]:
            with pytest.raises(ValueError):
                FactorJordanIso(factor, **data)

    def test_spin_refuses_conjugate(self):
        # spin's u is a real orthogonal matrix, and conjugation is for C only
        with pytest.raises(ValueError, match="conjugation"):
            FactorJordanIso(SpinFactor(3), np.eye(3), conjugate=True)

    @pytest.mark.parametrize("factor", [HermFactor(2), SpinFactor(2)], ids=str)
    def test_real_ring_u_refuses_imaginary_part(self, factor):
        with pytest.raises(ShapeMismatchError, match="imaginary"):
            FactorJordanIso(factor, np.array([[0.0, 1j], [1j, 0.0]]))
        J = FactorJordanIso(factor, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        assert J.u.dtype == float

    @pytest.mark.parametrize(
        "factor", [HermFactor(2), HermFactor(2, Ring.COMPLEX), SpinFactor(2)], ids=str
    )
    def test_unconvertible_u_is_shape_mismatch(self, factor):
        with pytest.raises(ShapeMismatchError, match="^u: "):
            FactorJordanIso(factor, [[0.0, "a"], [1.0, 0.0]])


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

    @pytest.mark.parametrize(
        "field, pairs",
        [
            ("sigma", ((0, 0), (0, 1))),
            ("sigma", ((0, 1), (1, 1))),
            ("sigma", ((0, 0),)),
            ("sigma", ((0, 0), (1, 2))),
            ("engaged_pairs", ((2, 2), (2, 3))),
            ("engaged_pairs", ((2, 3), (3, 3))),
            ("engaged_pairs", ((2, 2),)),
            ("engaged_pairs", ((2, 2), (3, 0))),
        ],
        ids=[
            f"{field}-{case}"
            for field in ("sigma", "engaged_pairs")
            for case in ("duplicate_source", "duplicate_target", "missing", "foreign")
        ],
    )
    def test_routing_must_be_a_bijection(self, field, pairs):
        alg = algebra(HermFactor(1), HermFactor(1), HermFactor(2), HermFactor(2))
        engaged = FactorOrderIso(0.0, unit(H2), identity_jordan(HermFactor(2)))
        routing = {"sigma": ((0, 1), (1, 0)), "engaged_pairs": ((2, 3), (3, 2))}

        def build():
            sigma, matching = routing["sigma"], routing["engaged_pairs"]
            scalars = (PhiScalarIso(0.0),) * len(sigma)
            return CompositeOrderIso(alg, alg, sigma, scalars, matching, (engaged,) * len(matching))

        build()
        routing[field] = pairs
        message = {
            "sigma": "sigma is not a bijection of the disengaged indices",
            "engaged_pairs": "engaged matching is not a bijection of the engaged indices",
        }[field]
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    def test_rejects_wrong_algebra(self, rng):
        iso = self.build_example()
        with pytest.raises(Exception):
            iso.apply(unit(MIXED))

    @pytest.mark.parametrize("factor", ENGAGED_KINDS, ids=str)
    def test_engaged_blocks_are_the_factor_maps(self, factor, rng):
        # the composite runs each engaged factor map on its stored block: the
        # same bits as that map's own apply and inverse_apply, also when the
        # matching swaps two factors of one kind
        alg = algebra(HermFactor(1), factor, factor)
        for _ in range(4):
            iso = random_composite_iso(alg, alg, rng)
            x = sample_element(alg, rng, "effect")
            y = iso.apply(x)
            back = iso.inverse_apply(y)
            for (i, j), f in zip(iso.engaged_pairs, iso.engaged_isos):
                image = f.apply(Element(f.algebra, (x.block(i),)))
                np.testing.assert_array_equal(y._block(j), image._block(0))
                pre = f.inverse_apply(Element(f.algebra, (y.block(j),)))
                np.testing.assert_array_equal(back._block(i), pre._block(0))

    @pytest.mark.parametrize("k", [0, 1, 2], ids=["line", "herm", "spin"])
    def test_engaged_block_outside_is_refused_as_by_its_factor_map(self, k, rng):
        # one block of sup below 1 leaves [0, e]: the composite tests its whole
        # argument once, so each direction refuses it with the text of every
        # other map of [0, e], which names the argument's spectrum
        iso = random_composite_iso(MIXED, MIXED, rng)
        blocks = list((0.5 * unit(MIXED)).blocks)
        blocks[k] = [
            np.array([[-0.0125]]),
            -0.25 * sample_element(single_factor(MIXED.factors[1]), rng, "invertible_effect").block(0),
            np.array([0.05, 0.3, 0.0, 0.0]),
        ][k]
        x = Element(MIXED, blocks)
        with pytest.raises(DomainError, match="^argument is outside") as want:
            mobius_apply(0.5, x)
        for run in (iso.apply, iso.inverse_apply):
            with pytest.raises(DomainError) as got:
                run(x)
            assert str(got.value) == str(want.value)


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

    def test_largest_level_is_exact_and_the_next_is_refused(self):
        # t_n = 2 - 2^n: 2^1024 is not a finite float
        iso, image = coordinate_squeeze_iso(1023)
        assert iso.scalar_isos[-1].t == 2.0 - 2.0 ** 1023
        assert float(image.block(1022)[0, 0]) == 2.0 ** -1023
        for n in (0, 1024):
            with pytest.raises(ValueError, match=r"\[1, 1023\]"):
                coordinate_squeeze_iso(n)


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

    def test_pwl_is_np_interp_bit_for_bit(self, rng):
        f = PwlScalarIso(((0.0, 0.0), (0.2, 0.35), (0.5, 0.4), (0.9, 0.95), (1.0, 1.0)))
        xs, ys = np.array(f.knots).T
        outside = [-np.inf, -1.0, -1e-300, -0.0, 1.0 + 1e-16, 2.0, np.inf]
        for s in outside + [*xs, *ys] + list(rng.uniform(0.0, 1.0, 200)):
            for got, ref in ((f(s), np.interp(s, xs, ys)), (f.inverse(s), np.interp(s, ys, xs))):
                assert type(got) is float
                assert np.float64(got).tobytes() == np.float64(ref).tobytes()
        assert np.isnan(f(np.nan)) and np.isnan(f.inverse(np.nan))

    def test_pwl_validation(self):
        with pytest.raises(ValueError):
            PwlScalarIso(((0.0, 0.0), (0.6, 0.5), (0.4, 0.7), (1.0, 1.0)))
        with pytest.raises(ValueError):
            PwlScalarIso(((0.1, 0.0), (1.0, 1.0)))

    def test_phi_scalar_matches_mobius(self):
        for t in (-2.5, -1.0, 0.0, 0.3, 0.9):
            f = PhiScalarIso(t)
            assert f(0.5) == mobius_scalar(t, 0.5)
            for s in np.linspace(0.0, 1.0, 101).tolist():
                assert abs(f.inverse(f(s)) - s) <= 1e-15 and abs(f(f.inverse(s)) - s) <= 1e-15

    # every order isomorphism of [0, 1] fixes 0 and 1; for t <= -1e16, 1 - t rounds to -t
    VERY_NEGATIVE_T = [-1e16, -1e17, -1e100, -1e300, -1.7e308]

    @pytest.mark.parametrize("t", VERY_NEGATIVE_T)
    def test_phi_fixes_both_ends_for_every_accepted_t(self, t):
        f = PhiScalarIso(t)
        assert (f(0.0), f(1.0), f.inverse(0.0), f.inverse(1.0)) == (0.0, 1.0, 0.0, 1.0)
        e = unit(MIXED)
        assert sup_norm(mobius_apply(t, e) - e) == 0.0
        assert sup_norm(mobius_apply(t, zero(MIXED))) == 0.0

    def test_iso_document_with_a_very_negative_phi_maps_e_to_e(self):
        line = single_factor(HermFactor(1))
        doc = {"type": "iso", "source": json.loads(dump_document(line)),
               "target": json.loads(dump_document(line)), "sigma": [[0, 0]],
               "scalar_isos": [{"kind": "phi", "t": -1e300}], "engaged": []}
        iso = load_document(json.dumps(doc))
        e = unit(line)
        assert iso.apply(e).block(0)[0, 0] == 1.0 and iso.inverse_apply(e).block(0)[0, 0] == 1.0


ENVELOPE_FACTORS = [
    HermFactor(4),
    HermFactor(3, Ring.COMPLEX),
    HermFactor(2, Ring.QUATERNION),
    SpinFactor(4),
]


class TestConditioningEnvelope:
    """Round trips far outside the sampler's z spectrum [0.3, 1.7], where
    the map itself is still well conditioned."""

    @staticmethod
    def check_round_trips(factor, t, exponents, rng):
        alg = single_factor(factor)
        for _ in range(3):
            dec = spectral_decompose(sample_element(alg, rng, "general"))
            z = dec.combine(10.0 ** rng.uniform(*exponents, len(dec.eigenvalues)))
            iso = FactorOrderIso(t, z, random_jordan_iso(factor, rng))
            for cls in ("effect", "projection", "invertible_effect"):
                for _ in range(4):
                    x = sample_element(alg, rng, cls)
                    back = iso.inverse_apply(iso.apply(x))
                    assert sup_norm(back - x) <= 1e-8

    @pytest.mark.parametrize("t", [-1e6, -50.0, 0.0, 0.9])
    @pytest.mark.parametrize("factor", ENVELOPE_FACTORS, ids=str)
    def test_inverse_accepts_every_image(self, factor, t, rng):
        self.check_round_trips(factor, t, (0.0, 4.0), rng)

    def test_huge_z_eigenvalue(self):
        # z = diag(1e300, 1): 1 + s^2 overflows, so y = sqrt(1 - t) s / hypot(1, s)
        doc = {
            "type": "iso",
            "source": {"factors": [{"kind": "herm", "n": 2}]},
            "target": {"factors": [{"kind": "herm", "n": 2}]},
            "sigma": [],
            "scalar_isos": [],
            "engaged": [{"match": [0, 0], "t": 0.5, "z": [[1e300, 0.0], [0.0, 1.0]],
                         "J": {"u": [[1.0, 0.0], [0.0, 1.0]], "tau": "id"}}],
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            iso = load_document(json.dumps(doc))
            half = 0.5 * unit(H2)
            image = iso.apply(half)
            assert_close(image.block(0), np.diag([2.0 / 3.0, 4.0 / 5.0]), tol=1e-15)
            assert sup_norm(iso.inverse_apply(image) - half) <= 1e-15

    @pytest.mark.parametrize(
        "factor, z",
        [(HermFactor(2), np.diag([1e-9, 1.0])), (SpinFactor(3), np.array([1.0, 1.0 - 1e-9, 0.0, 0.0]))],
        ids=["herm(2,R)", "spin(3)"],
    )
    def test_singular_pencil_is_a_domain_error(self, factor, z):
        # the image of e/2 rounds onto the boundary, where C* - F B* is singular
        iso = FactorOrderIso(0.5, element_in_factor(factor, z), identity_jordan(factor))
        image = iso.apply(0.5 * unit(iso.algebra))
        with pytest.raises(DomainError, match="singular pencil"):
            iso.inverse_apply(image)

    # t = 0.9 with z below e is still open (ROADMAP item 5)
    @pytest.mark.parametrize("t", [-1e6, -50.0, 0.0])
    @pytest.mark.parametrize("factor", ENVELOPE_FACTORS, ids=str)
    def test_small_z_spectra(self, factor, t, rng):
        self.check_round_trips(factor, t, (-4.0, 0.0), rng)


class TestPencil:
    """The pencil that FactorOrderIso precomputes against the literal
    interior form (U_y J x^(-1) + e - y^2)^(-1) of interior_iso_apply."""

    @staticmethod
    def check_against_interior_form(iso, rng):
        alg = iso.algebra
        c = 1.0 - iso.t
        y = apply_function(iso.z, lambda s: s * np.sqrt(c / (1.0 + s * s)))
        for _ in range(5):
            x = sample_element(alg, rng, "invertible_effect")
            ref = interior_iso_apply(y, x, iso.jordan)
            assert sup_norm(iso.apply(x) - ref) <= 1e-10
            assert sup_norm(iso.inverse_apply(ref) - x) <= 1e-10

    @pytest.mark.parametrize("factor", FACTOR_KINDS, ids=str)
    def test_agrees_with_interior_form(self, factor, rng):
        for _ in range(5):
            self.check_against_interior_form(random_factor_iso(factor, rng), rng)

    @pytest.mark.parametrize("factor", FACTOR_KINDS, ids=str)
    def test_z_a_multiple_of_the_unit(self, factor, rng):
        # one spectral idempotent: a spin factor's pencil has no vector part
        z = 0.7 * unit(single_factor(factor))
        iso = FactorOrderIso(-0.4, z, random_jordan_iso(factor, rng))
        self.check_against_interior_form(iso, rng)

    def test_spin_solve_pivots_like_lu(self, rng):
        # the closed-form 2x2 solve against LAPACK's, on pencils whose first
        # column needs a row swap and on ones that do not
        solve = _Spin._solve_diagonal_pencil
        for k in range(200):
            m00, m01, m11 = rng.standard_normal(3)
            A, B, C = rng.standard_normal((3, 2))
            if k % 2:  # a tiny first pivot: the swap is what keeps the error small
                A[0] = -m00 * B[0] * (1.0 + 1e-12)
            m = np.array([[m00, m01], [m01, m11]])
            ref = np.linalg.solve(np.diag(A) + m @ np.diag(B), m @ np.diag(C))
            got = np.reshape(solve(m00, m01, m11, A, B, C), (2, 2))
            assert np.abs(got - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())

    def test_spin_solve_refuses_a_zero_pivot(self):
        one, zero_ = np.ones(2), np.zeros(2)
        for m, A in (((0.0, 0.0, 1.0), zero_), ((1.0, 1.0, 1.0), zero_)):  # zero column, rank one
            with pytest.raises(DomainError, match="singular pencil"):
                _Spin._solve_diagonal_pencil(*m, A, one, one)

    @pytest.mark.parametrize("conjugate", [False, True])
    def test_complex_conjugate_flags(self, conjugate, rng):
        f = HermFactor(3, Ring.COMPLEX)
        for _ in range(5):
            iso = random_factor_iso(f, rng)
            jord = FactorJordanIso(f, u=iso.jordan.u, conjugate=conjugate)
            self.check_against_interior_form(FactorOrderIso(iso.t, iso.z, jord), rng)


class TestSpinFrame:
    """A spin map runs its pencil on the copy of herm(2,R) spanned by e, the
    unit vector part zhat of z and the rest w of J v; its degenerate frames:
    v = 0, J v parallel to zhat (w = 0) and zhat = 0 (z a multiple of e)."""

    @staticmethod
    def frame(d, rng):
        """A unit vector n and a unit vector m orthogonal to it."""
        n, m = rng.standard_normal((2, d))
        n /= np.linalg.norm(n)
        m -= (m @ n) * n
        return n, m / np.linalg.norm(m)

    @pytest.mark.parametrize("z_part", [0.4, 0.0], ids=["z_generic", "z_multiple_of_e"])
    @pytest.mark.parametrize("d", [2, 6])
    def test_degenerate_frames_agree_with_interior_form(self, d, z_part, rng):
        factor = SpinFactor(d)
        n, m = self.frame(d, rng)
        z = element_in_factor(factor, np.concatenate(([1.0], z_part * n)))
        for t in (-3.0, 0.3):
            y = apply_function(z, lambda s: s * np.sqrt((1.0 - t) / (1.0 + s * s)))
            for jord in (identity_jordan(factor), random_jordan_iso(factor, rng)):
                iso = FactorOrderIso(t, z, jord)
                for jv in (np.zeros(d), 0.3 * n, -0.3 * n, 0.3 * m, 0.2 * n + 0.2 * m):
                    x = element_in_factor(factor, np.concatenate(([0.5], jord.u.T @ jv)))
                    ref = interior_iso_apply(y, x, jord)
                    assert sup_norm(iso.apply(x) - ref) <= 1e-10
                    assert sup_norm(iso.inverse_apply(ref) - x) <= 1e-10

    @pytest.mark.parametrize("d", [2, 6])
    def test_projection_on_zhat_round_trips(self, d, rng):
        # J x = (1, +-zhat) / 2 is a projection, diagonal in the copy
        factor = SpinFactor(d)
        n, _ = self.frame(d, rng)
        z = element_in_factor(factor, np.concatenate(([1.0], 0.4 * n)))
        for jord in (identity_jordan(factor), random_jordan_iso(factor, rng)):
            iso = FactorOrderIso(0.3, z, jord)
            for sign in (1.0, -1.0):
                p = element_in_factor(factor, np.concatenate(([0.5], 0.5 * sign * jord.u.T @ n)))
                assert sup_norm(iso.inverse_apply(iso.apply(p)) - p) <= 1e-10


def with_block(x, i, value):
    """x with every entry of block i replaced by ``value``; built with the
    unvalidated constructor, as overflow inside the library would."""
    blocks = list(x.blocks)
    blocks[i] = np.full_like(blocks[i], value)
    return Element(x.algebra, tuple(blocks))


class TestNonFiniteInputs:
    @pytest.mark.parametrize("factor", FACTOR_KINDS, ids=str)
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_factor_iso_rejects(self, factor, value, rng):
        iso = random_factor_iso(factor, rng)
        x = with_block(unit(single_factor(factor)), 0, value)
        with pytest.raises(DomainError):
            iso.apply(x)
        with pytest.raises(DomainError):
            iso.inverse_apply(x)

    def test_factor_iso_rejects_overflowed_quad_rep(self, rng):
        f = HermFactor(2)
        y = element_in_factor(f, np.diag([1e200, 1.0]))
        iso = random_factor_iso(f, rng)
        with np.errstate(over="ignore", invalid="ignore"):
            x = quad_rep(y, y)
        with pytest.raises(DomainError):
            iso.apply(x)

    @pytest.mark.parametrize("block", [0, 1, 2], ids=["disengaged", "herm", "spin"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_composite_iso_rejects_both_directions(self, block, value, rng):
        iso = random_composite_iso(MIXED, MIXED, rng)
        x = with_block(0.5 * unit(MIXED), block, value)
        with pytest.raises(DomainError):
            iso.apply(x)
        with pytest.raises(DomainError):
            iso.inverse_apply(x)

    def test_nan_z_rejected(self):
        f = SpinFactor(3)
        z = with_block(unit(single_factor(f)), 0, np.nan)
        with pytest.raises(DomainError):
            FactorOrderIso(0.0, z, identity_jordan(f))


class TestEigensolveBudget:
    def test_composite_round_trip(self, rng, eigensolve_counter):
        # three engaged Hermitian factors with n >= 2; lines and spin
        # factors need no LAPACK eigensolve
        alg = algebra(
            HermFactor(1),
            HermFactor(6),
            HermFactor(3, Ring.COMPLEX),
            HermFactor(2, Ring.QUATERNION),
            SpinFactor(4),
        )
        iso = random_composite_iso(alg, alg, rng)
        x = sample_element(alg, rng, "effect")
        eigensolve_counter.clear()
        back = iso.inverse_apply(iso.apply(x))
        assert sup_norm(back - x) <= 1e-8
        # membership of each engaged Hermitian block is one Cholesky per direction,
        # and its pencil one solve; the spin pencil is solved in closed form
        assert eigensolve_counter.eigensolves == 0
        assert eigensolve_counter["cholesky"] == 2 * 3
        assert eigensolve_counter["solve"] == 2 * 3
        assert eigensolve_counter["qr"] == 0

    @pytest.mark.parametrize("factor", FACTOR_KINDS, ids=str)
    def test_factor_round_trip(self, factor, rng, eigensolve_counter):
        iso = random_factor_iso(factor, rng)
        x = sample_element(iso.algebra, rng, "effect")
        # spin and 1 x 1 blocks are checked in closed form
        matrix_block = isinstance(factor, HermFactor) and factor.n > 1
        for run in (iso.apply, iso.inverse_apply):
            eigensolve_counter.clear()
            x = run(x)
            assert eigensolve_counter.eigensolves == 0
            assert eigensolve_counter["cholesky"] == int(matrix_block)
            # the precomputed pencil: one solve per matrix block per direction;
            # a spin factor's 2x2 pencil is solved in closed form, and its
            # herm(2,R) frame takes no QR
            assert eigensolve_counter["solve"] == int(isinstance(factor, HermFactor))
            assert eigensolve_counter["qr"] == 0

    def test_quaternion_round_trip_converts_nothing(self, rng, monkeypatch):
        # blocks over H are stored as their embedding, which the effect check and
        # the pencil read as they are: no quaternion function runs in a round trip
        iso = random_factor_iso(HermFactor(2, Ring.QUATERNION), rng)
        x = sample_element(iso.algebra, rng, "effect")
        calls = []
        for name in ("to_complex", "from_complex", "qmul"):
            fn = getattr(quat, name)
            monkeypatch.setattr(quat, name, lambda *a, _fn=fn: calls.append(a) or _fn(*a))
        back = iso.inverse_apply(iso.apply(x))
        assert sup_norm(back - x) <= 1e-8
        assert len(calls) == 0

    def test_factor_iso_construction(self, rng, eigensolve_counter):
        factor = HermFactor(6)
        z = sample_element(single_factor(factor), rng, "interior")
        jord = random_jordan_iso(factor, rng)
        eigensolve_counter.clear()
        FactorOrderIso(-0.5, z, jord)
        assert eigensolve_counter.eigensolves == 1


# a composite with a large block (herm(96,R): stored order 96), and one with a
# quaternion block at the threshold (herm(32,H): stored order 64) beside a small
# matrix block, whose halves go to the pool too, and spin and rank-one factors,
# which stay inline
POOLED_ALGEBRAS = [
    algebra(HermFactor(96), HermFactor(48, Ring.COMPLEX)),
    algebra(HermFactor(32, Ring.QUATERNION), HermFactor(3, Ring.COMPLEX), SpinFactor(4), HermFactor(1)),
]


def no_pool(monkeypatch):
    """Run the maps inline, as on one CPU."""
    monkeypatch.setattr(isomorphisms, "_thread_pool", lambda: None)


def refusal(run, x) -> str:
    with pytest.raises(DomainError) as info:
        run(x)
    return str(info.value)


def spy_public_functions(monkeypatch, record):
    """Wrap every public function and public method of the effectorder modules,
    also where another module imported it by name, so that each call records the
    identity of the thread it runs on.  A private module's functions, such as
    ``_lapack``'s, which the pool's halves call, are not public."""
    modules = [
        m for name, m in sys.modules.items()
        if name.startswith("effectorder") and not name.rpartition(".")[2].startswith("_")
    ]
    wrapped = {}

    def spy(fn):
        def call(*args, **kwargs):
            record.add(threading.get_ident())
            return fn(*args, **kwargs)

        return call

    for module in modules:
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[id(obj)] = spy(obj)
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for attr, val in list(vars(obj).items()):
                    if inspect.isfunction(val) and not attr.startswith("_"):
                        monkeypatch.setattr(obj, attr, spy(val))
    for module in modules:
        for name, obj in list(vars(module).items()):
            if id(obj) in wrapped:
                monkeypatch.setattr(module, name, wrapped[id(obj)])


def singular_outside(n):
    """A map on herm(n,R) and an input outside [0, e] whose forward pencil is
    exactly singular: with u = e and z = 0.8 e the pencil matrices are a, b and c
    times e, and the input's first eigenvalue m solves a + m b = 0 in floats."""
    f = HermFactor(n)
    iso = FactorOrderIso(0.5, element_in_factor(f, 0.8 * np.eye(n)), identity_jordan(f))
    (A, B, C), _, _ = iso._directions[True]
    a, b = A[0, 0], B[0, 0]
    m = next(v for v in (-a / b, np.nextafter(-a / b, 0.0), np.nextafter(-a / b, -1.0)) if a + v * b == 0.0)
    x = element_in_factor(f, np.diag([m] + [0.5] * (n - 1)))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(A + x._block(0) @ B, x._block(0) @ C)
    return iso, x


class TestPooledBlocks:
    """A map with a large matrix block runs its blocks' effect tests and pencil
    solves on the module's thread pool; its outputs and refusals are those of the
    inline loop."""

    @pytest.mark.parametrize("alg", POOLED_ALGEBRAS, ids=str)
    def test_composite_equals_inline_bit_for_bit(self, alg, rng, pool, monkeypatch):
        iso = random_composite_iso(alg, alg, rng)
        assert iso._pooled
        x = sample_element(alg, rng, "effect")
        y = iso.apply(x)
        back = iso.inverse_apply(y)
        no_pool(monkeypatch)
        y_inline = iso.apply(x)
        back_inline = iso.inverse_apply(y_inline)
        for got, want in ((y, y_inline), (back, back_inline)):
            assert all(np.array_equal(a, b) for a, b in zip(got._groups, want._groups))
        assert sup_norm(back - x) <= 1e-8

    @pytest.mark.parametrize("factor", [HermFactor(64, Ring.COMPLEX), HermFactor(32, Ring.QUATERNION)], ids=str)
    def test_factor_map_equals_inline_bit_for_bit(self, factor, rng, pool, monkeypatch):
        iso = random_factor_iso(factor, rng)
        assert iso._large
        x = sample_element(iso.algebra, rng, "effect")
        pooled = [iso.apply(x)._block(0), iso.inverse_apply(x)._block(0)]
        no_pool(monkeypatch)
        assert np.array_equal(pooled[0], iso.apply(x)._block(0))
        assert np.array_equal(pooled[1], iso.inverse_apply(x)._block(0))

    @pytest.mark.parametrize(
        "factor, large",
        [
            (HermFactor(64), False),
            (HermFactor(88), False),
            (HermFactor(89), True),
            (HermFactor(96), True),
            (HermFactor(55, Ring.COMPLEX), False),
            (HermFactor(56, Ring.COMPLEX), True),
            (HermFactor(64, Ring.COMPLEX), True),
            (HermFactor(27, Ring.QUATERNION), False),
            (HermFactor(28, Ring.QUATERNION), True),
            (HermFactor(32, Ring.QUATERNION), True),
            (SpinFactor(200), False),
        ],
        ids=str,
    )
    def test_large_is_decided_by_the_pencil_cost(self, factor, large):
        # the cost is the stored order cubed, 4x over C and H: herm(n,R) is large
        # from n = 89, herm(n,C) from 56 and herm(n,H), stored as 2n, from 28;
        # a spin pencil, 2x2 in floats, never is
        iso = FactorOrderIso(0.5, 0.8 * unit(single_factor(factor)), identity_jordan(factor))
        assert iso._large is large

    def test_a_real_block_of_order_64_runs_inline(self, rng, monkeypatch):
        iso = random_factor_iso(HermFactor(64), rng)
        monkeypatch.setattr(isomorphisms, "_thread_pool", lambda: pytest.fail("pool asked for"))
        x = sample_element(iso.algebra, rng, "effect")
        assert sup_norm(iso.inverse_apply(iso.apply(x)) - x) <= 1e-8

    def test_the_large_factor_workload_stays_pooled(self, rng):
        alg = algebra(HermFactor(96), HermFactor(48, Ring.COMPLEX))
        assert random_composite_iso(alg, alg, rng)._pooled

    def test_the_costliest_pencil_stays_on_the_calling_thread(self, rng, pool, monkeypatch):
        # herm(64,R) has the larger stored order, herm(60,C) the costlier pencil
        alg = algebra(HermFactor(64), HermFactor(60, Ring.COMPLEX))
        iso = random_composite_iso(alg, alg, rng)
        submitted = []
        submit = pool.submit
        monkeypatch.setattr(pool, "submit", lambda fn, *a: submitted.append((fn, a)) or submit(fn, *a))
        iso.apply(sample_element(alg, rng, "effect"))
        # a kind's solve takes (direction, stored block)
        solves = [(type(fn.__self__), a[1].shape) for fn, a in submitted if fn.__name__ == "solve"]
        assert solves == [(_Real, (64, 64))]

    def test_small_blocks_make_no_pool(self, rng, monkeypatch):
        # each matrix block just below the pencil cost of a large block
        alg = algebra(
            HermFactor(88), HermFactor(55, Ring.COMPLEX), HermFactor(27, Ring.QUATERNION), SpinFactor(100), HermFactor(1)
        )
        iso = random_composite_iso(alg, alg, rng)
        assert not iso._pooled
        monkeypatch.setattr(isomorphisms, "_thread_pool", lambda: pytest.fail("pool asked for"))
        x = sample_element(alg, rng, "effect")
        assert sup_norm(iso.inverse_apply(iso.apply(x)) - x) <= 1e-8

    def test_first_refusal_in_pair_order(self, rng, pool, monkeypatch):
        alg = POOLED_ALGEBRAS[0]
        iso = random_composite_iso(alg, alg, rng)
        # both blocks leave [0, e], each with its own spectrum: the one test of
        # the argument refuses it, before any pencil, naming its whole spectrum
        x = sample_element(alg, rng, "effect") - 0.6 * unit(alg)
        pooled = [refusal(iso.apply, x), refusal(iso.inverse_apply, x)]
        no_pool(monkeypatch)
        assert pooled == [refusal(iso.apply, x), refusal(iso.inverse_apply, x)]
        assert pooled[0] == refusal(lambda x: mobius_apply(0.5, x), x)
        assert pooled[0].startswith("argument is outside [0, e]")

    def test_refusal_wins_over_a_singular_pencil(self, pool, monkeypatch):
        iso, x = singular_outside(96)
        assert iso._large
        comp = CompositeOrderIso(iso.algebra, iso.algebra, (), (), ((0, 0),), (iso,))
        pooled = [refusal(iso.apply, x), refusal(comp.apply, x)]
        assert all(text.startswith("argument is outside [0, e]") for text in pooled)
        no_pool(monkeypatch)
        assert pooled == [refusal(iso.apply, x), refusal(comp.apply, x)]

    def test_no_task_runs_after_the_call(self, rng, pool, monkeypatch):
        alg = POOLED_ALGEBRAS[0]
        iso = random_composite_iso(alg, alg, rng)
        futures = []
        submit = pool.submit
        monkeypatch.setattr(pool, "submit", lambda *a: futures.append(submit(*a)) or futures[-1])
        x = sample_element(alg, rng, "effect")
        iso.inverse_apply(iso.apply(x))
        # per direction the effect test and herm(48,C)'s pencil; herm(96,R)'s runs here
        assert len(futures) == 2 * 2 and all(f.done() for f in futures)
        futures.clear()
        refusal(iso.apply, x - 0.6 * unit(alg))
        assert futures and all(f.done() for f in futures)

    def test_pool_runs_no_public_function(self, rng, pool, monkeypatch):
        alg = POOLED_ALGEBRAS[1]
        iso = random_composite_iso(alg, alg, rng)
        x = sample_element(alg, rng, "effect")
        public, main, started = set(), threading.get_ident(), threading.Event()
        # the kept pencil is herm(32,H)'s, whose kind hermitizes its output
        within, hermitize = _Real.within, _Quaternion.hermitize

        def spied_within(*args):
            if threading.get_ident() != main:
                started.set()
            return within(*args)

        def held_hermitize(*args):
            # this thread's pencil ends once the pool has started an effect test,
            # so that the walk cannot take every half back
            if threading.get_ident() == main:
                started.wait(10.0)
            return hermitize(*args)

        monkeypatch.setattr(_Real, "within", spied_within)
        monkeypatch.setattr(_Quaternion, "hermitize", held_hermitize)
        spy_public_functions(monkeypatch, public)
        iso.inverse_apply(iso.apply(x))
        assert started.is_set()
        assert public == {main}

    def test_pool_size(self, monkeypatch):
        monkeypatch.setattr(isomorphisms, "_pool", None)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert isomorphisms._thread_pool()._max_workers == 2
        isomorphisms._pool.shutdown()
        monkeypatch.setattr(isomorphisms, "_pool", None)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert isomorphisms._thread_pool() is None

    def test_concurrent_callers_share_one_pool(self, rng, monkeypatch):
        alg = POOLED_ALGEBRAS[1]
        iso = random_composite_iso(alg, alg, rng)
        xs = [sample_element(alg, rng, "effect") for _ in range(4)]
        with monkeypatch.context() as m:
            no_pool(m)
            want = [iso.inverse_apply(iso.apply(x)) for x in xs]
        made = []

        class Counted(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
        monkeypatch.setattr(isomorphisms, "_pool", None)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        got, barrier = {}, threading.Barrier(len(xs), timeout=60.0)

        def caller(i):
            barrier.wait()  # all callers ask for the pool at once
            for _ in range(5):
                got[i] = iso.inverse_apply(iso.apply(xs[i]))

        # more callers than cores, switching threads as often as the interpreter can
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(xs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
            for pool in made:
                pool.shutdown()
        assert not any(t.is_alive() for t in threads)
        assert len(made) == 1 and made[0]._max_workers == 1
        for i, x in enumerate(want):
            assert all(np.array_equal(a, b) for a, b in zip(got[i]._groups, x._groups))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_runs_a_pooled_round_trip(self, rng):
        if isomorphisms._thread_pool() is None:
            pytest.skip("one CPU: there is no pool to fork")
        alg = POOLED_ALGEBRAS[0]
        iso = random_composite_iso(alg, alg, rng)
        x = sample_element(alg, rng, "effect")
        want = iso.inverse_apply(iso.apply(x))  # the pool has run before the fork
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                back = iso.inverse_apply(iso.apply(x))
                code = 0 if all(np.array_equal(a, b) for a, b in zip(back._groups, want._groups)) else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30.0
        while not (waited := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung on a pooled round trip")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(waited[1]) == 0
