import numpy as np
import pytest

from effectorder import (
    FactorJordanIso,
    FactorOrderIso,
    HermFactor,
    RecoveryError,
    Ring,
    SpinFactor,
    apply_function,
    compose_factor_isos,
    interior_iso_apply,
    mobius_apply,
    random_factor_iso,
    recover_factor_iso,
    sample_element,
    single_factor,
    sup_norm,
    unit,
)

RECOVERY_KINDS = [
    HermFactor(2, Ring.REAL),
    HermFactor(4, Ring.REAL),
    HermFactor(3, Ring.COMPLEX),
    HermFactor(2, Ring.QUATERNION),
    HermFactor(3, Ring.QUATERNION),
    SpinFactor(5),
]


def reproduction_error(got, reference, alg, rng, samples=20):
    worst = 0.0
    for _ in range(samples):
        x = sample_element(alg, rng, "invertible_effect")
        worst = max(worst, sup_norm(got(x) - reference(x)))
    return worst


class TestRecoverFactorIso:
    def test_identity_map(self):
        alg = single_factor(HermFactor(2))
        rec = recover_factor_iso(lambda x: x, alg, alg)
        assert sup_norm(rec.apply(0.3 * unit(alg)) - 0.3 * unit(alg)) <= 1e-10
        # the probed linear map is the identity, so y = e and J = id
        assert sup_norm(rec.z - rec.z) == 0.0
        assert np.abs(rec.jordan.u - np.eye(2)).max() <= 1e-8

    def test_doubled_unit_interior_map(self, rng):
        f = HermFactor(2)
        alg = single_factor(f)
        y = 2.0 * unit(alg)
        g = lambda x: interior_iso_apply(y, x)  # noqa: E731
        rec = recover_factor_iso(g, alg, alg)
        # L e = U_{2e} e = 4 e, so the recovered interior parameter is 2e
        assert rec.t == 1.0 - (1.0 + 4.0)
        assert reproduction_error(rec.apply, g, alg, rng) <= 1e-10

    @pytest.mark.parametrize("factor", RECOVERY_KINDS, ids=str)
    def test_random_parameters_reproduced(self, factor, rng):
        alg = single_factor(factor)
        for trial in range(4):
            iso = random_factor_iso(factor, rng)
            rec = recover_factor_iso(iso.apply, alg, alg, seed=trial)
            assert reproduction_error(rec.apply, iso.apply, alg, rng) <= 1e-6

    def test_conjugate_linear_complex_case(self, rng):
        f = HermFactor(3, Ring.COMPLEX)
        alg = single_factor(f)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        iso = FactorOrderIso(
            -0.7,
            apply_function(sample_element(alg, rng, "general"), lambda v: min(max(v, 0.4), 1.5)),
            FactorJordanIso(f, u=q, conjugate=True),
        )
        rec = recover_factor_iso(iso.apply, alg, alg)
        assert rec.jordan.conjugate
        assert reproduction_error(rec.apply, iso.apply, alg, rng) <= 1e-8

    def test_composite_of_two_maps_recovers_canonical_form(self, rng):
        f = HermFactor(2)
        alg = single_factor(f)
        a = random_factor_iso(f, rng)
        b = random_factor_iso(f, rng)
        fwd, _ = compose_factor_isos(a, b)
        rec = recover_factor_iso(fwd, alg, alg)
        assert reproduction_error(rec.apply, fwd, alg, rng) <= 1e-7

    def test_rejects_nonlinear_map(self):
        alg = single_factor(HermFactor(2))
        squeeze = lambda x: mobius_apply(-1.0, apply_function(x, lambda v: v * v))  # noqa: E731
        with pytest.raises(RecoveryError):
            recover_factor_iso(squeeze, alg, alg)

    def test_rejects_invertibility_breaking_map(self):
        # a map sending invertible effects to singular ones is not of the form
        alg = single_factor(HermFactor(2))
        crush = lambda x: apply_function(x, lambda v: max(v - 0.5, 0.0))  # noqa: E731
        with pytest.raises(RecoveryError):
            recover_factor_iso(crush, alg, alg)

    def test_rejects_multi_factor_algebra(self):
        from effectorder import algebra

        alg = algebra(HermFactor(2), HermFactor(2))
        with pytest.raises(Exception):
            recover_factor_iso(lambda x: x, alg, alg)
