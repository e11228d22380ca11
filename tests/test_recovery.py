import dataclasses
from collections import Counter

import numpy as np
import pytest

from effectorder import (
    DomainError,
    FactorJordanIso,
    FactorOrderIso,
    HermFactor,
    RecoveryError,
    Ring,
    SpinFactor,
    apply_function,
    canonical_trace,
    cone_interval_map,
    element_in_factor,
    identity_jordan,
    interior_iso_apply,
    invert_element,
    max_eigenvalue,
    mobius_apply,
    random_factor_iso,
    recover_factor_iso,
    sample_element,
    single_factor,
    sup_norm,
    unit,
)
from effectorder import isomorphisms
from effectorder.algebra import Element, _identity
from effectorder.isomorphisms import RECOVERY_TOL
from effectorder.order import ORDER_TOL, _order_tol
from effectorder.spectral import _singular_tol, extreme_eigenvalues

RECOVERY_KINDS = [
    HermFactor(2, Ring.REAL),
    HermFactor(4, Ring.REAL),
    HermFactor(3, Ring.COMPLEX),
    HermFactor(2, Ring.QUATERNION),
    HermFactor(3, Ring.QUATERNION),
    SpinFactor(5),
]

# herm(1,.) has no extraction probes: the plan's edge case
BUDGET_KINDS = RECOVERY_KINDS + [HermFactor(1, Ring.REAL), HermFactor(1, Ring.COMPLEX)]

NOISY_KINDS = [
    HermFactor(3), HermFactor(3, Ring.COMPLEX), HermFactor(2, Ring.QUATERNION), SpinFactor(4)
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

    @pytest.mark.parametrize(
        "factor", [HermFactor(2, Ring.QUATERNION), HermFactor(3, Ring.QUATERNION)], ids=str
    )
    def test_quaternion_twist_in_normal_form(self, factor):
        # u and -u give the same map; the recovered u is the one whose real
        # component of largest modulus (first in C order) is positive
        alg = single_factor(factor)
        for seed in range(10):
            iso = random_factor_iso(factor, np.random.default_rng(seed))
            u = recover_factor_iso(iso.apply, alg, alg, seed=seed).jordan.u
            assert u.flat[np.argmax(np.abs(u))] > 0.0
            src = iso.jordan.u
            assert min(np.abs(u - src).max(), np.abs(u + src).max()) <= 1e-8

    def test_composite_of_two_maps_recovers_canonical_form(self, rng):
        f = HermFactor(2)
        alg = single_factor(f)
        a = random_factor_iso(f, rng)
        b = random_factor_iso(f, rng)
        ab = a.compose(b)
        rec = recover_factor_iso(lambda x: a.apply(b.apply(x)), alg, alg)
        assert reproduction_error(rec.apply, ab.apply, alg, rng) <= 1e-7

    @pytest.mark.parametrize("factor", RECOVERY_KINDS, ids=str)
    def test_rejects_nonlinear_map(self, factor):
        alg = single_factor(factor)
        squeeze = lambda x: mobius_apply(-1.0, apply_function(x, lambda v: v * v))  # noqa: E731
        with pytest.raises(RecoveryError):
            recover_factor_iso(squeeze, alg, alg)

    def test_rejects_invertibility_breaking_map(self):
        # a map sending invertible effects to singular ones is not of the form
        alg = single_factor(HermFactor(2))
        crush = lambda x: apply_function(x, lambda v: max(v - 0.5, 0.0))  # noqa: E731
        with pytest.raises(RecoveryError):
            recover_factor_iso(crush, alg, alg)

    @pytest.mark.parametrize("factor", RECOVERY_KINDS, ids=str)
    def test_rejects_affine_cone_map(self, factor):
        # 2x leaves [0, e], but not on the probes, which lie in [0, e/2];
        # there its cone map x/2 - e/2 is affine, not linear
        alg = single_factor(factor)
        with pytest.raises(RecoveryError):
            recover_factor_iso(lambda x: 2.0 * x, alg, alg)

    def test_rejects_nearly_singular_images(self):
        alg = single_factor(HermFactor(2))
        floor = lambda x: apply_function(x, lambda v: max(v - 0.5, 1e-12))  # noqa: E731
        with pytest.raises(RecoveryError):
            recover_factor_iso(floor, alg, alg)

    @pytest.mark.parametrize(
        "factor, seed",
        [(HermFactor(3), 0), (HermFactor(2, Ring.QUATERNION), 0), (SpinFactor(3), 0),
         (HermFactor(12, Ring.COMPLEX), 2), (HermFactor(24), 3), (HermFactor(24, Ring.COMPLEX), 1),
         (HermFactor(24, Ring.COMPLEX), 2), (HermFactor(28, Ring.QUATERNION), 0)]
        + [(HermFactor(n, Ring.QUATERNION), seed) for n, seeds in ((3, (1, 5, 8)), (12, (1, 3, 5)), (28, (2,)))
           for seed in seeds],
        ids=str,
    )
    def test_a_map_near_the_top_of_the_family_is_recovered(self, factor, seed):
        # at t = 1 - 1e-8, y^2 = (1 - t) z^2 (e + z^2)^(-1) is about 1e-8: clustered at an
        # absolute 1e-8, its distinct eigenvalues merged, and the reader refused the images.
        # J's images there carry an error of a few 1e-7 per entry, so a reading of u whose
        # error grows with n (the eigenvectors of J(diag(1, ..., n)), say) refuses the large
        # maps, which the rank-one probes read to within the agreement check. The herm(n,H)
        # maps after the first were refused as "inner twist is not a rotation" while the
        # twist's null vector was gated at an absolute 1e-6: its singular value is noise
        # of 1.0e-6 to 1.2e-6 on them at n = 3 and 12, 4.5e-6 at n = 28
        alg = single_factor(factor)
        b = random_factor_iso(factor, np.random.default_rng(seed))
        iso = FactorOrderIso(1.0 - 1e-8, b.z, b.jordan)
        rec = recover_factor_iso(iso.apply, alg, alg, seed=seed)
        assert reproduction_error(rec.apply, iso.apply, alg, np.random.default_rng(3)) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 12, 28])
    @pytest.mark.parametrize("t", [0.3, 1.0 - 1e-8])
    def test_a_quaternion_map_after_the_entrywise_conjugate_is_refused(self, n, t):
        # x -> conj(x) entrywise is no inner Jordan automorphism of herm(n,H), so a map
        # composed with it is refused however loose the twist gate: it passes that gate
        # at n = 2 and 3 and the agreement check refuses it, and from n = 6 an
        # agreement probe's image leaves the invertible part before the twist is read
        factor = HermFactor(n, Ring.QUATERNION)
        alg, kind = single_factor(factor), factor._kind

        def conjugated(x):
            a = kind.ring_array(x._block(0)) * np.array([1.0, -1.0, -1.0, -1.0])
            return Element(alg, [a])

        for seed in range(3):
            b = random_factor_iso(factor, np.random.default_rng(seed))
            iso = FactorOrderIso(t, b.z, b.jordan)
            with pytest.raises(RecoveryError):
                recover_factor_iso(lambda x: iso.apply(conjugated(x)), alg, alg)

    @pytest.mark.parametrize(
        "factor, conjugate",
        [(HermFactor(48, Ring.COMPLEX), False), (HermFactor(48, Ring.COMPLEX), True),
         (HermFactor(96), False)],
        ids=str,
    )
    def test_a_large_factor_is_recovered(self, factor, conjugate):
        # the recovered map agrees with its source on held-out effects, and its canonical
        # (t, z, u, flag) with the source's inverse, inverted: both read by _from_cone
        alg = single_factor(factor)
        b = random_factor_iso(factor, np.random.default_rng(5))
        iso = FactorOrderIso(b.t, b.z, FactorJordanIso(factor, b.jordan.u, conjugate))
        rec = recover_factor_iso(iso.apply, alg, alg, seed=5)
        assert reproduction_error(rec.apply, iso.apply, alg, np.random.default_rng(3), samples=3) <= 1e-10
        ref = iso.inverted().inverted()
        assert abs(rec.t - ref.t) <= 1e-8 and sup_norm(rec.z - ref.z) <= 1e-8
        assert np.abs(rec.jordan.u - ref.jordan.u).max() <= 1e-8
        assert rec.jordan.conjugate is ref.jordan.conjugate is conjugate

    @pytest.mark.parametrize("seed", [1.5, "3", True, None, -1], ids=repr)
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # numpy's own refusals (TypeError, or a ValueError for -1) did not name seed
        alg = single_factor(HermFactor(2))
        with pytest.raises(ValueError, match="^seed must be (an|a non-negative) integer"):
            recover_factor_iso(lambda x: x, alg, alg, seed=seed)

    def test_a_numpy_seed_draws_what_its_int_draws(self):
        factor = HermFactor(2, Ring.COMPLEX)
        alg, iso = single_factor(factor), random_factor_iso(factor, np.random.default_rng(2))
        probes = []
        for seed in (3, np.int64(3)):
            probes.append([])
            recover_factor_iso(lambda x: probes[-1].append(x) or iso.apply(x), alg, alg, seed=seed)
        assert all(sup_norm(a - b) == 0.0 for a, b in zip(*probes))

    def test_rejects_multi_factor_algebra(self):
        from effectorder import algebra

        alg = algebra(HermFactor(2), HermFactor(2))
        with pytest.raises(DomainError, match="single factors"):
            recover_factor_iso(lambda x: x, alg, alg)

    @pytest.mark.parametrize("eps", [1e-10, 1e-9, 1e-8])
    @pytest.mark.parametrize("factor", NOISY_KINDS, ids=str)
    def test_noisy_probes_are_recovered(self, factor, eps):
        # probe noise well below RECOVERY_TOL leaves the extracted u further
        # than 1e-10 from an isometry; its polar factor is one, and the
        # recovered map agrees with the source on held-out effects
        alg = single_factor(factor)
        rng = np.random.default_rng(7)
        iso = random_factor_iso(factor, rng)
        noisy = lambda x: iso.apply(x) + eps * sample_element(alg, rng, "general")  # noqa: E731
        rec = recover_factor_iso(noisy, alg, alg)
        assert reproduction_error(rec.apply, iso.apply, alg, rng) <= RECOVERY_TOL

    @pytest.mark.parametrize("factor", NOISY_KINDS, ids=str)
    def test_noise_at_recovery_tol_raises(self, factor):
        alg = single_factor(factor)
        rng = np.random.default_rng(7)
        iso = random_factor_iso(factor, rng)
        noisy = lambda x: iso.apply(x) + 1e-6 * sample_element(alg, rng, "general")  # noqa: E731
        with pytest.raises(RecoveryError):
            recover_factor_iso(noisy, alg, alg)

    @pytest.mark.parametrize("factor", NOISY_KINDS, ids=str)
    def test_rejects_linear_non_jordan_map(self, factor):
        # the cone map x/2 + tr(x) e/(2n) is positive, unital and linear, but
        # no U_y J: the nearest isometry to its columns disagrees with it
        alg = single_factor(factor)
        e = unit(alg)

        def fhat(x):
            return 0.5 * x + (canonical_trace(x) / (2.0 * alg.rank)) * e

        def g(x):
            y = fhat(cone_interval_map(x, "interval_to_cone"))
            return cone_interval_map(y, "cone_to_interval")

        with pytest.raises(RecoveryError):
            recover_factor_iso(g, alg, alg)

    @pytest.mark.parametrize("factor", RECOVERY_KINDS, ids=str)
    def test_agreement_check_rejects_a_map_switched_after_extraction(self, factor, rng):
        # the unit and extraction probes see one order isomorphism and the 3
        # agreement probes another: only the agreement check can refuse it
        alg = single_factor(factor)
        first, second = random_factor_iso(factor, rng), random_factor_iso(factor, rng)
        probes = []

        def g(x):
            probes.append(x)
            return (first if len(probes) <= expected_probes(factor) - 3 else second).apply(x)

        with pytest.raises(RecoveryError, match="disagrees with the probes"):
            recover_factor_iso(g, alg, alg)

    @pytest.mark.parametrize("factor", [HermFactor(3, Ring.COMPLEX), SpinFactor(4)], ids=str)
    def test_names_the_probe_whose_image_left_the_interval(self, factor, rng):
        # every image is tested after the last probe; the error names the first bad one
        alg = single_factor(factor)
        iso = random_factor_iso(factor, rng)
        probes = []

        def g(x):
            probes.append(x)
            return 2.0 * unit(alg) if len(probes) == expected_probes(factor) - 1 else iso.apply(x)

        with pytest.raises(
            RecoveryError, match=r"^agreement probe 2 left the invertible part: .*outside \[0, e\]"
        ):
            recover_factor_iso(g, alg, alg)
        assert len(probes) == expected_probes(factor)


class TestStackedImageTest:
    """Every probe image is tested in one call, on the stack as an element of the
    m-fold sum, at bounds no looser than any image's own; the per-image pass of
    cone_interval_map decides whatever that test refuses."""

    @pytest.mark.parametrize("factor", BUDGET_KINDS, ids=str)
    def test_never_looser_than_any_images_own_bounds(self, factor, rng, monkeypatch):
        alg, calls = single_factor(factor), []
        within = isomorphisms.spectrum_within
        monkeypatch.setattr(
            isomorphisms, "spectrum_within", lambda x, lo, hi: calls.append((x, lo, hi)) or within(x, lo, hi)
        )
        recover_factor_iso(random_factor_iso(factor, rng).apply, alg, alg)
        [(stack, lo, hi)] = calls
        assert stack.algebra.factors == (factor,) * expected_probes(factor)
        for b in stack._groups[0]:
            own = factor._kind.sup(b)
            assert lo >= _singular_tol(own) and hi <= 1.0 + _order_tol(own)

    def test_an_image_inside_its_own_bound_is_recovered_image_by_image(self, monkeypatch):
        # spin(3), t = 0, z = 0.8 e and J = e, so y^2 = q e with q = 0.64 / 1.64.  Extraction
        # probe 1, x = (1, e_1), goes in as x + e = (2, e_1) and is answered as if J scaled
        # u's first column by 1 + d, which the polar factor undoes: fhat(x + e) =
        # q (2, (1 + d) e_1), whose least eigenvalue is q (1 - d) = -eps, so the image's
        # greatest is 1 / (1 - eps), above 1 + ORDER_TOL but within the image's own bound
        factor, (t, s, eps) = SpinFactor(3), (0.0, 0.8, 1.3e-8)
        alg = single_factor(factor)
        iso = FactorOrderIso(t, s * unit(alg), identity_jordan(factor))
        q = (1.0 - t) * s * s / (1.0 + s * s)
        d = 1.0 + eps / q
        image = invert_element(element_in_factor(factor, np.array([1.0 + 2.0 * q, q * (1.0 + d), 0.0, 0.0])))
        top, own = max_eigenvalue(image), _order_tol(sup_norm(image))
        assert 1.0 + ORDER_TOL < top < 1.0 + own
        clean, probes, passes, tests = recover_factor_iso(iso.apply, alg, alg), [], [], []

        def g(x):
            probes.append(x)
            return image if len(probes) == 2 else iso.apply(x)

        per_image, within = isomorphisms.cone_interval_map, isomorphisms.spectrum_within
        monkeypatch.setattr(
            isomorphisms, "cone_interval_map", lambda *args: passes.append(args) or per_image(*args)
        )
        monkeypatch.setattr(isomorphisms, "spectrum_within", lambda *args: tests.append(within(*args)) or tests[-1])
        rec = recover_factor_iso(g, alg, alg)
        assert tests[0] is False  # the stacked test refused, so the per-image pass decided
        assert len(passes) == len(probes) == expected_probes(factor)
        # the canonical (t, z, J) of the clean probes
        assert abs(rec.t - clean.t) <= 1e-8 and sup_norm(rec.z - clean.z) <= 1e-8
        assert np.max(np.abs(rec.jordan.u - clean.jordan.u)) <= 1e-8
        assert reproduction_error(rec.apply, iso.apply, alg, np.random.default_rng(3)) <= RECOVERY_TOL


def expected_probes(factor):
    """The unit once, one per column (over C one more for the conjugation,
    over H two more for the twist; none on herm(1,.)) or spin basis vector,
    and 3 in the agreement check, the only check of the black box."""
    if isinstance(factor, SpinFactor):
        return 4 + factor.d
    if factor.n == 1:
        return 4
    return 4 + factor.n + {Ring.REAL: 0, Ring.COMPLEX: 1, Ring.QUATERNION: 2}[factor.ring]


# LAPACK eigensolves per recovery of a random_factor_iso's apply, on every
# Hermitian kind: one decomposition of fhat(e) = y^2, which gives y^(-1) and z,
# and one of z at FactorOrderIso's construction; the probes decide membership
# by Cholesky and invert by LU, and L shifts every point by e alike
EIGENSOLVES = 2


class TestProbingBudget:
    @pytest.mark.parametrize("factor", BUDGET_KINDS, ids=str)
    def test_probes_per_recovery(self, factor, rng):
        alg = single_factor(factor)
        iso = random_factor_iso(factor, rng)
        probes = []

        def g(x):
            probes.append(x)
            return iso.apply(x)

        recover_factor_iso(g, alg, alg)
        assert len(probes) == expected_probes(factor)

    @pytest.mark.parametrize("factor", BUDGET_KINDS, ids=str)
    def test_every_probe_lies_in_half_the_interval(self, factor, rng):
        # why the probe inputs need no membership test: the unit probe is e/2, and every
        # other is (x + 2e)^(-1) for a cone element x, so it lies in (0, e/2]; the
        # agreement points a o a too
        alg = single_factor(factor)
        iso = random_factor_iso(factor, rng)
        probes = []

        def g(x):
            probes.append(x)
            return iso.apply(x)

        for seed in range(3):
            recover_factor_iso(g, alg, alg, seed=seed)
        assert len(probes) == 3 * expected_probes(factor)
        for x in probes:
            lo, hi = extreme_eigenvalues(x)
            assert lo > 0.0 and hi <= 0.5 + 1e-12

    @pytest.mark.parametrize("factor", BUDGET_KINDS, ids=str)
    def test_lapack_calls_outside_the_black_box(self, factor, rng, eigensolve_counter):
        # recovery's own part of all probes is stacked: one LU solve for the inputs,
        # one Cholesky test and one LU solve for the images, whatever n is; spin
        # factors run their closed forms
        alg = single_factor(factor)
        iso = random_factor_iso(factor, rng)
        inside = Counter()

        def g(x):
            before = Counter(eigensolve_counter)
            y = iso.apply(x)
            inside.update(Counter(eigensolve_counter) - before)
            return y

        eigensolve_counter.clear()
        recover_factor_iso(g, alg, alg)
        outside = Counter(eigensolve_counter) - inside
        matrix = isinstance(factor, HermFactor)
        assert outside["solve"] <= 2 * matrix and outside["cholesky"] <= matrix

    @pytest.mark.parametrize(
        "factor", [f for f in RECOVERY_KINDS if isinstance(f, HermFactor)], ids=str
    )
    def test_eigensolves_per_recovery(self, factor, rng, eigensolve_counter):
        alg = single_factor(factor)
        iso = random_factor_iso(factor, rng)
        eigensolve_counter.clear()
        recover_factor_iso(iso.apply, alg, alg)
        assert eigensolve_counter.eigensolves == EIGENSOLVES


class TestConstants:
    """What recovery reads of the factor alone is built once and read-only."""

    @pytest.mark.parametrize(
        "factor",
        BUDGET_KINDS + [HermFactor(3, Ring.COMPLEX), HermFactor(3, Ring.QUATERNION), SpinFactor(6)],
        ids=str,
    )
    def test_one_probe_stack_per_kind(self, factor):
        # what recovery, compose and inverted read J from: e, then cone elements
        probes = factor._kind.probes
        assert not probes.flags.writeable
        assert dataclasses.replace(factor)._kind.probes is probes  # an equal factor's
        assert np.array_equal(probes[0], factor._kind.identity())
        assert len(probes) == expected_probes(factor) - 3
        for b in probes:  # in the cone
            assert extreme_eigenvalues(element_in_factor(factor, factor._kind.ring_array(b)))[0] >= -1e-15

    def test_identity_is_kept_per_order(self):
        eye = _identity(3)
        assert _identity(3) is eye and not eye.flags.writeable
        assert eye.dtype == float and np.array_equal(eye, np.eye(3))

    @pytest.mark.parametrize("factor", BUDGET_KINDS, ids=str)
    def test_stacked_sups_equal_each_blocks_sup(self, factor, rng):
        alg = single_factor(factor)
        stack = np.stack([sample_element(alg, rng, "general")._block(0) for _ in range(4)])
        # the stack's sup, of which recovery's stacked test takes its singular
        # tolerance, is the largest block's; NaN when a block's is, as sup_norm's
        sup = factor._kind.sup(stack)
        assert sup == max(factor._kind.sup(b) for b in stack)
        stack[2] = np.nan
        assert np.isnan(factor._kind.sup(stack)) and np.isnan(factor._kind.sup(stack[2]))
