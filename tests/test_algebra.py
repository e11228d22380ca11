import math
import warnings

import numpy as np
import pytest

from effectorder import (
    SAMPLE_CLASSES,
    AlgebraDescriptor,
    Element,
    HermFactor,
    NonHermitianBlockError,
    Ring,
    ShapeMismatchError,
    SpinFactor,
    algebra,
    apply_function,
    canonical_trace,
    classify,
    dump_document,
    element_from_blocks,
    element_in_factor,
    invert_element,
    jordan_product,
    load_document,
    quad_rep,
    random_composite_iso,
    random_element,
    random_factor_iso,
    random_jordan_iso,
    sample_element,
    single_factor,
    sup_norm,
    triple_product,
    unit,
)
from effectorder import quaternion as quat
from effectorder.serialization import NON_HERMITIAN, SchemaError

from conftest import FACTOR_KINDS, MIXED, assert_embedding_form
import qhelpers as qh


def herm2(rows):
    return element_in_factor(HermFactor(2), np.array(rows, dtype=float))


def spin(alpha, v):
    return element_in_factor(SpinFactor(len(v)), np.array([alpha, *v], dtype=float))


class TestDescriptors:
    def test_invalid_factors_rejected(self):
        with pytest.raises(ValueError):
            HermFactor(0)
        with pytest.raises(ValueError):
            SpinFactor(1)
        with pytest.raises(ValueError):
            AlgebraDescriptor(())

    def test_integer_sizes_are_stored_as_plain_ints(self):
        # numpy integers equal and hash like ints, so the interned descriptor built
        # from them is the one a later algebra() of plain ints gets back
        first = algebra(HermFactor(np.int64(11)), SpinFactor(np.int32(5)))
        f, s = first.factors
        assert type(f.n) is int and type(s.d) is int and f.n == 11 and s.d == 5
        again = algebra(HermFactor(11), SpinFactor(5))
        assert again is first
        text = dump_document(again)
        assert load_document(text) is again and '"n": 11' in text and '"d": 5' in text

    @pytest.mark.parametrize("make", [HermFactor, SpinFactor], ids=["herm", "spin"])
    @pytest.mark.parametrize("size", [True, np.bool_(True), 2.5, 3.0, np.float64(3.0), "3", None])
    def test_sizes_that_are_not_integers_are_refused(self, make, size):
        # a bool would be written as true, which the loader refuses; a float
        # would fail later with an uncoded TypeError
        with pytest.raises(ValueError, match="must be an integer"):
            make(size)

    def test_rank_and_disengaged(self):
        alg = algebra(HermFactor(2), HermFactor(1), SpinFactor(5), HermFactor(1, Ring.COMPLEX))
        assert alg.rank == 2 + 1 + 2 + 1
        assert alg.disengaged_indices == (1, 3)
        assert alg.engaged_indices == (0, 2)


class TestUnit:
    def test_hermitian_identity(self):
        e = unit(single_factor(HermFactor(2)))
        np.testing.assert_array_equal(e.block(0), np.eye(2))

    def test_spin_identity(self):
        e = unit(single_factor(SpinFactor(3)))
        np.testing.assert_array_equal(e.block(0), [1.0, 0.0, 0.0, 0.0])

    def test_mixed_sum(self):
        e = unit(algebra(HermFactor(1), SpinFactor(2)))
        np.testing.assert_array_equal(e.block(0), [[1.0]])
        np.testing.assert_array_equal(e.block(1), [1.0, 0.0, 0.0])


class TestJordanProduct:
    def test_diagonal_case(self):
        x = herm2([[1, 0], [0, 2]])
        y = herm2([[3, 0], [0, 4]])
        np.testing.assert_allclose(jordan_product(x, y).block(0), np.diag([3.0, 8.0]))

    @pytest.mark.parametrize("factor", FACTOR_KINDS, ids=str)
    def test_unit_neutral(self, factor, rng):
        alg = single_factor(factor)
        x = sample_element(alg, rng, "general")
        assert sup_norm(jordan_product(x, unit(alg)) - x) <= 1e-12

    def test_spin_product_rule(self):
        # oracle: (a b + <v,w>, a w + b v) evaluated by hand
        x = spin(0.0, [1.0, 0.0])
        out = jordan_product(x, x)
        np.testing.assert_allclose(out.block(0), [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("factor", FACTOR_KINDS, ids=str)
    def test_commutative_bilinear(self, factor, rng):
        alg = single_factor(factor)
        for _ in range(20):
            x = sample_element(alg, rng, "general")
            y = sample_element(alg, rng, "general")
            w = sample_element(alg, rng, "general")
            scale = 1.0 + sup_norm(jordan_product(x, y))
            assert sup_norm(jordan_product(x, y) - jordan_product(y, x)) / scale <= 1e-12
            lhs = jordan_product(x + 2.0 * w, y)
            rhs = jordan_product(x, y) + 2.0 * jordan_product(w, y)
            assert sup_norm(lhs - rhs) / (1.0 + sup_norm(rhs)) <= 1e-12

    def test_shape_mismatch(self):
        x = herm2([[1, 0], [0, 1]])
        y = spin(1.0, [0.0, 0.0])
        with pytest.raises(ShapeMismatchError):
            jordan_product(x, y)


class TestTripleProduct:
    def test_unit_sandwich(self, rng):
        x = sample_element(MIXED, rng, "general")
        e = unit(MIXED)
        assert sup_norm(triple_product(e, x, e) - x) <= 1e-12

    @pytest.mark.parametrize("factor", FACTOR_KINDS, ids=str)
    def test_square_from_unit(self, factor, rng):
        alg = single_factor(factor)
        x = sample_element(alg, rng, "general")
        lhs = triple_product(x, unit(alg), x)
        assert sup_norm(lhs - jordan_product(x, x)) <= 1e-10 * (1 + sup_norm(lhs))

    def test_diagonal_arithmetic(self):
        x = herm2([[1, 0], [0, 2]])
        e = unit(x.algebra)
        np.testing.assert_allclose(triple_product(x, e, x).block(0), np.diag([1.0, 4.0]))

    def test_symmetric_in_outer_arguments(self, rng):
        x = sample_element(MIXED, rng, "general")
        y = sample_element(MIXED, rng, "general")
        z = sample_element(MIXED, rng, "general")
        assert sup_norm(triple_product(x, y, z) - triple_product(z, y, x)) <= 1e-10


class TestQuadRep:
    def test_identity_map(self, rng):
        y = sample_element(MIXED, rng, "general")
        assert sup_norm(quad_rep(unit(MIXED), y) - y) <= 1e-12

    def test_unit_gives_square(self, rng):
        x = sample_element(MIXED, rng, "general")
        assert sup_norm(quad_rep(x, unit(MIXED)) - jordan_product(x, x)) <= 1e-10

    def test_matrix_sandwich_by_hand(self):
        x = herm2([[0, 1], [1, 0]])
        y = herm2([[1, 0], [0, 0]])
        np.testing.assert_allclose(quad_rep(x, y).block(0), np.diag([0.0, 1.0]), atol=1e-14)

    @pytest.mark.parametrize("factor", FACTOR_KINDS, ids=str)
    def test_agrees_with_triple_product(self, factor, rng):
        alg = single_factor(factor)
        for _ in range(10):
            x = sample_element(alg, rng, "general")
            y = sample_element(alg, rng, "general")
            lhs = quad_rep(x, y)
            assert sup_norm(lhs - triple_product(x, y, x)) <= 1e-10 * (1 + sup_norm(lhs))

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_spin_closed_form_agrees_with_jordan_products(self, d, rng):
        # U_a b in closed form against 2 a o (a o b) - a^2 o b, also with entries near 1e3
        f = SpinFactor(d)
        for scale in (1.0, 1e3):
            for _ in range(20):
                a, b = (scale * rng.standard_normal(d + 1) for _ in range(2))
                jordan = f._kind.jordan
                ref = 2.0 * jordan(a, jordan(a, b)) - jordan(jordan(a, a), b)
                size = np.abs(a).max() ** 2 * np.abs(b).max()
                assert np.abs(f._kind.quad(a, b) - ref).max() <= 1e-13 * size

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_spin_closed_form_of_the_unit_is_the_square(self, d, rng):
        alg = single_factor(SpinFactor(d))
        for _ in range(10):
            a = sample_element(alg, rng, "general")
            square = jordan_product(a, a)
            assert sup_norm(quad_rep(a, unit(alg)) - square) <= 1e-15 * (1.0 + sup_norm(square))


class TestRandomElements:
    def test_deterministic_in_seed(self):
        for cls in ("general", "cone", "effect", "projection", "atom"):
            a = random_element(MIXED, 99, cls)
            b = random_element(MIXED, 99, cls)
            assert sup_norm(a - b) == 0.0

    def test_cone_class_is_positive(self):
        from effectorder import min_eigenvalue

        for seed in range(10):
            x = random_element(MIXED, seed, "cone")
            assert min_eigenvalue(x) >= -1e-12

    def test_atom_on_complex_factor(self):
        alg = single_factor(HermFactor(3, Ring.COMPLEX))
        p = random_element(alg, 5, "atom")
        assert sup_norm(jordan_product(p, p) - p) <= 1e-10
        assert abs(canonical_trace(p) - 1.0) <= 1e-9
        assert classify(p).is_atom

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            random_element(MIXED, 0, "bogus")


class TestElementValidation:
    def test_symmetrizes_noisy_input(self):
        b = np.array([[1.0, 0.5 + 1e-12], [0.5, 2.0]])
        x = element_from_blocks(single_factor(HermFactor(2)), [b])
        np.testing.assert_allclose(x.block(0), x.block(0).T)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            element_from_blocks(single_factor(HermFactor(2)), [np.array([[np.inf, 0], [0, 1]])])

    @pytest.mark.parametrize("ring", list(Ring), ids=lambda r: r.value)
    def test_rejects_gross_asymmetry_like_the_loader(self, ring):
        """Asymmetry 0.9 is rejected; 1e-9 noise is still symmetrized."""
        alg = single_factor(HermFactor(2, ring))
        base = sample_element(alg, np.random.default_rng(0), "general").block(0)
        bump = np.zeros(base.shape)
        bump[(0, 1) + (0,) * (base.ndim - 2)] = 1.0
        with pytest.raises(NonHermitianBlockError):
            element_from_blocks(alg, [base + 0.9 * bump])
        with pytest.raises(SchemaError) as err:
            load_document(dump_document(Element(alg, (base + 0.9 * bump,))))
        assert err.value.code == NON_HERMITIAN
        assert_exactly_hermitian(element_from_blocks(alg, [base + 1e-9 * bump]))

    # herm(1,R) has no entry off the diagonal, so no asymmetry
    @pytest.mark.parametrize("factor", [f for f in FACTOR_KINDS if isinstance(f, HermFactor) and f.n > 1], ids=str)
    @pytest.mark.parametrize("share, accepted", [(0.9, True), (1.1, False)])
    def test_asymmetry_bound_is_1e6_of_one_plus_the_block(self, factor, share, accepted, rng):
        """An asymmetry |b - b*| of 0.9x the bound 1e-6 (1 + |b|) passes, 1.1x fails."""
        alg = single_factor(factor)
        x = sample_element(alg, rng, "general")
        base = x.block(0)
        bump = np.zeros(base.shape)  # a real (0, 1) entry: |b - b*| is the entry's modulus
        bump[(0, 1) + (0,) * (base.ndim - 2)] = share * 1e-6 * (1.0 + sup_norm(x))
        if accepted:
            assert_exactly_hermitian(element_from_blocks(alg, [base + bump]))
        else:
            with pytest.raises(NonHermitianBlockError):
                element_from_blocks(alg, [base + bump])

    def test_rejects_wrong_block_count(self):
        with pytest.raises(ShapeMismatchError):
            element_from_blocks(MIXED, [np.eye(1)])

    def test_blocks_are_immutable(self):
        x = unit(MIXED)
        with pytest.raises(ValueError):
            x.block(0)[0, 0] = 5.0

    @pytest.mark.parametrize(
        "factor, block",
        [
            (HermFactor(2), np.array([[1.0, 1j], [-1j, 1.0]])),
            (HermFactor(2, Ring.QUATERNION), np.eye(2)[:, :, None] * [1.0, 0.0, 0.0, 1j]),
            (SpinFactor(3), np.array([1.0, 0.2j, 0.0, 0.0])),
        ],
        ids=["herm(2,R)", "herm(2,H)", "spin(3)"],
    )
    def test_real_ring_refuses_imaginary_part(self, factor, block):
        alg = single_factor(factor)
        with pytest.raises(ShapeMismatchError, match="imaginary"):
            element_from_blocks(alg, [block])
        # an all-real complex array is read as its real part, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = element_from_blocks(alg, [block.real.astype(complex)])
        assert x.block(0).dtype == float and np.array_equal(x.block(0), block.real)

    @pytest.mark.parametrize(
        "factor, block",
        [
            (HermFactor(2), np.array([[1, 1j], [-1j, 1]], dtype=object)),
            (HermFactor(2), [[1, "a"], [0, 1]]),
            (HermFactor(2, Ring.COMPLEX), [[1, "a"], [0, 1]]),
            (HermFactor(2, Ring.QUATERNION), np.full((2, 2, 4), "a")),
            (SpinFactor(3), [1.0, "a", 0.0, 0.0]),
            (HermFactor(2), [[1.0, 0.0], [0.0]]),
            (HermFactor(1), [[10**400]]),
        ],
        ids=["object_complex", "string", "string_complex_ring", "string_quaternion",
             "string_spin", "ragged", "huge_int"],
    )
    def test_unconvertible_entries_are_shape_mismatches(self, factor, block):
        # numpy's own TypeError, ValueError or OverflowError, coded and prefixed
        with pytest.raises(ShapeMismatchError, match="^block 0: "):
            element_from_blocks(single_factor(factor), [block])

    def test_does_not_alias_caller_arrays(self):
        b = np.array([1.0, 0.2, 0.3, 0.4])
        x = element_from_blocks(single_factor(SpinFactor(3)), [b])
        b[0] = 5.0
        assert x.block(0)[0] == 1.0


def _adjoint(factor, b):
    if isinstance(factor, SpinFactor):
        return b
    if factor.ring is Ring.QUATERNION:
        return qh.qadjoint(b)
    return b.conj().T


def assert_exactly_hermitian(x):
    __tracebackhide__ = True
    for f, b in zip(x.algebra.factors, x.blocks):
        assert np.array_equal(b, _adjoint(f, b)), f


class TestHermitianInvariant:
    """Every block the library produces is exactly Hermitian: the
    producers that can break symmetry restore it themselves."""

    @pytest.mark.parametrize("factor", FACTOR_KINDS, ids=str)
    def test_operations(self, factor, rng):
        alg = single_factor(factor)
        x, y, w = (sample_element(alg, rng, "general") for _ in range(3))
        effect = sample_element(alg, rng, "effect")
        iso = random_factor_iso(factor, rng)
        outputs = [
            jordan_product(x, y),
            quad_rep(x, y),
            triple_product(x, y, w),
            apply_function(x, np.tanh),
            invert_element(sample_element(alg, rng, "interior")),
            random_jordan_iso(factor, rng).apply(x),
            iso.apply(effect),
            iso.inverse_apply(effect),
        ]
        for out in outputs:
            assert_exactly_hermitian(out)

    @pytest.mark.parametrize("factor", FACTOR_KINDS, ids=str)
    def test_composite_both_directions(self, factor, rng):
        alg = algebra(HermFactor(1), factor, factor)
        iso = random_composite_iso(alg, alg, rng)
        x = sample_element(alg, rng, "effect")
        assert_exactly_hermitian(iso.apply(x))
        assert_exactly_hermitian(iso.inverse_apply(x))

    @pytest.mark.parametrize("factor", FACTOR_KINDS, ids=str)
    def test_samples(self, factor, rng):
        alg = algebra(factor, HermFactor(1))
        for cls in SAMPLE_CLASSES:
            assert_exactly_hermitian(sample_element(alg, rng, cls))

    @pytest.mark.parametrize("factor", FACTOR_KINDS, ids=str)
    def test_boundary_symmetrizes_small_asymmetry(self, factor, rng):
        alg = single_factor(factor)
        b = sample_element(alg, rng, "general").block(0)
        noisy = b + 1e-9 * rng.standard_normal(b.shape)
        assert_exactly_hermitian(element_from_blocks(alg, [noisy]))
        assert_exactly_hermitian(load_document(dump_document(Element(alg, (noisy,)))))


class TestQuaternionArithmetic:
    def test_hamilton_table(self):
        i = np.array([0.0, 1, 0, 0])
        j = np.array([0.0, 0, 1, 0])
        k = np.array([0.0, 0, 0, 1])
        np.testing.assert_allclose(quat.qmul(i, j), k)
        np.testing.assert_allclose(quat.qmul(j, i), -k)
        np.testing.assert_allclose(quat.qmul(i, i), [-1.0, 0, 0, 0])

    def test_conjugation_and_norm(self, rng):
        q = rng.standard_normal(4)
        qc = quat.qconj(q)
        assert qc[0] == q[0] and np.all(qc[1:] == -q[1:])
        np.testing.assert_allclose(quat.qmul(q, qc)[0], qh.qabs(q) ** 2)

    def test_embedding_is_multiplicative(self, rng):
        A = rng.standard_normal((3, 3, 4))
        B = rng.standard_normal((3, 3, 4))
        lhs = quat.to_complex(qh.qmatmul(A, B))
        rhs = quat.to_complex(A) @ quat.to_complex(B)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_qmul_broadcasts_as_the_embedding_multiplies(self, rng):
        p, q = rng.standard_normal((3, 1, 4)), rng.standard_normal((5, 4))
        out = quat.qmul(p, q)
        assert out.shape == (3, 5, 4)
        as_matrix = lambda a: quat.to_complex(a[..., None, None, :])
        ref = quat.from_complex(as_matrix(p) @ as_matrix(q))[..., 0, 0, :]
        np.testing.assert_allclose(out, ref, atol=1e-14)

    def test_embedding_roundtrip(self, rng):
        A = rng.standard_normal((2, 2, 4))
        np.testing.assert_allclose(quat.from_complex(quat.to_complex(A)), A, atol=1e-14)


QUATERNION_KINDS = [HermFactor(2, Ring.QUATERNION), HermFactor(3, Ring.QUATERNION)]


class TestQuaternionStorage:
    """A herm(n,H) block is stored as its complex embedding; the ring array
    (n, n, 4) is only the public face."""

    @pytest.mark.parametrize("factor", QUATERNION_KINDS, ids=str)
    def test_kernels_keep_the_embedding_form(self, factor, rng):
        alg = single_factor(factor)
        x, y = (sample_element(alg, rng, "general") for _ in range(2))
        effect = sample_element(alg, rng, "effect")
        iso = random_factor_iso(factor, rng)
        outputs = [
            jordan_product(x, y),
            quad_rep(x, y),
            invert_element(sample_element(alg, rng, "interior")),  # the strict inverse
            apply_function(x, np.tanh),  # combine
            iso.apply(effect),
            iso.inverse_apply(effect),
            random_jordan_iso(factor, rng).apply(x),
        ]
        for out in outputs:
            assert_embedding_form(factor, out._block(0))

    @pytest.mark.parametrize("factor", QUATERNION_KINDS, ids=str)
    def test_public_blocks_are_read_only_ring_arrays(self, factor, rng):
        x = sample_element(algebra(HermFactor(2), factor), rng, "general")
        assert x.blocks is x.blocks  # built on first read and kept
        assert x.block(1) is x.blocks[1]
        b = x.block(1)
        assert b.shape == (factor.n, factor.n, 4) and b.dtype == float
        assert not b.flags.writeable
        with pytest.raises(ValueError):
            b[0, 0, 0] = 1.0
        assert np.array_equal(quat.to_complex(b), x._block(1))
        # blocks over R are views of the stored arrays, with no copy
        assert x.block(0).base is x._groups[0]

    @pytest.mark.parametrize("factor", QUATERNION_KINDS, ids=str)
    def test_validator_hermitizes_bit_for_bit(self, factor, rng):
        b = rng.standard_normal((factor.n, factor.n, 4))
        b = b + qh.qadjoint(b) + 1e-9 * rng.standard_normal(b.shape)
        x = element_from_blocks(single_factor(factor), [b])
        assert np.array_equal(x.block(0), 0.5 * (b + qh.qadjoint(b)))
        assert_embedding_form(factor, x._block(0))

    def test_validator_keeps_entries_near_the_float_limit(self):
        # over H the average overflows no sooner than (b + b*) / 2 does over R and C
        b = np.zeros((2, 2, 4))
        b[0, 0, 0], b[1, 1, 0] = 8e307, -8e307
        b[0, 1], b[1, 0] = [1e307, 2e307, 3e307, 4e307], [1e307, -2e307, -3e307, -4e307]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = element_from_blocks(single_factor(HermFactor(2, Ring.QUATERNION)), [b])
            assert np.array_equal(x.block(0), b) and sup_norm(x) == 8e307

    @pytest.mark.parametrize("factor", QUATERNION_KINDS, ids=str)
    def test_documents_round_trip_as_text(self, factor, rng):
        alg = algebra(HermFactor(1), factor)
        iso = random_composite_iso(alg, alg, rng)
        x = sample_element(alg, rng, "effect")
        for doc in (x, iso, iso.apply(x)):
            text = dump_document(doc)
            assert dump_document(load_document(text)) == text

    @pytest.mark.parametrize("factor", QUATERNION_KINDS, ids=str)
    def test_sup_norm_is_the_largest_quaternion_modulus(self, factor, rng):
        alg = single_factor(factor)
        for scale in (1.0, 1e200):
            x = scale * sample_element(alg, rng, "general")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = sup_norm(x)
            want = float(qh.qabs(x.block(0)).max())
            assert math.isfinite(got) and got == pytest.approx(want, rel=1e-15)
