import numpy as np
import pytest

from effectorder import (
    SAMPLE_CLASSES,
    DomainError,
    HermFactor,
    Ring,
    ShapeMismatchError,
    SpinFactor,
    algebra,
    canonical_trace,
    central_structure,
    classify,
    dominates_atom,
    element_from_blocks,
    element_in_factor,
    has_totally_ordered_interval,
    in_cone,
    in_effect_interval,
    jordan_product,
    leq,
    mobius_apply,
    proj_join,
    proj_meet,
    pseudo_inv_sqrt,
    quad_rep,
    random_composite_iso,
    random_factor_iso,
    range_approximants,
    random_jordan_iso,
    range_projection,
    sample_atom,
    sample_element,
    single_factor,
    spectral_decompose,
    split_by_central,
    sqrt_element,
    sup_norm,
    unit,
    unsplit_by_central,
    zero,
)

from effectorder.order import FLAG_TOL, ORDER_TOL

from conftest import FACTOR_KINDS, MIXED


def herm(rows):
    rows = np.array(rows, dtype=float)
    return element_in_factor(HermFactor(rows.shape[0]), rows)


H2 = single_factor(HermFactor(2))


class TestLeq:
    def test_reflexive(self, rng):
        x = sample_element(MIXED, rng, "general")
        assert leq(x, x)

    def test_incomparable_projections(self):
        p = herm(np.diag([1.0, 0.0]))
        q = herm(np.diag([0.0, 1.0]))
        assert not leq(p, q)
        assert not leq(q, p)

    def test_diagonal_order(self):
        assert leq(herm(np.diag([1.0, 1.0])), herm(np.diag([2.0, 1.0])))

    def test_anti_isomorphism_of_complement(self, rng):
        e = unit(MIXED)
        for _ in range(20):
            x = sample_element(MIXED, rng, "effect")
            y = sample_element(MIXED, rng, "effect")
            assert leq(x, y) == leq(e - y, e - x)


class TestClassify:
    def test_unit_flags(self):
        c = classify(unit(H2))
        assert c.in_effect and c.is_projection and not c.is_atom

    def test_diagonal_atom(self):
        assert classify(herm(np.diag([1.0, 0.0]))).is_atom

    def test_half_unit_invertible_effect(self):
        c = classify(0.5 * unit(H2))
        assert c.in_invertible_effect and c.in_interior and not c.is_projection

    def test_flag_implications(self, rng):
        for cls in ("general", "cone", "effect", "projection", "atom"):
            for _ in range(5):
                c = classify(sample_element(MIXED, rng, cls))
                assert not c.in_interior or c.in_cone
                assert not c.in_invertible_effect or (c.in_effect and c.in_interior)
                assert not c.is_atom or c.is_projection


def accepts(map_, x) -> bool:
    try:
        map_(x)
    except DomainError:
        return False
    return True


class TestOneEffectRule:
    """Every test of membership of [0, e] gives one answer: the predicate,
    classify, and the maps that check their argument.  The end eigenvalue
    sits tol/2 and 2 tol inside and outside 0 and 1, tol = ORDER_TOL (1 + |x|),
    and 0.9 tol outside, past an absolute ORDER_TOL wherever |x| > 1/9."""

    @pytest.mark.parametrize("end", [0.0, 1.0])
    @pytest.mark.parametrize("factor", FACTOR_KINDS, ids=str)
    def test_every_check_agrees(self, factor, end, rng):
        alg = single_factor(factor)
        dec = spectral_decompose(sample_element(alg, rng, "general"))
        slot = 0 if end == 0.0 else len(dec.eigenvalues) - 1
        outward = -1.0 if end == 0.0 else 1.0
        iso = random_factor_iso(factor, rng)
        # on herm(1,.) the composite routes a rank-one coordinate through a scalar map
        composite = random_composite_iso(alg, alg, rng)
        maps = [
            iso.apply, iso.inverse_apply, composite.apply, composite.inverse_apply,
            lambda x: mobius_apply(0.5, x),
        ]

        def with_end_eigenvalue(offset):
            vals = [0.5] * len(dec.eigenvalues)
            vals[slot] = end + outward * offset
            return dec.combine(vals)

        for steps in (-2.0, -0.5, 0.5, 0.9, 2.0):
            # tol depends on |x|: a first draft gives |x| to well within 1e-8
            x = with_end_eigenvalue(steps * ORDER_TOL * 2.0)
            x = with_end_eigenvalue(steps * ORDER_TOL * (1.0 + sup_norm(x)))
            answers = [in_effect_interval(x), classify(x).in_effect]
            answers += [accepts(m, x) for m in maps]
            assert answers == [steps < 2.0] * len(answers), steps
            assert in_cone(x) or not in_effect_interval(x)

    @pytest.mark.parametrize("k", [0, 1, 2], ids=["line", "herm", "spin"])
    def test_direct_sum_blocks_share_its_tolerance(self, k, rng):
        # the other blocks are units, so tol = 2 ORDER_TOL; block k has sup
        # about 0.05, and its least eigenvalue lies outside its own tolerance
        composite = random_composite_iso(MIXED, MIXED, rng)
        for offset, inside in ((1.5 * ORDER_TOL, True), (2.5 * ORDER_TOL, False)):
            blocks = list(unit(MIXED).blocks)
            blocks[k] = [
                np.array([[-offset]]),
                np.diag([-offset, 0.05]),
                np.array([0.05, 0.05 + offset, 0.0, 0.0]),
            ][k]
            x = element_from_blocks(MIXED, blocks)
            answers = [in_effect_interval(x), classify(x).in_effect]
            answers += [accepts(m, x) for m in (composite.apply, composite.inverse_apply)]
            assert answers == [inside] * 4, offset

    def test_extreme_eigenvalue_decides_a_straddling_cluster(self):
        # each pair lies within the cluster tolerance, with its mean inside
        # the bound and its extreme eigenvalue outside
        below = herm(np.diag([-2e-8, -0.8e-8, 0.5]))
        assert [in_cone(below), classify(below).in_cone, classify(below).in_effect] == [False] * 3
        for require_cone in (
            sqrt_element, pseudo_inv_sqrt, range_projection, lambda x: range_approximants(x, 2)
        ):
            with pytest.raises(DomainError, match="not in the cone"):
                require_cone(below)
        above = herm(np.diag([0.5, 1.0 + 1.2e-8, 1.0 + 2.5e-8]))
        assert in_cone(above) and classify(above).in_cone
        assert [in_effect_interval(above), classify(above).in_effect] == [False] * 2


class TestProjectionLattice:
    def test_meet_idempotent(self, rng):
        p = sample_element(MIXED, rng, "projection")
        assert sup_norm(proj_meet(p, p) - p) <= 1e-9

    def test_meet_with_unit_and_join_with_zero(self, rng):
        p = sample_element(MIXED, rng, "projection")
        assert sup_norm(proj_meet(p, unit(MIXED)) - p) <= 1e-9
        assert sup_norm(proj_join(p, zero(MIXED)) - p) <= 1e-9

    def test_distinct_atoms_in_rank_two(self):
        p = herm(np.diag([1.0, 0.0]))
        q = herm(np.full((2, 2), 0.5))  # projection onto span(1,1)/sqrt(2)
        assert sup_norm(proj_meet(p, q)) <= 1e-9
        assert sup_norm(proj_join(p, q) - unit(H2)) <= 1e-9

    def test_rejects_non_projections(self):
        with pytest.raises(DomainError):
            proj_meet(0.5 * unit(H2), unit(H2))

    @pytest.mark.parametrize("theta", [1e-2, 1e-3, 1e-5])
    def test_small_angle_ranges_have_zero_meet(self, theta):
        # ranges meeting at angle theta push an eigenvalue of p + q up to
        # 2 - theta^2/2; the meet must not absorb it (a wrong inclusion
        # would violate m <= p by about theta/2).  Below theta ~ 4e-6 the
        # gap drops under the detection threshold and the directions are
        # numerically indistinguishable from a true intersection.
        from effectorder import HermFactor, element_in_factor

        f = HermFactor(3)
        v1 = np.array([1.0, 0.0, 0.0])
        v2 = np.array([np.cos(theta), np.sin(theta), 0.0])
        p = element_in_factor(f, np.outer(v1, v1))
        q = element_in_factor(f, np.outer(v2, v2))
        m = proj_meet(p, q)
        assert sup_norm(m) <= 1e-12
        assert leq(m, p) and leq(m, q)

    @pytest.mark.parametrize("factor", FACTOR_KINDS, ids=str)
    def test_lattice_laws_on_random_pairs(self, factor, rng):
        alg = single_factor(factor)
        for _ in range(10):
            r = sample_element(alg, rng, "projection")
            p = proj_join(sample_element(alg, rng, "projection"), r)
            q = proj_join(sample_element(alg, rng, "projection"), r)
            m = proj_meet(p, q)
            j = proj_join(p, q)
            assert sup_norm(jordan_product(m, m) - m) <= 1e-9
            assert sup_norm(jordan_product(j, j) - j) <= 1e-9
            assert leq(m, p) and leq(m, q) and leq(p, j) and leq(q, j)
            # De Morgan through the complement
            e = unit(alg)
            assert sup_norm(m - (e - proj_join(e - p, e - q))) <= 1e-9
            # greatest lower bound among effects below both
            low = quad_rep(r, sample_element(alg, rng, "effect"))
            assert leq(low, p) and leq(low, q)
            assert leq(low, m)


class TestDominatesAtom:
    def test_direct_witness(self):
        x = herm(np.diag([2.0, 0.0]))
        p = herm(np.diag([1.0, 0.0]))
        ok, lam = dominates_atom(x, p)
        assert ok and abs(lam - 2.0) <= 1e-12
        assert leq(lam * p, x)

    def test_orthogonal_ranges(self):
        x = herm(np.diag([2.0, 0.0]))
        q = herm(np.diag([0.0, 1.0]))
        ok, lam = dominates_atom(x, q)
        assert not ok and lam is None

    def test_interior_dominates_every_atom(self, rng):
        x = sample_element(MIXED, rng, "interior")
        for _ in range(10):
            p = sample_element(MIXED, rng, "atom")
            ok, lam = dominates_atom(x, p)
            assert ok
            assert leq(lam * p, x)

    def test_rejects_non_atom(self):
        with pytest.raises(DomainError):
            dominates_atom(unit(H2), unit(H2))


class TestCentralStructure:
    def test_two_factor_generators(self):
        alg = algebra(HermFactor(2), HermFactor(1))
        gens, disengaged = central_structure(alg)
        assert len(gens) == 2
        np.testing.assert_array_equal(gens[0].block(0), np.eye(2))
        np.testing.assert_array_equal(gens[0].block(1), [[0.0]])
        np.testing.assert_array_equal(gens[1].block(0), np.zeros((2, 2)))
        np.testing.assert_array_equal(gens[1].block(1), [[1.0]])
        assert disengaged == (1,)

    def test_single_factor(self):
        gens, disengaged = central_structure(H2)
        assert len(gens) == 1
        assert sup_norm(gens[0] - unit(H2)) == 0.0
        assert disengaged == ()

    def test_sum_of_lines_all_disengaged(self):
        alg = algebra(*[HermFactor(1)] * 4)
        gens, disengaged = central_structure(alg)
        assert len(gens) == 4 and disengaged == (0, 1, 2, 3)

    def test_generators_split_idempotently(self, rng):
        gens, _ = central_structure(MIXED)
        x = sample_element(MIXED, rng, "general")
        for z in gens:
            assert sup_norm(quad_rep(z, quad_rep(z, x)) - quad_rep(z, x)) <= 1e-12


class TestSplitByCentral:
    def test_full_and_empty(self, rng):
        x = sample_element(MIXED, rng, "general")
        inside, outside = split_by_central(x, unit(MIXED))
        assert outside is None and sup_norm(inside - x) == 0.0
        inside, outside = split_by_central(x, zero(MIXED))
        assert inside is None and sup_norm(outside - x) == 0.0

    def test_block_selection_and_recombination(self, rng):
        gens, _ = central_structure(MIXED)
        x = sample_element(MIXED, rng, "general")
        for z in gens:
            inside, outside = split_by_central(x, z)
            back = unsplit_by_central(MIXED, z, inside, outside)
            assert sup_norm(back - x) == 0.0

    def test_rejects_non_central(self):
        x = sample_element(MIXED, np.random.default_rng(0), "general")
        with pytest.raises(DomainError):
            split_by_central(x, 0.5 * unit(MIXED))

    # herm(2,R) inside the first central generator, spin(3) outside it
    SPLIT = algebra(HermFactor(2), SpinFactor(3))

    def split(self, rng):
        z = central_structure(self.SPLIT)[0][0]
        return (z, *split_by_central(sample_element(self.SPLIT, rng, "effect"), z))

    def test_unsplit_rejects_swapped_parts(self, rng):
        z, inside, outside = self.split(rng)
        with pytest.raises(ShapeMismatchError):
            unsplit_by_central(self.SPLIT, z, outside, inside)

    def test_unsplit_rejects_a_part_of_another_ring(self, rng):
        z, _, outside = self.split(rng)
        other = sample_element(single_factor(HermFactor(2, Ring.COMPLEX)), rng, "effect")
        with pytest.raises(ShapeMismatchError):
            unsplit_by_central(self.SPLIT, z, other, outside)

    def test_unsplit_rejects_none_for_a_side_with_factors(self, rng):
        z, inside, _ = self.split(rng)
        with pytest.raises(ShapeMismatchError):
            unsplit_by_central(self.SPLIT, z, inside, None)

    def test_unsplit_rejects_an_algebra_other_than_that_of_z(self, rng):
        z, inside, outside = self.split(rng)
        with pytest.raises(ShapeMismatchError):
            unsplit_by_central(algebra(HermFactor(2), SpinFactor(3), HermFactor(1)), z, inside, outside)


class TestTotallyOrderedIntervalTop:
    def test_scaled_atom(self):
        assert has_totally_ordered_interval(herm(np.diag([3.0, 0.0])))

    def test_unit_of_rank_two_factor(self):
        assert not has_totally_ordered_interval(unit(H2))

    def test_zero_is_degenerate_top(self):
        assert has_totally_ordered_interval(zero(MIXED))

    def test_scaled_atoms_everywhere(self, rng):
        for _ in range(10):
            p = sample_element(MIXED, rng, "atom")
            assert has_totally_ordered_interval(2.5 * p)

    def test_rank_two_cone_element(self, rng):
        x = sample_element(MIXED, rng, "interior")
        assert not has_totally_ordered_interval(x)


class TestClusterRanks:
    """Atoms are read off the decomposition's cluster ranks; on every factor kind the
    ranks agree with the trace test they replace, |tr p - 1| <= 1e-6 for an atom p."""

    KINDS = FACTOR_KINDS + [HermFactor(3, Ring.QUATERNION)]

    @staticmethod
    def elements(factor, rng):
        alg = single_factor(factor)
        xs = [sample_element(alg, rng, cls) for cls in SAMPLE_CLASSES for _ in range(3)]
        # the unit and its multiples: on spin a block with v = 0, one eigenpair of rank 2
        xs += [unit(alg), zero(alg), 0.3 * unit(alg)]
        # a repeated eigenvalue, over H twice in the embedding as well
        if isinstance(factor, HermFactor) and factor.n > 1:
            n = factor.n
            diag = np.diag([0.3] * (n - 1) + [0.8])
            if factor.ring is Ring.QUATERNION:
                diag = np.stack([diag] + [np.zeros((n, n))] * 3, axis=-1)
            xs.append(random_jordan_iso(factor, rng).apply(element_in_factor(factor, diag)))
        # near-projections: each eigenvalue within about FLAG_TOL of 0 or 1
        for _ in range(6):
            dec = spectral_decompose(sample_element(alg, rng, "general"))
            k = len(dec.eigenvalues)
            shift = FLAG_TOL * rng.choice([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5], size=k)
            xs.append(dec.combine(rng.integers(0, 2, size=k) + shift))
        return xs

    @pytest.mark.parametrize("factor", KINDS, ids=str)
    def test_ranks_agree_with_the_trace_test(self, factor, rng):
        atoms = 0
        for x in self.elements(factor, rng):
            dec = spectral_decompose(x)
            assert len(dec._ranks) == len(dec.eigenvalues) and sum(dec._ranks) == factor.rank
            for r, p in zip(dec._ranks, dec.projections):
                trace = canonical_trace(p)
                assert type(r) is int and r == round(trace)
                assert (r == 1) == (abs(trace - 1.0) <= 1e-6)
            c = classify(x)
            assert c.is_atom == (c.is_projection and abs(canonical_trace(x) - 1.0) <= 1e-6)
            atoms += c.is_atom
            if c.in_cone:
                pos = [p for lam, p in zip(dec.eigenvalues, dec.projections) if lam > dec.zero_tol]
                old = not pos or (len(pos) == 1 and abs(canonical_trace(pos[0]) - 1.0) <= 1e-6)
                assert has_totally_ordered_interval(x) == old
        assert atoms  # the table reaches the atoms

    @pytest.mark.parametrize("factor", KINDS, ids=str)
    def test_sampled_atoms_are_rank_one_projections(self, factor, rng):
        for _ in range(5):
            p = sample_atom(factor, rng)
            assert classify(p).is_atom and abs(canonical_trace(p) - 1.0) <= 1e-12
