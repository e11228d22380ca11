"""A direct sum is stored by factor group: equal factors, wherever they sit,
share one (k, ...) array, and a group of one is the stack with k = 1.

The reference for every operation is the same operation run factor by factor
on one-factor elements of the stored blocks, whose one group is the (1, ...)
stack of the block: grouped results must equal it bit for bit."""

import numpy as np
import pytest

from effectorder import (
    AlgebraDescriptor,
    Element,
    HermFactor,
    Ring,
    SpinFactor,
    algebra,
    canonical_trace,
    central_structure,
    coordinate_squeeze_iso,
    dump_document,
    element_from_blocks,
    in_cone,
    in_effect_interval,
    invert_element,
    jordan_product,
    load_document,
    quad_rep,
    random_composite_iso,
    random_factor_iso,
    random_jordan_iso,
    sample_element,
    single_factor,
    spectral_decompose,
    split_by_central,
    sup_norm,
    triple_product,
    unit,
    unsplit_by_central,
    zero,
)
from effectorder import spectral
from effectorder.algebra import _grouped, random_gaussian

from conftest import FACTOR_KINDS, assert_embedding_form

C, H = Ring.COMPLEX, Ring.QUATERNION
SMALL_MIXED = algebra(
    HermFactor(1), HermFactor(1), HermFactor(1), HermFactor(4), HermFactor(3, C),
    HermFactor(2, H), SpinFactor(6),
)
# two equal engaged factors of each kind, interleaved with lines
ENGAGED_TWICE = algebra(
    HermFactor(2, C), HermFactor(1), SpinFactor(3), HermFactor(1), HermFactor(2, C),
    SpinFactor(3), HermFactor(2, H), HermFactor(1), HermFactor(2, H),
)
NON_ADJACENT = algebra(HermFactor(1), HermFactor(2, C), HermFactor(1))
GROUPED = [SMALL_MIXED, ENGAGED_TWICE, NON_ADJACENT]
# one sum in two orders, with repeated engaged factors: a map between them routes
# each target group's members from other groups and positions of the source
REORDERED = (
    algebra(HermFactor(1), HermFactor(3, C), SpinFactor(3), HermFactor(3, C), HermFactor(1)),
    algebra(SpinFactor(3), HermFactor(3, C), HermFactor(1), HermFactor(3, C), HermFactor(1)),
)
ROUTED = [(alg, alg) for alg in GROUPED] + [REORDERED]


def parts(x):
    """x factor by factor, as one-factor elements of its stored blocks."""
    factors = enumerate(x.algebra.factors)
    return [Element(single_factor(f), (x._block(i)[None],), _stored=True) for i, f in factors]


def assert_blockwise(out, expected):
    """Each stored block of out equals the one block of its reference, bit for bit."""
    __tracebackhide__ = True
    for i, want in enumerate(expected):
        got = out._block(i)
        assert got.dtype == want._block(0).dtype and np.array_equal(got, want._block(0))


def reference_decomposition(x, tol):
    """Eigenvalues, extremes and each factor's (basis, cluster indices) from the
    factors' own eigenpairs, clustered in (eigenvalue, factor, index) order."""
    pairs, bases = [], []
    for i, p in enumerate(parts(x)):
        w, basis = p.algebra.factors[0]._kind.eigh(p._block(0))
        bases.append(basis)
        pairs += [(lam, i, j) for j, lam in enumerate(w.tolist())]
    pairs.sort()
    eigenvalues, members, cluster = [], [], {}
    for lam, i, j in pairs:
        if members and lam - members[-1] > tol:
            eigenvalues.append(sum(members) / len(members))
            members = []
        members.append(lam)
        cluster[i, j] = len(eigenvalues)
    eigenvalues.append(sum(members) / len(members))
    counts = [sum(1 for k, _ in cluster if k == i) for i in range(len(bases))]
    clusters = [np.array([cluster[i, j] for j in range(n)]) for i, n in enumerate(counts)]
    return tuple(eigenvalues), (pairs[0][0], pairs[-1][0]), bases, clusters


def reference_combine(alg, bases, clusters, values):
    """Sum values[i] p_i factor by factor, from :func:`reference_decomposition`."""
    out = []
    for f, basis, idx in zip(alg.factors, bases, clusters):
        if isinstance(f, SpinFactor):
            block = values[idx] @ basis
        else:
            block = f._kind.hermitize((basis * values[idx]) @ basis.conj().T)
        out.append(Element(single_factor(f), (block[None],), _stored=True))
    return out


class TestLayout:
    def test_equal_factors_share_a_group_wherever_they_sit(self):
        line, pair = HermFactor(1), HermFactor(2, C)
        assert NON_ADJACENT.groups == ((line, (0, 2)), (pair, (1,)))
        assert NON_ADJACENT._where == ((0, 0), (1, 0), (0, 1))
        assert [ids for _, ids in SMALL_MIXED.groups] == [(0, 1, 2), (3,), (4,), (5,), (6,)]

    def test_a_hand_built_descriptor_computes_its_own_layout_once(self):
        alg = AlgebraDescriptor(NON_ADJACENT.factors)
        assert alg is not NON_ADJACENT and alg == NON_ADJACENT
        assert alg.groups == NON_ADJACENT.groups and alg.groups is alg.groups

    @pytest.mark.parametrize("alg", GROUPED, ids=str)
    def test_one_array_per_group(self, alg, rng):
        x = sample_element(alg, rng, "general")
        assert len(x._groups) == len(alg.groups)
        for (f, ids), g in zip(alg.groups, x._groups):
            assert g.shape == (len(ids),) + f._kind.identity().shape  # stored: over H the embedding
            assert not g.flags.writeable
        for f, (g, m) in zip(alg.factors, alg._where):
            if isinstance(f, HermFactor) and f.ring is H:
                assert_embedding_form(f, x._groups[g][m])


LINES_1023 = algebra(*[HermFactor(1)] * 1023)
# two herm(2,H) factors interleaved with lines
H_TWICE = algebra(HermFactor(1), HermFactor(2, H), HermFactor(1), HermFactor(2, H), HermFactor(1))


class TestConstants:
    """unit and zero are built once per group, and kept once per descriptor."""

    @pytest.mark.parametrize(
        "alg",
        [SMALL_MIXED, LINES_1023, H_TWICE, ENGAGED_TWICE],
        ids=["small_mixed", "lines_1023", "h_twice", "engaged_twice"],
    )
    @pytest.mark.parametrize(
        "make, block", [(unit, lambda f: f._kind.identity()), (zero, lambda f: f._kind.zero())], ids=["unit", "zero"]
    )
    def test_one_read_only_element_per_descriptor(self, alg, make, block):
        x = make(alg)
        assert make(alg) is x and x.algebra is alg
        # the per-factor build: one block per factor, stacked by group
        want = _grouped(alg, [block(f) for f in alg.factors])
        assert len(x._groups) == len(want)
        for got, ref in zip(x._groups, want):
            assert not got.flags.writeable
            assert got.dtype == ref.dtype and got.shape == ref.shape and got.tobytes() == ref.tobytes()
        assert all(not b.flags.writeable for b in x.blocks)

    def test_a_hand_built_descriptor_keeps_its_own(self):
        alg = AlgebraDescriptor(H_TWICE.factors)
        assert unit(alg) is unit(alg) and unit(alg) is not unit(H_TWICE)
        assert unit(alg).algebra is alg

    def test_index_tuples_are_kept(self):
        alg = AlgebraDescriptor(ENGAGED_TWICE.factors)
        assert alg.engaged_indices == (0, 2, 4, 5, 6, 8) and alg.disengaged_indices == (1, 3, 7)
        assert alg.engaged_indices is alg.engaged_indices
        assert alg.disengaged_indices is alg.disengaged_indices


# two spin(3) factors around a line, for a spin group of two members
SPIN_TWICE = algebra(SpinFactor(3), HermFactor(1), SpinFactor(3))
STACKED = [single_factor(f) for f in FACTOR_KINDS] + [H_TWICE, SPIN_TWICE]


def assert_stacked(x):
    """Every group array of x is a read-only (k, ...) stack of its members' stored
    blocks, k = 1 included (over H a block is stored as its 2n x 2n embedding)."""
    __tracebackhide__ = True
    assert len(x._groups) == len(x.algebra.groups)
    for (f, ids), g in zip(x.algebra.groups, x._groups):
        assert g.shape == (len(ids),) + f._kind.identity().shape
        assert not g.flags.writeable


class TestStoredFormat:
    """One stored format: every producer of elements returns (k, ...) stacks."""

    @pytest.mark.parametrize("alg", STACKED, ids=str)
    def test_every_producer_stores_one_stack_per_group(self, alg, rng):
        x, y = sample_element(alg, rng, "general"), sample_element(alg, rng, "effect")
        dec = spectral_decompose(x)
        iso = random_composite_iso(alg, alg, rng)
        gens, _ = central_structure(alg)
        inside, outside = split_by_central(x, gens[0])
        outs = [
            unit(alg), zero(alg), random_gaussian(alg, rng),
            element_from_blocks(alg, x.blocks), Element(alg, x.blocks),
            jordan_product(x, y), quad_rep(x, y), invert_element(sample_element(alg, rng, "interior")),
            dec.combine(np.linspace(-1.0, 1.0, len(dec.eigenvalues))), dec.apply(np.tanh),
            iso.apply(y), iso.inverse_apply(y),
            *gens, *[p for p in (inside, outside) if p is not None],
            unsplit_by_central(alg, gens[0], inside, outside),
            load_document(dump_document(x)),
        ]
        if len(alg.factors) == 1:
            f = alg.factors[0]
            fiso = random_factor_iso(f, rng)
            outs += [random_jordan_iso(f, rng).apply(x), fiso.apply(y), fiso.inverse_apply(y)]
        for out in outs:
            assert_stacked(out)

        # a spin group's bases, members with v = 0 included, are one (k, 2, d + 1) array
        blocks = [np.array(b) for b in x.blocks]
        for f, ids in alg.groups:
            if isinstance(f, SpinFactor):
                blocks[ids[0]][1:] = 0.0
        dec = spectral_decompose(Element(alg, blocks))
        for (f, ids), basis, idx in zip(alg.groups, dec.bases, dec.clusters):
            if isinstance(f, SpinFactor):
                assert basis.shape == (len(ids), 2, f.d + 1) and idx.shape == (len(ids), 2)
                assert np.array_equal(basis[0, :, 1:], [[-0.5] + [0.0] * (f.d - 1), [0.5] + [0.0] * (f.d - 1)])


class TestPublicViews:
    @pytest.mark.parametrize("alg", GROUPED, ids=str)
    def test_blocks_are_read_only_ring_arrays_of_the_old_shapes(self, alg, rng):
        x = sample_element(alg, rng, "general")
        assert x.blocks is x.blocks
        for i, f in enumerate(alg.factors):
            b = x.block(i)
            dtype, shape = f._kind.dtype, f._kind.shape
            assert b.shape == shape and b.dtype == np.dtype(dtype)
            assert not b.flags.writeable
            with pytest.raises(ValueError):
                b[(0,) * b.ndim] = 1.0
            assert np.array_equal(b, f._kind.ring_array(x._block(i)))

    @pytest.mark.parametrize("alg", GROUPED, ids=str)
    def test_hand_built_element_groups_its_blocks(self, alg, rng):
        x = sample_element(alg, rng, "general")
        y = Element(alg, [np.array(b) for b in x.blocks])
        assert all(np.array_equal(a, b) for a, b in zip(y._groups, x._groups))
        assert all(np.array_equal(a, b) for a, b in zip(y.blocks, x.blocks))

    @pytest.mark.parametrize("alg", GROUPED, ids=str)
    def test_documents_round_trip_as_text(self, alg, rng):
        for text in (
            dump_document(sample_element(alg, rng, "effect")),
            dump_document(random_composite_iso(alg, alg, rng)),
        ):
            assert dump_document(load_document(text)) == text


class TestKernels:
    @pytest.mark.parametrize("alg", GROUPED, ids=str)
    def test_element_operations_equal_the_factor_by_factor_result(self, alg, rng):
        x, y, w = (sample_element(alg, rng, "general") for _ in range(3))
        z = sample_element(alg, rng, "interior")
        xs, ys, ws, zs = parts(x), parts(y), parts(w), parts(z)
        assert_blockwise(jordan_product(x, y), [jordan_product(a, b) for a, b in zip(xs, ys)])
        assert_blockwise(quad_rep(x, y), [quad_rep(a, b) for a, b in zip(xs, ys)])
        assert_blockwise(triple_product(x, y, w), [triple_product(*t) for t in zip(xs, ys, ws)])
        assert_blockwise(x + y, [a + b for a, b in zip(xs, ys)])
        assert_blockwise(x - y, [a - b for a, b in zip(xs, ys)])
        assert_blockwise(-x, [-a for a in xs])
        assert_blockwise(0.3 * x, [0.3 * a for a in xs])
        assert_blockwise(invert_element(z), [invert_element(c) for c in zs])

    @pytest.mark.parametrize("alg", GROUPED, ids=str)
    def test_scalar_reductions_fold_in_factor_order(self, alg, rng):
        for cls in ("general", "effect", "projection"):
            x = sample_element(alg, rng, cls)
            xs = parts(x)
            assert sup_norm(x) == max(sup_norm(p) for p in xs)
            total = 0.0
            for p in xs:
                total += canonical_trace(p)
            assert canonical_trace(x) == total
            lo, hi = np.inf, -np.inf
            for p in xs:
                a, b = spectral.extreme_eigenvalues(p)
                lo, hi = min(lo, a), max(hi, b)
            assert spectral.extreme_eigenvalues(x) == (lo, hi)
            assert spectral.eigenvalue_floor(x) == min(spectral.eigenvalue_floor(p) for p in xs)
            tol = 1e-8 * (1.0 + sup_norm(x))
            assert in_cone(x) == all(spectral.spectrum_within(p, -tol) for p in xs)
            inside = [spectral.spectrum_within(p, -tol, 1.0 + tol) for p in xs]
            assert in_effect_interval(x) == all(inside)

    def test_a_tie_of_zero_and_negative_zero_keeps_the_first_factor(self):
        # the lines (0 and 2) come before the spin block (1) in group order: its least
        # eigenvalue 0.0 comes before the second line's -0.0 in factor order
        alg = algebra(HermFactor(1), SpinFactor(2), HermFactor(1))
        x = Element(alg, [np.array([[0.5]]), np.array([0.5, 0.5, 0.0]), np.array([[-0.0]])])
        lo, _ = spectral.extreme_eigenvalues(x)
        assert lo == 0.0 and not np.signbit(lo)

    @pytest.mark.parametrize("alg", GROUPED, ids=str)
    def test_seeded_samples_are_drawn_factor_by_factor(self, alg):
        x = random_gaussian(alg, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        assert_blockwise(x, [random_gaussian(single_factor(f), rng) for f in alg.factors])
        for cls in ("cone", "interior"):
            rng = np.random.default_rng(3)
            draws = [random_gaussian(single_factor(f), rng) for f in alg.factors]
            squares = [jordan_product(g, g) for g in draws]
            if cls == "interior":
                squares = [p + 0.1 * unit(p.algebra) for p in squares]
            assert_blockwise(sample_element(alg, np.random.default_rng(3), cls), squares)

    @pytest.mark.parametrize("alg", GROUPED, ids=str)
    def test_decomposition_clusters_the_factors_eigenpairs(self, alg, rng):
        for cls in ("general", "effect", "projection"):
            x = sample_element(alg, rng, cls)
            dec = spectral_decompose(x)
            eigenvalues, extremes, bases, clusters = reference_decomposition(x, dec.zero_tol)
            assert dec.eigenvalues == eigenvalues and dec._extremes == extremes
            for i, where in enumerate(alg._where):
                g, m = where
                assert np.array_equal(dec.bases[g][m], bases[i])
                assert np.array_equal(dec.clusters[g][m], clusters[i])
            values = np.linspace(-1.0, 2.0, len(eigenvalues))
            assert_blockwise(dec.combine(values), reference_combine(alg, bases, clusters, values))

    def test_spin_members_keep_their_own_eigenpairs(self):
        # v = 0 gives the eigenvalue a twice, with the idempotents (1, -/+ e_1) / 2,
        # so a spin group's bases are one (k, 2, d + 1) array
        alg = algebra(SpinFactor(3), SpinFactor(3))
        x = Element(alg, [np.array([0.5, 0.0, 0.0, 0.0]), np.array([0.5, 0.1, 0.2, 0.0])])
        dec = spectral_decompose(x)
        assert dec.bases[0].shape == (2, 2, 4) and dec.clusters[0].shape == (2, 2)
        assert np.array_equal(dec.bases[0][0], [[0.5, -0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0]])
        assert dec.clusters[0][0, 0] == dec.clusters[0][0, 1]
        eigenvalues, _, bases, clusters = reference_decomposition(x, dec.zero_tol)
        assert dec.eigenvalues == eigenvalues
        values = np.array(eigenvalues)
        assert_blockwise(dec.reconstruct(), reference_combine(alg, bases, clusters, values))


class TestCompositeMaps:
    @pytest.mark.parametrize(
        "source, target", ROUTED, ids=[str(s) if s is t else f"{s} to {t}" for s, t in ROUTED]
    )
    def test_lines_and_engaged_groups_map_as_their_factors(self, source, target, rng):
        iso = random_composite_iso(source, target, rng)
        for forward, run in ((True, iso.apply), (False, iso.inverse_apply)):
            x = sample_element(source if forward else target, rng, "effect")
            y = run(x)
            for (i, j), scalar in zip(iso.sigma, iso.scalar_isos):
                a, b = (i, j) if forward else (j, i)
                s = min(max(float(x.block(a)[0, 0]), 0.0), 1.0)
                assert float(y.block(b)[0, 0]) == (scalar(s) if forward else scalar.inverse(s))
            for (i, j), f in zip(iso.engaged_pairs, iso.engaged_isos):
                a, b = (i, j) if forward else (j, i)
                part = Element(f.algebra, (x._block(a)[None],), _stored=True)
                want = f.apply(part) if forward else f.inverse_apply(part)
                assert np.array_equal(y._block(b), want._block(0))

    def test_central_splittings_reassemble_the_groups(self, rng):
        x = sample_element(ENGAGED_TWICE, rng, "general")
        gens, _ = central_structure(ENGAGED_TWICE)
        z = gens[0] + gens[4] + gens[7]
        inside, outside = split_by_central(x, z)
        assert inside.algebra is algebra(HermFactor(2, C), HermFactor(2, C), HermFactor(1))
        back = unsplit_by_central(ENGAGED_TWICE, z, inside, outside)
        assert all(np.array_equal(a, b) for a, b in zip(back._groups, x._groups))


class TestInternedDescriptors:
    def test_squeeze_map_lives_in_the_interned_sum_of_lines(self):
        iso, image = coordinate_squeeze_iso(3)
        assert iso.source is algebra(*[HermFactor(1)] * 3) and image.algebra is iso.source

    def test_split_parts_live_in_interned_descriptors(self, rng):
        alg = algebra(HermFactor(2), SpinFactor(3))
        gens, _ = central_structure(alg)
        inside, outside = split_by_central(sample_element(alg, rng, "general"), gens[0])
        assert inside.algebra is single_factor(HermFactor(2))
        assert outside.algebra is single_factor(SpinFactor(3))
        assert unit(single_factor(HermFactor(2))).algebra is inside.algebra
