from itertools import combinations

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from tangleforge import (classify, concatenate, conforms_with_flower, displayed_kS,
                         displayed_separations, loose_petals, maximal_flower,
                         refine_with, tighten, verify_flower)
from tangleforge.bitset import elements_of
from tangleforge.closure import Separation
from tangleforge.core import ConnectivitySystem
from tangleforge.errors import (DichotomyViolation, InvalidBreakpoints, NonRobustObstruction,
                                NotAPartition, NotKSeparating, PreconditionFailed,
                                ViolationFound, WeakPetal)
from tangleforge.flowers import (ANEMONE, DAISY, MIXED, STRONG, UNCROSSED, WEAK,
                                 Flower, petal_cross_kind,
                                 petal_unions, phi_minimum_representative)
from tangleforge.oracle import _displayed_unions, oracle_flowers

from conftest import (assert_engine_flower_matches, displayed_class_ids, lab,
                      literal_petal_unions, reference_dichotomy_witness, reference_displayed)


def phi_r8(ctx):
    return verify_flower(ctx.sys, ctx.tangle,
                         [lab(1, 2), lab(3, 4), lab(5, 6), lab(7, 8)])


def r8_daisy(ctx):
    return verify_flower(ctx.sys, ctx.tangle,
                         [lab(1, 3), lab(5, 7), lab(6, 8), lab(2, 4)])


def s_order(ctx, f):
    """The fewest petals of an oracle flower that displays the same
    (k,S)-classes as f: 1 with no class and 2 with one."""
    ids = displayed_class_ids(ctx.sys, ctx.tangle, ctx.S, f)
    if len(ids) < 2:
        return len(ids) + 1
    return min([f.n] + [g.n for g in oracle_flowers(ctx.sys, ctx.tangle, f.n)
                        if displayed_class_ids(ctx.sys, ctx.tangle, ctx.S, g) == ids])


class TestVerify:
    def test_phi_r8_verifies(self, ctx_r8p1):
        f = phi_r8(ctx_r8p1)
        assert f.n == 4

    def test_single_petal(self, ctx_r8p1):
        f = verify_flower(ctx_r8p1.sys, ctx_r8p1.tangle, [ctx_r8p1.sys.full])
        assert f.n == 1

    def test_bad_consecutive_union(self, ctx_r8p1):
        # ({1,3},{2,4},{5,6},{7,8}): {2,4} | {5,6} = {2,4,5,6} is no plane
        with pytest.raises(NotKSeparating) as err:
            verify_flower(ctx_r8p1.sys, ctx_r8p1.tangle,
                          [lab(1, 3), lab(2, 4), lab(5, 6), lab(7, 8)])
        assert ctx_r8p1.sys.lam(err.value.witness) > 4

    def test_not_a_partition(self, ctx_r8p1):
        with pytest.raises(NotAPartition):
            verify_flower(ctx_r8p1.sys, ctx_r8p1.tangle, [lab(1, 2), lab(2, 3)])

    def test_weak_petal(self, ctx_r8p1):
        with pytest.raises(WeakPetal):
            verify_flower(ctx_r8p1.sys, ctx_r8p1.tangle,
                          [lab(1), lab(2), ctx_r8p1.sys.full ^ lab(1, 2)])


class TestClassify:
    def test_phi_r8_anemone(self, ctx_r8p1):
        assert classify(ctx_r8p1.sys, phi_r8(ctx_r8p1)) == ANEMONE

    def test_r8_has_a_daisy(self, ctx_r8p1):
        assert classify(ctx_r8p1.sys, r8_daisy(ctx_r8p1)) == DAISY

    def test_c6_singleton_petals_daisy(self, ctx_c6):
        f = verify_flower(ctx_c6.sys, ctx_c6.tangle,
                          [1 << i for i in range(6)])
        assert classify(ctx_c6.sys, f) == DAISY

    def test_n3_is_anemone_by_convention(self, ctx_r8p1):
        f = verify_flower(ctx_r8p1.sys, ctx_r8p1.tangle,
                          [lab(1, 2), lab(3, 4), lab(5, 6, 7, 8)])
        assert classify(ctx_r8p1.sys, f) == ANEMONE

    def test_oracle_flowers_never_break_dichotomy(self, ctx_r8p1, ctx_c6, ctx_barbell):
        for ctx in (ctx_r8p1, ctx_c6, ctx_barbell):
            for f in oracle_flowers(ctx.sys, ctx.tangle, 4):
                assert classify(ctx.sys, Flower(f.petals, f.k)) in (ANEMONE, DAISY)

    def test_c6_out_of_order_petals_break_the_dichotomy(self, c6g):
        # the consecutive petals e1, e3, e4 make no arc of C6, so their
        # union is not 2-separating, while the non-run e0|e1 is: neither
        f = Flower([1 << i for i in (0, 2, 1, 3, 4, 5)], 2)
        with pytest.raises(DichotomyViolation) as err:
            classify(c6g, f)
        assert str(err.value) == "union of petals [2, 3, 4] breaks the dichotomy"
        assert err.value.witness_indices == frozenset({2, 3, 4})


class TestFlagsScan:
    """`classify` reads one `lam_flags` pass and `displayed_separations`
    the canonical sides no petal crosses (`lam_at_most`); both must give
    what the per-union references give."""

    @pytest.mark.parametrize("fixture", ["ctx_r8p1", "ctx_u26", "ctx_u56", "ctx_c6",
                                         "ctx_pc4", "ctx_barbell", "ctx_r8m3", "ctx_mk4"])
    def test_oracle_flowers_match_the_per_union_reference(self, fixture, request):
        ctx = request.getfixturevalue(fixture)
        for f in oracle_flowers(ctx.sys, ctx.tangle, 5):
            assert assert_engine_flower_matches(ctx.sys, f.petals, f.k) == f.klass, f
            assert (displayed_separations(ctx.sys, ctx.tangle, f)
                    == reference_displayed(ctx.sys, f.petals, f.k)), f

    def test_list_table_without_bytes(self, c6g):
        # values above 255 leave the byte table out; lam_flags reads the
        # flags built from the list
        system = ConnectivitySystem.from_table(
            6, [300 + c6g.lam(x) for x in range(1 << 6)], verify=False)
        assert not isinstance(system._table, bytes)
        assert assert_engine_flower_matches(system, [1 << i for i in range(6)], 302) == DAISY
        assert assert_engine_flower_matches(system, [3, 12, 48], 302) == ANEMONE
        assert assert_engine_flower_matches(
            system, [1 << i for i in (0, 2, 1, 3, 4, 5)], 302) is None

@st.composite
def petal_partitions(draw):
    """A cycle of 4-10 edges cut into at least four arcs, listed in cyclic
    order or shuffled, so that daisies come up; or a multigraph on 3-6
    vertices with 4-10 edges and the non-empty blocks of a random assignment
    of its edges to at most seven blocks."""
    if draw(st.booleans()):
        m = draw(st.integers(4, 10))
        ends = [0] + sorted(draw(st.sets(st.integers(1, m - 1), min_size=3))) + [m]
        petals = [sum(1 << e for e in range(a, b)) for a, b in zip(ends, ends[1:])]
        if draw(st.booleans()):
            draw(st.randoms()).shuffle(petals)
        return [(i, (i + 1) % m) for i in range(m)], tuple(petals)
    pairs = list(combinations(range(draw(st.integers(3, 6))), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=4, max_size=10))
    block = draw(st.lists(st.integers(0, 6), min_size=len(edges), max_size=len(edges)))
    petals = (sum(1 << e for e in range(len(edges)) if block[e] == b) for b in range(7))
    return edges, tuple(p for p in petals if p)


@settings(max_examples=100, deadline=None)
@given(case=petal_partitions(), k=st.sampled_from([2, 3, 4, 1, 0]))
def test_flags_scan_matches_the_per_union_reference(case, k):
    edges, petals = case
    verdict = assert_engine_flower_matches(ConnectivitySystem.graph(edges, verify=False),
                                           petals, k)
    event(str(verdict) if len(petals) > 2 else "n <= 2")


@settings(max_examples=100, deadline=None)
@given(case=petal_partitions(), k=st.sampled_from([2, 3, 1]))
@example(case=([(1, 0), (4, 1), (0, 4), (0, 5), (2, 5)], (16, 1, 8, 4, 2)), k=3)  # runs all separate
def test_dichotomy_witness_matches_the_per_union_reference(case, k):
    # the witness built from classify's flags is the one the per-union
    # lam scan gives, on every petal order that breaks the dichotomy
    edges, petals = case
    system = ConnectivitySystem.graph(edges, verify=False)
    f = Flower(petals, k)
    try:
        classify(system, f)
    except DichotomyViolation as exc:
        assert exc.witness_indices == reference_dichotomy_witness(system, f)
        event("neither")
    else:
        event("classified")


class TestConcatenate:
    def test_identity(self, ctx_r8p1):
        f = phi_r8(ctx_r8p1)
        assert concatenate(f, [1, 2, 3, 4]).petals == f.petals

    def test_phi_r8_to_faces(self, ctx_r8p1):
        f = concatenate(phi_r8(ctx_r8p1), [2, 4])
        assert f.petals == (lab(1, 2, 3, 4), lab(5, 6, 7, 8))
        verify_flower(ctx_r8p1.sys, ctx_r8p1.tangle, f.petals)

    def test_collapse_to_one_petal(self, ctx_r8p1):
        f = concatenate(phi_r8(ctx_r8p1), [4])
        assert f.petals == (ctx_r8p1.sys.full,)

    def test_invalid_breakpoints(self, ctx_r8p1):
        f = phi_r8(ctx_r8p1)
        for bad in ([], [3], [0, 4], [2, 2, 4], [4, 2]):
            with pytest.raises(InvalidBreakpoints):
                concatenate(f, bad)

    def test_concatenations_of_flowers_verify(self, ctx_c6):
        f = verify_flower(ctx_c6.sys, ctx_c6.tangle, [1 << i for i in range(6)])
        for cut in range(1, 6):
            g = concatenate(f, [cut, 6])
            verify_flower(ctx_c6.sys, ctx_c6.tangle, g.petals)


class TestLoosePetals:
    def test_phi_r8_loose_free(self, ctx_r8p1):
        assert loose_petals(ctx_r8p1.sys, ctx_r8p1.tangle, phi_r8(ctx_r8p1)) == []

    def test_pair_inside_closure_of_six_set(self, ctx_r8p1):
        f = verify_flower(ctx_r8p1.sys, ctx_r8p1.tangle,
                          [lab(1, 2), lab(3, 4, 5, 6, 7, 8)])
        assert loose_petals(ctx_r8p1.sys, ctx_r8p1.tangle, f) == [0]

    def test_mk4_triple_all_loose(self, ctx_mk4):
        sys, t = ctx_mk4.sys, ctx_mk4.tangle
        f = verify_flower(sys, t, [sys.mask([0, 1]), sys.mask([2, 3]),
                                   sys.mask([4, 5])])
        assert loose_petals(sys, t, f) == [0, 1, 2]

    def test_two_closed_sides(self, ctx_r8p1):
        f = verify_flower(ctx_r8p1.sys, ctx_r8p1.tangle,
                          [lab(1, 2, 3, 4), lab(5, 6, 7, 8)])
        assert loose_petals(ctx_r8p1.sys, ctx_r8p1.tangle, f) == []


class TestTighten:
    def test_already_loose_free(self, ctx_r8p1):
        f = phi_r8(ctx_r8p1)
        assert tighten(ctx_r8p1.sys, ctx_r8p1.tangle, f).petals == f.petals

    def test_single_petal_fixed(self, ctx_r8p1):
        f = verify_flower(ctx_r8p1.sys, ctx_r8p1.tangle, [ctx_r8p1.sys.full])
        assert tighten(ctx_r8p1.sys, ctx_r8p1.tangle, f).petals == f.petals

    def test_absorption_preserves_classes(self, ctx_r8p1, ctx_mk4, ctx_barbell):
        for ctx in (ctx_r8p1, ctx_mk4, ctx_barbell):
            for f in oracle_flowers(ctx.sys, ctx.tangle, 4):
                g = tighten(ctx.sys, ctx.tangle, Flower(f.petals, f.k))
                assert (displayed_class_ids(ctx.sys, ctx.tangle, ctx.S, g)
                        == displayed_class_ids(ctx.sys, ctx.tangle, ctx.S, f))
                assert loose_petals(ctx.sys, ctx.tangle, g) == []


class TestDisplayed:
    def test_phi_r8_displayed_classes(self, ctx_r8p1):
        got = sorted(elements_of(s.side)
                     for s in displayed_kS(ctx_r8p1.sys, ctx_r8p1.tangle,
                                           ctx_r8p1.S, phi_r8(ctx_r8p1)))
        assert got == [[0, 1, 2, 3], [0, 1, 4, 5], [0, 1, 6, 7]]

    def test_single_petal_displays_nothing(self, ctx_r8p1):
        f = verify_flower(ctx_r8p1.sys, ctx_r8p1.tangle, [ctx_r8p1.sys.full])
        assert displayed_separations(ctx_r8p1.sys, ctx_r8p1.tangle, f) == []
        assert s_order(ctx_r8p1, f) == 1

    def test_phi_r8_s_order_four(self, ctx_r8p1):
        assert s_order(ctx_r8p1, phi_r8(ctx_r8p1)) == 4

    def test_daisy_s_order_four(self, ctx_r8p1):
        assert s_order(ctx_r8p1, r8_daisy(ctx_r8p1)) == 4

    def test_two_petal_s_order(self, ctx_r8p1):
        f = verify_flower(ctx_r8p1.sys, ctx_r8p1.tangle,
                          [lab(1, 2, 3, 4), lab(5, 6, 7, 8)])
        assert s_order(ctx_r8p1, f) == 2

    @pytest.mark.parametrize("fixture", ["ctx_r8p1", "ctx_u26", "ctx_u56", "ctx_c6",
                                         "ctx_pc4", "ctx_barbell", "ctx_r8m3", "ctx_mk4"])
    def test_displays_match_literal_union_scan(self, fixture, request):
        # oracle flowers carry their literal class, which display does not
        # read: they and their unclassified copies display the same
        ctx = request.getfixturevalue(fixture)
        for f in oracle_flowers(ctx.sys, ctx.tangle, 5):
            want = sorted(_displayed_unions(ctx.sys, f.k, f.petals))
            assert displayed_separations(ctx.sys, ctx.tangle, f) == want, f
            assert (displayed_separations(ctx.sys, ctx.tangle, Flower(f.petals, f.k))
                    == want), f

    def test_co_petals_enter_S(self, ctx_r8p1, ctx_c6, ctx_barbell):
        # flowers displaying any (k,S)-separation have every co-petal in S
        for ctx in (ctx_r8p1, ctx_c6, ctx_barbell):
            for f in oracle_flowers(ctx.sys, ctx.tangle, 4):
                if displayed_kS(ctx.sys, ctx.tangle, ctx.S, f):
                    for p in f.petals:
                        assert ctx.S.contains(ctx.sys.full ^ p)


class TestConformity:
    def test_diagonal_does_not_conform(self, ctx_r8p1):
        sep = Separation.make(ctx_r8p1.sys, lab(1, 3, 5, 7), 4)
        assert not conforms_with_flower(ctx_r8p1.sys, ctx_r8p1.tangle,
                                        ctx_r8p1.S, sep, phi_r8(ctx_r8p1))

    def test_displayed_conforms(self, ctx_r8p1):
        sep = Separation.make(ctx_r8p1.sys, lab(1, 2, 3, 4), 4)
        assert conforms_with_flower(ctx_r8p1.sys, ctx_r8p1.tangle,
                                    ctx_r8p1.S, sep, phi_r8(ctx_r8p1))

    def test_side_inside_petal_conforms(self, ctx_r8p1):
        sep = Separation.make(ctx_r8p1.sys, lab(1, 2), 4)
        assert conforms_with_flower(ctx_r8p1.sys, ctx_r8p1.tangle,
                                    ctx_r8p1.S, sep, phi_r8(ctx_r8p1))


class TestPhiMinimum:
    def test_displayed_is_its_own_minimum(self, ctx_r8p1):
        sep = Separation.make(ctx_r8p1.sys, lab(1, 2, 3, 4), 4)
        rep = phi_minimum_representative(ctx_r8p1.sys, ctx_r8p1.tangle,
                                         ctx_r8p1.S, sep, phi_r8(ctx_r8p1))
        assert rep == sep

    def test_singleton_class_minimum(self, ctx_r8p1):
        sep = Separation.make(ctx_r8p1.sys, lab(1, 3, 5, 7), 4)
        rep = phi_minimum_representative(ctx_r8p1.sys, ctx_r8p1.tangle,
                                         ctx_r8p1.S, sep, phi_r8(ctx_r8p1))
        assert rep == sep

    def test_weak_flap_moves_off_petal(self, ctx_barbell):
        sys, t, S = ctx_barbell.sys, ctx_barbell.tangle, ctx_barbell.S
        f = verify_flower(sys, t, [sys.mask([2]), sys.full ^ sys.mask([2])])
        sep = Separation.make(sys, sys.mask([0, 1]), 2)
        rep = phi_minimum_representative(sys, t, S, sep, f)
        # the equivalent co-side of {a3} crosses no petal at all
        assert rep.side == sys.mask([0, 1, 3, 4, 5, 6])


class TestCrossing:
    def test_weak_crossing(self, ctx_r8p1):
        sep = Separation.make(ctx_r8p1.sys, lab(1, 3, 5, 7), 4)
        f = phi_r8(ctx_r8p1)
        assert petal_cross_kind(ctx_r8p1.tangle, f.petals[0],
                                *sep.sides(ctx_r8p1.sys)) == WEAK

    def test_uncrossed_inside_one_side(self, ctx_r8p1):
        sep = Separation.make(ctx_r8p1.sys, lab(1, 2, 3, 4), 4)
        f = phi_r8(ctx_r8p1)
        sides = sep.sides(ctx_r8p1.sys)
        assert petal_cross_kind(ctx_r8p1.tangle, f.petals[0], *sides) == UNCROSSED
        assert (petal_cross_kind(ctx_r8p1.tangle, f.petals[0] | f.petals[1], *sides)
                == UNCROSSED)

    def test_strong_crossing(self, ctx_barbell):
        sys, t = ctx_barbell.sys, ctx_barbell.tangle
        f = verify_flower(sys, t, [sys.mask([0]), sys.mask([1]),
                                   sys.full ^ sys.mask([0, 1])])
        sep = Separation.make(sys, sys.mask([0, 1]), 2)
        assert petal_cross_kind(t, f.petals[2], *sep.sides(sys)) in (UNCROSSED, STRONG)

    def test_phi_minimum_never_mixed(self, ctx_r8p1, ctx_barbell, ctx_c6):
        # dichotomy: phi-minimum representatives never mix-cross a
        # k-separating petal union.
        for ctx in (ctx_r8p1, ctx_barbell, ctx_c6):
            sys, t, S = ctx.sys, ctx.tangle, ctx.S
            for f in oracle_flowers(sys, t, 4):
                if f.n < 2:
                    continue
                for cls in S.classes():
                    rep = phi_minimum_representative(sys, t, S, cls[0], f)
                    r, g = rep.sides(sys)
                    for bits in range(1, (1 << f.n) - 1):
                        union = 0
                        for i in range(f.n):
                            if bits >> i & 1:
                                union |= f.petals[i]
                        if sys.lam(union) <= t.k:
                            assert petal_cross_kind(t, union, r, g) != MIXED


class TestRefine:
    def test_two_petal_split_to_four(self, ctx_r8p1):
        sys, t, S = ctx_r8p1.sys, ctx_r8p1.tangle, ctx_r8p1.S
        f = verify_flower(sys, t, [lab(1, 2, 3, 4), lab(5, 6, 7, 8)])
        sep = Separation.make(sys, lab(1, 2, 5, 6), 4)
        refined = refine_with(sys, t, S, f, sep)
        assert refined.n == 4
        got = displayed_kS(sys, t, S, refined)
        assert Separation.make(sys, lab(1, 2, 5, 6), 4) in got

    def test_all_weakly_crossed_returns_none(self, ctx_r8p1):
        sys, t, S = ctx_r8p1.sys, ctx_r8p1.tangle, ctx_r8p1.S
        sep = Separation.make(sys, lab(1, 3, 5, 7), 4)
        assert refine_with(sys, t, S, phi_r8(ctx_r8p1), sep) is None

    def test_conforming_rejected(self, ctx_r8p1):
        sys, t, S = ctx_r8p1.sys, ctx_r8p1.tangle, ctx_r8p1.S
        sep = Separation.make(sys, lab(1, 2, 3, 4), 4)
        with pytest.raises(PreconditionFailed):
            refine_with(sys, t, S, phi_r8(ctx_r8p1), sep)

    def test_second_crossed_petal_is_split_too(self):
        # on C5 at order 2 the side {0,1,4} crosses {1,2} and {3,4}: the
        # first split meets the next petal crossed as well, which takes
        # `_split_crossed_petal`'s second-crossed-petal branch; the result
        # is the 5-petal daisy, loose-free, with every class conforming
        from tangleforge import build_default_S, enumerate_tangles
        from tangleforge.flowers import Uncrossed, first_nonconforming
        sys = ConnectivitySystem.graph([(i, (i + 1) % 5) for i in range(5)])
        t, = enumerate_tangles(sys, 2)
        S = build_default_S(sys, t)
        f = verify_flower(sys, t, [sys.mask([0]), sys.mask([1, 2]), sys.mask([3, 4])])
        refined = refine_with(sys, t, S, f, Separation.make(sys, sys.mask([0, 1, 4]), 2))
        assert [elements_of(p) for p in refined.petals] == [[3], [4], [0], [1], [2]]
        assert classify(sys, refined) == DAISY
        assert loose_petals(sys, t, refined) == []
        assert first_nonconforming(sys, S, Uncrossed(S, refined), refined.petals) is None


class TestMaximalFlower:
    def test_u26_everything_conforms(self, ctx_u26):
        sys, t, S = ctx_u26.sys, ctx_u26.tangle, ctx_u26.S
        seed = S.separations()[0]
        f = maximal_flower(sys, t, S, seed)
        for sep in S.separations():
            assert conforms_with_flower(sys, t, S, sep, f)

    def test_r8_obstruction(self, ctx_r8p1):
        sys, t, S = ctx_r8p1.sys, ctx_r8p1.tangle, ctx_r8p1.S
        seed = Separation.make(sys, lab(1, 2, 3, 4), 4)
        with pytest.raises(NonRobustObstruction) as err:
            maximal_flower(sys, t, S, seed)
        assert elements_of(err.value.separation.side) == [0, 2, 4, 6]
        # the flower reached is equivalent to Phi_R8: same three classes
        reached = err.value.flower
        assert (displayed_class_ids(sys, t, S, reached)
                == displayed_class_ids(sys, t, S, phi_r8(ctx_r8p1)))

    def test_c6_two_petal_seed_conforms_already(self, ctx_c6):
        # with two petals, every separation tucks a side into a petal
        sys, t, S = ctx_c6.sys, ctx_c6.tangle, ctx_c6.S
        f = maximal_flower(sys, t, S, S.separations()[0])
        assert f.n == 2
        for sep in S.separations():
            assert conforms_with_flower(sys, t, S, sep, f)

    def test_c6_three_petal_seed_grows_to_daisy(self, ctx_c6):
        from tangleforge.flowers import maximal_flower_from
        sys, t, S = ctx_c6.sys, ctx_c6.tangle, ctx_c6.S
        runs = [sys.mask([1, 2, 3, 4]), sys.mask([5]), sys.mask([0])]
        f = maximal_flower_from(sys, t, S, verify_flower(sys, t, runs))
        assert f.n == 6
        assert classify(sys, f) == DAISY
        assert len(displayed_class_ids(sys, t, S, f)) == 15

    def test_non_kS_seed_rejected(self, ctx_r8p1):
        with pytest.raises(PreconditionFailed):
            maximal_flower(ctx_r8p1.sys, ctx_r8p1.tangle, ctx_r8p1.S,
                           Separation.make(ctx_r8p1.sys, lab(1, 2), 4))

    def test_seed_with_a_sequential_side_is_refused(self):
        # S = {X, E-X} with X = {0,7} is not tree-compatible: X is
        # sequential, so the seed's petal X is loose (merging it left a
        # one-petal "flower" before)
        from tangleforge import enumerate_tangles
        from tangleforge.closure import TreeCompatibleSet, verify_tree_compatible
        sys = ConnectivitySystem.graph([(1, 2), (0, 5), (0, 3), (0, 3), (3, 5), (2, 4),
                                        (0, 1), (1, 2)])
        t = enumerate_tangles(sys, 2)[0]
        x = sys.mask([0, 7])
        S = TreeCompatibleSet(sys, t, explicit=[x, sys.full ^ x])
        assert verify_tree_compatible(sys, t, S)
        with pytest.raises(PreconditionFailed) as err:
            maximal_flower(sys, t, S, Separation.make(sys, x, 2))
        assert type(err.value) is PreconditionFailed
        assert str(err.value) == "seed has a sequential side"

    def test_loose_petal_in_the_loop_raises(self, ctx_r8p1, monkeypatch):
        # a refinement that came back loose stops the loop, with the flower
        # as witness
        import tangleforge.flowers as flowers
        sys, t, S = ctx_r8p1.sys, ctx_r8p1.tangle, ctx_r8p1.S
        loose = verify_flower(sys, t, [lab(1, 2), sys.full ^ lab(1, 2)])
        assert loose_petals(sys, t, loose)
        monkeypatch.setattr(flowers, "_refine", lambda *args: loose)
        with pytest.raises(ViolationFound, match="loose petal") as err:
            flowers.maximal_flower_from(sys, t, S, phi_r8(ctx_r8p1))
        assert err.value.witness is loose

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_obstruction_replicates_for_every_ell(self, ell):
        # the cube polymatroid behaves identically at every order ell + 3
        from tangleforge import (ConnectivitySystem, NonRobustObstruction,
                                 enumerate_tangles, is_robust)
        from tangleforge.closure import build_default_S
        k = ell + 3
        sys = ConnectivitySystem.r8_polymatroid(ell)
        tangles = enumerate_tangles(sys, k)
        assert len(tangles) == 1
        tangle = tangles[0]
        assert tangle.members == frozenset([0] + [1 << e for e in range(8)])
        assert not is_robust(tangle)
        S = build_default_S(sys, tangle)
        assert len(S.classes()) == 6
        f = verify_flower(sys, tangle, [lab(1, 2), lab(3, 4), lab(5, 6), lab(7, 8)])
        assert classify(sys, f) == ANEMONE
        diag = Separation.make(sys, lab(1, 3, 5, 7), k)
        assert not conforms_with_flower(sys, tangle, S, diag, f)
        with pytest.raises(NonRobustObstruction) as err:
            maximal_flower(sys, tangle, S, Separation.make(sys, lab(1, 2, 3, 4), k))
        assert elements_of(err.value.separation.side) == [0, 2, 4, 6]

    def test_robust_outputs_conform_everywhere(self, ctx_barbell, ctx_pc4, ctx_u56):
        # for robust tangles every (k,S)-separation conforms with the result
        for ctx in (ctx_barbell, ctx_pc4, ctx_u56):
            sys, t, S = ctx.sys, ctx.tangle, ctx.S
            for seed in S.separations()[:3]:
                f = maximal_flower(sys, t, S, seed)
                for sep in S.separations():
                    assert conforms_with_flower(sys, t, S, sep, f)


class TestFlowerEquivalenceLaws:
    def test_weak_absorption_raw(self, ctx_barbell):
        # loose-free flowers with >= 2 displayed classes absorb weak sets
        # into a petal without changing classes or petal closures
        from tangleforge.closure import full_closure
        sys, t, S = ctx_barbell.sys, ctx_barbell.tangle, ctx_barbell.S
        checked = 0
        for f in oracle_flowers(sys, t, 4):
            if loose_petals(sys, t, Flower(f.petals, f.k)):
                continue
            if len(displayed_class_ids(sys, t, S, f)) < 2:
                continue
            for i, p in enumerate(f.petals):
                rest = sys.full ^ p
                for m in t.maximal_members:
                    x = m & rest
                    if x and sys.lam(p | x) <= t.k:
                        rotated = f.petals[i:] + f.petals[:i]
                        new = (rotated[0] | x,) + tuple(q & ~x for q in rotated[1:])
                        if any(q == 0 for q in new):
                            continue
                        g = verify_flower(sys, t, new)
                        assert (displayed_class_ids(sys, t, S, g)
                                == displayed_class_ids(sys, t, S, f))
                        assert (full_closure(sys, t, new[0])
                                == full_closure(sys, t, rotated[0]))
                        for old_q, new_q in zip(rotated[1:], new[1:]):
                            assert (full_closure(sys, t, new_q)
                                    == full_closure(sys, t, old_q))
                        checked += 1
        assert checked >= 2

    def test_tight_concatenation_stays_loose_free(self, ctx_c6, ctx_r8p1):
        # concatenating at a displayed (k,S)-separation keeps loose-freeness
        for ctx in (ctx_c6, ctx_r8p1):
            sys, t, S = ctx.sys, ctx.tangle, ctx.S
            for f in oracle_flowers(sys, t, 4):
                fl = Flower(f.petals, f.k)
                if f.n < 3 or loose_petals(sys, t, fl):
                    continue
                if len(displayed_class_ids(sys, t, S, fl)) < 2:
                    continue
                for j in range(2, f.n):
                    prefix = 0
                    for p in f.petals[:j]:
                        prefix |= p
                    sep = Separation.make(sys, prefix, f.k)
                    if sys.lam(prefix) <= f.k and S.is_kS_separation(sep):
                        g = concatenate(fl, [j, f.n])
                        g = verify_flower(sys, t, g.petals)
                        assert loose_petals(sys, t, g) == []


@settings(max_examples=60, deadline=None)
@given(petals=st.lists(st.integers(0, (1 << 16) - 1), max_size=9))
def test_petal_unions_match_the_lowbit_dp(petals):
    assert petal_unions(petals) == literal_petal_unions(petals)


@pytest.mark.parametrize("call, message", [
    # {1,2,3} has lambda 5, so it is not even 4-separating
    pytest.param(lambda ctx: phi_minimum_representative(
        ctx.sys, ctx.tangle, ctx.S, Separation.make(ctx.sys, lab(1, 2, 3), 4), phi_r8(ctx)),
        "not a (k,S)-separation", id="phi-not-kS"),
    # the petal {1,2} lies in the closure of the other petal
    pytest.param(lambda ctx: refine_with(
        ctx.sys, ctx.tangle, ctx.S, Flower((lab(1, 2), ctx.sys.full ^ lab(1, 2)), 4),
        ctx.S.separations()[0]),
        "flower has loose petals", id="refine-loose-flower"),
])
def test_flower_refusals(ctx_r8p1, call, message):
    with pytest.raises(PreconditionFailed) as err:
        call(ctx_r8p1)
    assert type(err.value) is PreconditionFailed and str(err.value) == message
