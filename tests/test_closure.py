import pytest

from tangleforge import (ConnectivitySystem, RankFunction, build_default_S,
                         enumerate_tangles, equivalent_separations, full_closure,
                         is_fully_closed, is_sequential, verify_tree_compatible)
from tangleforge.bitset import elements_of
from tangleforge.closure import (Separation, TreeCompatibleSet, closure_pair,
                                 full_closure_sequence, strong_k_separations)
from tangleforge.errors import PreconditionFailed, SearchSpaceTooLarge
from tangleforge.oracle import oracle_classes
from tangleforge.tangles import Tangle

from conftest import (K5_EDGES, count_lam, equivalent_one_sided, lab,
                      validate_partial_k_sequence, weak_extension_candidates)


def strong_k_separating_sets(ctx):
    sys, t = ctx.sys, ctx.tangle
    return [x for x in range(1 << sys.n)
            if sys.lam(x) <= t.k and t.is_strong(x)]


class TestFullyClosed:
    def test_r8_face_pair_closed(self, ctx_r8p1):
        assert is_fully_closed(ctx_r8p1.sys, ctx_r8p1.tangle, lab(1, 2))

    def test_r8_diagonal_side_closed(self, ctx_r8p1):
        assert is_fully_closed(ctx_r8p1.sys, ctx_r8p1.tangle, lab(2, 4, 6, 8))

    def test_full_ground_set_vacuous(self, ctx_r8p1):
        assert is_fully_closed(ctx_r8p1.sys, ctx_r8p1.tangle, ctx_r8p1.sys.full)

    def test_six_set_not_closed(self, ctx_r8p1):
        # co-singletons are 4-separating, so the 6-set absorbs a singleton
        assert not is_fully_closed(ctx_r8p1.sys, ctx_r8p1.tangle,
                                   lab(3, 4, 5, 6, 7, 8))

    def test_weak_argument_rejected(self, ctx_r8p1):
        with pytest.raises(PreconditionFailed):
            is_fully_closed(ctx_r8p1.sys, ctx_r8p1.tangle, lab(1))


class TestFullClosure:
    def test_r8_pair_is_its_own_closure(self, ctx_r8p1):
        assert full_closure(ctx_r8p1.sys, ctx_r8p1.tangle, lab(1, 2)) == lab(1, 2)

    def test_r8_six_set_closes_to_everything(self, ctx_r8p1):
        assert (full_closure(ctx_r8p1.sys, ctx_r8p1.tangle, lab(3, 4, 5, 6, 7, 8))
                == ctx_r8p1.sys.full)

    def test_u24_no_weak_sets_means_identity(self, ctx_u26, u24):
        # with tangle {empty} nothing weak exists: singletons are closed,
        # and non-2-separating arguments are outside the domain
        from tangleforge.tangles import Tangle
        t = Tangle(u24, 2, [0])
        assert full_closure(u24, t, 1) == 1
        with pytest.raises(PreconditionFailed):
            full_closure(u24, t, lab(1, 2))  # lam = 3 > 2

    def test_barbell_pair_absorbs_far_triangle(self, ctx_barbell):
        sys, t = ctx_barbell.sys, ctx_barbell.tangle
        assert full_closure(sys, t, sys.mask([0, 1])) == sys.mask([0, 1, 3, 4, 5, 6])
        assert full_closure(sys, t, sys.mask([2])) == sys.mask([2, 3, 4, 5, 6])

    def test_closure_laws_exhaustive(self, ctx_r8p1, ctx_barbell, ctx_pc4):
        # extensivity, monotonicity, idempotence over the whole domain
        for ctx in (ctx_r8p1, ctx_barbell, ctx_pc4):
            sys, t = ctx.sys, ctx.tangle
            domain = strong_k_separating_sets(ctx)
            closures = {x: full_closure(sys, t, x) for x in domain}
            for x, fx in closures.items():
                assert x & ~fx == 0
                assert closures[fx] == fx
            for x in domain:
                for y in domain:
                    if x & ~y == 0:
                        assert closures[x] & ~closures[y] == 0

    def test_greedy_order_independence(self, ctx_r8p1, ctx_barbell, ctx_pc4):
        # a reversed-candidate greedy run lands on the same fixed point
        for ctx in (ctx_r8p1, ctx_barbell, ctx_pc4):
            sys, t = ctx.sys, ctx.tangle
            for x in strong_k_separating_sets(ctx):
                cur = x
                while True:
                    cands = weak_extension_candidates(t, sys.full ^ cur)
                    for y in reversed(cands):
                        if sys.lam(cur | y) <= t.k:
                            cur |= y
                            break
                    else:
                        break
                assert cur == full_closure(sys, t, x)

    @pytest.mark.parametrize("fixture", ["ctx_r8p1", "ctx_u26", "ctx_u56", "ctx_c6",
                                         "ctx_pc4", "ctx_barbell", "ctx_r8m3", "ctx_mk4"])
    def test_steps_equal_the_literal_greedy(self, fixture, request):
        # smallest weak extension first, least mask within a size
        ctx = request.getfixturevalue(fixture)
        sys, t = ctx.sys, ctx.tangle
        for x in strong_k_separating_sets(ctx):
            cur, steps = x, []
            while True:
                for y in weak_extension_candidates(t, sys.full ^ cur):
                    if sys.lam(cur | y) <= t.k:
                        cur |= y
                        steps.append(y)
                        break
                else:
                    break
            assert full_closure_sequence(sys, t, x) == (cur, steps), x
            assert is_fully_closed(sys, t, x) == (steps == [])

    def test_tables_match_lambda_and_members(self, ctx_r8p1, ctx_barbell, ctx_mk4):
        for ctx in (ctx_r8p1, ctx_barbell, ctx_mk4):
            sys, t = ctx.sys, ctx.tangle
            for k in range(t.k + 2):
                family = sys.k_separating(k)
                assert all((family >> x & 1) == (sys.lam(x) <= k) for x in range(1 << sys.n))
            weak = {x for x in range(1 << sys.n) if any(x & ~m == 0 for m in t.members)}
            assert {x for x in range(1 << sys.n) if t.weak_family >> x & 1} == weak
            assert all(t.is_weak(x) == (x in weak) for x in range(1 << sys.n))

    def test_k_separating_family_without_a_byte_table(self):
        # values above 255 leave the byte table out; the family is read off
        # the flags built from the list
        from tangleforge import ConnectivitySystem
        table = [300 + bin(x).count("1") * (3 - bin(x).count("1")) for x in range(8)]
        sys = ConnectivitySystem.from_table(3, table, verify=False)
        assert not isinstance(sys._table, bytes)
        assert sys.k_separating(302) == sum(1 << x for x in range(8) if table[x] <= 302)

    def test_recorded_sequence_is_partial_k_sequence(self, ctx_barbell):
        sys, t = ctx_barbell.sys, ctx_barbell.tangle
        for x in strong_k_separating_sets(ctx_barbell):
            fcl, steps = full_closure_sequence(sys, t, x)
            assert validate_partial_k_sequence(sys, t, x, steps)
            acc = x
            for y in steps:
                acc |= y
            assert acc == fcl


class TestPartialKSequence:
    def test_empty_sequence(self, ctx_r8p1):
        assert validate_partial_k_sequence(ctx_r8p1.sys, ctx_r8p1.tangle,
                                           lab(1, 2), [])

    def test_overlap_rejected(self, ctx_barbell):
        sys, t = ctx_barbell.sys, ctx_barbell.tangle
        y = sys.mask([4])
        assert not validate_partial_k_sequence(sys, t, sys.mask([0]), [y, y])

    def test_r8_singleton_breaks_separation(self, ctx_r8p1):
        # adding any singleton to a diagonal plane gives lambda 5 > 4
        assert not validate_partial_k_sequence(ctx_r8p1.sys, ctx_r8p1.tangle,
                                               lab(2, 4, 6, 8), [lab(1)])

    def test_partial_sequences_stay_inside_closure(self, ctx_barbell, ctx_pc4):
        # any valid partial k-sequence stays inside the full closure
        for ctx in (ctx_barbell, ctx_pc4):
            sys, t = ctx.sys, ctx.tangle
            for x in strong_k_separating_sets(ctx):
                fx = full_closure(sys, t, x)
                rest = sys.full ^ x
                for y in weak_extension_candidates(t, rest):
                    if validate_partial_k_sequence(sys, t, x, [y]):
                        assert (x | y) & ~fx == 0

    def test_random_multi_term_sequences_stay_inside_closure(self, ctx_barbell,
                                                             ctx_pc4, ctx_r8p1):
        import random
        rng = random.Random(11)
        for ctx in (ctx_barbell, ctx_pc4, ctx_r8p1):
            sys, t = ctx.sys, ctx.tangle
            for x in strong_k_separating_sets(ctx):
                fx = full_closure(sys, t, x)
                for _ in range(4):  # random greedy walks, arbitrary order
                    cur, seq = x, []
                    while True:
                        options = [y for y in
                                   weak_extension_candidates(t, sys.full ^ cur)
                                   if sys.lam(cur | y) <= t.k]
                        if not options or rng.random() < 0.3:
                            break
                        y = rng.choice(options)
                        cur |= y
                        seq.append(y)
                    assert validate_partial_k_sequence(sys, t, x, seq)
                    assert cur & ~fx == 0


class TestSequential:
    def test_r8_diagonal_not_sequential(self, ctx_r8p1):
        assert not is_sequential(ctx_r8p1.sys, ctx_r8p1.tangle, lab(1, 3, 5, 7))

    def test_empty_set_sequential(self, ctx_r8p1):
        assert is_sequential(ctx_r8p1.sys, ctx_r8p1.tangle, 0)

    def test_r8_pair_sequential(self, ctx_r8p1):
        # fcl({3..8}) = E via co-singletons, so {1,2} is sequential
        assert is_sequential(ctx_r8p1.sys, ctx_r8p1.tangle, lab(1, 2))

    def test_weak_complement_gives_false(self, ctx_r8p1):
        # E has weak complement (the empty set is a member)
        assert not is_sequential(ctx_r8p1.sys, ctx_r8p1.tangle, ctx_r8p1.sys.full)

    def test_barbell_strong_pairs_not_sequential(self, ctx_barbell):
        sys, t = ctx_barbell.sys, ctx_barbell.tangle
        assert not is_sequential(sys, t, sys.mask([0, 1]))
        assert not is_sequential(sys, t, sys.mask([0]))


class TestEquivalence:
    def test_reflexive(self, ctx_r8p1):
        s = Separation.make(ctx_r8p1.sys, lab(1, 2, 3, 4), 4)
        assert equivalent_separations(ctx_r8p1.sys, ctx_r8p1.tangle, s, s)

    def test_r8_face_vs_diagonal(self, ctx_r8p1):
        s1 = Separation.make(ctx_r8p1.sys, lab(1, 2, 3, 4), 4)
        s2 = Separation.make(ctx_r8p1.sys, lab(1, 3, 5, 7), 4)
        assert not equivalent_separations(ctx_r8p1.sys, ctx_r8p1.tangle, s1, s2)

    def test_weak_flap_move(self, ctx_barbell):
        # (R, G) ~ (R | A, G - A) for a weak flap A
        sys, t = ctx_barbell.sys, ctx_barbell.tangle
        s1 = Separation.make(sys, sys.mask([0, 1]), 2)
        s2 = Separation.make(sys, sys.mask([0, 1, 3, 4, 5, 6]), 2)
        assert equivalent_separations(sys, t, s1, s2)

    def test_weak_side_rejected(self, ctx_r8p1):
        s1 = Separation.make(ctx_r8p1.sys, lab(1), 4)
        with pytest.raises(PreconditionFailed):
            equivalent_separations(ctx_r8p1.sys, ctx_r8p1.tangle, s1, s1)

    def test_one_sided_agrees_on_nonsequential(self, ctx_barbell, ctx_pc4, ctx_r8p1):
        for ctx in (ctx_barbell, ctx_pc4, ctx_r8p1):
            seps = ctx.S.separations()
            for s1 in seps:
                for s2 in seps:
                    assert (equivalent_separations(ctx.sys, ctx.tangle, s1, s2)
                            == equivalent_one_sided(ctx.sys, ctx.tangle, s1, s2))

    def test_equivalence_relation_on_enumeration(self, ctx_pc4):
        sys, t = ctx_pc4.sys, ctx_pc4.tangle
        seps = ctx_pc4.S.separations()
        pairs = {s: closure_pair(sys, t, s) for s in seps}
        for a in seps:
            assert pairs[a] == pairs[a]
            for b in seps:
                if pairs[a] == pairs[b]:
                    assert pairs[b] == pairs[a]
                    for c in seps:
                        if pairs[b] == pairs[c]:
                            assert pairs[a] == pairs[c]

    def test_closing_a_side_preserves_the_class(self, ctx_barbell, ctx_pc4):
        # (fcl(R), E - fcl(R)) is equivalent to every non-sequential (R,G)
        for ctx in (ctx_barbell, ctx_pc4):
            sys, t = ctx.sys, ctx.tangle
            for sep in ctx.S.separations():
                r = sep.side
                fr = full_closure(sys, t, r)
                moved = Separation.make(sys, fr, t.k)
                assert equivalent_separations(sys, t, sep, moved)


class TestSeparationCanonical:
    def test_canonical_side_contains_zero(self, u24):
        s = Separation.make(u24, lab(2), 2)
        assert s.side & 1
        assert s == Separation.make(u24, u24.full ^ lab(2), 2)

    def test_involution_stable(self, u24):
        s = Separation.make(u24, lab(1, 2), 3)
        assert Separation.make(u24, s.side, 3) == s

    def test_value_semantics_of_the_pair(self, u24):
        """Set and dict orders, sorted output and reprs all rest on these."""
        assert Separation.make(u24, 0b1110, 2) == Separation(0b0001, 2)
        seps = [Separation(5, 2), Separation(3, 3), Separation(5, 1), Separation(1, 2)]
        for s in seps:
            assert hash(s) == hash((s.side, s.k))
        assert [(s.side, s.k) for s in sorted(seps)] == sorted((s.side, s.k) for s in seps)
        assert repr(Separation(5, 2)) == "Separation(side=5, k=2)"
        with pytest.raises(AttributeError):
            seps[0].side = 7
        with pytest.raises(AttributeError):
            seps[0].extra = 1


class TestTreeCompatible:
    def test_default_S_verifies(self, ctx_u26, ctx_barbell, ctx_pc4, ctx_r8p1):
        for ctx in (ctx_u26, ctx_barbell, ctx_pc4, ctx_r8p1):
            assert verify_tree_compatible(ctx.sys, ctx.tangle, ctx.S) == []

    def test_explicit_family_alone_is_the_family(self, ctx_c6):
        # an explicit family needs no other argument, and an empty one is
        # still explicit: it has no separations, not the default S's 15
        sys, t = ctx_c6.sys, ctx_c6.tangle
        side = sys.mask([0, 1, 2])
        one = TreeCompatibleSet(sys, t, explicit=[side, sys.full ^ side])
        assert one.separations() == [Separation(side, 2)]
        assert one.classes() == [[Separation(side, 2)]]
        assert oracle_classes(sys, t, one) == [[Separation(side, 2)]]
        empty = TreeCompatibleSet(sys, t, explicit=[])
        assert not empty.contains(side)
        assert empty.separations() == [] and empty.classes() == []
        assert oracle_classes(sys, t, empty) == []
        assert len(ctx_c6.S.separations()) == 15

    def test_all_subsets_family_fails(self, ctx_r8p1):
        sys, t = ctx_r8p1.sys, ctx_r8p1.tangle
        every = TreeCompatibleSet(sys, t, explicit=range(1, sys.full))
        assert verify_tree_compatible(sys, t, every) != []

    def test_refused_above_scan_cap_before_any_lambda(self, monkeypatch):
        # closures and the S-family scan all 2^n masks of a system's table;
        # a ground set above MAX_N is refused when the system is built,
        # before its table is (byte_lanes would raise)
        from tangleforge import ConnectivitySystem, core

        def no_table(*args):
            raise AssertionError("table built")

        monkeypatch.setattr(core, "byte_lanes", no_table)
        with pytest.raises(SearchSpaceTooLarge):
            ConnectivitySystem.graph([(i, i + 1) for i in range(core.MAX_N + 1)])

    def test_r8_diagonal_in_default_S(self, ctx_r8p1):
        assert ctx_r8p1.S.contains(lab(1, 3, 5, 7))
        assert not ctx_r8p1.S.contains(lab(1, 2))  # sequential side


class TestEnumerationAndClasses:
    def test_r8_exactly_six_plane_separations(self, ctx_r8p1):
        got = sorted(elements_of(s.side) for s in ctx_r8p1.S.separations())
        assert got == [
            [0, 1, 2, 3],   # bottom face
            [0, 1, 4, 5],   # side face 1265
            [0, 1, 6, 7],   # diagonal 1278
            [0, 2, 4, 6],   # diagonal 1357
            [0, 3, 4, 7],   # side face 1458
            [0, 3, 5, 6],   # diagonal 1467
        ]
        assert all(len(cls) == 1 for cls in ctx_r8p1.S.classes())

    def test_no_strong_separations_means_empty(self):
        from tangleforge import ConnectivitySystem, enumerate_tangles
        from tangleforge.closure import build_default_S
        table = [9] * 8
        table[0] = table[7] = 1
        sys = ConnectivitySystem.from_table(3, table)
        t = enumerate_tangles(sys, 2)[0]
        assert build_default_S(sys, t).separations() == []

    def test_u24_singleton_separations(self, u24):
        from tangleforge import enumerate_tangles
        from tangleforge.closure import build_default_S
        t = enumerate_tangles(u24, 2)[0]
        s_family = build_default_S(u24, t)
        got = sorted(elements_of(s.side) for s in s_family.separations())
        # each singleton against its complement, canonical side holding 0
        assert got == [[0], [0, 1, 2], [0, 1, 3], [0, 2, 3]]

    def test_u26_six_singleton_classes(self, ctx_u26):
        got = [[elements_of(s.side) for s in cls] for cls in ctx_u26.S.classes()]
        assert got == [[[0]], [[0, 1, 2, 3, 4]], [[0, 1, 2, 3, 5]],
                       [[0, 1, 2, 4, 5]], [[0, 1, 3, 4, 5]], [[0, 2, 3, 4, 5]]]

    def test_barbell_classes_merge_across_bridge(self, ctx_barbell):
        got = [[elements_of(s.side) for s in cls] for cls in ctx_barbell.S.classes()]
        assert got == [[[0]],
                       [[0, 1], [0, 1, 3, 4, 5, 6]],
                       [[0, 2], [0, 2, 3, 4, 5, 6]]]

    def test_pc4_classes(self, ctx_pc4):
        got = [[elements_of(s.side) for s in cls] for cls in ctx_pc4.S.classes()]
        assert got == [[[0], [0, 4]],
                       [[0, 1], [0, 1, 4]],
                       [[0, 1, 2], [0, 1, 2, 4]],
                       [[0, 3, 4]],
                       [[0, 1, 3, 4]],
                       [[0, 2, 3, 4]]]

    def test_every_kS_separation_is_strong_and_nonsequential(self, ctx_barbell):
        sys, t = ctx_barbell.sys, ctx_barbell.tangle
        strong = set(strong_k_separations(sys, t))
        for sep in ctx_barbell.S.separations():
            assert sep in strong
            a, b = sep.sides(sys)
            assert not is_sequential(sys, t, a)
            assert not is_sequential(sys, t, b)


class TestClosureCost:
    @pytest.mark.parametrize("build, k, want_lam", [
        (lambda: ConnectivitySystem.graph([(i, (i + 1) % 10) for i in range(10)]), 2, 90),
        (lambda: ConnectivitySystem.matroid(RankFunction.uniform(7, 8)), 2, 254),
        (lambda: ConnectivitySystem.matroid(RankFunction.graphic(K5_EDGES)), 4, 0),
    ], ids=["C10", "U7_8", "MK5"])
    def test_default_S_classes_lam_calls(self, build, k, want_lam):
        """The default S is read from the tangle's tables, built without a
        lam call, so the classes cost the closure pairs of their 45, 127 and
        0 members: one call per side, the precondition of its closure.
        Deciding each member by a greedy closure of its complement took 181,
        509 and 539."""
        system = build()
        tangle = enumerate_tangles(system, k)[0]
        calls = count_lam(system)
        build_default_S(system, tangle).classes()
        assert calls[0] == want_lam


def explicit_family(ctx, drop=(), add=()):
    """The default family's members minus `drop` plus `add`, as an explicit S."""
    sys = ctx.sys
    members = [x for x in range(1 << sys.n) if ctx.S.contains(x) and x not in drop]
    return TreeCompatibleSet(sys, ctx.tangle, explicit=members + list(add))


def violations(ctx, family):
    return [v.to_json() for v in verify_tree_compatible(ctx.sys, ctx.tangle, family)]


class TestTreeCompatibleViolations:
    """Full violation lists: S-definition first, then (S1), then (S2)."""

    def test_pc4_definition_s1_and_s2(self, ctx_pc4):
        sys = ctx_pc4.sys
        # {0,2} is not 2-separating and E has a weak complement; dropping
        # {0,4} leaves its class mate ({0}, E-{0}) alone in S.
        family = explicit_family(ctx_pc4, drop=[sys.mask([0, 4])],
                                 add=[sys.mask([0, 2]), sys.full])
        assert violations(ctx_pc4, family) == [
            {"axiom": "S-definition", "witness": [[0, 2]]},
            {"axiom": "S-definition", "witness": [[0, 1, 2, 3, 4]]},
            {"axiom": "S1", "witness": [[0], [0, 4]]},
            {"axiom": "S2", "witness": [[0], [0, 4]]},
        ]

    def test_barbell_dropped_class_member(self, ctx_barbell):
        family = explicit_family(ctx_barbell, drop=[ctx_barbell.sys.mask([0, 1, 3, 4, 5, 6])])
        assert violations(ctx_barbell, family) == [
            {"axiom": "S1", "witness": [[0, 1], [0, 1, 3, 4, 5, 6]]},
            {"axiom": "S2", "witness": [[0], [0, 1, 3, 4, 5, 6]]},
            {"axiom": "S2", "witness": [[1], [0, 1, 3, 4, 5, 6]]},
            {"axiom": "S2", "witness": [[0, 1], [0, 1, 3, 4, 5, 6]]},
            {"axiom": "S2", "witness": [[1, 3, 4, 5, 6], [0, 1, 3, 4, 5, 6]]},
        ]

    def test_c6_dropped_superset_breaks_only_s2(self, ctx_c6):
        # every class of C6 is a singleton, so dropping {0,1,2} breaks no (S1)
        family = explicit_family(ctx_c6, drop=[ctx_c6.sys.mask([0, 1, 2])])
        assert violations(ctx_c6, family) == [
            {"axiom": "S2", "witness": [[0], [0, 1, 2]]},
            {"axiom": "S2", "witness": [[1], [0, 1, 2]]},
            {"axiom": "S2", "witness": [[0, 1], [0, 1, 2]]},
            {"axiom": "S2", "witness": [[2], [0, 1, 2]]},
            {"axiom": "S2", "witness": [[1, 2], [0, 1, 2]]},
        ]


def test_class_of_outside_the_index_matches_a_closure_pair_scan(
        ctx_r8p1, ctx_r8m3, ctx_pc4, ctx_barbell):
    families = [(ctx_r8p1, ctx_r8p1.S), (ctx_r8m3, ctx_r8m3.S),
                (ctx_pc4, explicit_family(ctx_pc4, drop=[ctx_pc4.sys.mask([0, 4])])),
                (ctx_barbell, explicit_family(
                    ctx_barbell, drop=[ctx_barbell.sys.mask([0, 1, 3, 4, 5, 6])]))]
    outcomes = set()
    for ctx, family in families:
        sys, t = ctx.sys, ctx.tangle
        for sep in strong_k_separations(sys, t):
            if family.is_kS_separation(sep):
                continue
            key = closure_pair(sys, t, sep)
            want = next((cls for cls in family.classes()
                         if closure_pair(sys, t, cls[0]) == key), [sep])
            assert family.class_of(sep) == want
            outcomes.add(want == [sep])
    assert outcomes == {True, False}  # both a matching class and none occur


@pytest.mark.parametrize("call, message", [
    # three points of a face of the cube: lambda 3 + 4 + 1 - 3 = 5 > 4
    pytest.param(lambda ctx: is_sequential(ctx.sys, ctx.tangle, lab(1, 2, 3)),
                 "set is not 4-separating", id="sequential-not-k-separating"),
    pytest.param(lambda ctx: Separation.make(ctx.sys, 1 << ctx.sys.n, 4),
                 "side outside ground set", id="side-outside-E"),
    pytest.param(lambda ctx: TreeCompatibleSet(ctx.sys, ctx.tangle, explicit=[-1]),
                 "member outside ground set", id="explicit-S-member-outside-E"),
    pytest.param(lambda ctx: ctx.S.contains(1 << ctx.sys.n),
                 "mask 0x100 outside ground set", id="default-S-mask-outside-E"),
    pytest.param(lambda ctx: TreeCompatibleSet(ctx.sys, ctx.tangle, explicit=[1]).contains(-1),
                 "mask -0x1 outside ground set", id="explicit-S-negative-mask"),
    pytest.param(lambda ctx: TreeCompatibleSet(ctx.sys, ctx.tangle, explicit=[1]).contains(
        1 << ctx.sys.n), "mask 0x100 outside ground set", id="explicit-S-mask-outside-E"),
])
def test_closure_refusals(ctx_r8p1, call, message):
    with pytest.raises(PreconditionFailed) as err:
        call(ctx_r8p1)
    assert type(err.value) is PreconditionFailed and str(err.value) == message
