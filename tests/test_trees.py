import pytest

from tangleforge import (ConnectivitySystem, RankFunction, build_maximal_tree,
                         displayed_kS, displayed_separations, enumerate_tangles, extend_tree,
                         flower_to_tree, grow_terminal_bag, is_robust,
                         retarget_terminal_bag, split_terminal_bag, verify_flower,
                         verify_partial_kS_tree)
from tangleforge.bitset import elements_of
from tangleforge.closure import Separation, TreeCompatibleSet, build_default_S, full_closure
from tangleforge.errors import PreconditionFailed, ViolationFound
from tangleforge.oracle import differential_report, oracle_certify_tree
from tangleforge.trees import PiTree, single_bag_tree

from conftest import (Ctx, conforms_with_tree, displayed_tree_class_ids, lab,
                      laminarity_check, submasks)


def face_tree(ctx):
    """Two-bag tree on the R_8 face separation."""
    return PiTree(4, {0: lab(1, 2, 3, 4), 1: lab(5, 6, 7, 8)}, {}, [(0, 1)])


def phi_r8_tree(ctx):
    f = verify_flower(ctx.sys, ctx.tangle,
                      [lab(1, 2), lab(3, 4), lab(5, 6), lab(7, 8)])
    return flower_to_tree(ctx.sys, ctx.tangle, f)


class TestDisplayed:
    def test_two_bag_edge(self, ctx_r8p1):
        t = face_tree(ctx_r8p1)
        sep = Separation.make(ctx_r8p1.sys, t.side(0, 1), t.k)
        assert sep == Separation.make(ctx_r8p1.sys, lab(1, 2, 3, 4), 4)

    def test_star_flower_vertex_displays_unions(self, ctx_r8p1):
        t = phi_r8_tree(ctx_r8p1)
        f = verify_flower(ctx_r8p1.sys, ctx_r8p1.tangle, t.petals_at(0), t.k)
        shown = displayed_separations(ctx_r8p1.sys, ctx_r8p1.tangle, f)
        sides = {s.side for s in shown}
        assert lab(1, 2, 3, 4) in sides          # consecutive union
        assert lab(1, 2, 5, 6) in sides          # anemone cross union
        assert Separation.make(ctx_r8p1.sys, lab(1, 2), 4).side in sides

    def test_path_of_bags_prefix_unions(self, ctx_u56):
        sys = ctx_u56.sys
        t = PiTree(2, {0: sys.mask([0]), 1: sys.mask([1]),
                       2: sys.mask([2, 3, 4, 5])}, {}, [(0, 1), (1, 2)])
        assert Separation.make(sys, t.side(0, 1), t.k).side == sys.mask([0])
        assert Separation.make(sys, t.side(1, 2), t.k).side == sys.mask([0, 1])

    def test_malformed_trees_are_refused_at_construction(self):
        # these raised KeyError from __init__ and IndexError from the checks
        with pytest.raises(PreconditionFailed, match=r"edge \(0,5\) has an end"):
            PiTree(2, {0: 7}, {}, [(0, 5)])
        with pytest.raises(PreconditionFailed, match="tree has no vertex"):
            PiTree(2, {}, {}, [])


class TestFlowerToTree:
    def test_one_petal(self, ctx_r8p1):
        f = verify_flower(ctx_r8p1.sys, ctx_r8p1.tangle, [ctx_r8p1.sys.full])
        t = flower_to_tree(ctx_r8p1.sys, ctx_r8p1.tangle, f)
        assert len(t.vertices()) == 1 and not t.edges()

    def test_two_petals(self, ctx_r8p1):
        f = verify_flower(ctx_r8p1.sys, ctx_r8p1.tangle,
                          [lab(1, 2, 3, 4), lab(5, 6, 7, 8)])
        t = flower_to_tree(ctx_r8p1.sys, ctx_r8p1.tangle, f)
        assert len(t.edges()) == 1 and not t.labels

    def test_anemone_star(self, ctx_r8p1):
        t = phi_r8_tree(ctx_r8p1)
        assert t.labels == {0: "A"}
        assert len(t.edges()) == 4
        assert 0 not in t.cyclic

    def test_daisy_star_has_cyclic_order(self, ctx_c6):
        f = verify_flower(ctx_c6.sys, ctx_c6.tangle, [1 << i for i in range(6)])
        t = flower_to_tree(ctx_c6.sys, ctx_c6.tangle, f)
        assert t.labels == {0: "D"}
        assert t.cyclic[0] == (1, 2, 3, 4, 5, 6)


class TestVerify:
    def test_sequential_bag_edge_fails_p1(self, ctx_r8p1):
        # ({1,2}, rest) is a strong k-separation but not a (k,S)-separation,
        # and the edge joins two bag vertices
        sys = ctx_r8p1.sys
        t = PiTree(4, {0: lab(1, 2), 1: sys.full ^ lab(1, 2)}, {}, [(0, 1)])
        verdict = verify_partial_kS_tree(sys, ctx_r8p1.tangle, ctx_r8p1.S, t)
        assert not verdict.passed["P1"]

    def test_phi_r8_tree_fails_p5(self, ctx_r8p1):
        verdict = verify_partial_kS_tree(ctx_r8p1.sys, ctx_r8p1.tangle,
                                         ctx_r8p1.S, phi_r8_tree(ctx_r8p1))
        assert verdict.passed["P1"] and verdict.passed["P3"]
        assert not verdict.passed["P5"]
        witnesses = [w for a, w in verdict.failures if a == "P5"]
        assert witnesses and witnesses[0].side == lab(1, 3, 5, 7)

    def test_face_tree_passes_all_but_p5(self, ctx_r8p1):
        verdict = verify_partial_kS_tree(ctx_r8p1.sys, ctx_r8p1.tangle,
                                         ctx_r8p1.S, face_tree(ctx_r8p1))
        assert verdict.passed["P1"]
        assert not verdict.passed["P5"]

    def test_weak_label_checked(self, ctx_c6):
        # mislabelling the daisy as A must fail (P3)
        sys, tangle, S = ctx_c6.sys, ctx_c6.tangle, ctx_c6.S
        bags = {i + 1: 1 << i for i in range(6)}
        t = PiTree(2, bags, {0: "A"}, [(0, i + 1) for i in range(6)])
        verdict = verify_partial_kS_tree(sys, tangle, S, t)
        assert not verdict.passed["P3"]

    def test_failing_verdict_json_has_structured_witnesses(self, ctx_r8p1, ctx_c6, ctx_u56,
                                                           ctx_pc4):
        sys = ctx_r8p1.sys
        t = PiTree(4, {0: lab(1, 2), 1: sys.full ^ lab(1, 2)}, {}, [(0, 1)])
        data = verify_partial_kS_tree(sys, ctx_r8p1.tangle, ctx_r8p1.S, t).to_json()
        assert not data["ok"]
        assert data["failures"] == [{"axiom": "P1", "witness": [0, 1]},
                                    {"axiom": "P5", "witness": [0, 2, 4, 6]}]
        bags = {i + 1: 1 << i for i in range(6)}
        t = PiTree(2, bags, {0: "A"}, [(0, i + 1) for i in range(6)])
        data = verify_partial_kS_tree(ctx_c6.sys, ctx_c6.tangle, ctx_c6.S, t).to_json()
        assert data["failures"] == [{"axiom": "P3", "witness": {
            "vertex": 0, "detail": "flower vertex fails label/order/looseness"}}]
        # the same star labelled D on the anemone of U_{5,6}
        star = PiTree(2, bags, {0: "D"}, [(0, i + 1) for i in range(6)], {0: tuple(bags)})
        data = verify_partial_kS_tree(ctx_u56.sys, ctx_u56.tangle, ctx_u56.S, star).to_json()
        assert data["failures"] == [{"axiom": "P4", "witness": {
            "vertex": 0, "detail": "flower vertex fails label/order/looseness"}}]
        # edges 0 and 2 of C6 are next to each other in the cyclic order
        swapped = star.replaced(cyclic={0: (1, 3, 2, 4, 5, 6)})
        data = verify_partial_kS_tree(ctx_c6.sys, ctx_c6.tangle, ctx_c6.S, swapped).to_json()
        assert data["failures"] == [
            {"axiom": "P4",
             "witness": {"vertex": 0, "detail": "mask 0x5 has connectivity 4 > 2"}},
            {"axiom": "P5", "witness": [0, 1]}]
        # a daisy star on the pendant C4 whose pendant edge 4 is a weak petal
        pendant = PiTree(2, {i + 1: 1 << i for i in range(5)}, {0: "D"},
                         [(0, i + 1) for i in range(5)], {0: (1, 2, 3, 4, 5)})
        data = verify_partial_kS_tree(ctx_pc4.sys, ctx_pc4.tangle, ctx_pc4.S, pendant).to_json()
        assert data["failures"] == [
            {"axiom": "P1", "witness": [0, 5]},
            {"axiom": "P4", "witness": {"vertex": 0, "detail": "petal 4 is weak"}},
            {"axiom": "P5", "witness": [0, 1]}]
        # {0,1} and E-{0} overlap in 1 but cover E
        c6 = ctx_c6.sys
        t = PiTree(2, {0: 0b11, 1: c6.full ^ 0b1}, {}, [(0, 1)])
        data = verify_partial_kS_tree(c6, ctx_c6.tangle, ctx_c6.S, t).to_json()
        assert data["failures"] == [{"axiom": "P2", "witness": "bags overlap"}]
        # {0,1} and {1,2,3,4} overlap and miss 5; other axioms fail as well
        t2 = PiTree(2, {0: 0b11, 1: 0b11110}, {}, [(0, 1)])
        data = verify_partial_kS_tree(c6, ctx_c6.tangle, ctx_c6.S, t2).to_json()
        assert [f for f in data["failures"] if f["axiom"] == "P2"] == [
            {"axiom": "P2", "witness": "bags overlap"},
            {"axiom": "P2", "witness": "bags do not cover the ground set"}]
        # {0,1}, {1,2}, {2,3,4,5} on a path: two bags meet an earlier one,
        # and the overlap is still one fault
        t3 = PiTree(2, {0: 0b11, 1: 0b110, 2: 0b111100}, {}, [(0, 1), (1, 2)])
        # the oracle's certificate names the same bag faults in the same words
        for tree in (t, t2, t3):
            engine = [w for a, w in verify_partial_kS_tree(c6, ctx_c6.tangle, ctx_c6.S,
                                                           tree).failures if a == "P2"]
            problems = oracle_certify_tree(c6, ctx_c6.tangle, ctx_c6.S, tree)[1]
            assert [m for m in problems if m.startswith("bags ")] == engine != []
        assert engine == ["bags overlap"]
        # a daisy vertex that also holds an empty bag is a structure fault;
        # its petals are checked like those of any flower vertex
        both = swapped.replaced(bags={**swapped.bags, 0: 0}, cyclic={0: (1, 2, 3, 4, 5, 6)})
        data = verify_partial_kS_tree(c6, ctx_c6.tangle, ctx_c6.S, both).to_json()
        assert data["failures"] == [
            {"axiom": "P2", "witness": "vertex both bag and flower vertex"}]


class TestConformsWithTree:
    def test_displayed_conforms(self, ctx_r8p1):
        t = face_tree(ctx_r8p1)
        sep = Separation.make(ctx_r8p1.sys, lab(1, 2, 3, 4), 4)
        assert conforms_with_tree(ctx_r8p1.sys, ctx_r8p1.tangle, ctx_r8p1.S, sep, t)

    def test_side_in_bag_conforms(self, ctx_r8p1):
        t = face_tree(ctx_r8p1)
        sep = Separation.make(ctx_r8p1.sys, lab(1, 2, 5, 6), 4)
        # {1,2,5,6} is no union of the two bags, but crossing reps exist?
        # No: its class is a singleton; it conforms iff a side fits a bag.
        assert not conforms_with_tree(ctx_r8p1.sys, ctx_r8p1.tangle,
                                      ctx_r8p1.S, sep, t)

    def test_r8_diagonal_never_conforms(self, ctx_r8p1):
        sep = Separation.make(ctx_r8p1.sys, lab(1, 3, 5, 7), 4)
        for t in (face_tree(ctx_r8p1), phi_r8_tree(ctx_r8p1)):
            assert not conforms_with_tree(ctx_r8p1.sys, ctx_r8p1.tangle,
                                          ctx_r8p1.S, sep, t)

    def test_side_tucked_in_bag_conforms(self, ctx_barbell):
        sys, tangle, S = ctx_barbell.sys, ctx_barbell.tangle, ctx_barbell.S
        t = PiTree(2, {0: sys.mask([0, 1]), 1: sys.mask([2, 3, 4, 5, 6])},
                   {}, [(0, 1)])
        tucked = Separation.make(sys, sys.mask([2]), 2)  # {a3} inside bag 1
        assert conforms_with_tree(sys, tangle, S, tucked, t)


class TestSurgery:
    def barbell_two_bag(self, ctx):
        sys = ctx.sys
        return PiTree(2, {0: sys.mask([0, 1]), 1: sys.mask([2, 3, 4, 5, 6])},
                      {}, [(0, 1)])

    def test_grow(self, ctx_barbell):
        sys, t, S = ctx_barbell.sys, ctx_barbell.tangle, ctx_barbell.S
        tree = self.barbell_two_bag(ctx_barbell)
        grown = grow_terminal_bag(sys, t, S, tree, 0, sys.mask([3, 4, 5, 6]))
        assert grown.bags[0] == sys.mask([0, 1, 3, 4, 5, 6])
        assert grown.bags[1] == sys.mask([2])
        assert verify_partial_kS_tree(sys, t, S, grown).ok
        assert (displayed_tree_class_ids(sys, t, S, grown)
                == displayed_tree_class_ids(sys, t, S, tree))

    def test_grow_reaches_full_closure(self, ctx_barbell):
        sys, t, S = ctx_barbell.sys, ctx_barbell.tangle, ctx_barbell.S
        from tangleforge.closure import full_closure_sequence
        tree = self.barbell_two_bag(ctx_barbell)
        b = tree.bags[0]
        _, steps = full_closure_sequence(sys, t, b)
        for y in steps:
            tree = grow_terminal_bag(sys, t, S, tree, 0, y)
        assert tree.bags[0] == full_closure(sys, t, b)

    def test_grow_rejects_empty_or_strong(self, ctx_barbell):
        sys, t, S = ctx_barbell.sys, ctx_barbell.tangle, ctx_barbell.S
        tree = self.barbell_two_bag(ctx_barbell)
        with pytest.raises(PreconditionFailed):
            grow_terminal_bag(sys, t, S, tree, 0, 0)
        with pytest.raises(PreconditionFailed):
            grow_terminal_bag(sys, t, S, tree, 0, sys.mask([2]))  # strong

    def test_grow_rejects_non_separating_result(self, ctx_barbell):
        sys, t, S = ctx_barbell.sys, ctx_barbell.tangle, ctx_barbell.S
        tree = self.barbell_two_bag(ctx_barbell)
        with pytest.raises(PreconditionFailed):
            grow_terminal_bag(sys, t, S, tree, 0, sys.mask([3]))  # lam = 3

    def test_split(self, ctx_barbell):
        sys, t, S = ctx_barbell.sys, ctx_barbell.tangle, ctx_barbell.S
        sysm = sys.mask
        tree = PiTree(2, {0: sysm([0, 1, 3, 4, 5, 6]), 1: sysm([2])}, {}, [(0, 1)])
        split = split_terminal_bag(sys, t, S, tree, 0, sysm([3, 4, 5, 6]))
        assert split.bags[0] == sysm([3, 4, 5, 6])
        assert split.bags[2] == sysm([0, 1])
        assert split.is_leaf(2)
        assert verify_partial_kS_tree(sys, t, S, split).ok
        assert (displayed_tree_class_ids(sys, t, S, split)
                == displayed_tree_class_ids(sys, t, S, tree))

    def test_split_rejects_whole_bag(self, ctx_barbell):
        sys, t, S = ctx_barbell.sys, ctx_barbell.tangle, ctx_barbell.S
        tree = self.barbell_two_bag(ctx_barbell)
        with pytest.raises(PreconditionFailed):
            split_terminal_bag(sys, t, S, tree, 0, tree.bags[0])  # strong

    def test_retarget_identity(self, ctx_barbell):
        sys, t, S = ctx_barbell.sys, ctx_barbell.tangle, ctx_barbell.S
        tree = self.barbell_two_bag(ctx_barbell)
        out, holder = retarget_terminal_bag(sys, t, S, tree, 0, tree.bags[0])
        # C = B: no grow to fcl(B) and split back, so the tree comes back as it was
        assert (out.bags, out.edges(), holder) == (tree.bags, tree.edges(), 0)
        assert out.bags[holder] == tree.bags[0]
        assert (displayed_tree_class_ids(sys, t, S, out)
                == displayed_tree_class_ids(sys, t, S, tree))

    def test_retarget_across_closure(self, ctx_barbell):
        sys, t, S = ctx_barbell.sys, ctx_barbell.tangle, ctx_barbell.S
        sysm = sys.mask
        tree = self.barbell_two_bag(ctx_barbell)
        target = sysm([0, 1, 3, 4, 5, 6])  # same closure as {a1,a2}
        out, holder = retarget_terminal_bag(sys, t, S, tree, 0, target)
        assert out.bags[holder] == target
        assert verify_partial_kS_tree(sys, t, S, out).ok
        assert (displayed_tree_class_ids(sys, t, S, out)
                == displayed_tree_class_ids(sys, t, S, tree))

    def test_retarget_rejects_different_closure(self, ctx_barbell):
        sys, t, S = ctx_barbell.sys, ctx_barbell.tangle, ctx_barbell.S
        tree = self.barbell_two_bag(ctx_barbell)
        with pytest.raises(PreconditionFailed):
            retarget_terminal_bag(sys, t, S, tree, 0, sys.mask([0, 2]))

    def test_pc4_grow_and_retarget(self, ctx_pc4):
        sys, t, S = ctx_pc4.sys, ctx_pc4.tangle, ctx_pc4.S
        tree = PiTree(2, {0: sys.mask([0]), 1: sys.mask([1, 2, 3, 4])},
                      {}, [(0, 1)])
        grown = grow_terminal_bag(sys, t, S, tree, 0, sys.mask([4]))
        assert grown.bags[0] == sys.mask([0, 4])
        assert (displayed_tree_class_ids(sys, t, S, grown)
                == displayed_tree_class_ids(sys, t, S, tree))
        out, holder = retarget_terminal_bag(sys, t, S, tree, 0, sys.mask([0, 4]))
        assert out.bags[holder] == sys.mask([0, 4])


class TestLaminarity:
    def test_built_trees_laminar(self, ctx_barbell, ctx_pc4):
        for ctx in (ctx_barbell, ctx_pc4):
            t = build_maximal_tree(ctx.sys, ctx.tangle, ctx.S)
            assert laminarity_check(ctx.sys, t)

    def test_single_edge_tree(self, ctx_r8p1):
        assert laminarity_check(ctx_r8p1.sys, face_tree(ctx_r8p1))

    def test_crossing_pair_on_non_tree_input(self, u24):
        broken = PiTree(2, {0: u24.mask([0, 1]), 1: u24.mask([2, 3]),
                            2: u24.mask([0, 2]), 3: u24.mask([1, 3])},
                        {}, [(0, 1), (2, 3)])
        # the two "edges" display {0,1} vs {0,2}: all four intersections hit
        assert not laminarity_check(u24, broken)


class TestExtendAndBuild:
    def test_extend_from_trivial_tree(self, ctx_u26):
        sys, tangle, S = ctx_u26.sys, ctx_u26.tangle, ctx_u26.S
        t0 = single_bag_tree(sys, 2)
        t1 = extend_tree(sys, tangle, S, t0)
        assert t1 is not None
        assert len(displayed_tree_class_ids(sys, tangle, S, t1)) >= 1

    def test_extend_on_maximal_returns_done(self, ctx_u26):
        sys, tangle, S = ctx_u26.sys, ctx_u26.tangle, ctx_u26.S
        t = build_maximal_tree(sys, tangle, S)
        assert extend_tree(sys, tangle, S, t) is None

    def test_extend_rejects_non_robust(self, ctx_r8p1):
        with pytest.raises(PreconditionFailed):
            extend_tree(ctx_r8p1.sys, ctx_r8p1.tangle, ctx_r8p1.S,
                        face_tree(ctx_r8p1))

    def test_extend_strictly_increases_classes(self, ctx_c6, ctx_barbell):
        for ctx in (ctx_c6, ctx_barbell):
            sys, tangle, S = ctx.sys, ctx.tangle, ctx.S
            t = single_bag_tree(sys, tangle.k)
            count = 0
            while True:
                nxt = extend_tree(sys, tangle, S, t)
                if nxt is None:
                    break
                assert (displayed_tree_class_ids(sys, tangle, S, t)
                        < displayed_tree_class_ids(sys, tangle, S, nxt))
                t = nxt
                count += 1
                assert count < 64
            assert (displayed_tree_class_ids(sys, tangle, S, t)
                    == frozenset(range(len(S.classes()))))

    def test_step_not_above_its_input_raises(self, ctx_u26, monkeypatch):
        # U_{2,6}'s construction splits internal bags (Case II); a split
        # that returns its input shows no new class, so the step is refused
        from tangleforge import trees
        monkeypatch.setattr(trees, "_split_internal_bag",
                            lambda sys, tangle, s_family, t, u, side: t)
        sys, tangle, S = ctx_u26.sys, ctx_u26.tangle, ctx_u26.S
        with pytest.raises(ViolationFound, match="not above its input") as info:
            build_maximal_tree(sys, tangle, S)
        assert info.value.witness in S.separations()

    def test_seed_flower_displaying_one_class_raises(self, ctx_c6, monkeypatch):
        # a maximal flower of three or more petals displays two classes; a
        # six-petal daisy under an S of one separation shows one, so the
        # seed refuses it with the flower as witness
        from tangleforge import trees
        sys, tangle = ctx_c6.sys, ctx_c6.tangle
        x = ctx_c6.S.separations()[0].side
        S = TreeCompatibleSet(sys, tangle, explicit=[x, sys.full ^ x])
        daisy = verify_flower(sys, tangle, [1 << i for i in range(6)])
        monkeypatch.setattr(trees, "maximal_flower", lambda *args: daisy)
        with pytest.raises(ViolationFound, match="displays one class") as info:
            build_maximal_tree(sys, tangle, S)
        assert info.value.witness is daisy

    @pytest.mark.parametrize("merge, shown", [
        # ({2,3,4,5}, {0,1}) crosses B1 = {1,...,5}
        ((1, 2), "b1"),
        # ({0}, {1,...,5}) displays B1 but crosses Z = {2,3,4,5}
        ((0, 1), "wz"),
    ], ids=["crosses-B1", "misses-WZ"])
    def test_case_one_flower_must_display_what_f0_displays(self, ctx_c6, monkeypatch,
                                                           merge, shown):
        # C6's one extension step grafts at B1 = {1,...,5} a maximal flower
        # grown from f0 = (Z, B1 & W, E - B1) = ({2,3,4,5}, {1}, {0}); a
        # flower that does not display (B1, E - B1), or (W, Z), raises
        # with that separation as witness
        from tangleforge import trees
        sys, tangle = ctx_c6.sys, ctx_c6.tangle
        seen = []

        def not_split_only(sys_, tangle_, s_family, f0):
            seen.append(f0)
            kept = [p for i, p in enumerate(f0.petals) if i not in merge]
            merged = sys.full ^ sum(kept)
            return verify_flower(sys, tangle, kept + [merged])

        monkeypatch.setattr(trees, "maximal_flower_from", not_split_only)
        with pytest.raises(ViolationFound, match="does not display") as err:
            build_maximal_tree(sys, tangle, ctx_c6.S)
        f0, = seen
        z, bw, _ = f0.petals
        assert [elements_of(p) for p in f0.petals] == [[2, 3, 4, 5], [1], [0]]
        side = z | bw if shown == "b1" else z
        assert err.value.witness == Separation.make(sys, side, 2)

    def test_zero_separation_instance_gives_single_bag(self, u49):
        tangle = [t for t in enumerate_tangles(u49, 3)][0]
        S = build_default_S(u49, tangle)
        assert S.separations() == []
        t = build_maximal_tree(u49, tangle, S)
        assert len(t.vertices()) == 1
        assert t.bags[0] == u49.full

    def test_one_class_instance_gives_two_bags(self):
        sys = ConnectivitySystem.matroid(RankFunction.uniform(1, 2))
        tangle = enumerate_tangles(sys, 2)[0]
        S = build_default_S(sys, tangle)
        assert len(S.classes()) == 1
        t = build_maximal_tree(sys, tangle, S)
        assert len(t.vertices()) == 2 and len(t.edges()) == 1

    @pytest.mark.parametrize("fixture", ["ctx_u26", "ctx_u56", "ctx_c6",
                                         "ctx_pc4", "ctx_barbell"])
    def test_build_displays_every_class(self, fixture, request):
        ctx = request.getfixturevalue(fixture)
        sys, tangle, S = ctx.sys, ctx.tangle, ctx.S
        t = build_maximal_tree(sys, tangle, S)
        verdict = verify_partial_kS_tree(sys, tangle, S, t)
        assert verdict.ok, verdict.failures
        assert (displayed_tree_class_ids(sys, tangle, S, t)
                == frozenset(range(len(S.classes()))))
        ok, problems = oracle_certify_tree(sys, tangle, S, t)
        assert ok, problems

    def test_c6_tree_has_daisy_vertex(self, ctx_c6):
        t = build_maximal_tree(ctx_c6.sys, ctx_c6.tangle, ctx_c6.S)
        assert "D" in t.labels.values()

    def test_u56_tree_has_anemone_vertex(self, ctx_u56):
        t = build_maximal_tree(ctx_u56.sys, ctx_u56.tangle, ctx_u56.S)
        assert "A" in t.labels.values()


CHAIN_EDGES = [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (4, 6),
               (6, 7), (7, 8), (8, 9), (7, 9)]


@pytest.fixture(scope="module")
def chain_ctx():
    from tangleforge.tangles import Tangle
    sys = ConnectivitySystem.graph(CHAIN_EDGES, verify=False)
    mid = Tangle(sys, 2, [0, sys.mask([0, 1, 2]), sys.mask([0, 1, 2, 3]),
                          sys.mask([8, 9, 10]), sys.mask([7, 8, 9, 10])])
    return Ctx(sys, mid)


class TestTriangleChain:
    """Three triangles joined by two bridges: the middle tangle has weak
    tails on both sides, so classes have up to four representatives and the
    tree combines path bags with a flower vertex."""

    def test_middle_tangle_verifies_and_is_robust(self, chain_ctx):
        from tangleforge import verify_tangle
        assert verify_tangle(chain_ctx.sys, chain_ctx.tangle) == []
        assert is_robust(chain_ctx.tangle)

    def test_classes_absorb_both_tails(self, chain_ctx):
        got = [[elements_of(s.side) for s in cls] for cls in chain_ctx.S.classes()]
        assert got == [
            [[0, 1, 2, 3, 4], [0, 1, 2, 3, 5, 6, 7, 8, 9, 10]],
            [[0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 6],
             [0, 1, 2, 3, 4, 5, 7, 8, 9, 10], [0, 1, 2, 3, 6, 7, 8, 9, 10]],
            [[0, 1, 2, 3, 4, 6], [0, 1, 2, 3, 4, 6, 7, 8, 9, 10]],
        ]

    def test_build_and_verify(self, chain_ctx):
        sys, tangle, S = chain_ctx.sys, chain_ctx.tangle, chain_ctx.S
        t = build_maximal_tree(sys, tangle, S)
        verdict = verify_partial_kS_tree(sys, tangle, S, t)
        assert verdict.ok, verdict.failures
        assert (displayed_tree_class_ids(sys, tangle, S, t)
                == frozenset(range(len(S.classes()))))
        assert laminarity_check(sys, t)

    def test_build_runs_robustness_search_once(self, chain_ctx, monkeypatch):
        from tangleforge import tangles
        fresh = Ctx(chain_ctx.sys, tangles.Tangle(chain_ctx.sys, 2, chain_ctx.tangle.members))
        calls = []
        search = tangles._no_eight_members_cover
        monkeypatch.setattr(tangles, "_no_eight_members_cover",
                            lambda t: calls.append(t) or search(t))
        build_maximal_tree(fresh.sys, fresh.tangle, fresh.S)
        assert calls == [fresh.tangle]


def _built_trees(ctx, chain):
    """Every kind of tree this file builds: hand-made trees, surgery
    results, a non-tree input, every extension step and the maximal trees."""
    r8, c6, u56 = ctx["r8p1"], ctx["c6"], ctx["u56"]
    out = [(r8, face_tree(r8)), (r8, phi_r8_tree(r8)),
           (r8, PiTree(4, {0: lab(1, 2), 1: r8.sys.full ^ lab(1, 2)}, {}, [(0, 1)])),
           (u56, PiTree(2, {0: u56.sys.mask([0]), 1: u56.sys.mask([1]),
                            2: u56.sys.mask([2, 3, 4, 5])}, {}, [(0, 1), (1, 2)])),
           (c6, PiTree(2, {i + 1: 1 << i for i in range(6)}, {0: "A"},
                       [(0, i + 1) for i in range(6)])),
           (c6, flower_to_tree(c6.sys, c6.tangle,
                               verify_flower(c6.sys, c6.tangle, [1 << i for i in range(6)])))]
    bb = ctx["barbell"]
    two_bag = PiTree(2, {0: bb.sys.mask([0, 1]), 1: bb.sys.mask([2, 3, 4, 5, 6])},
                     {}, [(0, 1)])
    out += [(bb, two_bag),
            (bb, grow_terminal_bag(bb.sys, bb.tangle, bb.S, two_bag, 0,
                                   bb.sys.mask([3, 4, 5, 6]))),
            (bb, retarget_terminal_bag(bb.sys, bb.tangle, bb.S, two_bag, 0,
                                       bb.sys.mask([0, 1, 3, 4, 5, 6]))[0])]
    u24 = ConnectivitySystem.matroid(RankFunction.uniform(2, 4))
    u24_ctx = Ctx(u24, enumerate_tangles(u24, 2)[0])
    out.append((u24_ctx, PiTree(2, {0: u24.mask([0, 1]), 1: u24.mask([2, 3]),
                                    2: u24.mask([0, 2]), 3: u24.mask([1, 3])},
                                {}, [(0, 1), (2, 3)])))
    for c in (ctx["u26"], u56, c6, ctx["pc4"], bb, chain):
        t = single_bag_tree(c.sys, c.k)
        while t is not None:
            out.append((c, t))
            t = extend_tree(c.sys, c.tangle, c.S, t)
    return out


def test_tree_displays_match_oracle(ctx_r8p1, ctx_c6, ctx_u56, ctx_u26, ctx_pc4,
                                    ctx_barbell, chain_ctx):
    from tangleforge.oracle import _certify_walk
    ctx = {"r8p1": ctx_r8p1, "c6": ctx_c6, "u56": ctx_u56, "u26": ctx_u26,
           "pc4": ctx_pc4, "barbell": ctx_barbell}
    trees = _built_trees(ctx, chain_ctx)
    assert len(trees) > 25
    for c, t in trees:
        got = verify_partial_kS_tree(c.sys, c.tangle, c.S, t).displayed
        assert got == sorted(_certify_walk(c.sys, c.tangle, c.S, t)[0]), t.edges()


def test_one_oracle_scan_per_flower_vertex(ctx_r8p1, ctx_c6, ctx_u56, ctx_u26, ctx_pc4,
                                           ctx_barbell, chain_ctx):
    # the displays, flower test and class that the certificate's walk takes
    # from one scan of each flower vertex are what the separate literal
    # scans give; an A label makes the walk name any class but anemone
    from tangleforge.flowers import Flower
    from tangleforge.oracle import (_Sides, _certify_walk, _displayed_unions,
                                    _flower_class_literal, _weak)
    ctx = {"r8p1": ctx_r8p1, "c6": ctx_c6, "u56": ctx_u56, "u26": ctx_u26,
           "pc4": ctx_pc4, "barbell": ctx_barbell}
    checked = set()
    for c, t in _built_trees(ctx, chain_ctx):
        sys, k = c.sys, t.k
        sides = _Sides(t)
        want = {Separation.make(sys, sides[e], k) for e in t.edges()
                if 0 != sides[e] != sys.full and sys.lam(sides[e]) <= k}
        problems = _certify_walk(sys, c.tangle, c.S, t)[1]
        for v in t.labels:
            petals = tuple(sides[w, v] for w in t.cyclic.get(v, t.adj[v]))
            n = len(petals)
            want |= _displayed_unions(sys, k, petals)
            is_flower = (n >= 3 and all(petals)
                         and not any(_weak(c.tangle, p) for p in petals)
                         and all(sys.lam(p) <= k for p in petals)
                         and all(sys.lam(petals[i] | petals[(i + 1) % n]) <= k
                                 for i in range(n)))
            assert (f"flower vertex {v} does not display a flower" not in problems) == is_flower
            if is_flower:
                klass = _flower_class_literal(sys, Flower(petals, k))
                as_a = t.replaced(labels={**t.labels, v: "A"})
                named = [p for p in _certify_walk(sys, c.tangle, c.S, as_a)[1]
                         if p.startswith(f"P3 fails at vertex {v}:")]
                want_named = [] if klass == "anemone" else [f"P3 fails at vertex {v}: {klass}"]
                assert named == want_named
                checked.add(klass)
        assert _certify_walk(sys, c.tangle, c.S, t)[0] == want
    assert checked == {"anemone", "daisy"}


def test_failing_flower_vertex_is_checked_once(ctx_c6, monkeypatch):
    # the display records the error of the vertex's petals; the verifier
    # reports it without checking the petals again
    import tangleforge.trees as trees
    calls = []

    def counting(*args):
        calls.append(args[2])
        return verify_flower(*args)

    monkeypatch.setattr(trees, "verify_flower", counting)
    t = PiTree(2, {i + 1: 1 << i for i in range(6)}, {0: "D"},
               [(0, i + 1) for i in range(6)], {0: (1, 3, 2, 4, 5, 6)})
    verdict = verify_partial_kS_tree(ctx_c6.sys, ctx_c6.tangle, ctx_c6.S, t)
    assert [a for a, _ in verdict.failures] == ["P4", "P5"]
    assert verdict.passed == {"P2": True, "P1": True, "P3": True, "P4": False, "P5": False}
    assert calls == [t.petals_at(0)]


def test_separation_of_another_order_is_no_kS_separation(ctx_c6):
    # both sides of ({0}, rest) are in S, but only at the tangle's order is
    # it a (k,S)-separation; so C6's two-bag tree on it, copied to order 3,
    # fails (P1) at its bag-bag edge, and its terminal bag is no S-terminal
    # bag; the C10 tree copied to order 3 has no bag-bag edge, and fails at
    # its daisy vertex instead
    from pathlib import Path

    from tangleforge.jsonio import load_system_file
    sys, tangle, S = ctx_c6.sys, ctx_c6.tangle, ctx_c6.S
    assert S.is_kS_separation(Separation(1, 2))
    assert not S.is_kS_separation(Separation(1, 3))
    two_bag = PiTree(2, {0: 1, 1: sys.full ^ 1}, {}, [(0, 1)])
    assert verify_partial_kS_tree(sys, tangle, S, two_bag).ok
    copy = PiTree(3, two_bag.bags, {}, two_bag.edge_list)
    verdict = verify_partial_kS_tree(sys, tangle, S, copy)
    assert verdict.to_json()["failures"] == [{"axiom": "P1", "witness": [0, 1]}]
    with pytest.raises(PreconditionFailed, match="terminal bag is not an S-terminal bag"):
        split_terminal_bag(sys, tangle, S, copy, 0, 1)
    sys = load_system_file(str(Path(__file__).resolve().parent / "golden" / "c10.json"))
    tangle = enumerate_tangles(sys, 2)[0]
    S = build_default_S(sys, tangle)
    t = build_maximal_tree(sys, tangle, S)
    copy = PiTree(3, t.bags, t.labels, t.edge_list, t.cyclic)
    verdict = verify_partial_kS_tree(sys, tangle, S, copy)
    assert [a for a, _ in verdict.failures] == ["P4", "P5"]


def test_lam_error_at_flower_vertex_propagates():
    # a TypeError while classifying a flower vertex is a bug, not a failed
    # (P3)/(P4) verdict; classify reads every petal union through lam_flags
    from conftest import C6_EDGES
    sys = ConnectivitySystem.graph(C6_EDGES)  # own instance: lam_flags is replaced
    tangle = enumerate_tangles(sys, 2)[0]
    S = build_default_S(sys, tangle)
    t = build_maximal_tree(sys, tangle, S)
    (v,) = t.labels
    petals = t.petals_at(v)
    assert len(petals) == 6
    inner = sys.lam_flags
    failed = []

    def lam_flags(k, masks):
        if not failed:
            failed.append(list(masks))
            raise TypeError("lam cannot evaluate these unions")
        return inner(k, masks)

    sys.lam_flags = lam_flags
    with pytest.raises(TypeError):
        verify_partial_kS_tree(sys, tangle, S, t)
    assert len(failed) == 1 and petals[0] | petals[2] in failed[0]


def test_maximal_k_separating_between_matches_the_submask_walk(ctx_barbell, ctx_r8p1,
                                                               ctx_mk4):
    import random
    from tangleforge.bitset import maximal_masks
    from tangleforge.trees import _maximal_k_separating_between
    rng = random.Random(23)
    for ctx in (ctx_barbell, ctx_r8p1, ctx_mk4):
        sys, t = ctx.sys, ctx.tangle
        for _ in range(200):
            upper = rng.getrandbits(sys.n)
            lower = rng.getrandbits(sys.n)
            if rng.random() < 0.8:
                lower &= upper
            allow_equal = rng.random() < 0.5
            gap = upper & ~lower
            found = [z for z in (lower | s for s in submasks(gap))
                     if (z != upper or allow_equal) and sys.lam(z) <= t.k]
            if not found:
                with pytest.raises(PreconditionFailed):
                    _maximal_k_separating_between(sys, t, lower, upper, allow_equal)
            else:
                assert (_maximal_k_separating_between(sys, t, lower, upper, allow_equal)
                        == min(maximal_masks(found)))


@pytest.mark.parametrize("name", ["c10", "u67"])
def test_construction_builds_no_display_set(name, monkeypatch):
    # extension steps carry class ids found by petal crossing, and the
    # flower loop asks conformity by crossing and refines without asking
    # again, so the maximal trees of C10 and U_{6,7} come out the same with
    # every display-set builder raising
    import json
    from pathlib import Path

    import tangleforge.flowers as flowers
    import tangleforge.trees as trees
    from tangleforge import canonical_vertical_tangle
    from tangleforge.jsonio import dumps, load_system_file, tree_to_json

    golden = Path(__file__).resolve().parent / "golden"
    system = load_system_file(str(golden / f"{name}.json"))
    tangle = (canonical_vertical_tangle(system, 2) if system.kind == "matroid"
              else enumerate_tangles(system, 2)[0])
    s_family = build_default_S(system, tangle)

    def refuse(*args):
        raise AssertionError("a display set was built")

    for module, attr in ((flowers, "conforms_with_flower"), (trees, "displayed_separations"),
                         (flowers, "displayed_separations")):
        monkeypatch.setattr(module, attr, refuse)
    t = build_maximal_tree(system, tangle, s_family)
    monkeypatch.undo()
    want = json.loads((golden / f"tree-{name}.out").read_text())
    del want["verdict"]
    assert json.loads(dumps(tree_to_json(system, t))) == want


def test_order_three_tree_with_three_flower_vertices():
    # Elements are the hyperedges below, and lam(X) counts the vertices
    # that meet a hyperedge in X and one in E - X.  This input lies off
    # the paper's ground: every singleton has lam 3, so at order 3 the
    # singletons are strong (ROADMAP item 12).
    hyperedges = [(0, 2, 3), (1, 2, 3), (0, 1, 2), (0, 1, 2), (1, 2, 3)]
    n = len(hyperedges)

    def lam(x):
        ends = [set(), set()]
        for i, edge in enumerate(hyperedges):
            ends[x >> i & 1].update(edge)
        return len(ends[0] & ends[1])

    system = ConnectivitySystem.from_table(n, [lam(x) for x in range(1 << n)])
    tangles = enumerate_tangles(system, 3)
    assert [t.members for t in tangles] == [frozenset({0})]
    tangle, = tangles
    assert is_robust(tangle)
    s_family = build_default_S(system, tangle)
    assert len(s_family.classes()) == 7
    tree = build_maximal_tree(system, tangle, s_family)
    assert len(tree.vertices()) == 8
    assert sorted(tree.labels.values()) == ["A", "A", "A"]
    assert any(u in tree.labels and v in tree.labels for u, v in tree.edges())
    verdict = verify_partial_kS_tree(system, tangle, s_family, tree)
    assert verdict.ok, verdict.to_json()
    ok, problems = oracle_certify_tree(system, tangle, s_family, tree)
    assert ok, problems
    report = differential_report(system, tangle, s_family, max_petals=4)
    assert report.ok, report.disagreements


def test_star_of_a_flower_showing_one_class_has_s_order_below_three():
    """A 3-petal anemone whose displays all lie in one (k,S)-class: on the
    multigraph below at order 2 the flower ({e0}, {e1,e3}, {e2,e4}) shows
    {e0} and {e0,e2,e4}, one class of three.  Its star fails the engine's
    (P3) and the oracle's S-order test."""
    system = ConnectivitySystem.graph([(2, 4), (2, 4), (1, 2), (2, 4), (0, 4)])
    tangle, = enumerate_tangles(system, 2)
    assert sorted(tangle.members) == [0, 1 << 2, 1 << 4] and is_robust(tangle)
    s_family = build_default_S(system, tangle)
    assert len(s_family.classes()) == 3
    f = verify_flower(system, tangle, [0b00001, 0b01010, 0b10100])
    shown = displayed_kS(system, tangle, s_family, f)
    assert [s.side for s in shown] == [0b00001, 0b10101]
    assert len({s_family.class_id(s) for s in shown}) == 1
    t = flower_to_tree(system, tangle, f)
    verdict = verify_partial_kS_tree(system, tangle, s_family, t)
    assert [a for a, _ in verdict.failures] == ["P3"]
    ok, problems = oracle_certify_tree(system, tangle, s_family, t, require_maximal=False)
    assert not ok and "flower vertex 0 has S-order < 3" in problems


def _barbell_leaf(ctx):
    """The maximal tree of the barbell's left tangle, and its leaf bag
    {2,...,6}: an S-terminal bag whose element 3, the bridge, is weak."""
    t = build_maximal_tree(ctx.sys, ctx.tangle, ctx.S)
    return t, next(v for v, bag in t.bags.items() if bag == 0b1111100)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda ctx, t, leaf: grow_terminal_bag(
        ctx.sys, ctx.tangle, ctx.S, t, t.adj[leaf][0], 1 << 3),
        "vertex is not a leaf bag vertex", id="not-a-leaf-bag"),
    # {2,4,5,6} has three boundary vertices
    pytest.param(lambda ctx, t, leaf: split_terminal_bag(
        ctx.sys, ctx.tangle, ctx.S, t, leaf, 1 << 3),
        "B - x is not k-separating", id="split-leaves-no-k-separation"),
    pytest.param(lambda ctx, t, leaf: retarget_terminal_bag(
        ctx.sys, ctx.tangle, ctx.S, t, leaf, 1 << 3),
        "(C, E-C) is not a (k,S)-separation", id="retarget-to-a-weak-set"),
])
def test_surgery_refusals(ctx_barbell, call, message):
    t, leaf = _barbell_leaf(ctx_barbell)
    with pytest.raises(PreconditionFailed) as err:
        call(ctx_barbell, t, leaf)
    assert type(err.value) is PreconditionFailed and str(err.value) == message


def _ring4_edges():
    """A rim cycle 0-1-2-3, a centre 4, and per rim edge i (i+1) a vertex
    5+i joined to the centre and to both ends: four petals of four edges."""
    edges = []
    for i in range(4):
        edges += [(5 + i, 4), (5 + i, i), (5 + i, (i + 1) % 4), (i, (i + 1) % 4)]
    return edges


@pytest.mark.parametrize("edges, classes, label, blob", [
    # K_{3,4}: hubs 0-2, blobs 3-6; each blob's three edges are a petal
    ([(h, b) for b in range(3, 7) for h in range(3)], 3, "A", 3),
    (_ring4_edges(), 2, "D", 4),
], ids=["K34", "ring4"])
@pytest.mark.parametrize("kind", ["graph", "graphic-matroid"])
def test_order_three_tree_from_a_graph(edges, classes, label, blob, kind):
    # in the paper's setting at order 3: one flower vertex of degree 4 whose
    # leaves are the blobs, as a graph and as its graphic matroid
    system = (ConnectivitySystem.graph(edges) if kind == "graph"
              else ConnectivitySystem.matroid(RankFunction.graphic(edges)))
    tangle, = enumerate_tangles(system, 3)
    assert is_robust(tangle)
    s_family = build_default_S(system, tangle)
    assert len(s_family.classes()) == classes
    tree = build_maximal_tree(system, tangle, s_family)
    assert len(tree.vertices()) == 5
    (v, lab_v), = tree.labels.items()
    assert lab_v == label and len(tree.adj[v]) == 4
    assert sorted(tree.bags.values()) == [((1 << blob) - 1) << (blob * i) for i in range(4)]
    verdict = verify_partial_kS_tree(system, tangle, s_family, tree)
    assert verdict.ok, verdict.to_json()
    ok, problems = oracle_certify_tree(system, tangle, s_family, tree)
    assert ok, problems
    report = differential_report(system, tangle, s_family, max_petals=3)
    assert report.ok, report.disagreements
