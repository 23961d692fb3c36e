"""Property tests: display questions answered by petal crossing agree
with display sets built by the per-union scan of the tests
(`conftest.reference_displayed`, `conftest.reference_tree_display`), which
shares no display code with the engine.

The display set that `verify_partial_kS_tree` builds in its walk of the
edges and flower vertices (`verdict.displayed`) equals the reference tree
display, and `trees._shown_class_ids` equals its class ids
(`displayed_tree_class_ids`), on every tree that the extension steps of
`build_maximal_tree` reach, on the maximal tree at another order, and on
every broken copy of the maximal tree (`tree_mutants`), whose flower
vertices may fail `verify_flower` and then display nothing.

`displayed_separations` equals the reference display set;
`flowers.Uncrossed`, the container that `class_conforms` reads for a
flower, agrees with membership in that set; `class_conforms`,
`conforms_with_flower` and `first_nonconforming` agree with the answers
from the set, and `displayed_kS` with the (k,S)-separations in it (a copy
of the flower at another order displays none), on every flower of
`oracle_flowers(..., 4)` (loose ones and the oracle's "neither" class
included).  The separations asked about are every (k,S)-separation, one
strong separation outside S, that one and a (k,S)-separation at another
order, and every proper petal union, k-separating or not.

Systems are random multigraphs on 3-6 vertices or their graphic matroids,
at orders 2 and 3; the conformity property also always runs C6 at order 2.
"""

from itertools import combinations

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from tangleforge import (ConnectivitySystem, Flower, RankFunction, build_default_S,
                         build_maximal_tree, conforms_with_flower, displayed_kS,
                         displayed_separations, enumerate_tangles, extend_tree, is_robust)
from tangleforge.closure import Separation, strong_k_separations
from tangleforge.flowers import Uncrossed, class_conforms, first_nonconforming, petal_unions
from tangleforge.oracle import oracle_flowers
from tangleforge.trees import PiTree, _seed_tree, _shown_class_ids, verify_partial_kS_tree

from conftest import (C6_EDGES, displayed_tree_class_ids, reference_displayed,
                      reference_tree_display, set_based_class_conforms, tree_mutants)


@st.composite
def systems(draw, max_edges):
    """A multigraph on 3-6 vertices with 4..max_edges edges, or its graphic
    matroid."""
    pairs = list(combinations(range(draw(st.integers(3, 6))), 2))
    ne = draw(st.integers(4, max_edges))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=ne, max_size=ne))
    if draw(st.booleans()):
        return ConnectivitySystem.matroid(RankFunction.graphic(edges), verify=False)
    return ConnectivitySystem.graph(edges, verify=False)


def extension_steps(system, tangle, s_family):
    """The trees `build_maximal_tree` goes through, the seed tree first."""
    t = _seed_tree(system, tangle, s_family, s_family.separations()[0])
    steps = []
    while t is not None:
        steps.append(t)
        t = extend_tree(system, tangle, s_family, t)
    return steps


@settings(max_examples=40, deadline=None)
@given(system=systems(max_edges=9), k=st.sampled_from([2, 3]))
def test_class_ids_by_crossing_match_the_display_set(system, k):
    for tangle in enumerate_tangles(system, k):
        s_family = build_default_S(system, tangle)
        if not is_robust(tangle) or not s_family.separations():
            continue
        steps = extension_steps(system, tangle, s_family)
        last = steps[-1]
        assert last.edges() == build_maximal_tree(system, tangle, s_family).edges()
        other_order = PiTree(k + 1, last.bags, last.labels, last.edges(), last.cyclic)
        for t in steps + [other_order] + tree_mutants(last):
            assert (set(verify_partial_kS_tree(system, tangle, s_family, t).displayed)
                    == reference_tree_display(system, tangle, t))
            assert (_shown_class_ids(system, tangle, s_family, t)
                    == displayed_tree_class_ids(system, tangle, s_family, t))
        event(f"{len(steps)} trees built")


@settings(max_examples=40, deadline=None)
@given(system=systems(max_edges=8), k=st.sampled_from([2, 3]))
@example(system=ConnectivitySystem.graph(C6_EDGES), k=2)  # daisies with non-run unions
def test_conformity_by_crossing_matches_the_display_set(system, k):
    for tangle in enumerate_tangles(system, k):
        s_family = build_default_S(system, tangle)
        seps = s_family.separations()
        outside = [s for s in strong_k_separations(system, tangle)
                   if not s_family.is_kS_separation(s)][:1]
        other = [Separation(s.side, k + 1) for s in outside + seps[:1]]
        asked = seps + outside + other
        for f in oracle_flowers(system, tangle, 4):
            reference = reference_displayed(system, f.petals, k)
            assert displayed_separations(system, tangle, f) == reference
            displayed = set(reference)
            shown = Uncrossed(s_family, f)
            for u in petal_unions(f.petals)[1:-1]:  # also the unions that are not k-separating
                sep = Separation.make(system, u, k)
                assert (sep in shown) == (sep in displayed)
            for sep in asked:
                members = s_family.class_of(sep)
                assert [m in shown for m in members] == [m in displayed for m in members]
                want = set_based_class_conforms(system, members, displayed, f.petals)
                assert class_conforms(system, members, shown, f.petals) == want
                assert conforms_with_flower(system, tangle, s_family, sep, f) == want
            first = next((s for s in seps if not set_based_class_conforms(
                system, s_family.class_of(s), displayed, f.petals)), None)
            assert first_nonconforming(system, s_family, shown, f.petals) == first
            assert first_nonconforming(system, s_family, displayed, f.petals) == first
            assert (displayed_kS(system, tangle, s_family, f)
                    == [s for s in sorted(displayed) if s_family.is_kS_separation(s)])
            assert displayed_kS(system, tangle, s_family, Flower(f.petals, k + 1)) == []
        if outside:
            event("class of its own" if s_family.class_of(outside[0]) == outside
                  else "outside S, equivalent to a class")
