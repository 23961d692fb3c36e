"""Property tests: the engine against the oracle on random systems.

Multigraphs have at most 9 edges, graphic matroids at most 10 and uniform
matroids U_{r,n} have n <= 10, so the oracle's exhaustive walks stay cheap.
At orders 2 and 3 every tangle's differential report must be clean, and
the maximal tree built for every robust tangle must pass the oracle's
literal (P1)-(P5) certificate, and have no empty bag of degree <= 2 and no
two edges that display the same separation.  The matroids enumerate
flowers of at most three petals: on U_{9,10} at order 2 every partition
into four blocks is an anemone, and four petals take about 1.5 s there
against 0.3 s for three.
The oracle's flower scans are also checked against their per-bit
references on random petal partitions of random multigraphs, and its
fully-closed test and full closure against the exhaustive walks on every
mask, and its (k,S)-separations against the walk over every odd mask, for
default S and for random explicit families.  The flower walk's partitions
into admissible petals are checked against every partition of E filtered
by random petal tables, and the flowers it lists are distinct up to labels
on random multigraphs and on R_8.  On broken copies of the maximal trees
(`tree_mutants`), the engine's verifier and the oracle's certificate give
the same verdict.
"""

from itertools import combinations

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from tangleforge import (ConnectivitySystem, RankFunction, build_default_S,
                         build_maximal_tree, build_r8_rank, enumerate_tangles, is_robust,
                         verify_partial_kS_tree)
from tangleforge.closure import Separation, TreeCompatibleSet
from tangleforge.errors import PreconditionFailed
from tangleforge.oracle import (_admissible_partitions, _weak, _weak_set, differential_report,
                               oracle_certify_tree, oracle_flowers, oracle_full_closure,
                               oracle_kS_separations)
from tangleforge.tangles import Tangle

from conftest import (assert_flower_scans_match, assert_walks_are_literal,
                      flower_label_key, reference_kS_separations, reference_partitions,
                      tree_mutants)

MAX_EDGES = 9
MAX_PETALS = 4
MAX_MATROID_N = 10
MAX_MATROID_PETALS = 3


@st.composite
def multigraphs(draw, max_edges=MAX_EDGES):
    """Edges drawn with repetition from the pairs of 3-6 vertices; the edge
    count is drawn first so that every size up to max_edges comes up."""
    pairs = list(combinations(range(draw(st.integers(3, 6))), 2))
    ne = draw(st.integers(4, max_edges))
    return draw(st.lists(st.sampled_from(pairs), min_size=ne, max_size=ne))


def assert_engine_agrees(system, k, max_petals):
    for tangle in enumerate_tangles(system, k):
        s_family = build_default_S(system, tangle)
        report = differential_report(system, tangle, s_family, max_petals=max_petals)
        assert report.ok, report.disagreements
        if is_robust(tangle):
            tree = build_maximal_tree(system, tangle, s_family)
            ok, problems = oracle_certify_tree(system, tangle, s_family, tree)
            assert ok, problems
            # no redundant vertex: an empty bag of degree <= 2 adds nothing,
            # and no two edges display the same separation
            assert all(bag or len(tree.adj[v]) >= 3 for v, bag in tree.bags.items()), tree.bags
            sides = [Separation.make(system, tree.side(u, v), k).side for u, v in tree.edges()]
            assert len(set(sides)) == len(sides), tree.edges()


@settings(max_examples=50, deadline=None)
@given(edges=multigraphs(), k=st.sampled_from([2, 3]))
def test_engine_agrees_with_oracle(edges, k):
    assert_engine_agrees(ConnectivitySystem.graph(edges, verify=False), k, MAX_PETALS)


@settings(max_examples=20, deadline=None)
@given(edges=multigraphs(max_edges=MAX_MATROID_N), k=st.sampled_from([2, 3]))
def test_engine_agrees_with_oracle_on_graphic_matroids(edges, k):
    system = ConnectivitySystem.matroid(RankFunction.graphic(edges), verify=False)
    assert_engine_agrees(system, k, MAX_MATROID_PETALS)


@st.composite
def uniform_ranks(draw):
    n = draw(st.integers(4, MAX_MATROID_N))
    return draw(st.integers(1, n - 1)), n


@settings(max_examples=15, deadline=None)
@given(rn=uniform_ranks(), k=st.sampled_from([2, 3]))
def test_engine_agrees_with_oracle_on_uniform_matroids(rn, k):
    system = ConnectivitySystem.matroid(RankFunction.uniform(*rn), verify=False)
    assert_engine_agrees(system, k, MAX_MATROID_PETALS)


@settings(max_examples=60, deadline=None)
@given(edges=multigraphs(), matroid=st.booleans(), k=st.sampled_from([2, 3]),
       data=st.data())
def test_verifiers_agree_on_broken_trees(edges, matroid, k, data):
    """The maximal tree of each robust tangle passes both checks; on its
    first mutant (an element copied into another bag, so bags overlap) and
    a few drawn ones, the engine's verdict is the oracle's.  Draws without
    a mutant are discarded."""
    system = (ConnectivitySystem.matroid(RankFunction.graphic(edges), verify=False)
              if matroid else ConnectivitySystem.graph(edges, verify=False))
    cases = []
    for tangle in enumerate_tangles(system, k):
        if is_robust(tangle):
            s_family = build_default_S(system, tangle)
            tree = build_maximal_tree(system, tangle, s_family)
            cases.append((tangle, s_family, tree, tree_mutants(tree)))
    assume(any(mutants for *_, mutants in cases))
    rejected = accepted = 0
    for tangle, s_family, tree, mutants in cases:
        assert verify_partial_kS_tree(system, tangle, s_family, tree).ok
        assert oracle_certify_tree(system, tangle, s_family, tree)[0]
        if not mutants:
            continue
        for t in mutants[:1] + data.draw(st.lists(st.sampled_from(mutants), max_size=6)):
            ok = verify_partial_kS_tree(system, tangle, s_family, t).ok
            assert ok == oracle_certify_tree(system, tangle, s_family, t,
                                             require_maximal=False)[0]
            rejected += not ok
            accepted += ok
    assert rejected
    event("a mutant accepted by both" if accepted else "every mutant rejected")


@settings(max_examples=40, deadline=None)
@given(edges=multigraphs(), matroid=st.booleans(), k=st.sampled_from([2, 3]),
       data=st.data())
def test_relabelling_maps_tangles_and_classes(edges, matroid, k, data):
    """Shuffling the edges renames the elements: the tangles map onto each
    other, each by its weak sets, and so do their class partitions.  The
    maximal tree built on the shuffled copy verifies and certifies; its
    shape is not compared, because the construction is not invariant
    under relabelling."""
    order = data.draw(st.permutations(range(len(edges))))
    rename = {old: new for new, old in enumerate(order)}

    def build(edge_list):
        return (ConnectivitySystem.matroid(RankFunction.graphic(edge_list), verify=False)
                if matroid else ConnectivitySystem.graph(edge_list, verify=False))

    def renamed(x):
        return sum(1 << rename[e] for e in range(len(edges)) if x >> e & 1)

    system, shuffled = build(edges), build([edges[old] for old in order])
    images = {}
    for tangle in enumerate_tangles(system, k):
        classes = build_default_S(system, tangle).classes()
        images[frozenset(map(renamed, _weak_set(tangle)))] = {
            frozenset(Separation.make(shuffled, renamed(s.side), k).side for s in cls)
            for cls in classes}
    tangles = enumerate_tangles(shuffled, k)
    assert len(tangles) == len(images)
    for tangle in tangles:
        s_family = build_default_S(shuffled, tangle)
        got = {frozenset(s.side for s in cls) for cls in s_family.classes()}
        assert images[frozenset(_weak_set(tangle))] == got
        if is_robust(tangle):
            tree = build_maximal_tree(shuffled, tangle, s_family)
            assert verify_partial_kS_tree(shuffled, tangle, s_family, tree).ok
            ok, problems = oracle_certify_tree(shuffled, tangle, s_family, tree)
            assert ok, problems
    event(f"{len(tangles)} tangles" if len(tangles) < 2 else "2+ tangles")


@settings(max_examples=100, deadline=None)
@given(edges=multigraphs(), data=st.data(), k=st.integers(0, 4))
def test_flower_scans_match_the_per_bit_references(edges, data, k):
    """Petals are the non-empty blocks of a random assignment of the
    elements to at most seven blocks, in block order."""
    system = ConnectivitySystem.graph(edges, verify=False)
    block = data.draw(st.lists(st.integers(0, 6), min_size=system.n, max_size=system.n))
    petals = [sum(1 << e for e in range(system.n) if block[e] == b) for b in range(7)]
    petals = tuple(p for p in petals if p)
    verdict = assert_flower_scans_match(system, petals, k)
    event(verdict if len(petals) > 2 else "n <= 2")


@settings(max_examples=50, deadline=None)
@given(edges=multigraphs(), k=st.sampled_from([2, 3]))
def test_closures_match_the_literal_walks(edges, k):
    """Every tangle, every mask.  The event says whether the closures of
    the strong k-separating sets, asked in ascending order on fresh memos,
    built the tangle's table of fully closed sets or were all answered by
    X itself."""
    system = ConnectivitySystem.graph(edges, verify=False)
    for tangle in enumerate_tangles(system, k):
        fresh = Tangle(system, k, tangle.members)
        for x in range(1 << system.n):
            if system.lam(x) <= k and not _weak(fresh, x):
                oracle_full_closure(system, fresh, x)
        event("table built" if "_oracle_fc_table" in fresh.__dict__ else "no table")
        assert_walks_are_literal(system, tangle)


@settings(max_examples=50, deadline=None)
@given(edges=multigraphs(), k=st.sampled_from([2, 3]), data=st.data())
def test_kS_separations_match_the_odd_mask_walk(edges, k, data):
    """Default S on fresh memos, then an explicit family per tangle: random
    masks of the ground set, some with their complements, so that members
    need not be k-separating and some complements are missing.  Odd masks
    past the ground set, paired with their complements, are refused."""
    system = ConnectivitySystem.graph(edges, verify=False)
    n, full = system.n, system.full
    for tangle in enumerate_tangles(system, k):
        fresh = Tangle(system, k, tangle.members)
        assert (oracle_kS_separations(system, fresh)
                == reference_kS_separations(system, Tangle(system, k, tangle.members)))
        masks = data.draw(st.lists(st.integers(0, full), min_size=4, max_size=24))
        paired = data.draw(st.lists(st.booleans(), min_size=len(masks), max_size=len(masks)))
        outside = data.draw(st.lists(st.integers(1 << n, 1 << (n + 1)), max_size=3))
        family = set(masks)
        family |= {full ^ x for x, both in zip(masks, paired) if both}
        if outside:
            beyond = {x | 1 for x in outside} | {full ^ (x | 1) for x in outside}
            with pytest.raises(PreconditionFailed, match="^member outside ground set$"):
                TreeCompatibleSet(system, fresh, explicit=family | beyond)
        explicit = TreeCompatibleSet(system, fresh, explicit=family)
        got = oracle_kS_separations(system, fresh, explicit)
        assert got == reference_kS_separations(system, fresh, explicit)
        event(f"{len(got)} explicit separations" if len(got) < 3 else "3+ explicit separations")


@st.composite
def petal_tables(draw):
    """A ground-set size n <= 9 and a set of non-empty masks, each mask in
    it with a drawn probability, so that sparse and dense tables both come
    up."""
    n = draw(st.integers(1, 9))
    density = draw(st.sampled_from([0.3, 0.6, 0.8, 0.9, 1.0]))
    rnd = draw(st.randoms(use_true_random=False))
    return n, {x for x in range(1, 1 << n) if rnd.random() < density}


@settings(max_examples=60, deadline=None)
@given(table=petal_tables(), max_blocks=st.integers(1, 5))
def test_admissible_partitions_are_the_filtered_partitions(table, max_blocks):
    n, petals = table
    got = list(_admissible_partitions((1 << n) - 1, petals, max_blocks))
    want = [blocks for blocks in reference_partitions(n, max_blocks)
            if all(b in petals for b in blocks)]
    event("no partition" if not want else "one partition" if len(want) == 1
          else "partitions")
    assert len(set(got)) == len(got)
    assert set(got) == set(want)


# R_8 and its polymatroids f_1..f_3, each with the order of its tangles
R8_SYSTEMS = [(ConnectivitySystem.matroid(build_r8_rank()), 3)] + [
    (ConnectivitySystem.r8_polymatroid(ell), ell + 3) for ell in (1, 2, 3)]


@settings(max_examples=60, deadline=None)
@given(system=st.one_of(multigraphs().map(lambda edges: (
    ConnectivitySystem.graph(edges, verify=False), 2)), st.sampled_from(R8_SYSTEMS)),
    cap=st.integers(1, 5))
def test_oracle_flowers_are_distinct_up_to_labels(system, cap):
    """No two listed flowers are equal up to labels (`flower_label_key`),
    with fresh memos per tangle."""
    system, k = system
    for tangle in enumerate_tangles(system, k):
        keys = [flower_label_key(f)
                for f in oracle_flowers(system, Tangle(system, k, tangle.members), cap)]
        event("4+ petal daisies" if any(key[0] == "d" and len(key[1]) > 3 for key in keys)
              else "no daisy of 4+ petals")
        assert len(set(keys)) == len(keys)
