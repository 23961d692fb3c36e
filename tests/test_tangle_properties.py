"""Property tests: the bit-family tangle search, verification and
robustness test against literal definitions.

`is_robust` must agree with a search over every choice of at most eight
maximal members, `enumerate_tangles` with trying every orientation of the
(k-1)-separations and keeping those `verify_tangle` accepts, and
`verify_tangle` with the literal walks of `reference_verify_tangle`.
Past the orientations that can be tried one by one, `enumerate_tangles`
must agree with `reference_enumerate_tangles`, a search with one frame per
depth: the same tangles, and refusal at the same node count.
"""

from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from tangleforge import (ConnectivitySystem, RankFunction, enumerate_tangles, is_robust,
                         tangles, verify_tangle)
from tangleforge.errors import SearchSpaceTooLarge
from tangleforge.tangles import Tangle

from conftest import (BARBELL_EDGES, hypergraph_table, maximal_masks,
                      reference_enumerate_tangles, reference_verify_tangle, submasks)

MAX_N = 8
MAX_EDGES = 8
MAX_PAIRS = 10  # 2^10 orientations, each verified literally
MAX_SEARCH_EDGES = 12
K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def eight_members_cover(members, full):
    maximal = [m for m in members if not any(m != o and m & ~o == 0 for o in members)]
    return any(
        union_of(combo) == full
        for r in range(1, 9) for combo in combinations(maximal, r))


def union_of(masks):
    out = 0
    for m in masks:
        out |= m
    return out


@st.composite
def member_families(draw):
    """Down-closed families: the submasks of a few generators.  Half of
    the draws take the blocks of a random partition as generators, so
    covers that need many members (up to eight singletons) come up."""
    n = draw(st.integers(1, MAX_N))
    mask = st.integers(0, (1 << n) - 1)
    if draw(st.booleans()):
        block_of = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        gens = [union_of(1 << e for e in range(n) if block_of[e] == b)
                for b in set(block_of)]
        gens = [g & ~draw(mask) or g for g in gens]  # sometimes shrink a block
    else:
        gens = draw(st.lists(mask, min_size=1, max_size=10))
    return n, gens


@settings(max_examples=150, deadline=None)
@given(family=member_families())
@example(family=(8, [1 << e for e in range(8)]))   # C_8 covers, C_7 does not
@example(family=(8, [1 << e for e in range(7)]))   # seven singletons never cover
@example(family=(6, [0b000111, 0b011100, 0b110001]))  # covered by C_3
@example(family=(4, [0b0011, 0b0110]))  # C_3 == C_2, E never covered
def test_is_robust_matches_literal_search(family):
    n, gens = family
    full = (1 << n) - 1
    members = {s for g in gens for s in submasks(g)}
    system = ConnectivitySystem.from_table(n, [0] * (1 << n), verify=False)
    tangle = Tangle(system, 2, members)
    assert is_robust(tangle) == (not eight_members_cover(members, full))


@st.composite
def graphs(draw):
    nv = draw(st.integers(3, 5))
    vertex = st.integers(0, nv - 1)
    edge = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
    return draw(st.lists(edge, min_size=2, max_size=MAX_EDGES))


def separation_pairs(system, k):
    full = system.full
    return sorted({min(x, full ^ x) for x in range(1 << system.n)
                   if system.lam(x) <= k - 1})


def brute_force_tangles(system, k, pairs):
    full = system.full
    found = []
    for flips in product((False, True), repeat=len(pairs)):
        members = [full ^ p if flip else p for p, flip in zip(pairs, flips)]
        tangle = Tangle(system, k, members)
        if not verify_tangle(system, tangle):
            found.append(tangle.member_key())
    return sorted(found)


@settings(max_examples=40, deadline=None)
@given(edges=graphs())
@example(edges=K4)                          # order 3: the tangle of the singletons
@example(edges=K4 + [(0, 1)])               # order 3 with a parallel pair
@example(edges=[(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])  # K_{2,3}: none at 3
def test_enumerate_tangles_matches_brute_force(edges):
    system = ConnectivitySystem.graph(edges, verify=False)
    for k in (2, 3, 4):
        pairs = separation_pairs(system, k)
        if len(pairs) > MAX_PAIRS:
            continue
        got = [t.member_key() for t in enumerate_tangles(system, k)]
        assert got == brute_force_tangles(system, k, pairs)


@st.composite
def member_sets(draw):
    """A small graph system, an order 1-4 and a member set: half of the
    draws take an enumerated tangle of that order (or none) with a few
    masks added and a few members removed, the rest a few random masks."""
    system = ConnectivitySystem.graph(draw(graphs()), verify=False)
    k = draw(st.integers(1, 4))
    mask = st.integers(0, system.full)
    if draw(st.booleans()):
        found = [sorted(t.members) for t in enumerate_tangles(system, k)]
        members = set(draw(st.sampled_from(found))) if found else set()
        if members:
            members -= set(draw(st.lists(st.sampled_from(sorted(members)), max_size=3)))
        members |= set(draw(st.lists(mask, max_size=3)))
    else:
        members = set(draw(st.lists(mask, max_size=12)))
    return system, k, members


@settings(max_examples=200, deadline=None)
@given(drawn=member_sets())
@example(drawn=(ConnectivitySystem.graph(K4, verify=False), 3, {0b000001, 0b111110}))
def test_verify_tangle_matches_literal_walks(drawn):
    # same axioms, witnesses and order; separate tangles, so no cache is shared
    system, k, members = drawn
    got = verify_tangle(system, Tangle(system, k, members))
    assert got == reference_verify_tangle(system, Tangle(system, k, members))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, MAX_N), data=st.data())
def test_tangle_keeps_maximal_members_and_weak_family(n, data):
    # any member set, not only a down-closed one
    members = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
    system = ConnectivitySystem.from_table(n, [0] * (1 << n), verify=False)
    tangle = Tangle(system, 2, members)
    assert tangle.maximal_members == maximal_masks(frozenset(members))
    assert tangle.weak_family == sum(1 << x for x in range(1 << n)
                                     if any(x & ~m == 0 for m in members))


@st.composite
def search_systems(draw):
    """("graph" or "matroid", multigraph edges) or ("table", n, lambda
    table) of a hypergraph with 4-10 hyperedges of 2-4 ends on 3-7
    vertices.  Multigraphs have up to 12 edges, loops allowed: half of the
    draws are on 2-7 vertices, the rest two blobs of 3-4 vertices sharing
    one, so that two or more tangles come up."""
    kind = draw(st.sampled_from(["graph", "matroid", "table"]))
    if kind == "table":
        nv = draw(st.integers(3, 7))
        n = draw(st.integers(4, 10))
        ends = st.sets(st.integers(0, nv - 1), min_size=2, max_size=min(4, nv))
        return kind, n, hypergraph_table(n, draw(st.lists(ends, min_size=n, max_size=n)))
    if draw(st.booleans()):
        vertex = st.integers(0, draw(st.integers(1, 6)))
        return kind, draw(st.lists(st.tuples(vertex, vertex), min_size=1,
                                   max_size=MAX_SEARCH_EDGES))
    shared = draw(st.integers(2, 3))
    blobs = [range(shared + 1), range(shared, shared + draw(st.integers(3, 4)))]
    edges = []
    for blob in blobs:
        edge = st.sampled_from(list(combinations(blob, 2)))
        edges += draw(st.lists(edge, min_size=3, max_size=MAX_SEARCH_EDGES // 2))
    return kind, edges


def build_search_system(drawn):
    if drawn[0] == "graph":
        return ConnectivitySystem.graph(drawn[1], verify=False)
    if drawn[0] == "matroid":
        return ConnectivitySystem.matroid(RankFunction.graphic(drawn[1]), verify=False)
    return ConnectivitySystem.from_table(drawn[1], drawn[2], verify=False)


BLOBS = [{0, 1, 2}, {0, 1, 3}, {1, 2, 3}, {0, 2, 3}, {3, 4},
         {4, 5, 6}, {4, 5, 7}, {5, 6, 7}, {4, 6, 7}]  # two tangles at orders 3 and 4


@settings(max_examples=150, deadline=None)
@given(drawn=search_systems(), k=st.integers(1, 5))
@example(drawn=("graph", BARBELL_EDGES), k=2)         # three tangles
@example(drawn=("matroid", BARBELL_EDGES), k=2)       # two tangles
@example(drawn=("table", 9, hypergraph_table(9, BLOBS)), k=3)
@example(drawn=("table", 9, hypergraph_table(9, BLOBS)), k=4)
@example(drawn=("graph", K4 + [(a + 4, b + 4) for a, b in K4[:5]] + [(3, 4)]), k=4)  # 72 nodes
def test_search_matches_the_reference_and_refuses_at_its_node_count(drawn, k):
    system = build_search_system(drawn)
    want, nodes = reference_enumerate_tangles(system, k)
    event("2 or more tangles" if len(want) >= 2 else f"{len(want)} tangles")
    pairs = len(system.lam_at_most(k - 1, range(1 << (system.n - 1))))
    event("past MAX_PAIRS" if pairs > MAX_PAIRS else "within MAX_PAIRS")
    leaves = []

    def verify(system_, tangle):
        leaves.append(tangle.member_key())
        return verify_tangle(system_, tangle)

    with mock.patch.object(tangles, "NODE_CAP", nodes), \
            mock.patch.object(tangles, "verify_tangle", verify):
        got = enumerate_tangles(system, k)
    assert leaves == [t.member_key() for t in want]  # the same depth-first order
    assert [t.member_key() for t in got] == sorted(leaves)
    with mock.patch.object(tangles, "NODE_CAP", nodes - 1):
        with pytest.raises(SearchSpaceTooLarge, match=f"exceeded {nodes - 1} nodes"):
            enumerate_tangles(system, k)
