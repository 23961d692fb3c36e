"""Property tests: the bit-family tangle search, verification and
robustness test against literal definitions.

`is_robust` must agree with a search over every choice of at most eight
maximal members, `enumerate_tangles` with trying every orientation of the
(k-1)-separations and keeping those `verify_tangle` accepts, and
`verify_tangle` with the literal walks of `reference_verify_tangle`.
"""

from itertools import combinations, product

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tangleforge import ConnectivitySystem, enumerate_tangles, is_robust, verify_tangle
from tangleforge.tangles import Tangle

from conftest import reference_verify_tangle, submasks

MAX_N = 8
MAX_EDGES = 8
MAX_PAIRS = 10  # 2^10 orientations, each verified literally
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
