"""Property tests: the engine against the oracle on random systems.

Multigraphs have at most 9 edges, graphic matroids at most 10 and uniform
matroids U_{r,n} have n <= 10, so the oracle's exhaustive walks stay cheap.
At orders 2 and 3 every tangle's differential report must be clean, and
the maximal tree built for every robust tangle must pass the oracle's
literal (P1)-(P5) certificate.  The matroids enumerate flowers of at most
three petals: on U_{9,10} at order 2 every partition into four blocks is
an anemone, and four petals take about 1.5 s there against 0.3 s for three.
The oracle's flower scans are also checked against their per-bit
references on random petal partitions of random multigraphs.
"""

from itertools import combinations

from hypothesis import event, given, settings
from hypothesis import strategies as st

from tangleforge import (ConnectivitySystem, RankFunction, build_default_S,
                         build_maximal_tree, enumerate_tangles, is_robust)
from tangleforge.oracle import differential_report, oracle_certify_tree

from conftest import assert_flower_scans_match

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
