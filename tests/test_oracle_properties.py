"""Property tests: the engine against the oracle on random systems.

Multigraphs have at most 9 edges, graphic matroids at most 10 and uniform
matroids U_{r,n} have n <= 10, so the oracle's exhaustive walks stay cheap.
At orders 2 and 3 every tangle's differential report must be clean, and
the maximal tree built for every robust tangle must pass the oracle's
literal (P1)-(P5) certificate.  The matroids enumerate flowers of at most
three petals: on U_{9,10} at order 2 every partition into four blocks is
an anemone, and four petals take about 5 s there against 0.3 s for three.
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from tangleforge import (ConnectivitySystem, RankFunction, build_default_S,
                         build_maximal_tree, enumerate_tangles, is_robust)
from tangleforge.oracle import differential_report, oracle_certify_tree

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
