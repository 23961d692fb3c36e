"""Property test: the engine against the oracle on random multigraphs.

Graphs have at most 9 edges, so the oracle's exhaustive walks stay cheap.
At orders 2 and 3 every tangle's differential report must be clean, and
the maximal tree built for every robust tangle must pass the oracle's
literal (P1)-(P5) certificate.
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from tangleforge import (ConnectivitySystem, build_default_S, build_maximal_tree,
                         enumerate_tangles, is_robust)
from tangleforge.oracle import differential_report, oracle_certify_tree

MAX_EDGES = 9
MAX_PETALS = 4


@st.composite
def multigraphs(draw):
    """Edges drawn with repetition from the pairs of 3-6 vertices; the edge
    count is drawn first so that every size up to MAX_EDGES comes up."""
    pairs = list(combinations(range(draw(st.integers(3, 6))), 2))
    ne = draw(st.integers(4, MAX_EDGES))
    return draw(st.lists(st.sampled_from(pairs), min_size=ne, max_size=ne))


@settings(max_examples=50, deadline=None)
@given(edges=multigraphs(), k=st.sampled_from([2, 3]))
def test_engine_agrees_with_oracle(edges, k):
    system = ConnectivitySystem.graph(edges, verify=False)
    for tangle in enumerate_tangles(system, k):
        s_family = build_default_S(system, tangle)
        report = differential_report(system, tangle, s_family, max_petals=MAX_PETALS)
        assert report.ok, report.disagreements
        if is_robust(tangle):
            tree = build_maximal_tree(system, tangle, s_family)
            ok, problems = oracle_certify_tree(system, tangle, s_family, tree)
            assert ok, problems
