"""Property tests: the closure module's per-tangle tables against literal
per-mask walks.

`closure._closure_tables` builds the fully-closed family FC and the default
S once per tangle by family arithmetic.  Here every mask is decided again
from the definitions: X is in FC iff lam(X) <= k and no non-empty weak Y
outside X keeps X | Y k-separating; X is in the default S iff lam(X) <= k,
E - X is strong and the greedy closure of E - X, absorbing weak sets one at
a time until none fits, is not E.  Systems are multigraphs, graphic
matroids and hypergraphs given by their lambda tables, at orders 2-4; every
tangle is checked, robust or not.  Few drawn tangles are not robust, so the
R_8 polymatroids add one non-robust tangle each.
"""

from itertools import combinations

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from tangleforge import (ConnectivitySystem, RankFunction, build_default_S,
                         enumerate_tangles, is_fully_closed, is_robust)
from tangleforge.closure import _closure_tables, full_closure_sequence

ORDERS = st.sampled_from([2, 3, 4])


@st.composite
def multigraph_edges(draw, max_edges):
    pairs = list(combinations(range(draw(st.integers(3, 6))), 2))
    ne = draw(st.integers(4, max_edges))
    return draw(st.lists(st.sampled_from(pairs), min_size=ne, max_size=ne))


@st.composite
def hypergraph_tables(draw):
    """n hyperedges with 2-4 ends each on 3-7 vertices, as the table of
    lambda(X) = the vertices met by a hyperedge in X and one in E - X."""
    nv = draw(st.integers(3, 7))
    n = draw(st.integers(4, 8))
    ends = st.sets(st.integers(0, nv - 1), min_size=2, max_size=min(4, nv))
    hyperedges = draw(st.lists(ends, min_size=n, max_size=n))
    incidence = [sum(1 << i for i, h in enumerate(hyperedges) if v in h) for v in range(nv)]
    full = (1 << n) - 1
    return n, [sum(1 for m in incidence if m & x and m & ~x & full) for x in range(1 << n)]


def greedy_closure(system, k, weak, x):
    """Absorb any non-empty weak Y outside the current set that keeps it
    k-separating, until none does."""
    cur = x
    while True:
        y = next((y for y in weak if y and not y & cur and system.lam(cur | y) <= k), None)
        if y is None:
            return cur
        cur |= y


def assert_tables_are_literal(system, k):
    """Check every tangle of order k; return two lines per tangle for
    `event`: robust or not, and whether a strong set is fully closed."""
    events = []
    for tangle in enumerate_tangles(system, k):
        events.append("robust" if is_robust(tangle) else "not robust")
        full = system.full
        weak = [y for y in range(1 << system.n)
                if any(y & ~m == 0 for m in tangle.members)]
        weak_set = set(weak)
        separating = [system.lam(x) <= k for x in range(1 << system.n)]
        tables = _closure_tables(system, tangle)
        s_family = build_default_S(system, tangle)
        closed_count = 0
        for x in range(1 << system.n):
            closed = separating[x] and greedy_closure(system, k, weak, x) == x
            assert tables.closed[x] == closed, x
            co = full ^ x
            in_s = (separating[x] and co not in weak_set
                    and greedy_closure(system, k, weak, co) != full)
            assert tables.in_default_S[x] == in_s, x
            assert s_family.contains(x) == in_s, x
            if separating[x] and x not in weak_set:
                assert is_fully_closed(system, tangle, x) == closed, x
                if closed:
                    closed_count += 1
                    assert full_closure_sequence(system, tangle, x) == (x, []), x
        events.append("a strong set is fully closed" if closed_count
                      else "no strong set is fully closed")
    return events


def report(events):
    for line in events:
        event(line)


@settings(max_examples=150, deadline=None)
@given(edges=multigraph_edges(9), k=ORDERS)
def test_tables_match_the_greedy_on_multigraphs(edges, k):
    report(assert_tables_are_literal(ConnectivitySystem.graph(edges, verify=False), k))


@settings(max_examples=100, deadline=None)
@given(edges=multigraph_edges(9), k=ORDERS)
def test_tables_match_the_greedy_on_graphic_matroids(edges, k):
    system = ConnectivitySystem.matroid(RankFunction.graphic(edges), verify=False)
    report(assert_tables_are_literal(system, k))


@settings(max_examples=150, deadline=None)
@given(table=hypergraph_tables(), k=ORDERS)
def test_tables_match_the_greedy_on_hypergraphs(table, k):
    n, values = table
    report(assert_tables_are_literal(ConnectivitySystem.from_table(n, values, verify=False), k))


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_tables_match_the_greedy_on_non_robust_r8_tangles(ell):
    system = ConnectivitySystem.r8_polymatroid(ell)
    k = ell + 3
    assert assert_tables_are_literal(system, k)[0] == "not robust"
