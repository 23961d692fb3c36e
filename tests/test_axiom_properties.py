"""Property tests: the local axiom check against the literal pairwise one.

`pairwise_accepts` is the definition checked over all 4^n pairs (X, Y):
symmetry, submodularity and its two elementary consequences
lam(X) >= lam(empty) and lam(X)+lam(Y) >= lam(X-Y)+lam(Y-X).
`verify_connectivity_axioms` must give the same verdict, and every pair it
reports must break submodularity.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tangleforge import ConnectivitySystem, verify_connectivity_axioms

MAX_N = 6


def pairwise_accepts(table, n):
    full = (1 << n) - 1
    for x in range(1 << n):
        if table[x] != table[full ^ x] or table[x] < table[0]:
            return False
    for x in range(1 << n):
        for y in range(1 << n):
            if table[x] + table[y] < table[x | y] + table[x & y]:
                return False
            if table[x] + table[y] < table[x & ~y] + table[y & ~x]:
                return False
    return True


def breaks_submodularity(table, a, b):
    return table[a] + table[b] < table[a | b] + table[a & b]


def graph_lambda(n, edges):
    """Boundary-vertex count of each edge set of a graph with n edges."""
    full = (1 << n) - 1
    incidence = {}
    for i, (u, v) in enumerate(edges):
        if u != v:
            incidence[u] = incidence.get(u, 0) | 1 << i
            incidence[v] = incidence.get(v, 0) | 1 << i
    return [sum(1 for m in incidence.values() if m & x and m & (full ^ x))
            for x in range(1 << n)]


@st.composite
def random_symmetric_tables(draw):
    """Arbitrary symmetric tables with small values: mostly rejected."""
    n = draw(st.integers(1, MAX_N))
    full = (1 << n) - 1
    half = draw(st.lists(st.integers(0, 3), min_size=1 << (n - 1), max_size=1 << (n - 1)))
    table = [0] * (1 << n)
    for x, v in enumerate(half):  # x < 2^(n-1): the sets without element n-1
        table[x] = table[full ^ x] = v
    return n, table


@st.composite
def perturbed_graph_tables(draw):
    """Sums of graph connectivity functions plus a constant, then one
    symmetric pair nudged by -1, 0 or +1: a mix of accepted and rejected."""
    n = draw(st.integers(1, MAX_N))
    full = (1 << n) - 1
    edge = st.tuples(st.integers(0, 4), st.integers(0, 4))
    table = [draw(st.integers(0, 2))] * (1 << n)
    for _ in range(draw(st.integers(1, 2))):
        lam = graph_lambda(n, draw(st.lists(edge, min_size=n, max_size=n)))
        table = [a + b for a, b in zip(table, lam)]
    x = draw(st.integers(0, full))
    delta = draw(st.integers(-1, 1))
    table[x] += delta
    if full ^ x != x:
        table[full ^ x] += delta
    return n, table


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_symmetric_tables(), perturbed_graph_tables()))
def test_local_check_agrees_with_pairwise_reference(case):
    n, table = case
    system = ConnectivitySystem.from_table(n, table, verify=False)
    report = verify_connectivity_axioms(system)
    assert (report == []) == pairwise_accepts(table, n)
    for violation in report:
        assert violation.axiom == "submodularity"
        assert breaks_submodularity(table, *violation.witness)


def test_lambda_below_empty_is_rejected():
    # Symmetric, with lam({0}) = lam({1, 2}) = 1 below lam(empty) = 2.
    table = [2] * 8
    table[0b001] = table[0b110] = 1
    system = ConnectivitySystem.from_table(3, table, verify=False)
    report = verify_connectivity_axioms(system)
    assert [v.axiom for v in report] == ["submodularity"]
    assert breaks_submodularity(table, *report[0].witness)
