"""Property tests: byte-lane tables, lane axiom checks and the lam scan
against literal definitions written out here.

Tables: the graph boundary count, a union-find cycle-matroid rank, the
uniform rank and the matroid formula r(X) + r(E-X) - r(E) + 1, on
multigraphs with loops and vertices that only carry loops, and at the
domain edge (the Petersen graph and a 16-edge multigraph) on sampled
masks.  Checks: the first witness of the lane submodularity and
unit-increment checks against per-triple loops, on perturbed tables and
on scaled and shifted copies whose lanes are wider than a byte.  Scans:
`lam_at_most` against a filter, with and without a byte table, and
`lam_flags` against one lam call per mask on shuffled lists with
repeats; neither calls lam.  Listing: the flagged masks of a range,
walked with `bytes.find` when few are flagged and through `compress`
when many are, against the plain filter.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangleforge import ConnectivitySystem, RankFunction, core
from tangleforge.core import (_flagged, _lane_submodularity_failure,
                              _lane_unit_increment_failure, _lanes,
                              verify_connectivity_axioms, verify_rank_axioms)
from tangleforge.errors import PreconditionFailed

MAX_EDGES = 12


def boundary_count(edges, x):
    """Vertices with a non-loop edge in X and one outside X."""
    inside, outside = set(), set()
    for i, (u, v) in enumerate(edges):
        if u != v:
            (inside if x >> i & 1 else outside).update((u, v))
    return len(inside & outside)


def union_find_rank(edges, x):
    parent = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    rank = 0
    for i, (u, v) in enumerate(edges):
        if x >> i & 1:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                rank += 1
    return rank


def matroid_formula(rank, n):
    full = (1 << n) - 1
    return [rank[x] + rank[full ^ x] - rank[full] + 1 for x in range(1 << n)]


def first_local_failure(value, n):
    """The least (X, {e}, {f}), e < f outside X, breaking local submodularity."""
    for x in range(1 << n):
        for e in range(n):
            for f in range(e + 1, n):
                be, bf = 1 << e, 1 << f
                if x & (be | bf):
                    continue
                if value(x | be) + value(x | bf) < value(x | be | bf) + value(x):
                    return x, be, bf
    return None


def first_unit_step_failure(value, n):
    for x in range(1 << n):
        for e in range(n):
            if not x >> e & 1 and value(x | 1 << e) - value(x) not in (0, 1):
                return x, 1 << e
    return None


multigraphs = st.integers(1, 7).flatmap(
    lambda nv: st.lists(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)),
                        min_size=1, max_size=MAX_EDGES))


@settings(max_examples=30, deadline=None)
@given(edges=multigraphs)
def test_graph_tables_match_definitions(edges):
    n = len(edges)
    graph = ConnectivitySystem.graph(edges, verify=False)
    assert list(graph._table) == [boundary_count(edges, x) for x in range(1 << n)]
    rank = RankFunction.graphic(edges)
    want = [union_find_rank(edges, x) for x in range(1 << n)]
    assert list(rank._table) == want
    assert list(ConnectivitySystem.matroid(rank, verify=False)._table) == matroid_formula(want, n)


PETERSEN = ([(i, (i + 1) % 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
            + [(i, i + 5) for i in range(5)])
# 16 edges, past MAX_EDGES: parallel pairs 0-1 and 2-5, a loop at 3 and a
# vertex 7 that only carries a loop
MULTIGRAPH_16 = [(0, 1), (0, 1), (1, 2), (2, 3), (3, 3), (3, 4), (4, 5), (5, 0),
                 (1, 4), (2, 5), (2, 5), (7, 7), (0, 3), (4, 6), (5, 6), (1, 6)]


@pytest.mark.parametrize("edges", [PETERSEN, MULTIGRAPH_16], ids=["petersen", "multigraph-16"])
def test_graph_tables_at_the_domain_edge(edges):
    n = len(edges)
    table = ConnectivitySystem.graph(edges, verify=False)._table
    assert isinstance(table, bytes) and len(table) == 1 << n
    assert table == table[::-1]  # lam(X) == lam(E - X)
    rnd = random.Random(n)
    for x in [0, (1 << n) - 1] + [rnd.randrange(1 << n) for _ in range(400)]:
        assert table[x] == boundary_count(edges, x)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, MAX_EDGES).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))))
def test_uniform_tables_match_definitions(case):
    r, n = case
    rank = RankFunction.uniform(r, n)
    want = [min(bin(x).count("1"), r) for x in range(1 << n)]
    assert list(rank._table) == want
    assert list(ConnectivitySystem.matroid(rank, verify=False)._table) == matroid_formula(want, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, 300), min_size=1 << n,
                                             max_size=1 << n))))
def test_unverified_rank_tables_keep_the_formula(case):
    # Values past a byte, and tables whose lambda goes negative, are
    # computed by the formula, values and all.
    n, table = case
    system = ConnectivitySystem.matroid(RankFunction(n, table, verify=False),
                                        verify=False)
    assert list(system._table) == matroid_formula(table, n)


def test_negative_lambda_from_an_unverified_rank_table():
    # r(E) = 3 above r({0}) + r({1}) = 0: lambda({0}) = 0 + 0 - 3 + 1 = -2
    system = ConnectivitySystem.matroid(RankFunction(2, [0, 0, 0, 3], verify=False),
                                        verify=False)
    assert list(system._table) == [1, -2, -2, 1]
    assert system.lam_at_most(-2, range(4)) == [1, 2]


@st.composite
def perturbed_tables(draw):
    """A graph's boundary count, a few entries nudged by -2..2 and kept
    within 0..63, so the lanes are one byte wide."""
    edges = draw(multigraphs.filter(lambda e: len(e) <= 8))
    n = len(edges)
    table = [boundary_count(edges, x) for x in range(1 << n)]
    for _ in range(draw(st.integers(0, 3))):
        x = draw(st.integers(0, (1 << n) - 1))
        table[x] = min(max(table[x] + draw(st.integers(-2, 2)), 0), 63)
        if draw(st.booleans()):
            table[((1 << n) - 1) ^ x] = table[x]
    return n, table


# c * v + d takes the values past a byte or below zero: lanes of two or
# more bytes, or one-byte lanes built without a byte table.
scales = st.integers(2, 40)
shifts = st.integers(-500, 500)


@settings(max_examples=100, deadline=None)
@given(perturbed_tables(), scales, shifts)
def test_lane_checks_report_the_first_witness(case, c, d):
    n, table = case
    scaled = [c * v + d for v in table]
    for values in (bytes(table), scaled):
        lanes, w = _lanes(values)
        assert _lane_submodularity_failure(lanes, n, w) == first_local_failure(
            values.__getitem__, n)
        assert _lane_unit_increment_failure(lanes, n, w) == first_unit_step_failure(
            values.__getitem__, n)


def connectivity_report(values, n):
    """The symmetry or submodularity witness the literal loops give."""
    full = (1 << n) - 1
    asymmetric = [x for x in range(1 << n) if values[x] != values[full ^ x]]
    if asymmetric:
        return [("symmetry", (asymmetric[0],))]
    bad = first_local_failure(values.__getitem__, n)
    return [] if bad is None else [("submodularity", (bad[0] | bad[1], bad[0] | bad[2]))]


def rank_report(values, n):
    want = [("rank_empty", (0,))] if values[0] else []
    step = first_unit_step_failure(values.__getitem__, n)
    if step:
        want.append(("rank_unit_increment", step))
    elif first_local_failure(values.__getitem__, n):
        want.append(("rank_submodular", first_local_failure(values.__getitem__, n)))
    return want


@settings(max_examples=100, deadline=None)
@given(perturbed_tables(), scales, shifts)
def test_axiom_reports_match_literal_loops(case, c, d):
    n, table = case
    for values in (table, [c * v + d for v in table]):
        report = verify_connectivity_axioms(ConnectivitySystem.from_table(n, values,
                                                                          verify=False))
        assert [(v.axiom, v.witness) for v in report] == connectivity_report(values, n)
    # a scaled table fails unit increment at its first step, so rank
    # tables are only shifted
    for values in (table, [v + d for v in table]):
        report = verify_rank_axioms(RankFunction(n, values, verify=False))
        assert [(v.axiom, v.witness) for v in report] == rank_report(values, n)


@settings(max_examples=60, deadline=None)
@given(edges=multigraphs, k=st.integers(-1, 8), start=st.integers(0, 5), step=st.integers(1, 3))
def test_scan_matches_filter_on_a_byte_table(edges, k, start, step):
    system = ConnectivitySystem.graph(edges, verify=False)
    assert isinstance(system._table, bytes)
    masks = range(start, 1 << system.n, step)
    assert system.lam_at_most(k, masks) == [x for x in masks if system.lam(x) <= k]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.integers(-3, 300), min_size=1 << n, max_size=1 << n)),
    st.integers(-4, 300))
def test_scan_matches_filter_on_a_list_table(table, k):
    n = len(table).bit_length() - 1
    system = ConnectivitySystem.from_table(n, table, verify=False)
    assert (not isinstance(system._table, bytes)) == (min(table) < 0 or max(table) > 255)
    masks = range(1 << n)
    assert system.lam_at_most(k, masks) == [x for x in masks if table[x] <= k]


def shuffled_with_repeats(data, n):
    """Masks of [0, 2^n) in random order, each drawn one to three times."""
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=24))
    masks += data.draw(st.lists(st.sampled_from(masks), max_size=12)) if masks else []
    data.draw(st.randoms()).shuffle(masks)
    return masks


@settings(max_examples=60, deadline=None)
@given(edges=multigraphs, k=st.integers(-1, 8), data=st.data())
def test_flags_match_lam_on_a_byte_table(edges, k, data):
    system = ConnectivitySystem.graph(edges, verify=False)
    assert isinstance(system._table, bytes)
    masks = shuffled_with_repeats(data, system.n)
    assert system.lam_flags(k, masks) == bytes(system.lam(x) <= k for x in masks)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.integers(-3, 300), min_size=1 << n, max_size=1 << n)),
    st.integers(-4, 300), st.data())
def test_flags_match_lam_on_a_list_table(table, k, data):
    n = len(table).bit_length() - 1
    system = ConnectivitySystem.from_table(n, table, verify=False)
    masks = shuffled_with_repeats(data, n)
    assert system.lam_flags(k, masks) == bytes(table[x] <= k for x in masks)


@pytest.mark.parametrize("table", [
    [300 + 7 * bin(x).count("1") * (4 - bin(x).count("1")) for x in range(16)],
    [100 * bin(x).count("1") * (4 - bin(x).count("1")) - 50 for x in range(16)],
], ids=["above-255", "negative"])
def test_scans_of_a_table_without_bytes_make_no_lam_call(table):
    system = ConnectivitySystem.from_table(4, table, verify=False)
    assert not isinstance(system._table, bytes)

    def no_lam(mask):
        raise AssertionError("a scan called lam")

    system.lam = no_lam
    masks = [5, 3, 12, 5, 0]
    for k in sorted(set(table)) + [min(table) - 1]:
        assert system.lam_at_most(k, range(1, 16, 2)) == [x for x in range(1, 16, 2)
                                                          if table[x] <= k]
        assert system.lam_flags(k, masks) == bytes(table[x] <= k for x in masks)
        assert system.k_separating(k) == sum(1 << x for x in range(16) if table[x] <= k)


@pytest.mark.parametrize("build", [
    lambda: ConnectivitySystem.graph([(0, 1), (1, 2), (2, 0)], verify=False),
    lambda: ConnectivitySystem.from_table(3, [300] * 8, verify=False),
], ids=["byte-table", "list-table"])
def test_flags_refuse_masks_outside_the_ground_set(build):
    system = build()
    for bad in ([system.full + 1], [1, -1, 2], [0, 1 << 70], [3, -1], [1 << system.n],
                range(system.full - 1, system.full + 2), range(-1, 4), range(4, -2, -1)):
        with pytest.raises(PreconditionFailed):
            system.lam_flags(1, bad)
    for empty in ([], range(0), range(5, 5)):
        assert system.lam_flags(1, empty) == b""
    for masks in (range(system.full, -1, -1), range(1, system.full + 1, 3), [system.full, 0]):
        assert system.lam_flags(1, masks) == bytes(system.lam(x) <= 1 for x in masks)


# -- listing the flagged masks of a range -------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.integers(0, 600), st.integers(0, 40), st.integers(1, 2), st.sampled_from([1, 3, 50]),
       st.randoms())
def test_listing_matches_the_filter(start, length, step, one_in, rnd):
    masks = range(start, start + length * step, step)
    sel = bytes(rnd.randrange(one_in) == 0 for _ in masks)
    assert _flagged(masks, sel) == [x for x, f in zip(masks, sel) if f]


@pytest.mark.parametrize("masks", [range(0), range(7, 7), range(9, 3, 2)])
def test_listing_of_an_empty_range_is_empty(masks):
    assert _flagged(masks, b"") == []


@pytest.mark.parametrize("one_in", [1, 2, 9, 1000])
@pytest.mark.parametrize("step", [1, 2])
def test_listing_of_long_ranges_matches_the_filter(one_in, step):
    masks = range(step - 1, 1 << 13, step)
    sel = bytes(x % one_in == 0 for x in masks)
    assert _flagged(masks, sel) == [x for x, f in zip(masks, sel) if f]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.integers(-3, 300), min_size=1 << n, max_size=1 << n)),
    st.integers(-4, 300), st.integers(1, 2))
def test_listing_matches_the_filter_on_a_list_table(table, k, step):
    n = len(table).bit_length() - 1
    system = ConnectivitySystem.from_table(n, table, verify=False)
    masks = range(step - 1, 1 << n, step)
    assert system.lam_at_most(k, masks) == [x for x in masks if table[x] <= k]


def counting_compress(monkeypatch):
    calls = []
    compress = core.compress
    monkeypatch.setattr(core, "compress", lambda *a: calls.append(a) or compress(*a))
    return calls


def test_petersen_order_5_listing_is_sparse(monkeypatch):
    petersen = ConnectivitySystem.graph(PETERSEN, verify=False)
    masks = range(1 << 14)
    calls = counting_compress(monkeypatch)
    got = petersen.lam_at_most(4, masks)
    assert len(got) == 266 and not calls  # 266 of 16,384 masks: walked with find
    assert got == [x for x in masks if petersen.lam(x) <= 4]


def test_dense_listing_goes_through_compress(monkeypatch):
    u89 = ConnectivitySystem.matroid(RankFunction.uniform(8, 9), verify=False)
    calls = counting_compress(monkeypatch)
    assert u89.lam_at_most(2, range(1, 1 << 9, 2)) == list(range(1, 1 << 9, 2))
    assert len(calls) == 1  # every odd mask is flagged
