import random
from types import SimpleNamespace

import pytest

from tangleforge import (ConnectivitySystem, RankFunction, Violation, build_r8_rank,
                         core, is_vertically_k_connected, verify_connectivity_axioms)
from tangleforge.core import MAX_N, verify_rank_axioms
from tangleforge.errors import PreconditionFailed, SearchSpaceTooLarge, ViolationFound
from tangleforge.jsonio import load_system

from conftest import lab


def test_ground_set_bounds_and_labels():
    with pytest.raises(ValueError, match="ground set size 0 outside 1..16"):
        ConnectivitySystem.from_table(0, [0])
    with pytest.raises(SearchSpaceTooLarge):
        ConnectivitySystem.from_table(17, [0])
    with pytest.raises(SearchSpaceTooLarge):
        ConnectivitySystem.from_table(65, [0])
    assert ConnectivitySystem.from_table(MAX_N, bytes(1 << MAX_N)).full == (1 << 16) - 1
    with pytest.raises(ValueError, match="labels must be distinct"):
        ConnectivitySystem.graph([(0, 1), (1, 2), (2, 0)], labels=("a", "a", "b"))
    # labels are checked before the table, whose length is wrong here too
    with pytest.raises(ValueError, match="labels length must equal n"):
        ConnectivitySystem.from_table(3, [0], labels=["x", "y"])
    # labels reach display, so the API refuses what the JSON reader refuses
    for labels in ([1, 2, 3], "abc"):
        with pytest.raises(ValueError, match="labels must be a list of strings"):
            ConnectivitySystem.graph([(0, 1), (1, 2), (2, 0)], labels=labels)
    g = ConnectivitySystem.from_table(3, [0] * 8, labels=["x", "y", "z"])
    assert g.full == 0b111 and g.labels == ("x", "y", "z")
    assert ConnectivitySystem.r8_polymatroid(1).labels == tuple("12345678")


def _path(n):
    return [(i, i + 1) for i in range(n)]


# Every entry point that builds a 2^n table refuses n > MAX_N first; the
# ones marked True run with `byte_lanes` patched to raise, so reaching any
# table construction would fail differently.
OVERSIZED = [
    ("RankFunction", False, lambda n: RankFunction(n, [0])),
    ("RankFunction.uniform", False, lambda n: RankFunction.uniform(3, n)),
    ("RankFunction.graphic", True, lambda n: RankFunction.graphic(_path(n))),
    ("RankFunction.from_bases", True, lambda n: RankFunction.from_bases(n, [0b111])),
    ("ConnectivitySystem.graph", True, lambda n: ConnectivitySystem.graph(_path(n))),
    # the size is refused before the labels, which are too short here
    ("labelled-graph", True,
     lambda n: ConnectivitySystem.graph(_path(n), labels=("a",))),
    ("ConnectivitySystem.from_table", False,
     lambda n: ConnectivitySystem.from_table(n, [1])),
    # a stand-in rank with nothing but n: reading anything else would fail
    ("ConnectivitySystem.matroid", False,
     lambda n: ConnectivitySystem.matroid(SimpleNamespace(n=n))),
    ("json-graph", True, lambda n: load_system({"kind": "graph", "edges": _path(n)})),
    ("json-table", False, lambda n: load_system({"kind": "table", "n": n, "lambda": [1]})),
    ("json-uniform", False, lambda n: load_system(
        {"kind": "matroid", "source": {"uniform": {"r": 3, "n": n}}})),
    ("json-bases", True, lambda n: load_system(
        {"kind": "matroid", "source": {"n": n, "bases": [[0, 1, 2]]}})),
]


@pytest.mark.parametrize("n", [17, 24])
@pytest.mark.parametrize("patched, build", [case[1:] for case in OVERSIZED],
                         ids=[case[0] for case in OVERSIZED])
def test_oversized_ground_set_is_refused_before_any_table(monkeypatch, n, patched, build):
    if patched:
        def no_table(*args):
            raise AssertionError("a table was built before the size check")
        monkeypatch.setattr(core, "byte_lanes", no_table)
    with pytest.raises(SearchSpaceTooLarge, match=f"ground set size {n} exceeds 16"):
        build(n)


def test_oversized_rank_table_is_refused():
    # a JSON rank table's length gives n: 2^16 + 1 entries make n = 17
    source = {"rank_table": [0] * ((1 << 16) + 1)}
    with pytest.raises(SearchSpaceTooLarge, match="ground set size 17 exceeds 16"):
        load_system({"kind": "matroid", "source": source})


class TestR8Rank:
    def test_planes_have_rank_three(self):
        r8 = build_r8_rank()
        assert r8.rank(lab(1, 2, 3, 4)) == 3  # bottom face
        assert r8.rank(lab(5, 6, 7, 8)) == 3
        assert r8.rank(lab(1, 2, 6, 5)) == 3
        assert r8.rank(lab(1, 3, 5, 7)) == 3  # diagonal plane

    def test_simple_rank_four(self):
        r8 = build_r8_rank()
        assert r8.rank(lab(1, 2, 3)) == 3
        assert r8.full_rank == 4
        assert r8.rank(0) == 0
        assert r8.rank(lab(1)) == 1

    def test_exactly_twelve_planes(self):
        r8 = build_r8_rank()
        planes = [m for m in range(1 << 8)
                  if bin(m).count("1") == 4 and r8.rank(m) == 3]
        assert len(planes) == 12

    def test_bases_cross_check(self):
        # The bases are exactly the non-plane 4-sets; rebuilding the rank
        # function from them must reproduce the plane-based table.
        r8 = build_r8_rank()
        bases = [m for m in range(1 << 8)
                 if bin(m).count("1") == 4 and r8.rank(m) == 4]
        again = RankFunction.from_bases(8, bases)
        assert all(again.rank(m) == r8.rank(m) for m in range(1 << 8))


def test_rank_axioms_rejected():
    # r({0}) = 2 breaks the unit-increment axiom.
    with pytest.raises(ViolationFound):
        RankFunction(2, [0, 2, 1, 2])


@pytest.mark.parametrize("values", [[0.5, 0.5], [300.5, 300.5], [0, True]],
                         ids=["in-a-byte", "wide", "bool"])
def test_tables_refuse_values_that_are_not_integers(values):
    with pytest.raises(ValueError, match="table values must be integers"):
        ConnectivitySystem.from_table(1, values, verify=False)
    with pytest.raises(ValueError, match="table values must be integers"):
        RankFunction(1, values, verify=False)


def test_rank_submodularity_witness():
    # Unit increments hold, but r({0}) + r({1}) = 0 < r({0, 1}) + r(empty).
    rank = RankFunction(2, [0, 0, 0, 1], verify=False)
    assert verify_rank_axioms(rank) == [Violation("rank_submodular", (0, 0b01, 0b10))]


def test_uniform_rank_values():
    u = RankFunction.uniform(2, 4)
    assert u.rank(0b1111) == 2
    assert u.rank(0b0001) == 1


def _acyclic(edges, mask):
    parent = {}

    def root(v):
        while parent.get(v, v) != v:
            v = parent[v]
        return v

    for i, (a, b) in enumerate(edges):
        if mask >> i & 1:
            ra, rb = root(a), root(b)
            if ra == rb:
                return False
            parent[ra] = rb
    return True


@pytest.mark.parametrize("name", ["U36", "U510", "U612", "K4", "K5", "C6+chord"])
def test_from_bases_matches_the_max_formula(name):
    from itertools import combinations
    if name.startswith("U"):
        r, n = int(name[1]), int(name[2:])
        bases = [sum(1 << e for e in c) for c in combinations(range(n), r)]
        other = RankFunction.uniform(r, n)
    else:
        edges = {"K4": list(combinations(range(4), 2)),
                 "K5": list(combinations(range(5), 2)),
                 "C6+chord": [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)]}[name]
        n = len(edges)
        r = max(bin(m).count("1") for m in range(1 << n) if _acyclic(edges, m))
        bases = [m for m in range(1 << n) if bin(m).count("1") == r and _acyclic(edges, m)]
        other = RankFunction.graphic(edges)
    got = RankFunction.from_bases(n, bases)
    want = [max(bin(m & b).count("1") for b in bases) for m in range(1 << n)]
    assert [got.rank(m) for m in range(1 << n)] == want
    assert [other.rank(m) for m in range(1 << n)] == want


@pytest.mark.parametrize("bases", [[0b11000], [0b011, 0b10001], [0b011, -1]],
                         ids=["above-n", "one-of-two", "negative"])
def test_from_bases_refuses_elements_outside_the_ground_set(monkeypatch, bases):
    def no_table(*args):
        raise AssertionError("a table was built before the basis check")
    monkeypatch.setattr(core, "down_closure", no_table)
    monkeypatch.setattr(core, "byte_lanes", no_table)
    with pytest.raises(PreconditionFailed, match=r"basis \S+ has elements outside 0\.\.2"):
        RankFunction.from_bases(3, bases)


def test_graphic_rank_triangle():
    r = RankFunction.graphic([(0, 1), (1, 2), (0, 2)])
    assert r.full_rank == 2
    assert r.rank(0b011) == 2
    assert r.rank(0b001) == 1


class TestLambda:
    def test_matroid_examples(self, u24):
        assert u24.lam(lab(1)) == 2
        assert u24.lam(0) == 1  # the +1 convention at the empty set

    def test_polymatroid_examples(self, r8p1):
        assert r8p1.lam(lab(1, 2)) == 4
        assert r8p1.lam(lab(1, 3, 5, 7)) == 4
        assert r8p1.lam(0) == 1

    def test_graph_boundary_count(self, c4g):
        assert c4g.lam(0b0101) == 4  # opposite edges of the 4-cycle
        assert c4g.lam(0b0011) == 2
        assert c4g.lam(0) == 0

    def test_graph_loop_ignored(self):
        g = ConnectivitySystem.graph([(0, 1), (1, 1), (1, 2)])
        # the loop at vertex 1 never makes 1 a boundary vertex by itself
        assert g.lam(0b010) == 0

    def test_mask_outside_ground_set(self, u24):
        with pytest.raises(PreconditionFailed):
            u24.lam(1 << 10)


class TestKSeparating:
    def test_u24_pair_exact(self, u24):
        assert u24.lam(lab(1, 2)) == 3

    def test_full_set(self, u24):
        assert u24.lam(u24.full) <= u24.lam(0)

    def test_r8_diagonal(self, r8p1):
        assert r8p1.lam(lab(1, 3, 5, 7)) == 4


class TestAxiomVerification:
    def test_matroid_connectivity_clean(self, u24):
        assert verify_connectivity_axioms(u24) == []

    def test_graph_connectivity_clean(self, c4g):
        assert verify_connectivity_axioms(c4g) == []

    def test_symmetry_witness(self):
        table = [1] * 16
        table[0b0001] = 5
        table[0b1110] = 3
        sys = ConnectivitySystem.from_table(4, table, verify=False)
        report = verify_connectivity_axioms(sys)
        assert report and report[0].axiom in ("symmetry", "lambda_below_empty")

    def test_construction_raises_by_default(self):
        table = [1] * 16
        table[0b0001] = 5
        with pytest.raises(ViolationFound):
            ConnectivitySystem.from_table(4, table)


def test_symmetry_exhaustive_small(u24, r8p1, c6g):
    for sys in (u24, r8p1, c6g):
        full = sys.full
        for x in range(1 << sys.n):
            assert sys.lam(x) == sys.lam(full ^ x)


def test_elementary_consequences(u24, c4g):
    # lam(X) >= lam(empty) and the difference form of submodularity.
    for sys in (u24, c4g):
        l0 = sys.lam(0)
        for x in range(1 << sys.n):
            assert sys.lam(x) >= l0
            for y in range(1 << sys.n):
                assert sys.lam(x) + sys.lam(y) >= sys.lam(x & ~y) + sys.lam(y & ~x)


def test_uncrossing_consequences(u24, c4g, r8p1):
    # For k-separating X, Y: lam(X & Y) >= k forces X | Y k-separating,
    # and dually for complements.
    for sys in (u24, c4g, r8p1):
        full = sys.full
        for k in range(1, 6):
            for x in range(1 << sys.n):
                if sys.lam(x) > k:
                    continue
                for y in range(1 << sys.n):
                    if sys.lam(y) > k:
                        continue
                    if sys.lam(x & y) >= k:
                        assert sys.lam(x | y) <= k
                    if sys.lam(full ^ (x | y)) >= k:
                        assert sys.lam(x & y) <= k


def test_matroid_lambda_basics(u24, u48, r8m):
    for sys in (u24, u48, r8m):
        assert sys.lam(0) == 1
        for e in range(sys.n):
            assert sys.lam(1 << e) in (1, 2)


def test_memoization_invisible(r8p1):
    fresh = ConnectivitySystem.r8_polymatroid(1)
    assert all(fresh.lam(m) == r8p1.lam(m) for m in range(1 << 8))


class TestVerticalConnectivity:
    def test_u24_k2(self, u24):
        assert is_vertically_k_connected(u24.rank, 2)

    def test_r8_k5(self, r8m):
        # Every 4-separation of R_8 has a side of rank exactly 3 = k-2,
        # so the loose condition holds (both sides rank 4 would force
        # lambda = 5).
        assert is_vertically_k_connected(r8m.rank, 5)

    def test_r8_k3_true(self, r8m):
        assert is_vertically_k_connected(r8m.rank, 3)

    def test_disconnected_fails_k2(self):
        rank = RankFunction.graphic([(0, 1), (2, 3)])
        assert not is_vertically_k_connected(rank, 2)

    def test_bowtie_fails_k3(self):
        # Two triangles sharing a vertex: the triangle pair is a
        # 1-separation with both sides of rank 2 > k-2 = 1.
        rank = RankFunction.graphic([(0, 1), (1, 2), (0, 2),
                                     (2, 3), (3, 4), (2, 4)])
        assert not is_vertically_k_connected(rank, 3)
        assert not is_vertically_k_connected(rank, 2)

    def test_k_below_two_rejected(self, u24):
        with pytest.raises(PreconditionFailed):
            is_vertically_k_connected(u24.rank, 1)


def test_sampled_verification_large_n_path():
    # n = 15, near the cap: an unverified uniform matroid stays symmetric.
    rank = RankFunction.uniform(3, 15)
    sys = ConnectivitySystem.matroid(rank, verify=False)
    rng = random.Random(1)
    for _ in range(500):
        x = rng.getrandbits(15)
        assert sys.lam(x) == sys.lam(sys.full ^ x)


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: RankFunction(2, [0, 1, 1]), ValueError,
                 "rank table must have 2^n entries", id="rank-table-length"),
    pytest.param(lambda: RankFunction.uniform(5, 4), ValueError,
                 "uniform matroid needs 0 <= r <= n", id="uniform-rank-above-n"),
    pytest.param(lambda: RankFunction.uniform(-1, 4), ValueError,
                 "uniform matroid needs 0 <= r <= n", id="uniform-rank-below-0"),
    pytest.param(lambda: RankFunction.graphic([]), ValueError,
                 "graphic matroid needs at least one edge", id="graphic-no-edge"),
    pytest.param(lambda: RankFunction.from_bases(3, []), ValueError,
                 "need at least one basis", id="no-basis"),
    pytest.param(lambda: ConnectivitySystem.r8_polymatroid(0), ValueError,
                 "ell must be a positive integer", id="r8-ell-0"),
    pytest.param(lambda: ConnectivitySystem.from_table(2, [0, 1, 0]), ValueError,
                 "lambda table must have 2^n entries", id="lambda-table-length"),
])
def test_core_refusals(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert type(err.value) is error and str(err.value) == message
