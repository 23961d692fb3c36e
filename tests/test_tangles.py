import json
import random

import pytest

from tangleforge import (ConnectivitySystem, RankFunction,
                         canonical_vertical_tangle, enumerate_tangles,
                         is_robust, tangles, verify_flower, verify_tangle)
from tangleforge.cli import run
from tangleforge.core import MAX_N, Violation
from tangleforge.errors import (NotAPartition, PreconditionFailed, SearchSpaceTooLarge,
                                ViolationFound)
from tangleforge.tangles import Tangle

from conftest import BARBELL_EDGES, lab


def members_as_elements(tangle):
    from tangleforge.bitset import elements_of
    return sorted(elements_of(m) for m in tangle.members)


class TestVerifyTangle:
    def test_r8_polymatroid_unique_tangle_verifies(self, r8p1, ctx_r8p1):
        assert verify_tangle(r8p1, ctx_r8p1.tangle) == []
        assert members_as_elements(ctx_r8p1.tangle) == [[]] + [[i] for i in range(8)]

    def test_u24_empty_member_tangle(self, u24):
        assert verify_tangle(u24, Tangle(u24, 2, [0])) == []

    def test_u24_singletons_violate_t1(self, u24):
        # lam(singleton) = 2 = k, so singletons cannot be members at k=2.
        t = Tangle(u24, 2, [0, 1, 2, 4, 8])
        report = verify_tangle(u24, t)
        assert any(v.axiom == "T1" for v in report)

    def test_both_sides_is_t3(self, u24):
        t = Tangle(u24, 3, [lab(1), u24.full ^ lab(1)])
        report = verify_tangle(u24, t)
        assert any(v.axiom == "T3" for v in report)

    def test_cosingleton_is_t4(self, r8p1):
        t = Tangle(r8p1, 4, [0] + [1 << e for e in range(8)] + [r8p1.full ^ 1])
        report = verify_tangle(r8p1, t)
        assert any(v.axiom == "T4" for v in report)

    def test_missing_orientation_is_t2(self, u24):
        report = verify_tangle(u24, Tangle(u24, 2, []))
        assert any(v.axiom == "T2" for v in report)


class TestRobustness:
    def test_r8_tangle_not_robust(self, ctx_r8p1):
        # the eight singletons cover the ground set
        assert not is_robust(ctx_r8p1.tangle)

    def test_empty_set_tangle_robust(self, ctx_u26):
        assert is_robust(ctx_u26.tangle)

    def test_members_missing_common_element_robust(self, ctx_barbell):
        # all members avoid the near triangle, so unions never cover E
        assert is_robust(ctx_barbell.tangle)

    def test_mk4_order3_not_robust(self, ctx_mk4):
        # six single-edge members cover all of E(K_4)
        assert not is_robust(ctx_mk4.tangle)

    @pytest.mark.parametrize("n, robust", [(8, False), (9, True)])
    def test_canonical_order_3_tangle_of_U_4_n(self, n, robust):
        # members: the empty set and the n singletons.  C_4 holds the sets of
        # at most four elements, so some X in C_4 has E - X in C_4 iff n <= 8
        sys = ConnectivitySystem.matroid(RankFunction.uniform(4, n), verify=False)
        t = canonical_vertical_tangle(sys, 3)
        assert t.members == {0} | {1 << e for e in range(n)}
        assert is_robust(t) is robust

    def test_u2_12_wide_tangle_robust(self):
        # order-3 tangle of U_{2,12}: members are the empty set and the
        # twelve singletons; eight of them cannot cover twelve elements.
        sys = ConnectivitySystem.matroid(RankFunction.uniform(2, 12), verify=False)
        t = Tangle(sys, 3, [0] + [1 << e for e in range(12)])
        assert verify_tangle(sys, t) == []
        assert is_robust(t)


def test_search_deeper_than_recursion_limit_finds_no_tangle():
    # 8192 separation pairs at order 5, deeper than the interpreter's
    # recursion limit; the search keeps its own stack and finds no tangle.
    sys = ConnectivitySystem.matroid(RankFunction.uniform(3, 14), verify=False)
    assert enumerate_tangles(sys, 5) == []


def test_scans_above_the_cap_are_refused():
    # the tangle search and the robustness test scan all 2^n masks, so no
    # system above MAX_N elements can be built to run them on
    n = MAX_N + 1
    with pytest.raises(SearchSpaceTooLarge, match=f"ground set size {n} exceeds {MAX_N}"):
        ConnectivitySystem.graph([(i, i + 1) for i in range(n)], verify=False)
    with pytest.raises(SearchSpaceTooLarge, match=f"ground set size {n} exceeds {MAX_N}"):
        ConnectivitySystem.from_table(n, [1] * (1 << n), verify=False)


def test_node_cap(monkeypatch, barbell, tmp_path, capsys):
    # the barbell has three tangles of order 2; two search nodes are too few
    monkeypatch.setattr(tangles, "NODE_CAP", 2)
    with pytest.raises(SearchSpaceTooLarge, match="exceeded 2 nodes"):
        enumerate_tangles(barbell, 2)
    path = tmp_path / "barbell.json"
    path.write_text(json.dumps({"kind": "graph", "edges": BARBELL_EDGES}))
    assert run(["tangles", "--input", str(path), "--k", "2"]) == 3
    assert json.loads(capsys.readouterr().out)["error"] == "search_space_too_large"


def test_search_leaf_failing_verification_raises(u24, monkeypatch):
    bad = Violation("T2", (0b0011,))
    monkeypatch.setattr(tangles, "verify_tangle", lambda sys, t: [bad])
    with pytest.raises(ViolationFound) as caught:
        enumerate_tangles(u24, 2)
    assert caught.value.witness == bad


class TestCanonical:
    def test_u24_k2(self, u24):
        t = canonical_vertical_tangle(u24, 2)
        assert members_as_elements(t) == [[]]

    def test_r8_k3_members_rank_at_most_one(self, r8m):
        t = canonical_vertical_tangle(r8m, 3)
        assert members_as_elements(t) == [[]] + [[i] for i in range(8)]

    def test_rank_bound_violation(self, u24):
        with pytest.raises(PreconditionFailed):
            canonical_vertical_tangle(u24, 4)

    def test_not_vertically_connected(self):
        bowtie = ConnectivitySystem.matroid(
            RankFunction.graphic([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]),
            verify=False)
        with pytest.raises(PreconditionFailed):
            canonical_vertical_tangle(bowtie, 2)

    def test_non_matroid_rejected(self, r8p1):
        with pytest.raises(PreconditionFailed):
            canonical_vertical_tangle(r8p1, 4)


class TestEnumerate:
    def test_r8_polymatroid_unique(self, r8p1):
        found = enumerate_tangles(r8p1, 4)
        assert len(found) == 1
        assert members_as_elements(found[0]) == [[]] + [[i] for i in range(8)]

    def test_u24_unique(self, u24):
        found = enumerate_tangles(u24, 2)
        assert len(found) == 1
        assert members_as_elements(found[0]) == [[]]

    def test_barbell_has_three_order_two_tangles(self, barbell):
        found = enumerate_tangles(barbell, 2)
        got = sorted(members_as_elements(t) for t in found)
        assert got == [
            [[], [0, 1, 2], [0, 1, 2, 3]],
            [[], [0, 1, 2], [4, 5, 6]],
            [[], [3, 4, 5, 6], [4, 5, 6]],
        ]

    def test_every_enumerated_tangle_verifies(self, barbell, c6g, r8p1):
        for sys, k in ((barbell, 2), (c6g, 2), (r8p1, 4)):
            for t in enumerate_tangles(sys, k):
                assert verify_tangle(sys, t) == []

    def test_forced_empty_member(self):
        # lam(empty)=1 < k forces the empty set in; nothing else qualifies.
        table = [9] * 8
        table[0] = table[7] = 1
        sys = ConnectivitySystem.from_table(3, table)
        found = enumerate_tangles(sys, 2)
        assert len(found) == 1 and members_as_elements(found[0]) == [[]]

    def test_vacuous_axioms_give_empty_collection(self):
        # constant lambda = 5: no (k-1)-separations at k=5, so the empty
        # collection is the single (vacuous) tangle.
        sys = ConnectivitySystem.from_table(3, [5] * 8)
        found = enumerate_tangles(sys, 5)
        assert len(found) == 1 and found[0].members == frozenset()


class TestWeakStrong:
    def test_pair_strong_in_r8(self, ctx_r8p1):
        assert ctx_r8p1.tangle.is_strong(lab(1, 2))

    def test_empty_weak_when_member(self, ctx_r8p1):
        assert ctx_r8p1.tangle.is_weak(0)

    def test_petal_partition_strong(self, ctx_r8p1):
        parts = [lab(1, 2), lab(3, 4), lab(5, 6), lab(7, 8)]
        assert all(ctx_r8p1.tangle.is_strong(p) for p in parts)

    def test_not_a_partition(self, ctx_r8p1):
        # overlapping petals, and petals that miss part of E
        sys, tangle = ctx_r8p1.sys, ctx_r8p1.tangle
        with pytest.raises(NotAPartition):
            verify_flower(sys, tangle, [lab(1, 2), lab(2, 3)])
        with pytest.raises(NotAPartition):
            verify_flower(sys, tangle, [lab(1, 2)])

    def test_monotonicity_random_pairs(self, ctx_r8p1, ctx_barbell):
        rng = random.Random(5)
        for ctx in (ctx_r8p1, ctx_barbell):
            t = ctx.tangle
            n = ctx.sys.n
            for _ in range(300):
                x = rng.getrandbits(n)
                sub = x & rng.getrandbits(n)
                if t.is_weak(x):
                    assert t.is_weak(sub)
                if t.is_strong(sub):
                    assert t.is_strong(x)


class TestInvariants:
    def test_exclusivity(self, ctx_r8p1, ctx_barbell, ctx_mk4):
        for ctx in (ctx_r8p1, ctx_barbell, ctx_mk4):
            full = ctx.sys.full
            for m in ctx.tangle.members:
                assert (full ^ m) not in ctx.tangle.members

    def test_strong_partition_forces_lambda_at_least_k(self, ctx_r8p1, ctx_barbell):
        for ctx in (ctx_r8p1, ctx_barbell):
            sys, t = ctx.sys, ctx.tangle
            for x in range(1, sys.full):
                if t.is_strong(x) and t.is_strong(sys.full ^ x):
                    assert sys.lam(x) >= t.k

    def test_canonical_equals_sole_enumerated(self, u26, u48, r8m):
        for sys, k in ((u26, 2), (u48, 3), (r8m, 3)):
            canonical = canonical_vertical_tangle(sys, k)
            found = enumerate_tangles(sys, k)
            assert len(found) == 1
            assert found[0].members == canonical.members

    def test_robust_implies_tangle(self, barbell, c6g):
        # RT3 subsumes T3, so every enumerated robust collection verifies.
        for sys, k in ((barbell, 2), (c6g, 2)):
            for t in enumerate_tangles(sys, k):
                if is_robust(t):
                    assert verify_tangle(sys, t) == []


class TestCost:
    """U_{3,12} at order 4: one tangle with 66 maximal members."""

    @pytest.fixture(scope="class")
    def u3_12_tangle(self):
        sys = ConnectivitySystem.matroid(RankFunction.uniform(3, 12), verify=False)
        (tangle,) = enumerate_tangles(sys, 4)
        assert len(tangle.maximal_members) == 66
        return tangle

    def test_verify_walks_no_triple_when_none_covers(self, u3_12_tangle, monkeypatch):
        def refuse(*args):
            raise AssertionError("(T3) walked the triples of maximal members")
        monkeypatch.setattr(tangles, "combinations_with_replacement", refuse)
        tangle = Tangle(u3_12_tangle.sys, 4, u3_12_tangle.members)
        assert verify_tangle(tangle.sys, tangle) == []

    def test_robustness_joins_no_family_past_C_4(self, u3_12_tangle, monkeypatch):
        calls = []
        join = tangles.join
        monkeypatch.setattr(tangles, "join", lambda *a: calls.append(a) or join(*a))
        assert not is_robust(Tangle(u3_12_tangle.sys, 4, u3_12_tangle.members))
        # C_2 to C_4, 66 joins each: E is first in C_6, but some X in C_4
        # (eight elements) has E - X (four) in C_4
        assert len(calls) == 198


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda sys: Tangle(sys, 2, [0, 1 << sys.n]),
                 "member outside ground set", id="member-outside-E"),
    pytest.param(lambda sys: canonical_vertical_tangle(sys, 1),
                 "canonical tangle needs k >= 2", id="canonical-k-1"),
    pytest.param(lambda sys: Tangle(sys, 2, [0]).is_weak(-1),
                 "mask -0x1 outside ground set", id="is-weak-negative"),
    pytest.param(lambda sys: Tangle(sys, 2, [0]).is_strong(1 << sys.n),
                 "mask 0x10 outside ground set", id="is-strong-past-E"),
])
def test_tangle_refusals(u24, build, message):
    with pytest.raises(PreconditionFailed) as err:
        build(u24)
    assert type(err.value) is PreconditionFailed and str(err.value) == message
