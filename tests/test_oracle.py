import gc
import weakref

import pytest

from tangleforge import oracle
from tangleforge import (ConnectivitySystem, RankFunction, build_maximal_tree,
                         enumerate_tangles, full_closure, verify_flower)
from tangleforge.bitset import elements_of
from tangleforge.closure import build_default_S
from tangleforge.errors import PreconditionFailed, SearchSpaceTooLarge, ViolationFound
from tangleforge.flowers import Flower, classify
from tangleforge.oracle import (_class_index, _displayed_unions, _fully_closed, _sep_table,
                                _weak, _weak_set, differential_report, oracle_certify_tree,
                                oracle_classes, oracle_flowers, oracle_full_closure)
from tangleforge.tangles import Tangle
from tangleforge.trees import PiTree, flower_to_tree, verify_partial_kS_tree

from conftest import (K5_EDGES, assert_flower_scans_match, assert_walks_are_literal,
                      count_lam, displayed_class_ids, lab, tree_mutants)

CTX_NAMES = ["ctx_r8p1", "ctx_u26", "ctx_u56", "ctx_c6", "ctx_pc4",
             "ctx_barbell", "ctx_r8m3", "ctx_mk4"]


def strong_domain(ctx):
    sys, t = ctx.sys, ctx.tangle
    return [x for x in range(1 << sys.n)
            if sys.lam(x) <= t.k and t.is_strong(x)]


class TestOracleClosure:
    def test_r8_pair(self, ctx_r8p1):
        assert oracle_full_closure(ctx_r8p1.sys, ctx_r8p1.tangle, lab(1, 2)) == lab(1, 2)

    def test_fully_closed_fixed_point(self, ctx_r8p1):
        x = lab(1, 3, 5, 7)
        assert oracle_full_closure(ctx_r8p1.sys, ctx_r8p1.tangle, x) == x

    def test_agrees_with_greedy_everywhere(self, ctx_r8p1, ctx_barbell,
                                           ctx_pc4, ctx_c6, ctx_mk4):
        for ctx in (ctx_r8p1, ctx_barbell, ctx_pc4, ctx_c6, ctx_mk4):
            for x in strong_domain(ctx):
                assert (oracle_full_closure(ctx.sys, ctx.tangle, x)
                        == full_closure(ctx.sys, ctx.tangle, x))


class TestOracleFlowers:
    def test_r8_contains_phi(self, ctx_r8p1):
        flowers = oracle_flowers(ctx_r8p1.sys, ctx_r8p1.tangle, 4)
        keys = {frozenset(f.petals) for f in flowers if f.n == 4}
        assert frozenset((lab(1, 2), lab(3, 4), lab(5, 6), lab(7, 8))) in keys

    def test_r8_counts(self, ctx_r8p1):
        flowers = oracle_flowers(ctx_r8p1.sys, ctx_r8p1.tangle, 4)
        by_n = {}
        for f in flowers:
            by_n[f.n] = by_n.get(f.n, 0) + 1
        # 1 trivial, 28 pair|six + 6 plane|plane, 12 planes x 3 pair splits,
        # 4 all-pairs anemones + 3 daisies
        assert by_n == {1: 1, 2: 34, 3: 36, 4: 7}
        assert sum(1 for f in flowers if f.klass == "daisy") == 3

    def test_trivial_system_single_flower(self):
        table = [9] * 8
        table[0] = table[7] = 1
        sys = ConnectivitySystem.from_table(3, table)
        t = enumerate_tangles(sys, 2)[0]
        flowers = oracle_flowers(sys, t, 4)
        assert len(flowers) == 1 and flowers[0].petals == (sys.full,)

    def test_every_oracle_flower_verifies_and_classifies(self, ctx_c6, ctx_barbell):
        for ctx in (ctx_c6, ctx_barbell):
            for f in oracle_flowers(ctx.sys, ctx.tangle, 5):
                verify_flower(ctx.sys, ctx.tangle, f.petals)
                assert f.klass in ("anemone", "daisy")
                assert classify(ctx.sys, Flower(f.petals, f.k)) == f.klass or f.n <= 2

    def test_petal_cap_enforced(self, ctx_r8p1):
        with pytest.raises(SearchSpaceTooLarge):
            oracle_flowers(ctx_r8p1.sys, ctx_r8p1.tangle, 9)

    def test_partitions_follow_the_flowers(self, monkeypatch):
        """C12 at order 2 has 782 flowers of at most four petals, one per
        partition into admissible petals.  Walking every partition of E into
        at most four blocks and filtering afterwards generated 700,075.  The
        partitions are walked twice: counted against NODE_CAP, then turned
        into flowers."""
        system = ConnectivitySystem.graph([(i, (i + 1) % 12) for i in range(12)])
        tangle = enumerate_tangles(system, 2)[0]
        walks = []
        real = oracle._admissible_partitions

        def walk(*args):
            yielded = []
            walks.append(yielded)
            return (yielded.append(p) or p for p in real(*args))

        monkeypatch.setattr(oracle, "_admissible_partitions", walk)
        assert len(oracle_flowers(system, tangle, 4)) == 782
        assert [len(yielded) for yielded in walks] == [782, 782]

    def test_walk_over_node_cap_is_refused_and_not_kept(self, c6g, monkeypatch):
        tangle, = enumerate_tangles(c6g, 2)
        monkeypatch.setattr(oracle, "NODE_CAP", 10)
        with pytest.raises(SearchSpaceTooLarge, match="flower search exceeded 10 candidates"):
            oracle_flowers(c6g, tangle, 4)
        assert 4 not in tangle.__dict__["_oracle_flowers"]
        assert oracle_flowers(c6g, tangle, 1) == [((c6g.full,), 2, "anemone")]

    def test_refusal_comes_before_any_flower_is_built(self, c6g, monkeypatch):
        # C6 has more than ten partitions into at most four arcs
        tangle, = enumerate_tangles(c6g, 2)

        def build(*args):
            raise AssertionError("a flower was built before the refusal")

        monkeypatch.setattr(oracle, "NODE_CAP", 10)
        monkeypatch.setattr(oracle, "OracleFlower", build)
        monkeypatch.setattr(oracle, "Flower", build)
        with pytest.raises(SearchSpaceTooLarge, match="flower search exceeded 10 candidates"):
            oracle_flowers(c6g, tangle, 4)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_petal_cap_below_one_is_refused(self, ctx_u26, cap):
        # no flower was enumerated, so no report may claim a flower check
        sys, tangle = ctx_u26.sys, ctx_u26.tangle
        with pytest.raises(PreconditionFailed, match="petal cap must be at least 1"):
            oracle_flowers(sys, tangle, cap)
        with pytest.raises(PreconditionFailed, match="petal cap must be at least 1"):
            differential_report(sys, tangle, ctx_u26.S, max_petals=cap)
        assert differential_report(sys, tangle, ctx_u26.S).flower_count is None


class TestFlowerScans:
    """The doubled union list and the per-n run table against the per-bit
    scans they replaced."""

    @pytest.mark.parametrize("name", CTX_NAMES)
    def test_every_fixture_flower(self, name, request):
        ctx = request.getfixturevalue(name)
        flowers = oracle_flowers(ctx.sys, ctx.tangle, 4)
        assert flowers
        for f in flowers:
            assert assert_flower_scans_match(ctx.sys, f.petals, f.k) == f.klass

    @pytest.mark.parametrize("petals, verdict", [
        ((1, 2, 4, 8, 16, 32), "daisy"),
        ((1, 4, 2, 8, 16, 32), "neither"),
        ((5, 10, 48), "neither"),
        ((3, 12, 48), "anemone"),
        ((7, 56), "anemone"),
        ((63,), "anemone"),
        ((), "anemone"),
    ])
    def test_each_verdict_and_small_n(self, c6g, petals, verdict):
        assert assert_flower_scans_match(c6g, petals, 2) == verdict


class TestOracleClasses:
    def test_matches_engine(self, ctx_r8p1, ctx_barbell, ctx_pc4, ctx_u26):
        for ctx in (ctx_r8p1, ctx_barbell, ctx_pc4, ctx_u26):
            engine = [[s.side for s in cls] for cls in ctx.S.classes()]
            oracle = [[s.side for s in cls]
                      for cls in oracle_classes(ctx.sys, ctx.tangle, ctx.S)]
            assert engine == oracle


class TestSOrder:
    """The S-order clause of (P3)/(P4), "at least two classes shown", reads
    the classes of a flower's displays; the oracle reads their positions in
    its class memo, the engine its class ids."""

    @pytest.mark.parametrize("name", CTX_NAMES)
    def test_matches_engine_class_ids(self, name, request):
        # the oracle's class positions and the engine's class ids must agree
        ctx = request.getfixturevalue(name)
        sys, tangle, S = ctx.sys, ctx.tangle, ctx.S
        flowers = oracle_flowers(sys, tangle, 4)
        ids = [displayed_class_ids(sys, tangle, S, f) for f in flowers]
        index = _class_index(sys, tangle, S)
        keys = [{index[s] for s in _displayed_unions(sys, f.k, f.petals) if s in index}
                for f in flowers]
        for own_ids, own_keys in zip(ids, keys):
            assert len(own_keys) == len(own_ids)
            assert [other == own_ids for other in ids] == [other == own_keys
                                                          for other in keys]

    def test_repeated_calls_enumerate_nothing(self, ctx_u56, monkeypatch):
        sys = ctx_u56.sys
        tangle = Tangle(sys, ctx_u56.tangle.k, ctx_u56.tangle.members)  # empty memos
        calls = []
        real = oracle._admissible_partitions
        monkeypatch.setattr(oracle, "_admissible_partitions",
                            lambda *args: calls.append(args) or real(*args))
        flowers = oracle_flowers(sys, tangle, 4)
        assert len(calls) == 2  # the count against NODE_CAP, then the walk
        assert oracle_flowers(sys, tangle, 4) == flowers  # the same petal cap
        assert len(calls) == 2


class TestOracleCertify:
    def test_built_tree_certified(self, ctx_barbell):
        t = build_maximal_tree(ctx_barbell.sys, ctx_barbell.tangle, ctx_barbell.S)
        ok, problems = oracle_certify_tree(ctx_barbell.sys, ctx_barbell.tangle,
                                           ctx_barbell.S, t)
        assert ok, problems

    def test_phi_r8_star_rejected(self, ctx_r8p1):
        f = verify_flower(ctx_r8p1.sys, ctx_r8p1.tangle,
                          [lab(1, 2), lab(3, 4), lab(5, 6), lab(7, 8)])
        t = flower_to_tree(ctx_r8p1.sys, ctx_r8p1.tangle, f)
        ok, problems = oracle_certify_tree(ctx_r8p1.sys, ctx_r8p1.tangle,
                                           ctx_r8p1.S, t)
        assert not ok
        assert any("P5" in p or "not displayed" in p for p in problems)

    def test_sequential_edge_rejected(self, ctx_r8p1):
        sys = ctx_r8p1.sys
        t = PiTree(4, {0: lab(1, 2), 1: sys.full ^ lab(1, 2)}, {}, [(0, 1)])
        ok, problems = oracle_certify_tree(sys, ctx_r8p1.tangle, ctx_r8p1.S, t)
        assert not ok and any("P1" in p for p in problems)

    def test_flower_vertex_label_and_cyclic_order_are_checked(self):
        """On the C10 daisy star at order 2 a vertex labelled X and a D
        vertex without its cyclic order fail the engine's (P2); the oracle
        refuses them too, and agrees with the engine on every mutant."""
        system = ConnectivitySystem.graph([(i, (i + 1) % 10) for i in range(10)])
        tangle, = enumerate_tangles(system, 2)
        s_family = build_default_S(system, tangle)
        t = build_maximal_tree(system, tangle, s_family)
        (v, _), = t.labels.items()
        for broken, problem in [
                (t.replaced(labels={v: "X"}), f"flower vertex {v} is labelled 'X', not A or D"),
                (t.replaced(cyclic={}),
                 f"cyclic order at D vertex {v} does not list its neighbours")]:
            assert not verify_partial_kS_tree(system, tangle, s_family, broken).passed["P2"]
            ok, problems = oracle_certify_tree(system, tangle, s_family, broken,
                                               require_maximal=False)
            assert not ok and problem in problems
        for broken in tree_mutants(t):
            assert (verify_partial_kS_tree(system, tangle, s_family, broken).ok
                    == oracle_certify_tree(system, tangle, s_family, broken,
                                           require_maximal=False)[0])


class TestDifferential:
    def test_clean_report(self, ctx_r8p1, ctx_barbell, ctx_pc4):
        for ctx in (ctx_r8p1, ctx_barbell, ctx_pc4):
            report = differential_report(ctx.sys, ctx.tangle, ctx.S, max_petals=4)
            assert report.ok, report.disagreements
            assert report.closure_checks > 0
            data = report.to_json()
            assert data["ok"] and data["class_count"] == len(ctx.S.classes())

    @pytest.mark.parametrize("target, keys", [
        ("full_closure", {"op", "x", "engine", "oracle"}),
        ("classes", {"op", "engine", "oracle"}),
        ("classify", {"op", "petals", "engine", "oracle"}),
    ])
    def test_a_wrong_engine_answer_is_recorded(self, ctx_c6, monkeypatch, target, keys):
        # one engine answer made wrong at a time on C6: the report fails,
        # and every disagreement it records names that operation
        import tangleforge.closure as closure
        import tangleforge.flowers as flowers
        sys, tangle, S = ctx_c6.sys, ctx_c6.tangle, ctx_c6.S
        classes = S.classes()
        if target == "full_closure":
            monkeypatch.setattr(closure, "full_closure", lambda sys_, t, x: sys.full)
        elif target == "classes":
            monkeypatch.setattr(type(S), "classes", lambda self: classes[1:])
        else:
            flip = {"anemone": "daisy", "daisy": "anemone"}
            monkeypatch.setattr(flowers, "classify", lambda sys_, f: flip[classify(sys_, f)])
        report = differential_report(sys, tangle, S, max_petals=3)
        assert report.ok is False
        assert report.disagreements
        for record in report.disagreements:
            assert record["op"] == target and set(record) == keys
        first = report.disagreements[0]
        if target == "full_closure":
            assert first["engine"] == elements_of(sys.full)
            assert first["oracle"] == first["x"]  # C6 has no weak set but the empty one
        elif target == "classes":
            assert first["oracle"][1:] == first["engine"]
        else:
            assert flip[first["engine"]] == first["oracle"]

    def test_an_oversized_flower_walk_refuses_before_any_closure(self, c6g, monkeypatch):
        # C6 has more than ten partitions into at most four arcs, so the
        # report refuses; no engine closure is computed for a report that
        # is never made.  A fresh tangle, so no flower walk is memoized.
        import tangleforge.closure as closure
        tangle, = enumerate_tangles(c6g, 2)
        S = build_default_S(c6g, tangle)

        def no_closure(*args):
            raise AssertionError("a closure was computed before the refusal")

        monkeypatch.setattr(oracle, "NODE_CAP", 10)
        monkeypatch.setattr(closure, "full_closure", no_closure)
        with pytest.raises(SearchSpaceTooLarge, match="flower search exceeded 10 candidates"):
            differential_report(c6g, tangle, S, max_petals=4)


class TestOracleMemos:
    """The weak set and the fully-closed memo are tables of the literal
    predicates: every entry equals what the definition gives."""

    @pytest.mark.parametrize("name", CTX_NAMES)
    def test_weak_set_is_the_member_scan(self, name, request):
        ctx = request.getfixturevalue(name)
        members = ctx.tangle.members
        for x in range(1 << ctx.sys.n):
            assert _weak(ctx.tangle, x) == any(x & ~m == 0 for m in members)

    @pytest.mark.parametrize("name", CTX_NAMES)
    def test_memoized_fully_closed_matches_fresh(self, name, request):
        ctx = request.getfixturevalue(name)
        sys, tangle = ctx.sys, ctx.tangle
        masks = range(1 << sys.n)
        for x in masks:
            _fully_closed(sys, tangle, x)
        fresh = Tangle(sys, tangle.k, tangle.members)
        for x in masks:
            assert x in tangle._oracle_fc_cache
            assert _fully_closed(sys, tangle, x) == _fully_closed(sys, fresh, x)

    def test_tangles_of_one_system_keep_their_own_memos(self, barbell):
        first, second = enumerate_tangles(barbell, 2)[:2]
        masks = range(1 << barbell.n)
        verdicts = [[_fully_closed(barbell, t, x) for x in masks] for t in (first, second)]
        closures = [[oracle_full_closure(barbell, t, x) for x in masks
                     if barbell.lam(x) <= 2 and not _weak(t, x)] for t in (first, second)]
        classes = [oracle_classes(barbell, t) for t in (first, second)]
        assert verdicts[0] != verdicts[1] and closures[0] != closures[1]
        assert classes[0] != classes[1]
        for attr in ("_oracle_weak", "_oracle_fc_cache", "_oracle_fcl_cache",
                     "_oracle_fc_table", "_oracle_sep", "_oracle_classes"):
            assert getattr(first, attr) is not getattr(second, attr)
        for t, got, cls in zip((first, second), verdicts, classes):
            fresh = Tangle(barbell, 2, t.members)
            assert got == [_fully_closed(barbell, fresh, x) for x in masks]
            assert cls == oracle_classes(barbell, fresh)

    @pytest.mark.parametrize("name", CTX_NAMES)
    def test_parity_tables_are_the_lam_predicate(self, name, request):
        ctx = request.getfixturevalue(name)
        sys, tangle = ctx.sys, ctx.tangle
        for parity in (0, 1):
            assert _sep_table(sys, tangle, parity) == [
                x for x in range(parity, 1 << sys.n, 2) if sys.lam(x) <= tangle.k]

    def test_tangle_dies_by_refcount_after_the_oracle(self, c6g):
        """No oracle memo refers back to the tangle: with the cyclic
        collector off, the tangle is freed once its last name goes, after
        the differential report, the certificate and the flower list."""
        def run():
            tangle, = enumerate_tangles(c6g, 2)
            s_family = build_default_S(c6g, tangle)
            tree = build_maximal_tree(c6g, tangle, s_family)
            assert differential_report(c6g, tangle, s_family).ok
            assert oracle_certify_tree(c6g, tangle, s_family, tree)[0]
            assert oracle_flowers(c6g, tangle, 6)[-1].n == 6
            assert "_oracle_flowers" in tangle.__dict__
            return weakref.ref(tangle)

        enabled = gc.isenabled()
        gc.disable()
        try:
            assert run()() is None
        finally:
            if enabled:
                gc.enable()


class TestLiteralWalks:
    """The closure from X itself or the tangle's table of fully closed sets
    and the fully-closed test over the weak set give what the full walks
    give."""

    @pytest.mark.parametrize("name", CTX_NAMES)
    def test_every_tangle_every_mask(self, name, request):
        ctx = request.getfixturevalue(name)
        tangles = {t.members: t for t in [ctx.tangle] + enumerate_tangles(ctx.sys, ctx.k)}
        for tangle in tangles.values():
            assert_walks_are_literal(ctx.sys, tangle)

    def test_no_qualifying_superset_raises(self):
        # lam(E) = 3 > 2 and only the singletons have lam <= 2, so only the
        # empty set and the singletons have a closure; every other set raises
        table = [3] * 16
        for e in range(4):
            table[1 << e] = 1
        sys = ConnectivitySystem.from_table(4, table, verify=False)
        tangle = Tangle(sys, 2, [0, 1, 2, 4])
        assert oracle_full_closure(sys, tangle, 1) == 1
        with pytest.raises(ViolationFound):
            oracle_full_closure(sys, tangle, 3)
        assert_walks_are_literal(sys, tangle)


class ProbedSet(set):
    """A set that counts its membership tests and the items it yields."""

    probes = 0

    def __contains__(self, y):
        self.probes += 1
        return set.__contains__(self, y)

    def __iter__(self):
        for y in set.__iter__(self):
            self.probes += 1
            yield y


class TestOracleCost:
    """Certifying a maximal tree stays far below the cost of the full walks.
    With every superset of X walked and every subset of E-X tested against
    the weak set, C10 took 12955 lam calls and 10345 weak-set probes and
    U_{7,8} 7357 and 6587; with the closure walk stopping at X and the
    fully-closed test ranging over the weak set, 2825 and 305, and 1307 and
    791.  The two forms of the fully-closed test make the same lam calls,
    so only the probe count tells them apart.  One scan of each flower
    vertex's proper unions now serves its class and its displays, which
    drops the second scan's 2^n - 2 calls: 1803 and 1053.  Every set whose
    closure these certificates ask for is fully closed, so neither builds
    the tangle's table of fully closed sets.

    The differential report on M(K5) at order 4 (classes computed first)
    asks for closures of sets that are not fully closed.  Walking all
    supersets of each such X took 27036 lam calls; intersecting the
    table of fully closed k-separating sets, built once, took 4291.  With
    every walk over the masks reading the tangle's two parity tables of
    lam <= k, it takes 2755."""

    @pytest.mark.parametrize("build, max_lam, max_probes", [
        (lambda: ConnectivitySystem.graph([(i, (i + 1) % 10) for i in range(10)]),
         1850, 340),
        (lambda: ConnectivitySystem.matroid(RankFunction.uniform(7, 8)), 1100, 870),
    ], ids=["C10", "U7_8"])
    def test_certify_cost_bounded(self, build, max_lam, max_probes):
        system = build()
        tangle = enumerate_tangles(system, 2)[0]
        s_family = build_default_S(system, tangle)
        tree = build_maximal_tree(system, tangle, s_family)
        weak = tangle._oracle_weak = ProbedSet(_weak_set(tangle))
        calls = count_lam(system)
        ok, problems = oracle_certify_tree(system, tangle, s_family, tree)
        assert ok, problems
        assert calls[0] <= max_lam
        assert weak.probes <= max_probes
        assert "_oracle_fc_table" not in tangle.__dict__

    def test_differential_cost_bounded(self):
        system = ConnectivitySystem.matroid(RankFunction.graphic(K5_EDGES))
        tangle, = enumerate_tangles(system, 4)
        s_family = build_default_S(system, tangle)
        s_family.classes()
        calls = count_lam(system)
        report = differential_report(system, tangle, s_family)
        assert report.ok, report.disagreements
        assert calls[0] <= 4400
        assert "_oracle_fc_table" in tangle.__dict__


    @pytest.mark.parametrize("build, k, want_lam", [
        (lambda: ConnectivitySystem.matroid(RankFunction.graphic(K5_EDGES)), 4, 0),
        (lambda: ConnectivitySystem.graph([(i, (i + 1) % 10) for i in range(10)]), 2, 1032),
        (lambda: ConnectivitySystem.matroid(RankFunction.uniform(7, 8)), 2, 262),
    ], ids=["MK5", "C10", "U7_8"])
    def test_certify_after_differential_reuses_classes(self, build, k, want_lam):
        """The certificate reads the classes the differential report
        computed on the same tangle and S.  Walking every odd mask again
        made the certificates 512, 1713 and 799 lam calls.  Reading each
        edge side's lam once, and taking the flower test from the union
        scan, saves one call per edge and two per petal: C10 and U_{7,8}
        took 1152 and 540 before.  Reading each flower vertex's S-order
        from the class memo, not from S membership and closure pairs of
        its displays, took them from 1122 and 516."""
        system = build()
        tangle = enumerate_tangles(system, k)[0]
        s_family = build_default_S(system, tangle)
        tree = build_maximal_tree(system, tangle, s_family)
        report = differential_report(system, tangle, s_family)
        assert report.ok, report.disagreements
        calls = count_lam(system)
        ok, problems = oracle_certify_tree(system, tangle, s_family, tree)
        assert ok, problems
        assert calls[0] == want_lam

    def test_returned_classes_are_copies(self, ctx_barbell):
        sys, tangle, S = ctx_barbell.sys, ctx_barbell.tangle, ctx_barbell.S
        got = oracle_classes(sys, tangle, S)
        want = [list(cls) for cls in got]
        assert want
        got[0].clear()
        got.append([])
        assert oracle_classes(sys, tangle, S) == want

    def test_anemone_partition_classified_once(self, monkeypatch):
        """An anemone's verdict and dedup key do not depend on the cyclic
        order, so only the first admissible order of a partition is
        classified.  U_{8,9} at order 2 keeps 11051 flowers of at most four
        petals, all anemones; classifying every admissible order took 26591
        literal classifications."""
        system = ConnectivitySystem.matroid(RankFunction.uniform(8, 9))
        tangle = enumerate_tangles(system, 2)[0]
        calls = [0]
        inner = oracle._flower_class_literal

        def counted(sys, f):
            calls[0] += 1
            return inner(sys, f)

        monkeypatch.setattr(oracle, "_flower_class_literal", counted)
        report = differential_report(system, tangle, build_default_S(system, tangle),
                                     max_petals=4)
        assert report.ok, report.disagreements
        assert report.flower_count == 11051
        assert calls[0] <= 11051


class TestOracleCap:
    @pytest.mark.parametrize("build", [
        lambda: ConnectivitySystem.graph([(i, (i + 1) % 14) for i in range(14)], verify=False),
        lambda: ConnectivitySystem.matroid(RankFunction.uniform(11, 12), verify=False),
        lambda: ConnectivitySystem.graph([(i, (i + 1) % 16) for i in range(16)], verify=False),
    ], ids=["C14", "U11_12", "C16"])
    def test_built_tree_certified_at_desk_scale(self, build):
        system = build()
        tangle = enumerate_tangles(system, 2)[0]
        s_family = build_default_S(system, tangle)
        tree = build_maximal_tree(system, tangle, s_family)
        ok, problems = oracle_certify_tree(system, tangle, s_family, tree)
        assert ok, problems
        assert "_oracle_fc_table" not in tangle.__dict__
