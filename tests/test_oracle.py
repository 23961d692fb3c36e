import pytest

from tangleforge import oracle
from tangleforge import (ConnectivitySystem, RankFunction, build_maximal_tree,
                         enumerate_tangles, full_closure, verify_flower)
from tangleforge.closure import build_default_S
from tangleforge.errors import SearchSpaceTooLarge, ViolationFound
from tangleforge.flowers import Flower, classify, displayed_class_ids
from tangleforge.oracle import (ORACLE_MAX_N, _fully_closed, _weak, _weak_set,
                                differential_report, oracle_certify_tree,
                                oracle_classes, oracle_flowers,
                                oracle_full_closure, s_order)
from tangleforge.tangles import Tangle
from tangleforge.trees import PiTree, flower_to_tree

from conftest import (assert_flower_scans_match, lab, literal_full_closure,
                      literal_fully_closed)

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
    @pytest.mark.parametrize("name", CTX_NAMES)
    def test_matches_engine_class_ids(self, name, request):
        # the oracle compares closure pairs; the engine's class ids must agree
        ctx = request.getfixturevalue(name)
        sys, tangle, S = ctx.sys, ctx.tangle, ctx.S
        flowers = oracle_flowers(sys, tangle, 4)
        ids = [displayed_class_ids(sys, tangle, S, f) for f in flowers]
        for f, own in zip(flowers, ids):
            want = min(g.n for g, other in zip(flowers, ids) if other == own)
            assert s_order(sys, tangle, S, f) == {0: 1, 1: 2}.get(len(own), want)


    def test_repeated_calls_enumerate_nothing(self, ctx_u56, monkeypatch):
        sys = ctx_u56.sys
        tangle = Tangle(sys, ctx_u56.tangle.k, ctx_u56.tangle.members)  # empty memos
        S = build_default_S(sys, tangle)
        counts = {"_partitions_into_blocks": 0, "_displayed_unions": 0}
        for name in counts:
            def counted(*args, _real=getattr(oracle, name), _name=name):
                counts[_name] += 1
                return _real(*args)
            monkeypatch.setattr(oracle, name, counted)
        flowers = oracle_flowers(sys, tangle, 4)
        assert counts["_partitions_into_blocks"] == 1
        f = flowers[-1]  # four petals, so s_order has to search the flowers
        want = s_order(sys, tangle, S, f)
        after_first = dict(counts)
        assert s_order(sys, tangle, S, f) == want
        assert counts == after_first
        for g in flowers:  # the same petal cap: one enumeration serves all
            s_order(sys, tangle, S, g, max_petals=4)
        assert counts["_partitions_into_blocks"] == 1
        assert oracle_flowers(sys, tangle, 4) == flowers


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


class TestDifferential:
    def test_clean_report(self, ctx_r8p1, ctx_barbell, ctx_pc4):
        for ctx in (ctx_r8p1, ctx_barbell, ctx_pc4):
            report = differential_report(ctx.sys, ctx.tangle, ctx.S, max_petals=4)
            assert report.ok, report.disagreements
            assert report.closure_checks > 0
            data = report.to_json()
            assert data["ok"] and data["class_count"] == len(ctx.S.classes())


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
        assert verdicts[0] != verdicts[1] and closures[0] != closures[1]
        for attr in ("_oracle_weak", "_oracle_fc_cache", "_oracle_fcl_cache"):
            assert getattr(first, attr) is not getattr(second, attr)
        for t, got in zip((first, second), verdicts):
            fresh = Tangle(barbell, 2, t.members)
            assert got == [_fully_closed(barbell, fresh, x) for x in masks]


def assert_walks_are_literal(sys, tangle):
    """On every mask, `_fully_closed` and `oracle_full_closure` on a tangle
    with empty memos equal the exhaustive walks, ViolationFound included."""
    tangle = Tangle(sys, tangle.k, tangle.members)
    weak = {y for y in range(1 << sys.n)
            if any(y & ~m == 0 for m in tangle.members)}
    assert _weak_set(tangle) == weak
    for x in range(1 << sys.n):
        assert _fully_closed(sys, tangle, x) == literal_fully_closed(sys, tangle, x, weak)
        want = literal_full_closure(sys, tangle, x, weak)
        if want is None:
            with pytest.raises(ViolationFound):
                oracle_full_closure(sys, tangle, x)
        else:
            assert oracle_full_closure(sys, tangle, x) == want


class TestLiteralWalks:
    """The closure walk that stops once it reaches X and the fully-closed
    test over the weak set give what the full walks give."""

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
    so only the probe count tells them apart."""

    @pytest.mark.parametrize("build, max_lam, max_probes", [
        (lambda: ConnectivitySystem.graph([(i, (i + 1) % 10) for i in range(10)]),
         3000, 340),
        (lambda: ConnectivitySystem.matroid(RankFunction.uniform(7, 8)), 1400, 870),
    ], ids=["C10", "U7_8"])
    def test_certify_cost_bounded(self, build, max_lam, max_probes):
        system = build()
        tangle = enumerate_tangles(system, 2)[0]
        s_family = build_default_S(system, tangle)
        tree = build_maximal_tree(system, tangle, s_family)
        weak = tangle._oracle_weak = ProbedSet(_weak_set(tangle))
        calls = [0]
        inner = system.lam

        def counted(mask):
            calls[0] += 1
            return inner(mask)

        system.lam = counted
        ok, problems = oracle_certify_tree(system, tangle, s_family, tree)
        assert ok, problems
        assert calls[0] <= max_lam
        assert weak.probes <= max_probes


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
        lambda: ConnectivitySystem.graph(
            [(i, (i + 1) % ORACLE_MAX_N) for i in range(ORACLE_MAX_N)], verify=False),
        lambda: ConnectivitySystem.matroid(RankFunction.uniform(11, 12), verify=False),
    ], ids=["C14", "U11_12"])
    def test_built_tree_certified_at_desk_scale(self, build):
        system = build()
        tangle = enumerate_tangles(system, 2)[0]
        s_family = build_default_S(system, tangle)
        tree = build_maximal_tree(system, tangle, s_family)
        ok, problems = oracle_certify_tree(system, tangle, s_family, tree)
        assert ok, problems
