"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here (exact matches, zero tolerance, and
wall-clock budgets).
"""

import time

import pytest

from tangleforge import (ConnectivitySystem, RankFunction, build_r8_rank,
                         canonical_vertical_tangle, classify, conforms_with_flower,
                         enumerate_tangles, full_closure, grow_terminal_bag,
                         is_robust, is_vertically_k_connected, loose_petals,
                         maximal_flower, retarget_terminal_bag,
                         split_terminal_bag, tighten, verify_flower,
                         verify_partial_kS_tree)
from tangleforge.closure import Separation, build_default_S, equivalent_separations
from tangleforge.errors import NonRobustObstruction
from tangleforge.flowers import Flower
from tangleforge.oracle import (oracle_classes, oracle_certify_tree,
                                oracle_flowers, oracle_full_closure)
from tangleforge.trees import PiTree, build_maximal_tree

from conftest import (BARBELL_EDGES, C4_EDGES, C6_EDGES, K4_EDGES, K5_EDGES,
                      PENDANT_C4_EDGES, Ctx, barbell_left_tangle, displayed_class_ids,
                      displayed_tree_class_ids, equivalent_one_sided, lab,
                      unique_tangle, weak_extension_candidates)


def report(line):
    print(f"\nACCEPTANCE {line}")


def corpus_matroids():
    """(name, system) pairs: uniform matroids with n <= 10, graphic
    matroids of small graphs, and R_8."""
    cycles = {f"C{n}": [(i, (i + 1) % n) for i in range(n)] for n in (4, 5, 6)}
    entries = [
        ("U_{2,4}", RankFunction.uniform(2, 4)),
        ("U_{2,5}", RankFunction.uniform(2, 5)),
        ("U_{2,6}", RankFunction.uniform(2, 6)),
        ("U_{2,7}", RankFunction.uniform(2, 7)),
        ("U_{3,6}", RankFunction.uniform(3, 6)),
        ("U_{3,7}", RankFunction.uniform(3, 7)),
        ("U_{4,8}", RankFunction.uniform(4, 8)),
        ("U_{4,9}", RankFunction.uniform(4, 9)),
        ("U_{7,10}", RankFunction.uniform(7, 10)),
        ("M(K4)", RankFunction.graphic(K4_EDGES)),
        ("M(K5)", RankFunction.graphic(K5_EDGES)),
        ("M(C4)", RankFunction.graphic(cycles["C4"])),
        ("M(C5)", RankFunction.graphic(cycles["C5"])),
        ("M(C6)", RankFunction.graphic(cycles["C6"])),
        ("R_8", build_r8_rank()),
    ]
    return [(name, ConnectivitySystem.matroid(rank, verify=False))
            for name, rank in entries]


@pytest.fixture(scope="module")
def matroid_corpus():
    return corpus_matroids()


@pytest.fixture(scope="module")
def robust_instances():
    """Robust-tangle instances for the full-display suite, n <= 12."""
    out = []
    for name, sys in [("U_{2,6}", ConnectivitySystem.matroid(RankFunction.uniform(2, 6))),
                      ("U_{5,6}", ConnectivitySystem.matroid(RankFunction.uniform(5, 6))),
                      ("C6-graph", ConnectivitySystem.graph(C6_EDGES)),
                      ("pendant-C4-graph", ConnectivitySystem.graph(PENDANT_C4_EDGES))]:
        out.append((name, Ctx(sys, unique_tangle(sys, 2))))
    barbell = ConnectivitySystem.graph(BARBELL_EDGES)
    out.append(("barbell-graph", Ctx(barbell, barbell_left_tangle(barbell))))
    return out


def run_full_display_suite(name, ctx, budget_s=600.0):
    start = time.monotonic()
    tree = build_maximal_tree(ctx.sys, ctx.tangle, ctx.S)
    verdict = verify_partial_kS_tree(ctx.sys, ctx.tangle, ctx.S, tree)
    assert verdict.ok, (name, verdict.failures)
    displayed = set(verdict.displayed)
    for cls in oracle_classes(ctx.sys, ctx.tangle, ctx.S):
        assert any(s in displayed for s in cls), (name, cls)
    ok, problems = oracle_certify_tree(ctx.sys, ctx.tangle, ctx.S, tree)
    assert ok, (name, problems)
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, (name, elapsed)
    return tree, elapsed


def test_criterion_1_r8_counterexample():
    start = time.monotonic()
    sys = ConnectivitySystem.r8_polymatroid(1)
    k = 4

    # (a) exactly one tangle, the empty set plus the eight singletons
    tangles = enumerate_tangles(sys, k)
    assert len(tangles) == 1
    tangle = tangles[0]
    assert tangle.members == frozenset([0] + [1 << e for e in range(8)])

    # (b) it is not robust
    assert not is_robust(tangle)

    # (c) the pair partition is a loose-free 4-flower classified anemone
    petals = [lab(1, 2), lab(3, 4), lab(5, 6), lab(7, 8)]
    flower = verify_flower(sys, tangle, petals, k)
    assert classify(sys, flower) == "anemone"
    assert loose_petals(sys, tangle, flower) == []

    # (d) the diagonal separation is a (k,S)-separation not conforming
    s_family = build_default_S(sys, tangle)
    diagonal = Separation.make(sys, lab(1, 3, 5, 7), k)
    assert s_family.is_kS_separation(diagonal)
    assert not conforms_with_flower(sys, tangle, s_family, diagonal, flower)

    # (e) growing from the face separation hits the non-robust obstruction
    with pytest.raises(NonRobustObstruction):
        maximal_flower(sys, tangle, s_family, Separation.make(sys, lab(1, 2, 3, 4), k))

    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(f"1 (R_8 counterexample): PASS in {elapsed:.2f}s")


def test_criterion_2_unique_tangle_law(matroid_corpus):
    start = time.monotonic()
    tested = []
    for name, sys in matroid_corpus:
        rank = sys.rank
        for k in range(2, rank.full_rank + 2):
            if rank.full_rank < max(3 * k - 5, 2):
                continue
            if not is_vertically_k_connected(rank, k):
                continue
            canonical = canonical_vertical_tangle(sys, k)
            found = enumerate_tangles(sys, k)
            assert len(found) == 1, (name, k)
            assert found[0].members == canonical.members, (name, k)
            tested.append((name, k))
    elapsed = time.monotonic() - start
    assert len(tested) >= 15
    assert elapsed < 60.0
    report(f"2 (unique-tangle law): PASS on {len(tested)} (matroid,k) pairs "
           f"in {elapsed:.2f}s")


@pytest.fixture(scope="module")
def closure_contexts():
    systems = [
        ("U_{2,6} k=2", ConnectivitySystem.matroid(RankFunction.uniform(2, 6)), 2, None),
        ("C6-graph k=2", ConnectivitySystem.graph(C6_EDGES), 2, None),
        ("pendant-C4 k=2", ConnectivitySystem.graph(PENDANT_C4_EDGES), 2, None),
        ("R_8-poly k=4", ConnectivitySystem.r8_polymatroid(1), 4, None),
        ("R_8-matroid k=3", ConnectivitySystem.matroid(build_r8_rank()), 3, None),
        ("M(K4) k=3", ConnectivitySystem.matroid(RankFunction.graphic(K4_EDGES)), 3, None),
    ]
    barbell = ConnectivitySystem.graph(BARBELL_EDGES)
    out = [(name, Ctx(sys, unique_tangle(sys, k)))
           for name, sys, k, _ in systems]
    out.append(("barbell k=2", Ctx(barbell, barbell_left_tangle(barbell))))
    return out


def test_criterion_3_closure_operator_suite(closure_contexts):
    assert len(closure_contexts) >= 5
    checked = 0
    for name, ctx in closure_contexts:
        sys, tangle = ctx.sys, ctx.tangle
        assert sys.n <= 10
        domain = [x for x in range(1 << sys.n)
                  if sys.lam(x) <= tangle.k and tangle.is_strong(x)]
        closures = {}
        for x in domain:
            fx = full_closure(sys, tangle, x)
            closures[x] = fx
            assert x & ~fx == 0, (name, x)                        # extensive
            assert full_closure(sys, tangle, fx) == fx, (name, x)  # idempotent
            assert fx == oracle_full_closure(sys, tangle, x), (name, x)
            cur = x  # reversed-order greedy must land on the same set
            while True:
                for y in reversed(weak_extension_candidates(tangle, sys.full ^ cur)):
                    if sys.lam(cur | y) <= tangle.k:
                        cur |= y
                        break
                else:
                    break
            assert cur == fx, (name, x)
            checked += 1
        for x in domain:  # monotone
            for y in domain:
                if x & ~y == 0:
                    assert closures[x] & ~closures[y] == 0, (name, x, y)
    report(f"3 (closure operator suite): PASS on {len(closure_contexts)} systems, "
           f"{checked} closures, zero tolerance")


def test_criterion_4_flower_dichotomy(closure_contexts):
    flowers_seen = 0
    four_petal = 0
    for name, ctx in closure_contexts:
        sys, tangle = ctx.sys, ctx.tangle
        for f in oracle_flowers(sys, tangle, 4):
            klass = classify(sys, Flower(f.petals, f.k))  # never raises
            flowers_seen += 1
            if f.n == 4:
                four_petal += 1
                # literal check over all 15 proper non-empty unions
                sep_bits = set()
                consec_bits = set()
                for bits in range(1, 15):
                    union = 0
                    for i in range(4):
                        if bits >> i & 1:
                            union |= f.petals[i]
                    if sys.lam(union) <= f.k:
                        sep_bits.add(bits)
                    runs = sum(1 for i in range(4)
                               if bits >> i & 1 and not bits >> ((i + 1) % 4) & 1)
                    if runs == 1:
                        consec_bits.add(bits)
                if len(sep_bits) == 14:
                    assert klass == "anemone", (name, f.petals)
                else:
                    assert sep_bits == consec_bits, (name, f.petals)
                    assert klass == "daisy", (name, f.petals)
    assert four_petal >= 8
    report(f"4 (flower dichotomy): PASS on {flowers_seen} oracle flowers "
           f"({four_petal} with four petals), zero tolerance")


def _class_reps_with_trees(ctx):
    """Two-bag trees over every (k,S)-separation of the context."""
    for sep in ctx.S.separations():
        a, b = sep.sides(ctx.sys)
        yield sep, PiTree(ctx.k, {0: a, 1: b}, {}, [(0, 1)])


def test_criterion_5_surgery_preserves_classes(closure_contexts):
    counts = {"tighten": 0, "grow": 0, "split": 0, "retarget": 0}
    for name, ctx in closure_contexts:
        sys, tangle, S = ctx.sys, ctx.tangle, ctx.S
        for f in oracle_flowers(sys, tangle, 4):
            before = displayed_class_ids(sys, tangle, S, f)
            g = tighten(sys, tangle, Flower(f.petals, f.k))
            assert displayed_class_ids(sys, tangle, S, g) == before, (name, f.petals)
            counts["tighten"] += 1
        for sep, tree in _class_reps_with_trees(ctx):
            base = displayed_tree_class_ids(sys, tangle, S, tree)
            for leaf in (0, 1):
                bag = tree.bags[leaf]
                rest = sys.full ^ bag
                grow_candidates = [y for y in weak_extension_candidates(tangle, rest)
                                   if sys.lam(bag | y) <= tangle.k]
                for y in grow_candidates[:2]:
                    grown = grow_terminal_bag(sys, tangle, S, tree, leaf, y)
                    assert (displayed_tree_class_ids(sys, tangle, S, grown)
                            == base), (name, sep, y)
                    counts["grow"] += 1
                split_candidates = [y for y in weak_extension_candidates(tangle, bag)
                                    if sys.lam(bag & ~y) <= tangle.k]
                for y in split_candidates[:2]:
                    split = split_terminal_bag(sys, tangle, S, tree, leaf, y)
                    assert (displayed_tree_class_ids(sys, tangle, S, split)
                            == base), (name, sep, y)
                    counts["split"] += 1
                for other in S.class_of(sep):
                    for c in other.sides(sys):
                        if (full_closure(sys, tangle, c)
                                == full_closure(sys, tangle, bag)):
                            out, holder = retarget_terminal_bag(
                                sys, tangle, S, tree, leaf, c)
                            assert out.bags[holder] == c
                            assert (displayed_tree_class_ids(sys, tangle, S, out)
                                    == base), (name, sep, c)
                            counts["retarget"] += 1
    total = sum(counts.values())
    assert total >= 20, counts
    assert all(v >= 3 for v in counts.values()), counts
    report(f"5 (surgery preserves classes): PASS on {total} instances {counts}, "
           f"zero tolerance")


def test_criterion_6_maximal_tree_full_display(robust_instances):
    assert len(robust_instances) >= 3
    lines = []
    for name, ctx in robust_instances:
        assert ctx.sys.n <= 12
        assert is_robust(ctx.tangle)
        tree, elapsed = run_full_display_suite(name, ctx)
        lines.append(f"{name}: {len(ctx.S.classes())} classes, "
                     f"{len(tree.vertices())} vertices, {elapsed:.2f}s")
    report("6 (maximal tree displays every class): PASS on "
           + "; ".join(lines))


def test_criterion_7_vertically_connected_matroids(matroid_corpus):
    eligible = []
    for name, sys in matroid_corpus:
        rank = sys.rank
        for k in range(2, rank.full_rank + 2):
            if rank.full_rank < max(8 * k - 15, 2):
                continue
            if not is_vertically_k_connected(rank, k):
                continue
            tangle = canonical_vertical_tangle(sys, k)
            assert is_robust(tangle), (name, k)  # zero tolerance
            eligible.append((name, k, sys, tangle))
    assert eligible
    ran = []
    for name, k, sys, tangle in eligible:
        ctx = Ctx(sys, tangle)
        run_full_display_suite(f"{name} k={k}", ctx)
        ran.append(f"{name} k={k}")
    report(f"7 (vertically k-connected matroids): PASS, robust + full-display "
           f"suite on {len(ran)} instances: {', '.join(ran)}")


def test_criterion_8_one_sided_equivalence_agreement(closure_contexts):
    pairs = 0
    for name, ctx in closure_contexts:
        sys, tangle = ctx.sys, ctx.tangle
        seps = ctx.S.separations()  # exactly the non-sequential k-separations
        for s1 in seps:
            for s2 in seps:
                assert (equivalent_separations(sys, tangle, s1, s2)
                        == equivalent_one_sided(sys, tangle, s1, s2)), (name, s1, s2)
                pairs += 1
    assert pairs > 0
    report(f"8 (one-sided equivalence agreement): PASS on {pairs} separation pairs, "
           f"zero tolerance")
