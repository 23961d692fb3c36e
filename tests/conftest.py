"""Shared corpus: small systems whose structures are fully known.

Fixtures are session-scoped because axiom verification at construction is
exhaustive.  Masks in tests use 0-based element indices; for the cube
matroid the traditional 1-based vertex labels go through `lab`.
"""

from itertools import combinations, combinations_with_replacement
from typing import List

import pytest

from tangleforge import (ConnectivitySystem, RankFunction, build_r8_rank,
                         enumerate_tangles)
from tangleforge.bitset import down_closure, elements_of, join
from tangleforge.closure import Separation, build_default_S, full_closure
from tangleforge.core import Violation
from tangleforge.errors import DichotomyViolation, TangleforgeError, ViolationFound
from tangleforge.flowers import (ANEMONE, DAISY, Flower, class_conforms, classify,
                                 displayed_separations, verify_flower)
from tangleforge.oracle import (_displayed_unions, _flower_class_literal, _fully_closed,
                               _in_S, _weak_set, oracle_full_closure)
from tangleforge.tangles import Tangle, verify_tangle
from tangleforge.trees import _nonempty_bags


def lab(*elements_1based):
    """Mask from the traditional 1-based cube labels."""
    return sum(1 << (e - 1) for e in elements_1based)


K4_EDGES = list(combinations(range(4), 2))
K5_EDGES = list(combinations(range(5), 2))
C4_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0)]
C6_EDGES = [(i, (i + 1) % 6) for i in range(6)]
PENDANT_C4_EDGES = C4_EDGES + [(0, 4)]
# Two triangles joined by a bridge: edges a1,a2,a3 | m | b1,b2,b3.
BARBELL_EDGES = [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (4, 6)]


@pytest.fixture(scope="session")
def u24():
    return ConnectivitySystem.matroid(RankFunction.uniform(2, 4))


@pytest.fixture(scope="session")
def u26():
    return ConnectivitySystem.matroid(RankFunction.uniform(2, 6))


@pytest.fixture(scope="session")
def u56():
    return ConnectivitySystem.matroid(RankFunction.uniform(5, 6))


@pytest.fixture(scope="session")
def u48():
    return ConnectivitySystem.matroid(RankFunction.uniform(4, 8))


@pytest.fixture(scope="session")
def u49():
    return ConnectivitySystem.matroid(RankFunction.uniform(4, 9))


@pytest.fixture(scope="session")
def r8m():
    return ConnectivitySystem.matroid(build_r8_rank())


@pytest.fixture(scope="session")
def r8p1():
    return ConnectivitySystem.r8_polymatroid(1)


@pytest.fixture(scope="session")
def c4g():
    return ConnectivitySystem.graph(C4_EDGES)


@pytest.fixture(scope="session")
def c6g():
    return ConnectivitySystem.graph(C6_EDGES)


@pytest.fixture(scope="session")
def pc4g():
    return ConnectivitySystem.graph(PENDANT_C4_EDGES)


@pytest.fixture(scope="session")
def barbell():
    return ConnectivitySystem.graph(BARBELL_EDGES)


@pytest.fixture(scope="session")
def mk4():
    return ConnectivitySystem.matroid(RankFunction.graphic(K4_EDGES))


def count_lam(system):
    """Replace system.lam by a counting wrapper; the returned one-item list
    holds the number of calls made since."""
    calls = [0]
    inner = system.lam

    def counted(mask):
        calls[0] += 1
        return inner(mask)

    system.lam = counted
    return calls


def submasks(mask):
    """All submasks of mask, including 0 and mask itself.

    Standard descending-submask walk; 2^popcount(mask) values.
    """
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def hypergraph_table(n, hyperedges):
    """The lambda table of a hypergraph with n hyperedges, each a set of
    vertices: lambda(X) = the vertices met by a hyperedge in X and one in
    E - X."""
    vertices = set().union(*hyperedges)
    incidence = [sum(1 << i for i, h in enumerate(hyperedges) if v in h) for v in vertices]
    full = (1 << n) - 1
    return [sum(1 for m in incidence if m & x and m & ~x & full) for x in range(1 << n)]


def reference_partitions(n: int, max_blocks: int):
    """All set partitions of range(n) into at most max_blocks blocks, as
    tuples of masks with block minima increasing."""
    blocks: List[int] = []

    def rec(e: int):
        if e == n:
            yield tuple(blocks)
            return
        for i in range(len(blocks)):
            blocks[i] |= 1 << e
            yield from rec(e + 1)
            blocks[i] &= ~(1 << e)
        if len(blocks) < max_blocks:
            blocks.append(1 << e)
            yield from rec(e + 1)
            blocks.pop()

    yield from rec(0)


def daisy_canonical(petals):
    """Minimal rotation/reflection of the cyclic petal tuple."""
    n = len(petals)
    best = None
    for seq in (petals, tuple(reversed(petals))):
        for r in range(n):
            cand = seq[r:] + seq[:r]
            if best is None or cand < best:
                best = cand
    return best


def flower_label_key(f):
    """A flower up to labels: its petal set for an anemone (any order), the
    `daisy_canonical` tuple for a daisy (n-gon symmetry), and the petals as
    listed for anything else.  The oracle's flower walk once kept these
    keys to drop repeats; its walk meets each flower once by construction."""
    if f.klass == ANEMONE:
        return ("a", frozenset(f.petals))
    if f.klass == DAISY:
        return ("d", daisy_canonical(f.petals))
    return ("x", f.petals)


def weak_extension_candidates(tangle, rest):
    """The non-empty weak subsets of `rest`, read off the members literally:
    every non-empty submask of rest inside some member, smallest first and
    ascending within a size."""
    out = []
    y = rest
    while y:
        if any(y & ~m == 0 for m in tangle.members):
            out.append(y)
        y = (y - 1) & rest
    return sorted(out, key=lambda m: (bin(m).count("1"), m))


def literal_fully_closed(sys, tangle, x, weak):
    """X is fully closed: the submask walk of E-X meets no non-empty Y in
    `weak` with X|Y k-separating."""
    rest = sys.full ^ x
    y = rest
    while y:
        if y in weak and sys.lam(x | y) <= tangle.k:
            return False
        y = (y - 1) & rest
    return True


def literal_full_closure(sys, tangle, x, weak):
    """The intersection of every fully closed k-separating superset of X,
    by the descending superset walk with no early exit; None when no
    superset qualifies."""
    rest = sys.full ^ x
    acc = None
    s = rest
    while True:
        f = x | s
        if sys.lam(f) <= tangle.k and literal_fully_closed(sys, tangle, f, weak):
            acc = f if acc is None else acc & f
        if s == 0:
            return acc
        s = (s - 1) & rest


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


def validate_partial_k_sequence(sys, tangle, x, seq):
    """Pairwise disjoint non-empty weak subsets of E-X whose cumulative
    unions with X stay k-separating."""
    k = tangle.k
    cur = x
    used = x
    for y in seq:
        if y == 0 or y & used or tangle.is_strong(y):
            return False
        cur |= y
        used |= y
        if sys.lam(cur) > k:
            return False
    return True


def equivalent_one_sided(sys, tangle, s1, s2):
    """The economical one-sided test for non-sequential separations:
    fcl(A) equals the closure of either side of the other separation."""
    a = full_closure(sys, tangle, s1.side)
    c, d = s2.sides(sys)
    return a == full_closure(sys, tangle, c) or a == full_closure(sys, tangle, d)


def kS_class_ids(s_family, seps):
    """Class ids of the (k,S)-separations among seps."""
    return frozenset(s_family.class_id(s) for s in seps if s_family.is_kS_separation(s))


def displayed_class_ids(sys, tangle, s_family, f):
    """Class ids of the (k,S)-separations f displays, from the per-union
    scan (`reference_displayed`); a flower of another order displays none."""
    return kS_class_ids(s_family, reference_displayed(sys, f.petals, f.k))


def reference_tree_display(sys, tangle, t):
    """t's display set from the per-union scan: the k-separating proper
    edge sides, and at each flower vertex whose petals pass
    `verify_flower`, `reference_displayed` of its petals."""
    out = set()
    for u, v in t.edges():
        x = t.side(u, v)
        if x != 0 and x != sys.full and sys.lam(x) <= t.k:
            out.add(Separation.make(sys, x, t.k))
    for v in t.labels:
        petals = t.petals_at(v)
        try:
            verify_flower(sys, tangle, petals, t.k)
        except TangleforgeError:
            continue
        out.update(reference_displayed(sys, petals, t.k))
    return out


def displayed_tree_class_ids(sys, tangle, s_family, t):
    """Classes displayed by t (`reference_tree_display`); a tree of another
    order displays none."""
    return kS_class_ids(s_family, reference_tree_display(sys, tangle, t))


def set_based_class_conforms(sys, members, displayed, parts):
    """Conformity against a built display set: some member is in the set
    or has a side inside one of the parts."""
    for member in members:
        a, b = member.sides(sys)
        if member in displayed or any(a & ~p == 0 or b & ~p == 0 for p in parts):
            return True
    return False


def conforms_with_tree(sys, tangle, s_family, sep, t):
    """Equivalent to a displayed separation, or an equivalent has a side
    inside a bag."""
    return class_conforms(sys, s_family.class_of(sep),
                          reference_tree_display(sys, tangle, t), _nonempty_bags(t))


def tree_mutants(t):
    """Broken copies of t, in six kinds: an element moved or copied to
    another bag, the label of a flower vertex swapped between A and D, a
    flower vertex relabelled X, a D vertex's cyclic order dropped, two
    entries of a cyclic order swapped, and a leaf bag merged into its
    neighbouring bag."""
    out = []
    for u, bag in sorted(t.bags.items()):
        for w in sorted(set(t.bags) - {u}):
            for e in elements_of(bag):
                copied = {**t.bags, w: t.bags[w] | 1 << e}
                out.append(t.replaced(bags=copied))
                out.append(t.replaced(bags={**copied, u: bag ^ 1 << e}))
    for v, label in sorted(t.labels.items()):
        cyclic = dict(t.cyclic)
        if label == "A":
            cyclic[v] = t.adj[v]
        else:
            del cyclic[v]
        out.append(t.replaced(labels={**t.labels, v: "D" if label == "A" else "A"},
                              cyclic=cyclic))
        out.append(t.replaced(labels={**t.labels, v: "X"}))
        if label == "D":
            out.append(t.replaced(cyclic={w: c for w, c in t.cyclic.items() if w != v}))
        order = t.cyclic.get(v, ())
        for i, j in combinations(range(len(order)), 2):
            swapped = list(order)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            out.append(t.replaced(cyclic={**t.cyclic, v: tuple(swapped)}))
    for u in sorted(t.bags):
        if t.is_leaf(u) and t.is_bag_vertex(t.adj[u][0]):
            (w,) = t.adj[u]
            bags = {x: b for x, b in t.bags.items() if x != u}
            bags[w] |= t.bags[u]
            out.append(t.replaced(bags=bags,
                                  edges=[e for e in t.edge_list if u not in e]))
    return out


def laminarity_check(sys, t):
    """Edge-displayed separations pairwise non-crossing (all four pairwise
    intersections non-empty means crossing)."""
    sides = [t.side(u, v) for u, v in t.edges()]
    full = sys.full
    for i in range(len(sides)):
        for j in range(i + 1, len(sides)):
            a, b = sides[i], full ^ sides[i]
            c, d = sides[j], full ^ sides[j]
            if a & c and a & d and b & c and b & d:
                return False
    return True


def reference_kS_separations(sys, tangle, s_family=None):
    """The (k,S)-separations by their odd side, by the walk over every odd
    mask of the ground set with one `_in_S` test per side."""
    out = []
    for x in range(1, 1 << sys.n, 2):
        if _in_S(sys, tangle, s_family, x) and _in_S(sys, tangle, s_family, sys.full ^ x):
            out.append(Separation(x, tangle.k))
    return out


def literal_petal_unions(petals):
    """union[b] for every petal-index mask b, by the lowbit subset DP."""
    union = [0] * (1 << len(petals))
    for b in range(1, len(union)):
        low = b & -b
        union[b] = union[b ^ low] | petals[low.bit_length() - 1]
    return union


def literal_flower_class(sys, petals, k):
    """Anemone/daisy/neither by the per-bit scan: every proper union rebuilt
    petal by petal, and each mask's cyclic runs counted afresh."""
    n = len(petals)
    if n <= 2:
        return "anemone"
    sep = set()
    consec = set()
    for bits in range(1, (1 << n) - 1):
        union = 0
        for i in range(n):
            if bits >> i & 1:
                union |= petals[i]
        if sys.lam(union) <= k:
            sep.add(bits)
        runs = sum(1 for i in range(n) if bits >> i & 1 and not bits >> ((i + 1) % n) & 1)
        if runs == 1:
            consec.add(bits)
    if len(sep) == (1 << n) - 2:
        return "anemone"
    if sep == consec:
        return "daisy"
    return "neither"


def literal_displayed_unions(sys, k, petals):
    """Every k-separating proper union of the petals, by the per-bit scan."""
    n = len(petals)
    out = set()
    for bits in range(1, (1 << n) - 1):
        union = 0
        for i in range(n):
            if bits >> i & 1:
                union |= petals[i]
        if sys.lam(union) <= k:
            out.add(Separation.make(sys, union, k))
    return out


def reference_separating(sys, k, union):
    """Index masks b of the proper petal unions with lambda(union[b]) <= k,
    one lam call per union."""
    lam = sys.lam
    return [b for b in range(1, len(union) - 1) if lam(union[b]) <= k]


def _is_cyclic_run(bits, n):
    """True iff the petal-index mask is consecutive in the cyclic order on
    [n]: exactly one i in the mask has i+1 (mod n) outside it."""
    rotated = ((bits << 1) | (bits >> (n - 1))) & ((1 << n) - 1)
    return bin(rotated & ~bits).count("1") == 1


def reference_dichotomy_witness(sys, f):
    """Petal indices of a union that breaks the dichotomy, by one lam call
    per proper petal union: a non-separating cyclic run if there is one,
    else a separating non-run."""
    n = f.n
    sep_sets = set()
    consec = set()
    for bits in range(1, (1 << n) - 1):
        idx = frozenset(i for i in range(n) if bits >> i & 1)
        union = 0
        for i in idx:
            union |= f.petals[i]
        if sys.lam(union) <= f.k:
            sep_sets.add(idx)
        if _is_cyclic_run(bits, n):
            consec.add(idx)
    witness = next(iter(sep_sets.symmetric_difference(consec) - sep_sets), None)
    if witness is None:
        witness = next(iter(sep_sets - consec))
    return witness


def reference_flower_class(sys, petals, k):
    """ANEMONE, DAISY or None (neither) from the per-union scan, each
    separating index mask tested for a cyclic run on its own."""
    n = len(petals)
    if n <= 2:
        return ANEMONE
    separating = reference_separating(sys, k, literal_petal_unions(petals))
    if len(separating) == (1 << n) - 2:
        return ANEMONE
    if len(separating) == n * (n - 1) and all(_is_cyclic_run(b, n) for b in separating):
        return DAISY
    return None


def reference_displayed(sys, petals, k):
    """The k-separating proper petal unions as sorted separations, from the
    per-union scan."""
    union = literal_petal_unions(petals)
    return sorted({Separation.make(sys, union[b], k)
                   for b in reference_separating(sys, k, union)})


def assert_engine_flower_matches(system, petals, k):
    """`classify` and `displayed_separations` give what the per-union
    references give, on an unclassified copy and then on the classified
    one; a flower that is neither must raise DichotomyViolation.  With at
    most two petals the class is a convention that assumes a verified
    flower, so the classified copy is compared only when that holds.
    Returns the reference verdict."""
    want_class = reference_flower_class(system, petals, k)
    want_shown = reference_displayed(system, petals, k)
    f = Flower(petals, k)
    assert displayed_separations(system, None, f) == want_shown
    if want_class is None:
        with pytest.raises(DichotomyViolation):
            classify(system, f)
    else:
        assert classify(system, f) == want_class
        assert classify(system, f) == want_class  # the kept verdict
        if len(petals) > 2 or all(system.lam(p) <= k for p in petals):
            assert displayed_separations(system, None, f) == want_shown
    return want_class


class LamLog:
    """A stand-in for a system that logs every lam argument in call order."""

    def __init__(self, system):
        self.system = system
        self.full = system.full
        self.calls = []

    def lam(self, mask):
        self.calls.append(mask)
        return self.system.lam(mask)


def assert_flower_scans_match(system, petals, k):
    """The oracle's flower scans give what the per-bit references give, from
    the same lam calls in the same order; returns the verdict."""
    new, ref = LamLog(system), LamLog(system)
    verdict = _flower_class_literal(new, Flower(petals, k))
    assert verdict == literal_flower_class(ref, petals, k)
    assert new.calls == ref.calls
    new, ref = LamLog(system), LamLog(system)
    assert _displayed_unions(new, k, petals) == literal_displayed_unions(ref, k, petals)
    assert new.calls == ref.calls
    return verdict


def reference_verify_tangle(sys, tangle):
    """Every axiom violation with a witness, by the literal walks: one lam
    call per member (T1), every (k-1)-separating side without element n-1
    looked up in the members (T2), and the triples of maximal members in
    order until one covers E (T3)."""
    k = tangle.k
    out = []
    for a in sorted(tangle.members):
        if sys.lam(a) >= k:
            out.append(Violation("T1", (a,)))
    full = sys.full
    # one side of each pair: the one without n-1
    for x in sys.lam_at_most(k - 1, range(1 << (sys.n - 1))):
        if x not in tangle.members and full ^ x not in tangle.members:
            out.append(Violation("T2", (x,)))
    for a, b, c in combinations_with_replacement(sorted(tangle.maximal_members), 3):
        if a | b | c == full:
            out.append(Violation("T3", (a, b, c)))
            break
    for e in range(sys.n):
        co = full ^ (1 << e)
        if co in tangle.members:
            out.append(Violation("T4", (co,)))
    return out


def maximal_masks(masks):
    """The subset-maximal masks among `masks`, largest first.  A mask is
    kept iff no kept mask contains it: any strict superset is larger, so it
    was met earlier and is itself kept or inside a kept one."""
    out = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if not any(m & ~kept == 0 for kept in out):
            out.append(m)
    return tuple(out)


def reference_enumerate_tangles(sys, k):
    """The tangle search with one frame per depth (an iterator over the
    pair's sides, smaller first, and the families of the sides chosen
    above it), counting every node and never refusing: (the tangles in the
    order their leaves are reached, node count).  The smallest NODE_CAP
    the library search passes under is that count."""
    n, full = sys.n, sys.full
    pairs = [(x, full ^ x) if x.bit_count() <= n // 2 else (full ^ x, x)
             for x in sys.lam_at_most(k - 1, range(1 << (n - 1)))]
    pairs.sort(key=lambda p: (p[0].bit_count(), p[0]))
    results, chosen = [], []
    nodes = 0

    def visit():
        nonlocal nodes
        nodes += 1
        if len(chosen) < len(pairs):
            return True
        tangle = Tangle(sys, k, chosen)
        bad = verify_tangle(sys, tangle)
        if bad:
            raise ViolationFound("tangle search produced a non-tangle", bad[0])
        results.append(tangle)
        return False

    stack = [(iter(pairs[0]), 0, 0)] if visit() else []
    while stack:
        sides, one, two = stack[-1]
        for side in sides:
            if side.bit_count() < n - 1 and not two >> (full ^ side) & 1:
                break
        else:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        chosen.append(side)
        if visit():
            one_below = one | down_closure(side)
            stack.append((iter(pairs[len(chosen)]), one_below,
                          two | join(one_below, side, n)))
        else:
            chosen.pop()
    return results, nodes


def unique_tangle(sys, k):
    found = enumerate_tangles(sys, k)
    assert len(found) == 1
    return found[0]


def barbell_left_tangle(sys):
    """The order-2 tangle pointing into the first triangle: members are
    the empty set, the far triangle, and the far triangle plus the bridge."""
    t2 = sys.mask([4, 5, 6])
    return Tangle(sys, 2, [0, t2, t2 | sys.mask([3])])


class Ctx:
    """A system with a tangle and the default tree-compatible family."""

    def __init__(self, sys, tangle):
        self.sys = sys
        self.tangle = tangle
        self.S = build_default_S(sys, tangle)

    @property
    def k(self):
        return self.tangle.k


@pytest.fixture(scope="session")
def ctx_r8p1(r8p1):
    return Ctx(r8p1, unique_tangle(r8p1, 4))


@pytest.fixture(scope="session")
def ctx_u26(u26):
    return Ctx(u26, unique_tangle(u26, 2))


@pytest.fixture(scope="session")
def ctx_u56(u56):
    return Ctx(u56, unique_tangle(u56, 2))


@pytest.fixture(scope="session")
def ctx_c6(c6g):
    return Ctx(c6g, unique_tangle(c6g, 2))


@pytest.fixture(scope="session")
def ctx_pc4(pc4g):
    return Ctx(pc4g, unique_tangle(pc4g, 2))


@pytest.fixture(scope="session")
def ctx_barbell(barbell):
    return Ctx(barbell, barbell_left_tangle(barbell))


@pytest.fixture(scope="session")
def ctx_r8m3(r8m):
    return Ctx(r8m, unique_tangle(r8m, 3))


@pytest.fixture(scope="session")
def ctx_mk4(mk4):
    return Ctx(mk4, unique_tangle(mk4, 3))
