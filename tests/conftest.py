"""Shared corpus: small systems whose structures are fully known.

Fixtures are session-scoped because axiom verification at construction is
exhaustive.  Masks in tests use 0-based element indices; for the cube
matroid the traditional 1-based vertex labels go through `lab`.
"""

from itertools import combinations

import pytest

from tangleforge import (ConnectivitySystem, RankFunction, build_r8_rank,
                         enumerate_tangles)
from tangleforge.closure import Separation, build_default_S
from tangleforge.flowers import Flower
from tangleforge.oracle import _displayed_unions, _flower_class_literal
from tangleforge.tangles import Tangle


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
