"""Full closures, sequential and equivalent separations, tree-compatible sets.

The full closure fcl(X) of a strong k-separating set X is the minimal fully
closed k-separating superset; it is computed greedily by absorbing weak sets
(a maximal partial k-sequence), which is order-independent.

Both questions are family arithmetic on 2^n-bit ints: the k-separating
family K_k of the system and the weak family W of the tangle.  For Y inside
E-X, bit Y of K_k >> X is set iff lam(X | Y) <= k, so the weak sets that X
can absorb are (K_k >> X) & W', where W' keeps the non-empty members of W
inside E-X: one shift per greedy step.

Two more families are built once per tangle, each kept as one byte per
mask (`_closure_tables`).  FC holds every k-separating X that no non-empty
weak Y inside E-X extends: a set is fully closed iff its byte is set, and
the greedy runs only from a set that is not.  The default S holds every
k-separating X whose complement is strong with fcl(E-X) != E; as fcl(E-X)
is the least member of FC above E-X, that is K_k less complements(W),
within the up-closure of the complements of FC - {E}.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

from .bitset import (complements, disjoint_from, element_absent, elements_of, flags,
                     popcount_layers, up_closure)
from .core import ConnectivitySystem, Violation
from .errors import PreconditionFailed
from .tangles import Tangle


class _ClosureTables(NamedTuple):
    closed: bytes  # one byte per mask: 1 on FC
    in_default_S: bytes  # one byte per mask: 1 on the default S


def _closure_tables(sys: ConnectivitySystem, tangle: Tangle) -> _ClosureTables:
    """FC and the default S of the tangle, built on first use.

    X in K_k is not fully closed iff X | Y is in K_k for some non-empty Y
    inside a maximal member m and outside X.  Removing any elements of m
    but its last from the members of K_k, one element at a time, gives
    every X | Y' with Y' a part of m less its last element, outside X;
    removing one more element e of m from such a set gives X with
    Y = Y' + e.  Every such Y is reached, with e the last element of m
    when Y holds it."""
    tables = tangle._closure_tables
    if tables is None:
        n, full = sys.n, sys.full
        separating = sys.k_separating(tangle.k)
        absent = element_absent(n)
        extendable = 0
        for m in tangle.maximal_members:
            bits = elements_of(m)
            reach = separating
            for i in bits[:-1]:
                reach |= (reach >> (1 << i)) & absent[i]
            for i in bits:
                extendable |= (reach >> (1 << i)) & absent[i]
        closed = separating & ~extendable
        below_proper = up_closure(complements(closed & ~(1 << full), n), n)
        default = separating & ~complements(tangle.weak_family, n) & below_proper
        tables = tangle._closure_tables = _ClosureTables(
            flags(closed, n), flags(default, n))
    return tables


def _require_strong_k_separating(sys: ConnectivitySystem, tangle: Tangle, x: int):
    if sys.lam(x) > tangle.k:
        raise PreconditionFailed(f"set is not {tangle.k}-separating")
    if tangle.is_weak(x):
        raise PreconditionFailed("set is weak in the tangle")


def is_fully_closed(sys: ConnectivitySystem, tangle: Tangle, x: int) -> bool:
    """No non-empty weak Y inside E-X keeps X | Y k-separating."""
    _require_strong_k_separating(sys, tangle, x)
    return _closure_tables(sys, tangle).closed[x] == 1


def full_closure_sequence(sys: ConnectivitySystem, tangle: Tangle,
                          x: int) -> Tuple[int, List[int]]:
    """fcl(X) together with the greedy maximal partial k-sequence reaching it.

    A fully closed X is its own closure, with no steps.  Otherwise the
    greedy order is smallest weak extension first, least mask within a
    size, read off the popcount layers of (K_k >> cur) & free; the endpoint
    is order-independent, the recorded steps are not.
    """
    _require_strong_k_separating(sys, tangle, x)
    if _closure_tables(sys, tangle).closed[x]:
        tangle._fcl_cache[x] = x
        return x, []
    n = sys.n
    separating = sys.k_separating(tangle.k)
    free = disjoint_from(tangle.weak_family & ~1, x, n)
    layers = popcount_layers(n)
    cur = x
    steps: List[int] = []
    while True:
        ext = (separating >> cur) & free
        if not ext:
            tangle._fcl_cache[x] = cur
            return cur, steps
        for layer in layers:  # layer 0 is {empty}, never in free
            smallest = ext & layer
            if smallest:
                break
        y = (smallest & -smallest).bit_length() - 1
        cur |= y
        steps.append(y)
        free = disjoint_from(free, y, n)


def full_closure(sys: ConnectivitySystem, tangle: Tangle, x: int) -> int:
    cached = tangle._fcl_cache.get(x)
    if cached is not None:
        return cached
    return full_closure_sequence(sys, tangle, x)[0]


def is_sequential(sys: ConnectivitySystem, tangle: Tangle, x: int) -> bool:
    """X is sequential iff E-X is strong and fcl(E-X) = E."""
    if sys.lam(x) > tangle.k:
        raise PreconditionFailed(f"set is not {tangle.k}-separating")
    co = sys.full ^ x
    if tangle.is_weak(co):
        return False
    return full_closure(sys, tangle, co) == sys.full


class Separation(NamedTuple):
    """An unordered strong k-separation, stored by its canonical side.

    A `(side, k)` tuple: it hashes, compares and sorts as that tuple, and
    equals the plain tuple `(side, k)`.  The canonical side is the one
    containing element 0, which makes the canonicalization an
    involution-stable dedup key.
    """

    side: int
    k: int

    @staticmethod
    def make(sys: ConnectivitySystem, side: int, k: int) -> "Separation":
        if side & ~sys.full:
            raise PreconditionFailed("side outside ground set")
        if not side & 1:
            side = sys.full ^ side
        return Separation(side, k)

    def sides(self, sys: ConnectivitySystem) -> Tuple[int, int]:
        return self.side, sys.full ^ self.side


def closure_pair(sys: ConnectivitySystem, tangle: Tangle, sep: Separation) -> FrozenSet[int]:
    a, b = sep.sides(sys)
    return frozenset((full_closure(sys, tangle, a), full_closure(sys, tangle, b)))


def equivalent_separations(sys: ConnectivitySystem, tangle: Tangle,
                           s1: Separation, s2: Separation) -> bool:
    """Unordered pairs of full closures coincide.  Both separations must be
    T-strong."""
    for s in (s1, s2):
        a, b = s.sides(sys)
        if tangle.is_weak(a) or tangle.is_weak(b):
            raise PreconditionFailed("separation is not T-strong")
    return closure_pair(sys, tangle, s1) == closure_pair(sys, tangle, s2)


def _in_default_S(sys: ConnectivitySystem, tangle: Tangle, x: int) -> bool:
    """X is a member of the default S: k-separating and not sequential, with
    a T-strong complement (whose full closure is then not E)."""
    return _closure_tables(sys, tangle).in_default_S[sys.checked(x)] == 1


class TreeCompatibleSet:
    """A tree-compatible family S of k-separating sets.

    Without `explicit`: all non-sequential k-separating sets with T-strong
    complements.  With `explicit` (even an empty one): that fixed family,
    verified against (S1)/(S2) on demand.  A member, or a mask asked
    about, outside the ground set is refused.  Default membership is one
    read of the tangle's table; the (k,S)-separation index is cached; the
    classes are indexed both by member and by closure pair, and every class
    question is answered from those two maps.
    """

    def __init__(self, sys: ConnectivitySystem, tangle: Tangle,
                 explicit: Optional[Iterable[int]] = None):
        self.sys = sys
        self.tangle = tangle
        self._explicit = frozenset(explicit) if explicit is not None else None
        if self._explicit and any(x & ~sys.full for x in self._explicit):
            raise PreconditionFailed("member outside ground set")
        self._separations: Optional[List[Separation]] = None
        self._classes: Optional[List[List[Separation]]] = None
        self._class_index: Dict[Separation, int] = {}
        self._pair_index: Dict[FrozenSet[int], int] = {}

    @property
    def k(self) -> int:
        return self.tangle.k

    def contains(self, x: int) -> bool:
        if self._explicit is not None:
            return self.sys.checked(x) in self._explicit
        return _in_default_S(self.sys, self.tangle, x)

    def is_kS_separation(self, sep: Separation) -> bool:
        """sep has the tangle's order and both sides in S."""
        a, b = sep.sides(self.sys)
        return sep.k == self.k and self.contains(a) and self.contains(b)

    # -- cached enumeration ------------------------------------------------

    def separations(self) -> List[Separation]:
        if self._separations is None:
            self._separations = enumerate_kS_separations(self.sys, self.tangle, self)
        return self._separations

    def classes(self) -> List[List[Separation]]:
        """The (k,S)-separations grouped by closure pair; classes ordered by
        their first member, members ascending (the enumeration order)."""
        if self._classes is None:
            groups: Dict[FrozenSet[int], List[Separation]] = {}
            for sep in self.separations():
                groups.setdefault(closure_pair(self.sys, self.tangle, sep), []).append(sep)
            pairs = sorted(groups, key=lambda pair: groups[pair][0].side)
            self._classes = [groups[pair] for pair in pairs]
            self._pair_index = {pair: i for i, pair in enumerate(pairs)}
            self._class_index = {s: i for i, cls in enumerate(self._classes) for s in cls}
        return self._classes

    def class_id(self, sep: Separation) -> Optional[int]:
        """Index of sep's class if sep is a (k,S)-separation of the tangle's
        order, else None."""
        self.classes()
        return self._class_index.get(sep)

    def class_of(self, sep: Separation) -> List[Separation]:
        """sep's class; a separation outside the index is looked up by its
        closure pair, and one equivalent to no class forms its own."""
        idx = self.class_id(sep)
        if idx is None:
            idx = self._pair_index.get(closure_pair(self.sys, self.tangle, sep))
            if idx is None:
                return [sep]
        return self._classes[idx]


def build_default_S(sys: ConnectivitySystem, tangle: Tangle) -> TreeCompatibleSet:
    return TreeCompatibleSet(sys, tangle)


def _canonical_sides(sys: ConnectivitySystem) -> range:
    """The side containing element 0 of every separation of E, ascending."""
    return range(1, 1 << sys.n, 2)


def strong_k_separations(sys: ConnectivitySystem, tangle: Tangle) -> List[Separation]:
    """All T-strong k-separations, canonical sides ascending."""
    k = tangle.k
    return [Separation(x, k) for x in sys.lam_at_most(k, _canonical_sides(sys))
            if tangle.is_strong(x) and tangle.is_strong(sys.full ^ x)]


def enumerate_kS_separations(sys: ConnectivitySystem, tangle: Tangle,
                             s_family: TreeCompatibleSet) -> List[Separation]:
    """All (k,S)-separations, canonicalized and deduplicated; members are
    k-separating, so only the canonical sides with lam <= k are tried."""
    full = sys.full
    return [Separation(x, tangle.k) for x in sys.lam_at_most(tangle.k, _canonical_sides(sys))
            if s_family.contains(x) and s_family.contains(full ^ x)]


def verify_tree_compatible(sys: ConnectivitySystem, tangle: Tangle,
                           s_family: TreeCompatibleSet) -> List[Violation]:
    """Check the definitional preamble (members are non-sequential
    k-separating sets with strong complements), then (S1) closure under
    equivalence and (S2) upward closure along strong k-separations.
    Exhaustive, so desk scale only."""
    members = sorted(y for x in _canonical_sides(sys) for y in (x, sys.full ^ x)
                     if s_family.contains(y))
    out = [Violation("S-definition", (x,)) for x in members
           if not _in_default_S(sys, tangle, x)]
    strong = strong_k_separations(sys, tangle)
    ks_seps = [s for s in strong if s_family.is_kS_separation(s)]
    if ks_seps:  # closures are needed only to check some (k,S)-separation's class
        equivalent: Dict[FrozenSet[int], List[Separation]] = {}
        for other in strong:
            equivalent.setdefault(closure_pair(sys, tangle, other), []).append(other)
        for sep in ks_seps:
            for other in equivalent[closure_pair(sys, tangle, sep)]:
                if not s_family.is_kS_separation(other):
                    out.append(Violation("S1", (sep.side, other.side)))
    for x in members:
        for sep in strong:
            for y in sep.sides(sys):
                if x & ~y == 0 and not s_family.contains(y):
                    out.append(Violation("S2", (x, y)))
    return out
