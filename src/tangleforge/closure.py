"""Full closures, sequential and equivalent separations, tree-compatible sets.

The full closure fcl(X) of a strong k-separating set X is the minimal fully
closed k-separating superset; it is computed greedily by absorbing weak sets
(a maximal partial k-sequence), which is order-independent.

Both questions are family arithmetic on two 2^n-bit ints built once: the
k-separating family K_k of the system and the weak family W of the tangle.
For Y inside E-X, bit Y of K_k >> X is set iff lam(X | Y) <= k, so the weak
sets that X can absorb are (K_k >> X) & W', where W' keeps the non-empty
members of W inside E-X: one shift per greedy step.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .bitset import disjoint_from, popcount_layers
from .core import ConnectivitySystem, Violation, check_scan_n
from .errors import PreconditionFailed
from .tangles import Tangle


def _require_strong_k_separating(sys: ConnectivitySystem, tangle: Tangle, x: int):
    if sys.lam(x) > tangle.k:
        raise PreconditionFailed(f"set is not {tangle.k}-separating")
    if tangle.is_weak(x):
        raise PreconditionFailed("set is weak in the tangle")


def _tables(sys: ConnectivitySystem, tangle: Tangle, x: int) -> Tuple[int, int]:
    """K_k and the non-empty weak subsets of E-X, after the precondition on
    X; both tables refuse n > TANGLE_SCAN_N before any lam call."""
    separating = sys.k_separating(tangle.k)
    weak = tangle.weak_family & ~1
    _require_strong_k_separating(sys, tangle, x)
    return separating, disjoint_from(weak, x, sys.n)


def is_fully_closed(sys: ConnectivitySystem, tangle: Tangle, x: int) -> bool:
    """No non-empty weak Y inside E-X keeps X | Y k-separating."""
    separating, free = _tables(sys, tangle, x)
    return not (separating >> x) & free


def full_closure_sequence(sys: ConnectivitySystem, tangle: Tangle,
                          x: int) -> Tuple[int, List[int]]:
    """fcl(X) together with the greedy maximal partial k-sequence reaching it.

    Greedy order: smallest weak extension first, least mask within a size,
    read off the popcount layers of (K_k >> cur) & free; the endpoint is
    order-independent, the recorded steps are not.
    """
    separating, free = _tables(sys, tangle, x)
    n = sys.n
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


def validate_partial_k_sequence(sys: ConnectivitySystem, tangle: Tangle,
                                x: int, seq: Sequence[int]) -> bool:
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


def equivalent_one_sided(sys: ConnectivitySystem, tangle: Tangle,
                         s1: Separation, s2: Separation) -> bool:
    """The economical one-sided test for non-sequential separations:
    fcl(A) equals the closure of either side of the other separation."""
    a = full_closure(sys, tangle, s1.side)
    c, d = s2.sides(sys)
    return a == full_closure(sys, tangle, c) or a == full_closure(sys, tangle, d)


class TreeCompatibleSet:
    """A tree-compatible family S of k-separating sets.

    Default mode: all non-sequential k-separating sets with T-strong
    complements.  Explicit mode: a fixed family, verified against (S1)/(S2)
    on demand.  Membership and the (k,S)-separation index are cached; the
    classes are indexed both by member and by closure pair, and every class
    question is answered from those two maps.
    """

    def __init__(self, sys: ConnectivitySystem, tangle: Tangle,
                 mode: str = "default_nonsequential",
                 explicit: Optional[Iterable[int]] = None):
        self.sys = sys
        self.tangle = tangle
        self.mode = mode
        self._explicit = frozenset(explicit) if explicit is not None else None
        if mode == "explicit" and self._explicit is None:
            raise PreconditionFailed("explicit mode needs a mask family")
        self._member_cache: Dict[int, bool] = {}
        self._separations: Optional[List[Separation]] = None
        self._classes: Optional[List[List[Separation]]] = None
        self._class_index: Dict[Separation, int] = {}
        self._pair_index: Dict[FrozenSet[int], int] = {}

    @property
    def k(self) -> int:
        return self.tangle.k

    def contains(self, x: int) -> bool:
        if self.mode == "explicit":
            return x in self._explicit
        v = self._member_cache.get(x)
        if v is None:
            sys, tangle = self.sys, self.tangle
            co = sys.full ^ x
            v = (sys.lam(x) <= tangle.k and tangle.is_strong(co)
                 and full_closure(sys, tangle, co) != sys.full)
            self._member_cache[x] = v
        return v

    def is_kS_separation(self, sep: Separation) -> bool:
        a, b = sep.sides(self.sys)
        return self.contains(a) and self.contains(b)

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

    def class_ids(self, seps: Iterable[Separation]) -> FrozenSet[Optional[int]]:
        """Class ids of the (k,S)-separations among seps; a (k,S)-separation
        whose order is not the tangle's contributes None."""
        return frozenset(self.class_id(s) for s in seps if self.is_kS_separation(s))


def build_default_S(sys: ConnectivitySystem, tangle: Tangle) -> TreeCompatibleSet:
    return TreeCompatibleSet(sys, tangle)


def _canonical_sides(sys: ConnectivitySystem) -> range:
    """The side containing element 0 of every separation of E, ascending;
    refused before the scan when 2^n masks are too many."""
    check_scan_n(sys, "separation scan")
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
           if (sys.lam(x) > tangle.k or tangle.is_weak(sys.full ^ x)
               or is_sequential(sys, tangle, x))]
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
