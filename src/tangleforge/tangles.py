"""Tangles: verification, enumeration, canonical construction, robustness.

A tangle of order k in (E, lam) is a collection T of subsets with
(T1) lam(A) < k for all A in T;
(T2) every (k-1)-separation has a side in T;
(T3) no three members (repetition allowed) cover E;
(T4) no co-singleton E-{e} is a member.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterable, List, Optional, Tuple

from .bitset import complements, down_closure, elements_of, flags, join, maximal_masks
from .core import NODE_CAP, ConnectivitySystem, Violation, is_vertically_k_connected
from .errors import PreconditionFailed, SearchSpaceTooLarge, ViolationFound


class Tangle:
    """An order plus the explicit member collection, bound to its system.

    Immutable after construction apart from caches.  The weak family, every
    subset of a member as a 2^n-bit int, is built on first use together with
    a copy of one byte per mask, so the weak test is one index after the
    ground-set check.  The pair family (every subset of a union of two
    members), the full-closure cache, the closure module's tables of fully
    closed sets and default-S members, and the robustness verdict live here
    because all are functions of (sys, T): (T3) verification and the
    robustness test share the pair family.
    """

    def __init__(self, sys: ConnectivitySystem, k: int, members: Iterable[int]):
        self.sys = sys
        self.k = k
        self.members = frozenset(members)
        for m in self.members:
            if m & ~sys.full:
                raise PreconditionFailed("member outside ground set")
        self.maximal_members = maximal_masks(self.members)
        self._fcl_cache: dict = {}
        self._robust: Optional[bool] = None
        self._weak_family: Optional[int] = None
        self._weak_flags: Optional[bytes] = None
        self._pair_family: Optional[int] = None
        self._closure_tables = None  # closure._closure_tables

    @property
    def weak_family(self) -> int:
        """Every subset of a member."""
        if self._weak_family is None:
            family = 0
            for m in self.maximal_members:
                family |= down_closure(m)
            self._weak_family = family
        return self._weak_family

    @property
    def pair_family(self) -> int:
        """Every subset of a union of two members (repetition allowed): the
        weak family joined with each maximal member."""
        if self._pair_family is None:
            weak, n = self.weak_family, self.sys.n
            family = 0
            for m in self.maximal_members:
                family |= join(weak, m, n)
            self._pair_family = family
        return self._pair_family

    def is_weak(self, x: int) -> bool:
        table = self._weak_flags
        if table is None:
            table = self._weak_flags = flags(self.weak_family, self.sys.n)
        return table[self.sys.checked(x)] == 1

    def is_strong(self, x: int) -> bool:
        return not self.is_weak(x)

    def member_key(self) -> Tuple[int, ...]:
        return tuple(sorted(self.members))

    def __eq__(self, other):
        return (isinstance(other, Tangle) and self.k == other.k
                and self.members == other.members and self.sys is other.sys)

    def __hash__(self):
        return hash((self.k, self.members))

    def __repr__(self):
        shown = sorted(elements_of(m) for m in self.members)
        return f"Tangle(k={self.k}, members={shown})"


def verify_tangle(sys: ConnectivitySystem, tangle: Tangle) -> List[Violation]:
    """Report every axiom violation with a witness; empty iff a tangle.

    Violations come axiom by axiom, each list ascending, without a lam call
    or a walk over all masks:
    (T1) the members whose lam <= k-1 flag is clear;
    (T2) the (k-1)-separating masks without element n-1 of which neither
    the mask nor its complement is a member;
    (T3) any covering triple of members is dominated by maximal members,
    and maximal a, b, c cover E iff E - c is in the pair family, so one
    test per maximal member decides it; only then are the triples of
    maximal members walked, to report the first covering one;
    (T4) the members among the co-singletons.
    """
    k, n, full = tangle.k, sys.n, sys.full
    members = sorted(tangle.members)
    out = [Violation("T1", (a,))
           for a, below in zip(members, sys.lam_flags(k - 1, members)) if not below]
    out += [Violation("T2", (x,)) for x in sys.lam_at_most(k - 1, range(1 << (n - 1)))
            if x not in tangle.members and full ^ x not in tangle.members]
    maximal = sorted(tangle.maximal_members)
    two = tangle.pair_family
    if any(two >> (full ^ c) & 1 for c in maximal):
        for a, b, c in combinations_with_replacement(maximal, 3):
            if a | b | c == full:
                out.append(Violation("T3", (a, b, c)))
                break
    for e in range(n):
        co = full ^ (1 << e)
        if co in tangle.members:
            out.append(Violation("T4", (co,)))
    return out


def is_robust(tangle: Tangle) -> bool:
    """True iff no eight members cover E (axiom RT3).

    The search runs once per tangle; the verdict is stored on it.
    """
    if tangle._robust is None:
        tangle._robust = _no_eight_members_cover(tangle)
    return tangle._robust


def _no_eight_members_cover(tangle: Tangle) -> bool:
    """Every member lies in a maximal one, so with C_1 the weak family, C_2
    the pair family and C_{j+1} the join of C_j with each maximal member,
    C_j is the down-closed family of subsets of unions of j members.  E is a
    union of eight members iff some X in C_4 has E - X in C_4.  The rounds
    stop at the first family that holds E, and at the first that adds
    nothing, since every later one is the same.
    """
    n, full = tangle.sys.n, tangle.sys.full
    covered = tangle.pair_family
    for _ in range(2):
        if covered >> full & 1:
            return False
        grown = 0
        for m in tangle.maximal_members:
            grown |= join(covered, m, n)
        if grown == covered:
            return True
        covered = grown
    return not covered & complements(covered, n)


def canonical_vertical_tangle(sys: ConnectivitySystem, k: int) -> Tangle:
    """The unique order-k tangle {A : r(A) <= k-2} of a vertically
    k-connected matroid with r(M) >= max(3k-5, 2).  Preconditions checked.
    """
    if sys.kind != "matroid" or sys.rank is None:
        raise PreconditionFailed("canonical tangle needs a matroid-backed system")
    rank = sys.rank
    if k < 2:
        raise PreconditionFailed("canonical tangle needs k >= 2")
    bound = max(3 * k - 5, 2)
    if rank.full_rank < bound:
        raise PreconditionFailed(f"rank bound violated: r(M)={rank.full_rank} < {bound}")
    if not is_vertically_k_connected(rank, k):
        raise PreconditionFailed("matroid is not vertically k-connected")
    members = rank.rank_at_most(k - 2, range(1 << sys.n))
    tangle = Tangle(sys, k, members)
    bad = verify_tangle(sys, tangle)
    if bad:
        raise ViolationFound("canonical construction failed axioms", bad[0])
    return tangle


def enumerate_tangles(sys: ConnectivitySystem, k: int) -> List[Tangle]:
    """All tangles of order k, each verified; more than NODE_CAP search
    nodes raise SearchSpaceTooLarge.

    A tangle picks exactly one side of every (k-1)-separation (both sides
    would cover E with any third member), so we branch on orientations in
    increasing order of small-side size, pruning on T3 and T4.  A leaf whose
    verification fails raises ViolationFound with the first violation.

    T3 pruning keeps, per depth, the down-closed families `one` of subsets
    of a chosen side and `two` of subsets of a union of two chosen sides:
    a candidate C completes a covering triple iff E - C is in `two`.
    """
    n = sys.n
    full = sys.full
    # One side of each pair: x, the one without n-1.  So x < E - x, and x
    # is the small side iff it has at most half the elements.
    pairs = [(x, full ^ x) if x.bit_count() <= n // 2 else (full ^ x, x)
             for x in sys.lam_at_most(k - 1, range(1 << (n - 1)))]
    pairs.sort(key=lambda p: (p[0].bit_count(), p[0]))

    results: List[Tangle] = []
    chosen: List[int] = []
    nodes = 0

    def visit() -> bool:
        """Count a node; at a leaf, verify and keep the tangle."""
        nonlocal nodes
        nodes += 1
        if nodes > NODE_CAP:
            raise SearchSpaceTooLarge(f"tangle search exceeded {NODE_CAP} nodes")
        if len(chosen) < len(pairs):
            return True
        tangle = Tangle(sys, k, chosen)
        bad = verify_tangle(sys, tangle)
        if bad:
            raise ViolationFound("tangle search produced a non-tangle", bad[0])
        results.append(tangle)
        return False

    # One frame per open depth: its remaining sides and the families of the
    # sides chosen above it.  Depth-first, smaller side first.
    stack = [(iter(pairs[0]), 0, 0)] if visit() else []
    while stack:
        sides, one, two = stack[-1]
        for side in sides:
            # T4 (and E itself), then T3
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
    results.sort(key=lambda t: t.member_key())
    return results
