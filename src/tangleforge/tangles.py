"""Tangles: verification, enumeration, canonical construction, robustness.

A tangle of order k in (E, lam) is a collection T of subsets with
(T1) lam(A) < k for all A in T;
(T2) every (k-1)-separation has a side in T;
(T3) no three members (repetition allowed) cover E;
(T4) no co-singleton E-{e} is a member.
"""

from __future__ import annotations

import os
import sys as _sys
from itertools import combinations_with_replacement
from typing import Iterable, List, Optional, Sequence, Tuple

from .bitset import elements_of, popcount
from .core import ConnectivitySystem, Violation, is_vertically_k_connected
from .errors import NotAPartition, PreconditionFailed, SearchSpaceTooLarge, ViolationFound

DEFAULT_NODE_CAP = 1 << 20
# Frames a leaf of the tangle search stacks on top of its recursion
# (violates, Tangle, verify_tangle and the calls they make), with margin.
_SEARCH_FRAME_SLACK = 16


def _stack_depth() -> int:
    frame = _sys._getframe(1)
    depth = 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def _node_cap(explicit: Optional[int]) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("TANGLEFORGE_MAX_NODES")
    return int(env) if env else DEFAULT_NODE_CAP


def _maximal_antichain(masks: Iterable[int]) -> Tuple[int, ...]:
    """Subset-maximal elements, largest first for early weak-test hits."""
    ms = sorted(set(masks), key=popcount, reverse=True)
    out: List[int] = []
    for m in ms:
        if not any(m & ~kept == 0 for kept in out):
            out.append(m)
    return tuple(out)


class Tangle:
    """An order plus the explicit member collection, bound to its system.

    Immutable after construction; the derived maximal-member antichain makes
    the weak test a containment scan.  The full-closure cache and the
    robustness verdict live here because both are functions of (sys, T).
    """

    def __init__(self, sys: ConnectivitySystem, k: int, members: Iterable[int]):
        self.sys = sys
        self.k = k
        self.members = frozenset(members)
        for m in self.members:
            if m & ~sys.full:
                raise PreconditionFailed("member outside ground set")
        self.maximal_members = _maximal_antichain(self.members)
        self._fcl_cache: dict = {}
        self._robust: Optional[bool] = None

    def is_weak(self, x: int) -> bool:
        return any(x & ~m == 0 for m in self.maximal_members)

    def is_strong(self, x: int) -> bool:
        return not self.is_weak(x)

    def is_strong_partition(self, parts: Sequence[int]) -> bool:
        union = 0
        for p in parts:
            if union & p:
                raise NotAPartition("parts overlap")
            union |= p
        if union != self.sys.full:
            raise NotAPartition("parts do not cover the ground set")
        return all(self.is_strong(p) for p in parts)

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

    (T3) is checked over triples of maximal members only: any covering
    triple of members is dominated by the maximal members above them.
    (T2) enumerates all X with lam(X) <= k-1, so needs n <= 20.
    """
    if sys.n > 20:
        raise SearchSpaceTooLarge("T2 verification enumerates 2^n masks; n <= 20 required")
    k = tangle.k
    out = []
    for a in sorted(tangle.members):
        if sys.lam(a) >= k:
            out.append(Violation("T1", (a,)))
    full = sys.full
    seen_t2 = set()
    for x in range(1 << sys.n):
        if x in seen_t2:
            continue
        co = full ^ x
        seen_t2.add(co)
        if sys.lam(x) <= k - 1:
            if x not in tangle.members and co not in tangle.members:
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


def is_robust(tangle: Tangle) -> bool:
    """True iff no eight members cover E (axiom RT3).

    The search runs once per tangle; the verdict is stored on it.
    """
    if tangle._robust is None:
        tangle._robust = _no_eight_members_cover(tangle)
    return tangle._robust


def _no_eight_members_cover(tangle: Tangle) -> bool:
    """Unions of at most eight maximal members dominate unions of arbitrary
    members, so a breadth-first walk over subset-maximal unions decides RT3.
    """
    full = tangle.sys.full
    layer = set(tangle.maximal_members)
    if full in layer:
        return False
    for _ in range(7):
        nxt = set()
        for u in layer:
            for m in tangle.maximal_members:
                v = u | m
                if v == full:
                    return False
                nxt.add(v)
        nxt_max = set(_maximal_antichain(nxt))
        if nxt_max == layer:
            return True  # closed under further unions
        layer = nxt_max
    return True


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
    members = [m for m in range(1 << sys.n) if rank.rank(m) <= k - 2]
    tangle = Tangle(sys, k, members)
    bad = verify_tangle(sys, tangle)
    if bad:
        raise ViolationFound("canonical construction failed axioms", bad[0])
    return tangle


def enumerate_tangles(sys: ConnectivitySystem, k: int,
                      node_cap: Optional[int] = None) -> List[Tangle]:
    """All tangles of order k, each verified.

    A tangle picks exactly one side of every (k-1)-separation (both sides
    would cover E with any third member), so we branch on orientations in
    increasing order of small-side size, pruning on T3 and T4.
    """
    cap = _node_cap(node_cap)
    full = sys.full
    pairs = []
    seen = set()
    for x in range(1 << sys.n):
        if x in seen:
            continue
        co = full ^ x
        seen.add(x)
        seen.add(co)
        if sys.lam(x) <= k - 1:
            small, big = sorted((x, co), key=lambda m: (popcount(m), m))
            pairs.append((small, big))
    pairs.sort(key=lambda p: (popcount(p[0]), p[0]))
    # The search recurses once per pair; refuse depths the interpreter's
    # recursion limit cannot hold instead of failing part-way.
    headroom = _sys.getrecursionlimit() - _stack_depth() - _SEARCH_FRAME_SLACK
    if len(pairs) > headroom:
        raise SearchSpaceTooLarge(
            f"tangle search needs recursion depth {len(pairs)}; at most {headroom} available")

    results: List[Tangle] = []
    chosen: List[int] = []
    nodes = 0

    def violates(candidate: int) -> bool:
        if popcount(candidate) >= sys.n - 1:
            return True  # T4, and E itself via T3 with repetition
        for a, b in combinations_with_replacement(chosen + [candidate], 2):
            if a | b | candidate == full:
                return True
        return False

    def dfs(i: int):
        nonlocal nodes
        nodes += 1
        if nodes > cap:
            raise SearchSpaceTooLarge(f"tangle search exceeded {cap} nodes")
        if i == len(pairs):
            tangle = Tangle(sys, k, chosen)
            if not verify_tangle(sys, tangle):
                results.append(tangle)
            return
        for side in pairs[i]:
            if not violates(side):
                chosen.append(side)
                dfs(i + 1)
                chosen.pop()

    dfs(0)
    results.sort(key=lambda t: t.member_key())
    return results
