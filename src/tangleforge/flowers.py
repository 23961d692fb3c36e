"""k-flowers in a tangle: verification, classification, tightening,
conformity, refinement, and maximal-flower search.

A k-flower is a cyclically ordered T-strong partition whose petals and
consecutive petal unions are k-separating.  Every flower is an anemone
(all petal unions k-separating) or a daisy (exactly the cyclically
consecutive ones).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Container, FrozenSet, List, Optional, Sequence, Set

from .core import ConnectivitySystem
from .closure import (Separation, TreeCompatibleSet, full_closure)
from .errors import (DichotomyViolation, InvalidBreakpoints, NonRobustObstruction,
                     NotAPartition, NotKSeparating, PreconditionFailed,
                     ViolationFound, WeakPetal)
from .tangles import Tangle

ANEMONE = "anemone"
DAISY = "daisy"

UNCROSSED = "uncrossed"
STRONG = "strong"
WEAK = "weak"
MIXED = "mixed"


class Flower:
    """Cyclic petal list of a verified k-flower; immutable value object.
    Its class is `classify`'s, kept in `_klass` by `classify` alone."""

    def __init__(self, petals: Sequence[int], k: int):
        self.petals = tuple(petals)
        self.k = k
        self._klass: Optional[str] = None

    @property
    def n(self) -> int:
        return len(self.petals)

    def __repr__(self):
        return f"Flower(k={self.k}, petals={[bin(p) for p in self.petals]})"

    def __eq__(self, other):
        return (isinstance(other, Flower) and self.k == other.k
                and self.petals == other.petals)

    def __hash__(self):
        return hash((self.k, self.petals))


def verify_flower(sys: ConnectivitySystem, tangle: Tangle,
                  petals: Sequence[int], k: Optional[int] = None) -> Flower:
    """Full-definition check: strong partition, petals and consecutive
    unions k-separating.  Raises with a witness on failure."""
    if k is None:
        k = tangle.k
    union = 0
    for p in petals:
        if p == 0 or union & p:
            raise NotAPartition("petals must be non-empty and disjoint")
        union |= p
    if union != sys.full:
        raise NotAPartition("petals do not cover the ground set")
    for i, p in enumerate(petals):
        if tangle.is_weak(p):
            raise WeakPetal(i)
    n = len(petals)
    for i, p in enumerate(petals):
        v = sys.lam(p)
        if v > k:
            raise NotKSeparating(p, v, k)
        if n >= 2:
            u = p | petals[(i + 1) % n]
            v = sys.lam(u)
            if v > k:
                raise NotKSeparating(u, v, k)
    return Flower(petals, k)


def petal_unions(petals: Sequence[int]) -> List[int]:
    """union[b] = union of the petals indexed by the bits of b, for every b
    in [0, 2^m): each petal doubles the list, the new half being the old
    half with that petal added."""
    union = [0]
    for p in petals:
        union += [u | p for u in union]
    return union


@lru_cache(maxsize=None)
def _run_flags(n: int) -> bytes:
    """A daisy's flags, built once per n: byte b-1 is 1 iff the proper
    index mask b is a cyclic run of [n]."""
    full = (1 << n) - 1
    flags = bytearray(full - 1)
    for length in range(1, n):
        run = (1 << length) - 1
        for start in range(n):
            shifted = run << start
            flags[((shifted | shifted >> n) & full) - 1] = 1
    return bytes(flags)


def classify(sys: ConnectivitySystem, f: Flower) -> str:
    """Anemone iff every petal union is k-separating; daisy iff exactly the
    cyclically consecutive ones.  Flowers with at most two petals count as
    anemones by convention.  Anything else raises DichotomyViolation.

    One `lam_flags` pass over the proper petal unions decides: an anemone
    has no 0 flag, and a daisy's flags equal the cyclic-run flags of n.
    The verdict is kept on the flower for the next call."""
    if f._klass is not None:
        return f._klass
    flags = sys.lam_flags(f.k, petal_unions(f.petals)[1:-1]) if f.n > 2 else b""
    if 0 not in flags:
        klass = ANEMONE
    elif flags == _run_flags(f.n):
        klass = DAISY
    else:
        raise DichotomyViolation(_dichotomy_witness(f.n, flags, _run_flags(f.n)))
    f._klass = klass
    return klass


def _dichotomy_witness(n: int, flags: bytes, runs: bytes) -> FrozenSet[int]:
    """Petal indices of a union that breaks the dichotomy: a non-separating
    cyclic run if there is one, else a separating non-run.  Byte b-1 of
    `flags` is 1 iff the union of index mask b is k-separating, and of
    `runs` iff b is a cyclic run (`_run_flags`)."""
    sep_sets: Set[FrozenSet[int]] = set()
    consec: Set[FrozenSet[int]] = set()
    for bits in range(1, (1 << n) - 1):
        idx = frozenset(i for i in range(n) if bits >> i & 1)
        if flags[bits - 1]:
            sep_sets.add(idx)
        if runs[bits - 1]:
            consec.add(idx)
    witness = next(iter(sep_sets.symmetric_difference(consec) - sep_sets), None)
    if witness is None:
        witness = next(iter(sep_sets - consec))
    return witness


def concatenate(f: Flower, breakpoints: Sequence[int]) -> Flower:
    """Merge petals into the consecutive runs [0:j1], [j1:j2], ..., [jm-1:n].

    Breakpoints are the strictly increasing run ends, the last being n.
    Concatenations of flowers are flowers, so no re-verification is needed.
    """
    n = f.n
    bs = list(breakpoints)
    if not bs or bs[-1] != n or any(b <= 0 or b > n for b in bs) or sorted(set(bs)) != bs:
        raise InvalidBreakpoints(f"breakpoints {bs} invalid for {n} petals")
    out = []
    start = 0
    for b in bs:
        u = 0
        for i in range(start, b):
            u |= f.petals[i]
        out.append(u)
        start = b
    return Flower(out, f.k)


def displayed_separations(sys: ConnectivitySystem, tangle: Tangle,
                          f: Flower) -> List[Separation]:
    """k-separations displayed by f, by canonical side: the sides with
    lam <= k that no petal crosses (meets on both sides).  Precondition:
    the petals partition E, so these are exactly the canonical sides of
    the k-separating proper petal unions.  The class is not read."""
    petals = f.petals
    return [Separation(x, f.k) for x in sys.lam_at_most(f.k, range(1, sys.full, 2))
            if not any(p & x and p & ~x for p in petals)]


class Uncrossed:
    """A verified flower's display set as a container, decided by petal
    crossing, never built: a (k,S)-separation of the flower's order has
    k-separating proper sides, so it is displayed iff no petal meets both
    sides; others of that order also need a canonical, proper, k-separating side."""

    def __init__(self, s_family: TreeCompatibleSet, f: Flower):
        self.s_family, self.sys, self.petals, self.k = s_family, s_family.sys, f.petals, f.k

    def __contains__(self, sep: Separation) -> bool:
        side, k = sep.side, self.k
        if sep.k != k:
            return False
        for p in self.petals:
            if p & side and p & ~side:
                return False
        return (self.s_family.class_id(sep) is not None
                or side & 1 and side != self.sys.full and self.sys.lam(side) <= k)


def displayed_kS(sys: ConnectivitySystem, tangle: Tangle,
                 s_family: TreeCompatibleSet, f: Flower) -> List[Separation]:
    """The (k,S)-separations a verified flower displays, by canonical side,
    decided by petal crossing (`Uncrossed`); a flower of another order
    displays none."""
    shown = Uncrossed(s_family, f)
    return [s for s in s_family.separations() if s in shown]


def _absorber(sys: ConnectivitySystem, tangle: Tangle, f: Flower, i: int) -> Optional[int]:
    """The first j with P_i inside fcl(P_j), P_j consecutive with P_i up to
    labels: the cyclic neighbours first, then, for an anemone (whose petals
    can always be relabelled adjacent), every other petal; None if no petal
    absorbs P_i."""
    n = f.n
    order = [(i - 1) % n, (i + 1) % n]
    if classify(sys, f) == ANEMONE:
        order += [j for j in range(n) if j not in order]
    for j in order:
        if j != i and f.petals[i] & ~full_closure(sys, tangle, f.petals[j]) == 0:
            return j
    return None


def loose_petals(sys: ConnectivitySystem, tangle: Tangle, f: Flower) -> List[int]:
    """Indices i of the petals that another petal absorbs (`_absorber`)."""
    if f.n < 2:
        return []
    return [i for i in range(f.n) if _absorber(sys, tangle, f, i) is not None]


def tighten(sys: ConnectivitySystem, tangle: Tangle, f: Flower) -> Flower:
    """Absorb loose petals (lowest index first) into their absorber until
    none remain.  Output is loose-free; displayed (k,S)-classes are
    preserved.  Exact S-tightness is certified only at oracle scale."""
    cur = f
    while True:
        loose = loose_petals(sys, tangle, cur)
        if not loose:
            return cur
        i = loose[0]
        merged = list(cur.petals)
        merged[_absorber(sys, tangle, cur, i)] |= merged[i]
        del merged[i]
        cur = verify_flower(sys, tangle, merged, cur.k)


def petal_cross_kind(tangle: Tangle, part: int, r: int, g: int) -> str:
    a, b = part & r, part & g
    if not a or not b:
        return UNCROSSED
    sa, sb = tangle.is_strong(a), tangle.is_strong(b)
    if sa and sb:
        return STRONG
    if not sa and not sb:
        return WEAK
    return MIXED


def class_conforms(sys: ConnectivitySystem, members: Sequence[Separation],
                   displayed: Container[Separation], parts: Sequence[int]) -> bool:
    """True iff some member of the class is displayed (a tree's display set,
    or `Uncrossed` for a flower) or has a side inside one of the parts
    (petals of a flower, bags of a tree)."""
    for member in members:
        if member in displayed:
            return True
        a, b = member.sides(sys)
        for p in parts:
            if a & ~p == 0 or b & ~p == 0:
                return True
    return False


def first_nonconforming(sys: ConnectivitySystem, s_family: TreeCompatibleSet,
                        displayed: Container[Separation],
                        parts: Sequence[int]) -> Optional[Separation]:
    """The first (k,S)-separation, by canonical side, whose class does not
    conform with the displays and parts; None when every one conforms.
    Conformance is a property of the class, so each class is tested once:
    classes come ordered by first member, so the first failing class's
    first member is the first failing separation."""
    for cls in s_family.classes():
        if not class_conforms(sys, cls, displayed, parts):
            return cls[0]
    return None


def conforms_with_flower(sys: ConnectivitySystem, tangle: Tangle,
                         s_family: TreeCompatibleSet, sep: Separation,
                         f: Flower) -> bool:
    """True iff some equivalent separation is displayed by f or has a side
    inside a petal.  The scan covers the whole equivalence class, which by
    (S1) is exactly the strong equivalents."""
    return class_conforms(sys, s_family.class_of(sep), Uncrossed(s_family, f), f.petals)


def phi_minimum_representative(sys: ConnectivitySystem, tangle: Tangle,
                               s_family: TreeCompatibleSet, sep: Separation,
                               f: Flower) -> Separation:
    """Class member crossing the fewest petals; ties by canonical side."""
    if not s_family.is_kS_separation(sep):
        raise PreconditionFailed("not a (k,S)-separation")

    def crossed_count(s: Separation) -> int:
        r, g = s.sides(sys)
        return sum(1 for p in f.petals if p & r and p & g)

    return min(s_family.class_of(sep), key=lambda s: (crossed_count(s), s.side))


def _split_crossed_petal(sys: ConnectivitySystem, tangle: Tangle, f: Flower,
                         i: int, r: int, g: int) -> Flower:
    """One refinement step: split crossed petal i into its r- and g-parts,
    oriented so the flower conditions are forced by uncrossing."""
    n = f.n
    if n == 2:
        p1, p2 = f.petals[i], f.petals[1 - i]
        parts = (p1 & g, p1 & r, p2 & r, p2 & g)
        if not all(p and tangle.is_strong(p) for p in parts):
            raise ViolationFound("two-petal split needs both petals strongly crossed",
                                 Separation.make(sys, r, f.k))
        return verify_flower(sys, tangle, parts, f.k)
    q = f.petals[i:] + f.petals[:i]
    q0, q1 = q[0], q[1]
    rest = 0
    for p in q[2:]:
        rest |= p
    if q1 & r and q1 & g:
        if tangle.is_strong(rest & g):
            a, b = r, g
        elif tangle.is_strong(rest & r):
            a, b = g, r
        else:
            raise ViolationFound("no strong remainder side", Separation.make(sys, r, f.k))
    else:
        a = r if q1 & r else g
        b = g if a == r else r
        if not tangle.is_strong(rest & b):
            raise ViolationFound("no strong remainder side", Separation.make(sys, r, f.k))
    new_petals = (q0 & b, q0 & a) + q[1:]
    return verify_flower(sys, tangle, new_petals, f.k)


def refine_with(sys: ConnectivitySystem, tangle: Tangle,
                s_family: TreeCompatibleSet, f: Flower,
                sep: Separation) -> Optional[Flower]:
    """Refine a loose-free flower so it displays an equivalent of `sep`.

    Splits crossed petals of the phi-minimum representative while every
    petal is (R,G)-strong; returns None when all petals are weakly crossed
    (possible only for non-robust tangles).  A strong/weak mix on a
    loose-free flower would force a loose petal, so it is an invariant
    violation.
    """
    if loose_petals(sys, tangle, f):
        raise PreconditionFailed("flower has loose petals")
    if conforms_with_flower(sys, tangle, s_family, sep, f):
        raise PreconditionFailed("separation already conforms")
    return _refine(sys, tangle, s_family, f, sep)


def _refine(sys: ConnectivitySystem, tangle: Tangle, s_family: TreeCompatibleSet,
            f: Flower, sep: Separation) -> Optional[Flower]:
    """`refine_with` past its two checks, which its caller has made."""
    rep = phi_minimum_representative(sys, tangle, s_family, sep, f)
    r, g = rep.sides(sys)
    kinds = [petal_cross_kind(tangle, p, r, g) for p in f.petals]
    if MIXED in kinds:
        raise ViolationFound("mixed-crossed petal for a phi-minimum separation",
                             (f.petals[kinds.index(MIXED)],))
    if all(kd == WEAK for kd in kinds):
        return None
    if WEAK in kinds:
        raise ViolationFound("weakly crossed petal on a loose-free flower",
                             (f.petals[kinds.index(WEAK)],))
    work = f
    while True:
        crossed = [idx for idx, p in enumerate(work.petals) if p & r and p & g]
        if not crossed:
            return work
        work = _split_crossed_petal(sys, tangle, work, crossed[0], r, g)


def maximal_flower_from(sys: ConnectivitySystem, tangle: Tangle,
                        s_family: TreeCompatibleSet, f: Flower) -> Flower:
    """Refine a loose-free flower until every (k,S)-separation conforms;
    raises NonRobustObstruction when refinement is impossible.

    `_refine` only splits petals, so each petal of the result lies in a
    petal of f, f's displays stay displayed, and each step displays one
    more class, so the loop ends.  A split keeps the old petals loose-free:
    fcl is monotone, the pieces take their petal's place, and a split
    anemone came from one.  That no piece is loose is checked: a loose
    petal raises ViolationFound with the flower as witness."""
    while True:
        if loose_petals(sys, tangle, f):
            raise ViolationFound("loose petal in the maximal-flower loop", f)
        target = first_nonconforming(sys, s_family, Uncrossed(s_family, f), f.petals)
        if target is None:
            return f
        refined = _refine(sys, tangle, s_family, f, target)  # f is loose-free, target fails
        if refined is None:
            raise NonRobustObstruction(target, flower=f)
        f = refined


def maximal_flower(sys: ConnectivitySystem, tangle: Tangle,
                   s_family: TreeCompatibleSet, seed: Separation) -> Flower:
    """Grow the seed's 2-petal flower until every (k,S)-separation conforms.
    A petal of a 2-petal flower is loose iff it is sequential, so the seed is
    loose-free by the definition of S; a seed with a sequential side, which
    only an S that is not tree-compatible has, is refused."""
    if not s_family.is_kS_separation(seed):
        raise PreconditionFailed("seed must be a (k,S)-separation")
    f = verify_flower(sys, tangle, seed.sides(sys), tangle.k)
    if loose_petals(sys, tangle, f):
        raise PreconditionFailed("seed has a sequential side")
    return maximal_flower_from(sys, tangle, s_family, f)
