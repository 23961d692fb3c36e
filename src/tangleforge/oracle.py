"""Independent exhaustive recomputation of every structure at desk scale.

Shares only the lambda evaluation with the engines; weak tests, closures,
classes, flowers, and tree certification are recomputed literally from the
definitions so differential tests mean something.

Literalness rule: every predicate here is the definition, evaluated by an
exhaustive walk.  A walk may stop once its answer cannot change: an
existence test at its first witness, an intersection once it equals its
lower bound X.  A quantifier over weak sets may range over the weak table
itself rather than over the submasks of a region.  A memo table of such a
predicate is allowed, as long as each entry is what the literal walk
returns (the weak set below is the definition "X lies inside a member"
tabulated once per tangle by a submask walk of each member).  A flower
scan may read its petal unions from a list that each petal doubles, and
its one-run index masks from a table kept per petal count: both depend
only on petal indices, never on the system.  Derived structure is not
allowed: no antichains of maximal members, no greedy sequences, no bit
families, and nothing taken from the engine but `lam`.
Memo tables live in oracle-private attributes of the tangle (`_oracle_*`),
so two tangles never share one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .bitset import elements_of
from .core import ConnectivitySystem
from .closure import Separation, TreeCompatibleSet
from .errors import SearchSpaceTooLarge, ViolationFound
from .flowers import Flower
from .tangles import Tangle
from .trees import PiTree

ORACLE_MAX_N = 14
ORACLE_MAX_PETALS = 8


def _guard(sys: ConnectivitySystem):
    if sys.n > ORACLE_MAX_N:
        raise SearchSpaceTooLarge(f"oracle requires n <= {ORACLE_MAX_N}")


def _weak_set(tangle: Tangle) -> Set[int]:
    """Every subset of every member, by a submask walk of each member;
    a member already in the set adds nothing and is skipped."""
    weak = tangle.__dict__.get("_oracle_weak")
    if weak is None:
        weak = set()
        for m in tangle.members:
            if m in weak:
                continue
            y = m
            while True:
                weak.add(y)
                if y == 0:
                    break
                y = (y - 1) & m
        tangle._oracle_weak = weak
    return weak


def _weak(tangle: Tangle, x: int) -> bool:
    """X is weak iff it lies inside some member."""
    return x in _weak_set(tangle)


def _fully_closed(sys: ConnectivitySystem, tangle: Tangle, x: int) -> bool:
    """Literal definition: no non-empty weak Y in E-X keeps X|Y k-separating.

    Y ranges over the weak set itself (every weak Y disjoint from X), not
    over the submasks of E-X.  Memoized per (tangle, X) in
    `_oracle_fc_cache`."""
    cache = tangle.__dict__.setdefault("_oracle_fc_cache", {})
    hit = cache.get(x)
    if hit is not None:
        return hit
    k = tangle.k
    lam = sys.lam
    closed = not any(y and not y & x and lam(x | y) <= k for y in _weak_set(tangle))
    cache[x] = closed
    return closed


def oracle_full_closure(sys: ConnectivitySystem, tangle: Tangle, x: int) -> int:
    """Intersection of every fully-closed k-separating superset of X.

    The supersets X|s are walked in ascending order of s, so X itself comes
    first and E last.  Every member contains X, so the walk stops once the
    running intersection is X; when no superset qualifies it reaches E and
    raises `ViolationFound`.

    Two memos on the tangle keep this literal: the closure of X in
    `_oracle_fcl_cache`, and each superset's fully-closed verdict in
    `_oracle_fc_cache` (see `_fully_closed`).  Each entry is what the
    exhaustive walk returns, so caching does not borrow from the greedy
    engine.
    """
    _guard(sys)
    cache = tangle.__dict__.setdefault("_oracle_fcl_cache", {})
    hit = cache.get(x)
    if hit is not None:
        return hit
    k = tangle.k
    rest = sys.full ^ x
    acc = None
    s = 0
    while True:
        f = x | s
        if sys.lam(f) <= k and _fully_closed(sys, tangle, f):
            acc = f if acc is None else acc & f
            if acc == x:
                break
        if s == rest:
            break
        s = (s - rest) & rest
    if acc is None:
        raise ViolationFound("E is not a fully closed k-separating superset", (x,))
    cache[x] = acc
    return acc


def _in_S(sys: ConnectivitySystem, tangle: Tangle,
          s_family: Optional[TreeCompatibleSet], x: int) -> bool:
    """Membership recomputed from the definition for default mode; explicit
    families are raw data, taken as given."""
    if s_family is not None and s_family.mode == "explicit":
        return x in s_family._explicit
    co = sys.full ^ x
    return (sys.lam(x) <= tangle.k and not _weak(tangle, co)
            and oracle_full_closure(sys, tangle, co) != sys.full)


def oracle_kS_separations(sys: ConnectivitySystem, tangle: Tangle,
                          s_family: Optional[TreeCompatibleSet] = None) -> List[Separation]:
    _guard(sys)
    out = []
    for x in range(1 << sys.n):
        if not x & 1:
            continue
        if _in_S(sys, tangle, s_family, x) and _in_S(sys, tangle, s_family, sys.full ^ x):
            out.append(Separation(x, tangle.k))
    return out


def _oracle_key(sys: ConnectivitySystem, tangle: Tangle, sep: Separation) -> FrozenSet[int]:
    """The pair of oracle closures of sep's sides: equal iff equivalent."""
    a, b = sep.sides(sys)
    return frozenset((oracle_full_closure(sys, tangle, a), oracle_full_closure(sys, tangle, b)))


def oracle_classes(sys: ConnectivitySystem, tangle: Tangle,
                   s_family: Optional[TreeCompatibleSet] = None) -> List[List[Separation]]:
    """T-equivalence classes of the (k,S)-separations, by closure pairs."""
    groups: Dict[FrozenSet[int], List[Separation]] = {}
    for sep in oracle_kS_separations(sys, tangle, s_family):
        groups.setdefault(_oracle_key(sys, tangle, sep), []).append(sep)
    classes = sorted(groups.values(), key=lambda g: min(s.side for s in g))
    for cls in classes:
        cls.sort()
    return classes


# -- flower enumeration ----------------------------------------------------


def _partitions_into_blocks(n: int, max_blocks: int):
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


def _index_unions(petals: Sequence[int]) -> List[int]:
    """union[b] = union of the petals indexed by the bits of b, for every b
    in [0, 2^n): each petal doubles the list, the new half being the old
    half with that petal added."""
    union = [0]
    for p in petals:
        union += [u | p for u in union]
    return union


@lru_cache(maxsize=None)
def _one_run_masks(n: int) -> FrozenSet[int]:
    """Proper index masks with exactly one i in the mask whose successor
    i+1 (mod n) is outside it, by that definition; tabulated per n."""
    return frozenset(bits for bits in range(1, (1 << n) - 1)
                     if sum(1 for i in range(n)
                            if bits >> i & 1 and not bits >> ((i + 1) % n) & 1) == 1)


def _flower_class_literal(sys: ConnectivitySystem, f: Flower) -> str:
    """Anemone/daisy decided by checking every union against the definition."""
    n = f.n
    if n <= 2:
        return "anemone"
    k = f.k
    lam = sys.lam
    union = _index_unions(f.petals)
    sep = {bits for bits in range(1, len(union) - 1) if lam(union[bits]) <= k}
    if len(sep) == len(union) - 2:
        return "anemone"
    if sep == _one_run_masks(n):
        return "daisy"
    return "neither"


def _daisy_canonical(petals: Tuple[int, ...]) -> Tuple[int, ...]:
    """Minimal rotation/reflection of the cyclic petal tuple."""
    n = len(petals)
    best = None
    for seq in (petals, tuple(reversed(petals))):
        for r in range(n):
            cand = seq[r:] + seq[:r]
            if best is None or cand < best:
                best = cand
    return best


def oracle_flowers(sys: ConnectivitySystem, tangle: Tangle,
                   max_petals: int) -> List[Flower]:
    """Every verified flower with at most max_petals petals, deduplicated up
    to labels (any permutation for anemones, n-gon symmetry for daisies).

    Memoized per (tangle, max_petals) in `_oracle_flowers`; each call gets
    its own list."""
    _guard(sys)
    if max_petals > ORACLE_MAX_PETALS:
        raise SearchSpaceTooLarge(f"petal cap is {ORACLE_MAX_PETALS}")
    memo = tangle.__dict__.setdefault("_oracle_flowers", {})
    if max_petals not in memo:
        memo[max_petals] = _enumerate_flowers(sys, tangle, max_petals)
    return list(memo[max_petals])


def _enumerate_flowers(sys: ConnectivitySystem, tangle: Tangle,
                       max_petals: int) -> List[Flower]:
    k = tangle.k
    seen_keys: Set[object] = set()
    out: List[Flower] = []
    for blocks in _partitions_into_blocks(sys.n, max_petals):
        if any(_weak(tangle, b) for b in blocks):
            continue
        if any(sys.lam(b) > k for b in blocks):
            continue
        m = len(blocks)
        if m <= 2:
            f = Flower(blocks, k)
            f.klass = _flower_class_literal(sys, f)
            key = ("a", frozenset(blocks))
            if key not in seen_keys:
                seen_keys.add(key)
                out.append(f)
            continue
        first, rest = blocks[0], blocks[1:]
        for perm in permutations(rest):
            if perm > tuple(reversed(perm)):
                continue  # reflection through the fixed block
            petals = (first,) + perm
            if all(sys.lam(petals[i] | petals[(i + 1) % m]) <= k for i in range(m)):
                f = Flower(petals, k)
                klass = _flower_class_literal(sys, f)
                f.klass = klass
                if klass == "anemone":
                    key = ("a", frozenset(petals))
                elif klass == "daisy":
                    key = ("d", _daisy_canonical(petals))
                else:
                    key = ("x", petals)
                if key not in seen_keys:
                    seen_keys.add(key)
                    out.append(f)
                if klass == "anemone":
                    break  # every order is an anemone with this key
    out.sort(key=lambda f: (f.n, f.petals))
    return out


def s_order(sys: ConnectivitySystem, tangle: Tangle,
            s_family: TreeCompatibleSet, f: Flower,
            max_petals: Optional[int] = None) -> int:
    """Minimum petal count among flowers displaying the same (k,S)-classes.

    A class is the oracle closure pair of a displayed (k,S)-separation.
    Zero classes give 1, one class gives 2; otherwise exhaustive flower
    enumeration at desk scale decides, which may raise SearchSpaceTooLarge.
    The flowers and each flower's classes are memoized on the tangle
    (`_oracle_flowers`, and `_oracle_shown` per S family).
    """
    memo = tangle.__dict__.setdefault("_oracle_shown", {})

    def shown(g: Flower) -> Set[FrozenSet[int]]:
        key = (s_family, g.k, g.petals)
        if key not in memo:
            memo[key] = _class_keys(sys, tangle, s_family,
                                    _displayed_unions(sys, g.k, g.petals))
        return memo[key]

    classes = shown(f)
    if not classes:
        return 1
    if len(classes) == 1:
        return 2
    cap = max_petals if max_petals is not None else f.n
    best = f.n
    for g in oracle_flowers(sys, tangle, max_petals=cap):
        if g.n < best and shown(g) == classes:
            best = g.n
    return best


# -- tree certification ----------------------------------------------------


def _tree_component_mask(t: PiTree, start: int, blocked: Tuple[int, int]) -> int:
    seen = {start}
    stack = [start]
    mask = 0
    while stack:
        v = stack.pop()
        mask |= t.bags.get(v, 0)
        for w in t.adj[v]:
            if {v, w} == set(blocked):
                continue
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return mask


def _vertex_petals(t: PiTree, v: int) -> Tuple[int, ...]:
    order = t.cyclic.get(v, t.adj[v])
    return tuple(_tree_component_mask(t, w, (v, w)) for w in order)


def _displayed_unions(sys: ConnectivitySystem, k: int,
                      petals: Sequence[int]) -> Set[Separation]:
    """Every k-separating proper union of the petals, one union at a time."""
    lam = sys.lam
    return {Separation.make(sys, u, k) for u in _index_unions(petals)[1:-1] if lam(u) <= k}


def _kS_only(sys: ConnectivitySystem, tangle: Tangle,
             s_family: Optional[TreeCompatibleSet], seps) -> List[Separation]:
    return sorted(s for s in seps
                  if _in_S(sys, tangle, s_family, s.side)
                  and _in_S(sys, tangle, s_family, sys.full ^ s.side))


def _class_keys(sys: ConnectivitySystem, tangle: Tangle,
                s_family: Optional[TreeCompatibleSet], seps) -> Set[FrozenSet[int]]:
    """The classes of the (k,S)-separations among seps, each as its oracle
    closure pair."""
    return {_oracle_key(sys, tangle, s) for s in _kS_only(sys, tangle, s_family, seps)}


def oracle_displayed_kS(sys: ConnectivitySystem, tangle: Tangle,
                        s_family: Optional[TreeCompatibleSet],
                        f: Flower) -> List[Separation]:
    """The (k,S)-separations displayed by f, by the literal union scan."""
    _guard(sys)
    return _kS_only(sys, tangle, s_family, _displayed_unions(sys, f.k, f.petals))


def _tree_displayed(sys: ConnectivitySystem,
                    t: PiTree) -> Tuple[Set[Separation], Dict[int, Set[Separation]]]:
    """Separations displayed by t: k-separating edge sides and the
    k-separating petal unions of every flower vertex.  Returns the whole set
    and the set shown at each flower vertex."""
    out = set()
    for u, v in t.edges():
        x = _tree_component_mask(t, u, (u, v))
        if 0 != x != sys.full and sys.lam(x) <= t.k:
            out.add(Separation.make(sys, x, t.k))
    at = {}
    for v in t.labels:
        at[v] = _displayed_unions(sys, t.k, _vertex_petals(t, v))
        out |= at[v]
    return out, at


def oracle_certify_tree(sys: ConnectivitySystem, tangle: Tangle,
                        s_family: Optional[TreeCompatibleSet], t: PiTree,
                        require_maximal: bool = True) -> Tuple[bool, List[str]]:
    """Literal (P1)-(P5) check; with require_maximal also demand that every
    (k,S)-separation is equivalent to a displayed one.
    """
    _guard(sys)
    problems: List[str] = []
    k = t.k
    union = 0
    for b in t.bags.values():
        if union & b:
            problems.append("bags overlap")
        union |= b
    if union != sys.full:
        problems.append("bags do not cover E")

    displayed, shown_at = _tree_displayed(sys, t)
    for u, v in t.edges():
        x = _tree_component_mask(t, u, (u, v))
        y = sys.full ^ x
        if sys.lam(x) > k or _weak(tangle, x) or _weak(tangle, y):
            problems.append(f"P1 fails at edge ({u},{v})")
        elif u in t.bags and v in t.bags:
            if not (_in_S(sys, tangle, s_family, x) and _in_S(sys, tangle, s_family, y)):
                problems.append(f"P1 (k,S) clause fails at edge ({u},{v})")

    for v, lab in t.labels.items():
        petals = _vertex_petals(t, v)
        n = len(petals)
        ok = (n >= 3 and all(p for p in petals)
              and not any(_weak(tangle, p) for p in petals)
              and all(sys.lam(p) <= k for p in petals)
              and all(sys.lam(petals[i] | petals[(i + 1) % n]) <= k for i in range(n)))
        if not ok:
            problems.append(f"flower vertex {v} does not display a flower")
            continue
        f = Flower(petals, k)
        klass = _flower_class_literal(sys, f)
        if lab == "A" and klass != "anemone":
            problems.append(f"P3 fails at vertex {v}: {klass}")
        if lab == "D" and klass != "daisy" and n > 3:
            problems.append(f"P4 fails at vertex {v}: {klass}")
        if len(_class_keys(sys, tangle, s_family, shown_at[v])) < 2:
            problems.append(f"flower vertex {v} has S-order < 3")
        for i in range(n):
            for j in (range(n) if klass == "anemone" else [(i - 1) % n, (i + 1) % n]):
                if j == i:
                    continue
                fcl_j = oracle_full_closure(sys, tangle, petals[j])
                if petals[i] & ~fcl_j == 0:
                    problems.append(f"petal {i} at vertex {v} is loose")

    bags = [b for b in t.bags.values() if b]
    verdicts: Dict[Separation, Tuple[bool, bool]] = {}
    for cls in oracle_classes(sys, tangle, s_family):
        shown = any(m in displayed for m in cls)
        in_bag = any(side & ~bag == 0 for m in cls for side in m.sides(sys) for bag in bags)
        for m in cls:
            verdicts[m] = (shown or in_bag, shown)
    for sep in sorted(verdicts):
        conforms, shown = verdicts[sep]
        if not conforms:
            problems.append(f"P5 fails for side {elements_of(sep.side)}")
        elif require_maximal and not shown:
            problems.append(f"class of side {elements_of(sep.side)} not displayed")
    return not problems, problems


# -- differential report ---------------------------------------------------


@dataclass
class OracleReport:
    """Engine-vs-oracle agreement record; every disagreement carries a
    minimal reproducing witness."""

    system_kind: str
    n: int
    k: int
    closure_checks: int = 0
    class_count: int = 0
    flower_count: Optional[int] = None
    disagreements: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def to_json(self):
        return {
            "system_kind": self.system_kind,
            "n": self.n,
            "k": self.k,
            "closure_checks": self.closure_checks,
            "class_count": self.class_count,
            "flower_count": self.flower_count,
            "ok": self.ok,
            "disagreements": self.disagreements,
        }


def differential_report(sys: ConnectivitySystem, tangle: Tangle,
                        s_family: TreeCompatibleSet,
                        max_petals: Optional[int] = None) -> OracleReport:
    """Compare greedy closures, class partitions, and (optionally) flower
    classification against the oracle on the whole desk-scale domain."""
    from .closure import full_closure
    from .flowers import classify

    _guard(sys)
    report = OracleReport(sys.kind, sys.n, tangle.k)
    for x in range(1 << sys.n):
        if sys.lam(x) <= tangle.k and not _weak(tangle, x):
            got = full_closure(sys, tangle, x)
            want = oracle_full_closure(sys, tangle, x)
            report.closure_checks += 1
            if got != want:
                report.disagreements.append(
                    {"op": "full_closure", "x": elements_of(x),
                     "engine": elements_of(got), "oracle": elements_of(want)})
    engine_classes = [[s.side for s in cls] for cls in s_family.classes()]
    oracle_cls = [[s.side for s in cls] for cls in oracle_classes(sys, tangle, s_family)]
    report.class_count = len(oracle_cls)
    if engine_classes != oracle_cls:
        report.disagreements.append(
            {"op": "classes", "engine": engine_classes, "oracle": oracle_cls})
    if max_petals:
        flowers = oracle_flowers(sys, tangle, max_petals)
        report.flower_count = len(flowers)
        for f in flowers:
            lit = f.klass
            eng = classify(sys, Flower(f.petals, f.k))
            if lit != eng and not (f.n <= 2 and lit == "anemone"):
                report.disagreements.append(
                    {"op": "classify", "petals": [elements_of(p) for p in f.petals],
                     "engine": eng, "oracle": lit})
    return report
