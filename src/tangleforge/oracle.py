"""Independent exhaustive recomputation of every structure at desk scale.

Shares only the lambda evaluation with the engines; weak tests, closures,
classes, flowers, and tree certification are recomputed literally from the
definitions so differential tests mean something.

Literalness rule: every predicate here is the definition, evaluated by an
exhaustive walk.  A walk may stop once its answer cannot change: an
existence test at its first witness, an intersection once it equals its
lower bound X.  A quantifier over weak sets may range over the weak table
itself rather than over the submasks of a region; in the same way a full
closure may intersect the table of every set that is k-separating and
fully closed (that predicate evaluated on all 2^n masks once per tangle)
rather than walk the supersets of X.  A memo table of such a
predicate is allowed, as long as each entry is what the literal walk
returns (the weak set below is the definition "X lies inside a member"
computed once per tangle by a submask walk of each member).  Every walk
over all 2^n masks reads the literal predicate lam <= k from two tables kept
per tangle, one per parity of the mask, each built on first use with one
lam call per mask of its parity (`_oracle_sep`).  The flower walk builds
each partition of E block by block from the admissible petals: the masks
of those two tables less the weak set, filtered once per walk.  The next
block holds the least element not yet covered, so the walk yields exactly
the partitions whose blocks all pass the literal petal test.  The classes
are kept per S, keyed by the explicit family or None for default S and
never by the S object, which holds the tangle (`_oracle_classes`).  A flower
scan may read its petal unions from a list that each petal doubles, and
its one-run index masks from a table kept per petal count: both depend
only on petal indices, never on the system.  One scan of a flower's
proper unions, one lam call each, may serve its class and the separations
it displays; with three or more petals every petal and every consecutive
pair of petals is a proper union, so the same scan may also serve the
flower test.  A tree certificate reads each edge side's lam once, for its
display and for (P1), and reads each flower vertex's S-order from the
index of the oracle's own memoized classes (`oracle_classes`): the classes
its displays meet, with no membership test or closure pair per display.
Derived structure is not allowed: no antichains of maximal members, no
greedy sequences, no bit families, and nothing taken from the engine but
`lam`.
Memo tables live in oracle-private attributes of the tangle (`_oracle_*`),
so two tangles never share one.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice, permutations
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple

from .bitset import elements_of
from .core import NODE_CAP, ORACLE_MAX_PETALS, ConnectivitySystem
from .closure import Separation, TreeCompatibleSet
from .errors import PreconditionFailed, SearchSpaceTooLarge, ViolationFound
from .flowers import Flower
from .tangles import Tangle
from .trees import PiTree


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


def _sep_table(sys: ConnectivitySystem, tangle: Tangle, parity: int) -> List[int]:
    """Every mask of the given parity with lam <= k, ascending: the literal
    predicate, one lam call per mask of that parity, tabulated on first use
    once per tangle in `_oracle_sep`."""
    tables = tangle.__dict__.setdefault("_oracle_sep", {})
    table = tables.get(parity)
    if table is None:
        k = tangle.k
        lam = sys.lam
        table = tables[parity] = [x for x in range(parity, 1 << sys.n, 2) if lam(x) <= k]
    return table


def _all_separating(sys: ConnectivitySystem, tangle: Tangle) -> List[int]:
    """Every mask with lam <= k, ascending: the two parity tables merged."""
    return sorted(_sep_table(sys, tangle, 0) + _sep_table(sys, tangle, 1))


def _closed_sets(sys: ConnectivitySystem, tangle: Tangle) -> List[int]:
    """Every F with lam(F) <= k and `_fully_closed(F)`, ascending: the
    literal predicate tabulated over all 2^n masks once per tangle in
    `_oracle_fc_table`."""
    table = tangle.__dict__.get("_oracle_fc_table")
    if table is None:
        table = [f for f in _all_separating(sys, tangle) if _fully_closed(sys, tangle, f)]
        tangle._oracle_fc_table = table
    return table


def oracle_full_closure(sys: ConnectivitySystem, tangle: Tangle, x: int) -> int:
    """Intersection of every fully-closed k-separating superset of X.

    X itself is tested first: when it qualifies it is its own closure.
    Otherwise the closure is the intersection of the entries of the
    tangle's table of fully-closed k-separating sets (`_closed_sets`) that
    contain X, which stops once it equals X; when no entry contains X it
    raises `ViolationFound`.  The table is built on the first X that does
    not qualify, so a tangle whose queried sets are all closed never
    builds it.

    The closure of X is memoized in `_oracle_fcl_cache` and each set's
    fully-closed verdict in `_oracle_fc_cache` (see `_fully_closed`).
    Each entry is what the exhaustive walk returns, so caching does not
    borrow from the greedy engine.
    """
    cache = tangle.__dict__.setdefault("_oracle_fcl_cache", {})
    hit = cache.get(x)
    if hit is not None:
        return hit
    if sys.lam(x) <= tangle.k and _fully_closed(sys, tangle, x):
        acc = x
    else:
        acc = None
        for f in _closed_sets(sys, tangle):
            if f & x == x:
                acc = f if acc is None else acc & f
                if acc == x:
                    break
        if acc is None:
            raise ViolationFound("E is not a fully closed k-separating superset", (x,))
    cache[x] = acc
    return acc


def _family_key(s_family: Optional[TreeCompatibleSet]) -> Optional[FrozenSet[int]]:
    """The explicit family itself, or None for default S: a memo key that
    holds no reference to the tangle."""
    return None if s_family is None else s_family._explicit


def _co_qualifies(sys: ConnectivitySystem, tangle: Tangle, x: int) -> bool:
    """The rest of default membership once lam(X) <= k is known: E-X is
    strong and its closure is not E."""
    co = sys.full ^ x
    return not _weak(tangle, co) and oracle_full_closure(sys, tangle, co) != sys.full


def _in_S(sys: ConnectivitySystem, tangle: Tangle,
          s_family: Optional[TreeCompatibleSet], x: int) -> bool:
    """Membership recomputed from the definition for default S; explicit
    families are raw data, taken as given."""
    explicit = _family_key(s_family)
    if explicit is not None:
        return x in explicit
    return sys.lam(x) <= tangle.k and _co_qualifies(sys, tangle, x)


def oracle_kS_separations(sys: ConnectivitySystem, tangle: Tangle,
                          s_family: Optional[TreeCompatibleSet] = None) -> List[Separation]:
    """The (k,S)-separations by their odd side, ascending.  Default S walks
    the tangle's odd k-separating table; an explicit family walks its own
    odd members inside the ground set."""
    full, k = sys.full, tangle.k
    explicit = _family_key(s_family)
    if explicit is not None:
        return [Separation(x, k) for x in sorted(explicit)
                if x & 1 and full ^ x in explicit]
    return [Separation(x, k) for x in _sep_table(sys, tangle, 1)
            if _co_qualifies(sys, tangle, x) and _in_S(sys, tangle, None, full ^ x)]


def _oracle_key(sys: ConnectivitySystem, tangle: Tangle, sep: Separation) -> FrozenSet[int]:
    """The pair of oracle closures of sep's sides: equal iff equivalent."""
    a, b = sep.sides(sys)
    return frozenset((oracle_full_closure(sys, tangle, a), oracle_full_closure(sys, tangle, b)))


def oracle_classes(sys: ConnectivitySystem, tangle: Tangle,
                   s_family: Optional[TreeCompatibleSet] = None) -> List[List[Separation]]:
    """T-equivalence classes of the (k,S)-separations, by closure pairs.

    Memoized per S in `_oracle_classes`, keyed by `_family_key`; each call
    gets its own lists."""
    memo = tangle.__dict__.setdefault("_oracle_classes", {})
    key = _family_key(s_family)
    classes = memo.get(key)
    if classes is None:
        groups: Dict[FrozenSet[int], List[Separation]] = {}
        for sep in oracle_kS_separations(sys, tangle, s_family):
            groups.setdefault(_oracle_key(sys, tangle, sep), []).append(sep)
        classes = memo[key] = sorted(groups.values(), key=lambda g: min(s.side for s in g))
        for cls in classes:
            cls.sort()
    return [list(cls) for cls in classes]


# -- flower enumeration ----------------------------------------------------


def _admissible_partitions(full: int, petals: Set[int], max_blocks: int):
    """Every partition of full into at most max_blocks blocks of petals, as
    tuples of masks with block minima increasing.  The next block holds the
    least element not yet covered and is a submask of the uncovered set
    that lies in petals; the last block allowed is the whole uncovered set."""
    blocks: List[int] = []

    def rec(rest: int):
        if not rest:
            yield tuple(blocks)
            return
        if len(blocks) == max_blocks - 1:
            if rest in petals:
                yield tuple(blocks) + (rest,)
            return
        low = rest & -rest
        others = sub = rest ^ low
        while True:
            block = low | sub
            if block in petals:
                blocks.append(block)
                yield from rec(rest ^ block)
                blocks.pop()
            if not sub:
                return
            sub = (sub - 1) & others

    yield from rec(full)


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
    i+1 (mod n) is outside it, by that definition; cached per n."""
    return frozenset(bits for bits in range(1, (1 << n) - 1)
                     if sum(1 for i in range(n)
                            if bits >> i & 1 and not bits >> ((i + 1) % n) & 1) == 1)


def _separating_masks(sys: ConnectivitySystem, k: int,
                      petals: Sequence[int]) -> Tuple[List[int], Set[int]]:
    """The petal unions by index mask, and the proper index masks whose
    union is k-separating: one lam call per proper union."""
    lam = sys.lam
    union = _index_unions(petals)
    return union, {bits for bits in range(1, len(union) - 1) if lam(union[bits]) <= k}


def _class_of_masks(n: int, sep: Set[int]) -> str:
    """Anemone/daisy/neither of a flower with n >= 3 petals from its
    k-separating proper index masks, checked against the definition."""
    if len(sep) == (1 << n) - 2:
        return "anemone"
    if sep == _one_run_masks(n):
        return "daisy"
    return "neither"


def _flower_class_literal(sys: ConnectivitySystem, f: Flower) -> str:
    """Anemone/daisy decided by checking every union against the definition."""
    if f.n <= 2:
        return "anemone"
    return _class_of_masks(f.n, _separating_masks(sys, f.k, f.petals)[1])


class OracleFlower(NamedTuple):
    """A flower as the oracle's walk finds it, with its literal class
    (`_flower_class_literal`); the engine's `Flower` keeps no class given
    from outside."""

    petals: Tuple[int, ...]
    k: int
    klass: str

    @property
    def n(self) -> int:
        return len(self.petals)


def oracle_flowers(sys: ConnectivitySystem, tangle: Tangle,
                   max_petals: int) -> List[OracleFlower]:
    """Every verified flower with at most max_petals petals, each once up to
    labels (any permutation for anemones, n-gon symmetry for daisies): the
    walk of `_enumerate_flowers` meets each such flower once by construction.

    Memoized per (tangle, max_petals) in `_oracle_flowers`; each call gets
    its own list.  A walk past NODE_CAP candidates raises
    `SearchSpaceTooLarge` and memoizes nothing."""
    if max_petals < 1:
        raise PreconditionFailed("petal cap must be at least 1")
    if max_petals > ORACLE_MAX_PETALS:
        raise SearchSpaceTooLarge(f"petal cap is {ORACLE_MAX_PETALS}")
    memo = tangle.__dict__.setdefault("_oracle_flowers", {})
    if max_petals not in memo:
        memo[max_petals] = _enumerate_flowers(sys, tangle, max_petals)
    return list(memo[max_petals])


def _enumerate_flowers(sys: ConnectivitySystem, tangle: Tangle,
                       max_petals: int) -> List[OracleFlower]:
    """The flowers of `oracle_flowers`, over the partitions of E into
    admissible petals: the k-separating masks that are not weak.  A
    partition into at most two blocks, and each cyclic order of a larger
    one whose consecutive unions are tested, is one candidate; more than
    NODE_CAP candidates raise `SearchSpaceTooLarge`.

    The walk meets each flower once up to labels, with no dedup set: each
    partition comes once, its orders fix the block that holds element 0
    (rotations) and keep one of each order and its reverse (reflections),
    and a partition stops after its first order that is an anemone, since
    every order of an anemone is one.

    Each partition is at least one candidate (an order or its reverse is
    kept), so the partitions are counted first: more than NODE_CAP of them
    are refused before any flower is built."""
    k = tangle.k
    admissible = set(_all_separating(sys, tangle)) - _weak_set(tangle)
    partitions = _admissible_partitions(sys.full, admissible, max_petals)
    if sum(1 for _ in islice(partitions, NODE_CAP + 1)) > NODE_CAP:
        raise SearchSpaceTooLarge(f"flower search exceeded {NODE_CAP} candidates")
    out: List[OracleFlower] = []
    candidates = 0
    for blocks in _admissible_partitions(sys.full, admissible, max_petals):
        m = len(blocks)
        first, rest = blocks[0], blocks[1:]
        for perm in permutations(rest):
            if perm > perm[::-1]:
                continue  # reflection through the fixed block
            candidates += 1
            if candidates > NODE_CAP:
                raise SearchSpaceTooLarge(f"flower search exceeded {NODE_CAP} candidates")
            petals = (first,) + perm
            if m > 2 and any(sys.lam(petals[i] | petals[(i + 1) % m]) > k for i in range(m)):
                continue
            klass = _flower_class_literal(sys, Flower(petals, k))
            out.append(OracleFlower(petals, k, klass))
            if klass == "anemone":
                break  # every other order is the same anemone
    out.sort(key=lambda f: (f.n, f.petals))
    return out


# -- tree certification ----------------------------------------------------


class _Sides(dict):
    """sides[a, b]: the elements of a's component of t without edge ab,
    walked once per directed edge and kept for one certificate."""

    def __init__(self, t: PiTree):
        super().__init__()
        self.t = t

    def __missing__(self, edge: Tuple[int, int]) -> int:
        t, start, blocked = self.t, edge[0], set(edge)
        seen = {start}
        stack = [start]
        mask = 0
        while stack:
            v = stack.pop()
            mask |= t.bags.get(v, 0)
            for w in t.adj[v]:
                if {v, w} != blocked and w not in seen:
                    seen.add(w)
                    stack.append(w)
        self[edge] = mask
        return mask


def _shown(sys: ConnectivitySystem, k: int, union: List[int],
           sep: Set[int]) -> Set[Separation]:
    return {Separation.make(sys, union[bits], k) for bits in sep}


def _displayed_unions(sys: ConnectivitySystem, k: int,
                      petals: Sequence[int]) -> Set[Separation]:
    """Every k-separating proper union of the petals, one union at a time."""
    return _shown(sys, k, *_separating_masks(sys, k, petals))


def _kS_only(sys: ConnectivitySystem, tangle: Tangle,
             s_family: Optional[TreeCompatibleSet], seps) -> List[Separation]:
    return sorted(s for s in seps
                  if _in_S(sys, tangle, s_family, s.side)
                  and _in_S(sys, tangle, s_family, sys.full ^ s.side))


def oracle_displayed_kS(sys: ConnectivitySystem, tangle: Tangle,
                        s_family: Optional[TreeCompatibleSet],
                        f: Flower) -> List[Separation]:
    """The (k,S)-separations displayed by f, by the literal union scan."""
    return _kS_only(sys, tangle, s_family, _displayed_unions(sys, f.k, f.petals))


def _class_index(sys: ConnectivitySystem, tangle: Tangle,
                 s_family: Optional[TreeCompatibleSet]) -> Dict[Separation, int]:
    """Each (k,S)-separation's position in the memoized `oracle_classes`."""
    return {m: i for i, cls in enumerate(oracle_classes(sys, tangle, s_family)) for m in cls}


def _certify_walk(sys: ConnectivitySystem, tangle: Tangle,
                  s_family: Optional[TreeCompatibleSet], t: PiTree
                  ) -> Tuple[Set[Separation], List[str]]:
    """One walk of t: the separations it displays (k-separating edge sides
    and the k-separating petal unions of every flower vertex) and its
    problems short of (P5): bags that do not partition E, then (P1)-(P4),
    where a flower vertex is labelled A or D and a D vertex's cyclic order
    lists exactly its neighbours.
    Each edge side's lam is read once, for its display and for (P1).
    Each flower vertex's proper unions are scanned once, one lam call
    each; with three or more petals every petal and every consecutive pair
    of petals is such a union, so the scan gives the flower test as well
    as the vertex's class and displays.  A flower vertex's S-order is the
    number of classes its displays meet, read from `_class_index`."""
    full, k = sys.full, t.k
    index = _class_index(sys, tangle, s_family)
    problems: List[str] = []
    covered = overlap = 0
    for b in t.bags.values():
        overlap |= covered & b
        covered |= b
    if overlap:
        problems.append("bags overlap")
    if covered != full:
        problems.append("bags do not cover the ground set")

    sides = _Sides(t)
    displayed: Set[Separation] = set()
    for u, v in t.edges():
        x = sides[u, v]
        y = full ^ x
        separating = sys.lam(x) <= k
        if separating and 0 != x != full:
            displayed.add(Separation.make(sys, x, k))
        if not separating or _weak(tangle, x) or _weak(tangle, y):
            problems.append(f"P1 fails at edge ({u},{v})")
        elif u in t.bags and v in t.bags:
            if not (_in_S(sys, tangle, s_family, x) and _in_S(sys, tangle, s_family, y)):
                problems.append(f"P1 (k,S) clause fails at edge ({u},{v})")

    for v, lab in t.labels.items():
        if lab not in ("A", "D"):
            problems.append(f"flower vertex {v} is labelled {lab!r}, not A or D")
        if lab == "D" and sorted(t.cyclic.get(v, ())) != sorted(t.adj[v]):
            problems.append(f"cyclic order at D vertex {v} does not list its neighbours")
        petals = tuple(sides[w, v] for w in t.cyclic.get(v, t.adj[v]))
        n = len(petals)
        union, sep = _separating_masks(sys, k, petals)
        shown = _shown(sys, k, union, sep)
        displayed |= shown
        ok = (n >= 3 and all(petals)
              and not any(_weak(tangle, p) for p in petals)
              and all(1 << i in sep and (1 << i | 1 << (i + 1) % n) in sep
                      for i in range(n)))
        if not ok:
            problems.append(f"flower vertex {v} does not display a flower")
            continue
        klass = _class_of_masks(n, sep)
        if lab == "A" and klass != "anemone":
            problems.append(f"P3 fails at vertex {v}: {klass}")
        if lab == "D" and klass != "daisy" and n > 3:
            problems.append(f"P4 fails at vertex {v}: {klass}")
        if len({index[s] for s in shown if s in index}) < 2:
            problems.append(f"flower vertex {v} has S-order < 3")
        for i in range(n):
            for j in (range(n) if klass == "anemone" else [(i - 1) % n, (i + 1) % n]):
                if j == i:
                    continue
                fcl_j = oracle_full_closure(sys, tangle, petals[j])
                if petals[i] & ~fcl_j == 0:
                    problems.append(f"petal {i} at vertex {v} is loose")
    return displayed, problems


def oracle_certify_tree(sys: ConnectivitySystem, tangle: Tangle,
                        s_family: Optional[TreeCompatibleSet], t: PiTree,
                        require_maximal: bool = True) -> Tuple[bool, List[str]]:
    """Literal (P1)-(P5) check; with require_maximal also demand that every
    (k,S)-separation is equivalent to a displayed one.
    """
    displayed, problems = _certify_walk(sys, tangle, s_family, t)
    bags = [b for b in t.bags.values() if b]
    verdicts: Dict[Separation, Tuple[bool, bool]] = {}
    for cls in oracle_classes(sys, tangle, s_family):
        shown = any(m in displayed for m in cls)
        conforms = shown or any(side & ~bag == 0 for m in cls
                                for side in m.sides(sys) for bag in bags)
        for m in cls:
            verdicts[m] = (conforms, shown)
    for sep in sorted(verdicts):
        conforms, shown = verdicts[sep]
        if not conforms:
            problems.append(f"P5 fails for side {elements_of(sep.side)}")
        elif require_maximal and not shown:
            problems.append(f"class of side {elements_of(sep.side)} not displayed")
    return not problems, problems


# -- differential report ---------------------------------------------------


class OracleReport(NamedTuple):
    """Engine-vs-oracle agreement record; every disagreement carries a
    minimal reproducing witness.  flower_count is None when no flowers were
    compared."""

    system_kind: str
    n: int
    k: int
    closure_checks: int
    class_count: int
    flower_count: Optional[int]
    disagreements: List[dict]

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def to_json(self):
        return {**self._asdict(), "ok": self.ok}


def differential_report(sys: ConnectivitySystem, tangle: Tangle,
                        s_family: TreeCompatibleSet,
                        max_petals: Optional[int] = None) -> OracleReport:
    """Compare greedy closures, class partitions, and (optionally) flower
    classification against the oracle on the whole desk-scale domain."""
    from .closure import full_closure
    from .flowers import classify

    closure_checks, flower_count, disagreements = 0, None, []
    for x in _all_separating(sys, tangle):
        if not _weak(tangle, x):
            got = full_closure(sys, tangle, x)
            want = oracle_full_closure(sys, tangle, x)
            closure_checks += 1
            if got != want:
                disagreements.append(
                    {"op": "full_closure", "x": elements_of(x),
                     "engine": elements_of(got), "oracle": elements_of(want)})
    engine_classes = [[s.side for s in cls] for cls in s_family.classes()]
    oracle_cls = [[s.side for s in cls] for cls in oracle_classes(sys, tangle, s_family)]
    if engine_classes != oracle_cls:
        disagreements.append({"op": "classes", "engine": engine_classes, "oracle": oracle_cls})
    if max_petals is not None:
        flowers = oracle_flowers(sys, tangle, max_petals)
        flower_count = len(flowers)
        for f in flowers:
            lit = f.klass
            eng = classify(sys, Flower(f.petals, f.k))
            if lit != eng and not (f.n <= 2 and lit == "anemone"):
                disagreements.append(
                    {"op": "classify", "petals": [elements_of(p) for p in f.petals],
                     "engine": eng, "oracle": lit})
    return OracleReport(sys.kind, sys.n, tangle.k, closure_checks, len(oracle_cls),
                        flower_count, disagreements)
