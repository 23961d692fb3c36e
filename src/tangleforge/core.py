"""Ground sets, rank functions, and connectivity systems.

A connectivity system is a pair (E, lam) with lam integer-valued, symmetric
(lam(X) == lam(E-X)) and submodular.  Systems here come from matroid rank
functions (with the +1 convention), graph edge sets (boundary-vertex count),
the R_8 polymatroid family, or explicit tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .bitset import elements_of, full_mask, mask_of, popcount
from .errors import PreconditionFailed, ViolationFound

MAX_GROUND = 64
# Full lambda tables and exhaustive axiom checks up to this n; beyond it,
# the checks run on SAMPLE_PAIRS seeded random sets.
LAMBDA_TABLE_N = 16
AUTO_VERIFY_N = 10
SAMPLE_PAIRS = 20000


@dataclass(frozen=True)
class GroundSet:
    """Elements 0..n-1, optionally carrying distinct display labels."""

    n: int
    labels: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        if not 1 <= self.n <= MAX_GROUND:
            raise ValueError(f"ground set size {self.n} outside 1..{MAX_GROUND}")
        if self.labels is not None:
            if len(self.labels) != self.n:
                raise ValueError("labels length must equal n")
            if len(set(self.labels)) != self.n:
                raise ValueError("labels must be distinct")

    @property
    def full(self) -> int:
        return full_mask(self.n)

    def mask(self, elements: Iterable[int]) -> int:
        return mask_of(elements, self.n)


@dataclass(frozen=True)
class Violation:
    """One axiom failure with a machine-checkable witness."""

    axiom: str
    witness: tuple

    def to_json(self):
        return {"axiom": self.axiom, "witness": [elements_of(m) for m in self.witness]}


class RankFunction:
    """Matroid rank function over masks, memoized as a full table.

    Sources: explicit 2^n table, uniform matroids, graphic matroids, or a
    list of bases.  Construction checks r(empty)=0, unit increments, and
    local submodularity exhaustively for n <= LAMBDA_TABLE_N, by seeded
    sampling above that.
    """

    def __init__(self, n: int, table: List[int], source: str, verify: bool = True):
        if len(table) != 1 << n:
            raise ValueError("rank table must have 2^n entries")
        self.n = n
        self.source = source
        self._table = table
        if verify:
            bad = verify_rank_axioms(self)
            if bad:
                raise ViolationFound(f"not a matroid rank function: {bad[0].axiom}", bad[0])

    def rank(self, mask: int) -> int:
        return self._table[mask]

    @property
    def full_rank(self) -> int:
        return self._table[full_mask(self.n)]

    @classmethod
    def from_table(cls, n: int, values: Sequence[int], verify: bool = True) -> "RankFunction":
        return cls(n, list(values), "table", verify=verify)

    @classmethod
    def uniform(cls, r: int, n: int) -> "RankFunction":
        if not 0 <= r <= n:
            raise ValueError("uniform matroid needs 0 <= r <= n")
        table = [min(popcount(m), r) for m in range(1 << n)]
        return cls(n, table, f"uniform({r},{n})", verify=False)

    @classmethod
    def graphic(cls, edges: Sequence[Tuple[object, object]]) -> "RankFunction":
        """Cycle-matroid rank: touched vertices minus components of (V, X)."""
        n = len(edges)
        if n == 0:
            raise ValueError("graphic matroid needs at least one edge")
        verts = sorted({v for e in edges for v in e}, key=repr)
        vid = {v: i for i, v in enumerate(verts)}
        pairs = [(vid[u], vid[v]) for u, v in edges]
        table = []
        for m in range(1 << n):
            parent = list(range(len(verts)))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            touched = set()
            r = 0
            for i, (u, v) in enumerate(pairs):
                if m >> i & 1:
                    touched.add(u)
                    touched.add(v)
                    ru, rv = find(u), find(v)
                    if ru != rv:
                        parent[ru] = rv
                        r += 1
            table.append(r)
        return cls(n, table, "graphic", verify=False)

    @classmethod
    def from_bases(cls, n: int, bases: Sequence[int]) -> "RankFunction":
        """r(X) = max over bases B of |X & B|."""
        if not bases:
            raise ValueError("need at least one basis")
        bl = list(bases)
        table = [max(popcount(m & b) for b in bl) for m in range(1 << n)]
        return cls(n, table, "bases")


def _checked_sets(n: int, seed: int):
    """Every set for n <= LAMBDA_TABLE_N, else SAMPLE_PAIRS seeded random sets."""
    if n <= LAMBDA_TABLE_N:
        return range(1 << n)
    rng = random.Random(seed)
    return [rng.getrandbits(n) for _ in range(SAMPLE_PAIRS)]


def _local_submodularity_failure(value: Callable[[int], int], n: int,
                                 seed: int) -> Optional[Tuple[int, int, int]]:
    """A triple (X, {e}, {f}) of masks, e < f outside X, with
    value(X+e) + value(X+f) < value(X+e+f) + value(X); None if none is found.

    Over every X and pair this is equivalent to submodularity on 2^E: each
    pairwise inequality is a telescoping sum of local ones (Fujishige,
    Submodular Functions and Optimization).  Exhaustive for
    n <= LAMBDA_TABLE_N; above, one seeded random pair at each of
    SAMPLE_PAIRS seeded random sets X.
    """
    if n > LAMBDA_TABLE_N:
        rng = random.Random(seed)
        for _ in range(SAMPLE_PAIRS):
            x = rng.getrandbits(n)
            free = [i for i in range(n) if not x >> i & 1]
            if len(free) < 2:
                continue
            be, bf = sorted(1 << i for i in rng.sample(free, 2))
            if value(x | be) + value(x | bf) < value(x | be | bf) + value(x):
                return x, be, bf
        return None
    for x in range(1 << n):
        vx = value(x)
        free = [1 << i for i in range(n) if not x >> i & 1]
        above = [value(x | b) for b in free]
        for i, be in enumerate(free):
            xe = x | be
            gain = above[i] - vx  # value(X+e+f) - value(X+f) may not exceed it
            for bf, vxf in zip(free[i + 1:], above[i + 1:]):
                if value(xe | bf) - vxf > gain:
                    return x, be, bf
    return None


def verify_rank_axioms(rank: RankFunction, seed: int = 0) -> List[Violation]:
    """Check r(empty)=0, unit increments, and submodularity.

    Unit increments give monotonicity for free; local submodularity
    (r(X+e)+r(X+f) >= r(X+e+f)+r(X)) is equivalent to the pairwise form.
    Exhaustive for n <= LAMBDA_TABLE_N, on a seeded sample above.
    """
    out = []
    r = rank._table.__getitem__
    n = rank.n
    if r(0) != 0:
        out.append(Violation("rank_empty", (0,)))
    for x in _checked_sets(n, seed):
        rx = r(x)
        for e in range(n):
            be = 1 << e
            if not x & be and r(x | be) - rx not in (0, 1):
                out.append(Violation("rank_unit_increment", (x, be)))
                return out
    bad = _local_submodularity_failure(r, n, seed)
    if bad:
        out.append(Violation("rank_submodular", bad))
    return out


def build_r8_rank() -> RankFunction:
    """Rank function of the 8-element rank-4 matroid R_8 (the real cube).

    Ground set 0..7 stands for the cube vertices labelled 1..8: bottom face
    1,2,3,4 in cyclic order, top face 5,6,7,8, verticals 1-5, 2-6, 3-7, 4-8.
    The twelve 4-point planes (six faces, six diagonal planes) have rank 3;
    every other 4-set has rank 4, smaller sets are free, larger sets span.
    """
    one_based_planes = [
        (1, 2, 3, 4), (5, 6, 7, 8),          # bottom, top
        (1, 2, 6, 5), (2, 3, 7, 6), (3, 4, 8, 7), (4, 1, 5, 8),  # side faces
        (1, 3, 5, 7), (2, 4, 6, 8),          # diagonal planes
        (1, 2, 7, 8), (3, 4, 5, 6),
        (1, 4, 6, 7), (2, 3, 5, 8),
    ]
    planes = {mask_of([e - 1 for e in p], 8) for p in one_based_planes}
    table = []
    for m in range(1 << 8):
        size = popcount(m)
        if size <= 3:
            table.append(size)
        elif size == 4:
            table.append(3 if m in planes else 4)
        else:
            table.append(4)
    return RankFunction(8, table, "r8")


class ConnectivitySystem:
    """A ground set plus a memoized symmetric submodular lambda.

    Immutable after construction apart from the lambda memo, whose inserts
    are idempotent, so concurrent reads are safe.
    """

    def __init__(self, ground: GroundSet, kind: str, lam_fn: Callable[[int], int],
                 rank: Optional[RankFunction] = None, verify: Optional[bool] = None,
                 meta: Optional[dict] = None):
        self.ground = ground
        self.kind = kind
        self.rank = rank
        self.meta = meta or {}
        self._outside = ~ground.full  # bits of masks that leave the ground set
        n = ground.n
        if n <= LAMBDA_TABLE_N:
            self._table = [lam_fn(m) for m in range(1 << n)]
            self._fn = None
        else:
            self._table = None
            self._fn = lam_fn
            self._memo: dict = {}
        if verify is None:
            verify = n <= AUTO_VERIFY_N
        if verify:
            bad = verify_connectivity_axioms(self)
            if bad:
                raise ViolationFound(f"not a connectivity function: {bad[0].axiom}", bad[0])

    @property
    def n(self) -> int:
        return self.ground.n

    @property
    def full(self) -> int:
        return self.ground.full

    def lam(self, mask: int) -> int:
        if mask & self._outside:
            raise PreconditionFailed(f"mask {mask:#x} outside ground set")
        if self._table is not None:
            return self._table[mask]
        v = self._memo.get(mask)
        if v is None:
            v = self._fn(mask)
            self._memo[mask] = v
        return v

    def mask(self, elements: Iterable[int]) -> int:
        return self.ground.mask(elements)

    # -- constructors ------------------------------------------------------

    @classmethod
    def matroid(cls, rank: RankFunction, labels=None, verify: Optional[bool] = None) -> "ConnectivitySystem":
        ground = GroundSet(rank.n, labels)
        full = ground.full
        rm = rank.full_rank

        def lam(m, _r=rank.rank, _full=full, _rm=rm):
            return _r(m) + _r(_full ^ m) - _rm + 1

        return cls(ground, "matroid", lam, rank=rank, verify=verify)

    @classmethod
    def graph(cls, edges: Sequence[Tuple[object, object]], labels=None,
              verify: Optional[bool] = None) -> "ConnectivitySystem":
        """lambda_G(X) = vertices meeting a non-loop edge of X and one of E-X."""
        n = len(edges)
        ground = GroundSet(n, labels)
        verts = sorted({v for e in edges for v in e}, key=repr)
        inc = []
        for v in verts:
            m = 0
            for i, (a, b) in enumerate(edges):
                if a == b:
                    continue  # loops never make their vertex a boundary vertex
                if v == a or v == b:
                    m |= 1 << i
            if m:
                inc.append(m)
        full = ground.full

        def lam(x, _inc=tuple(inc), _full=full):
            co = _full ^ x
            return sum(1 for m in _inc if m & x and m & co)

        return cls(ground, "graph", lam, verify=verify, meta={"edges": list(edges)})

    @classmethod
    def r8_polymatroid(cls, ell: int, verify: Optional[bool] = None) -> "ConnectivitySystem":
        """Connectivity of f_ell on R_8: f_ell(empty)=0, else rank + ell."""
        if ell < 1:
            raise ValueError("ell must be a positive integer")
        rank = build_r8_rank()
        full = full_mask(8)
        labels = tuple(str(i) for i in range(1, 9))

        def lam(m, _r=rank.rank, _full=full, _ell=ell):
            if m == 0 or m == _full:
                return 1
            return _r(m) + _r(_full ^ m) + _ell - 3

        sys = cls(GroundSet(8, labels), "r8_polymatroid", lam, rank=rank,
                  verify=verify, meta={"ell": ell})
        return sys

    @classmethod
    def from_table(cls, n: int, values: Sequence[int], labels=None,
                   verify: Optional[bool] = None) -> "ConnectivitySystem":
        vals = list(values)
        if len(vals) != 1 << n:
            raise ValueError("lambda table must have 2^n entries")
        return cls(GroundSet(n, labels), "table", lambda m: vals[m], verify=verify)


def verify_connectivity_axioms(sys: ConnectivitySystem, seed: int = 0) -> List[Violation]:
    """Report a violation of symmetry or submodularity, with its witness.

    Symmetry is lam(X) == lam(E-X); submodularity is checked in its local
    form lam(X+e) + lam(X+f) >= lam(X+e+f) + lam(X), which on 2^E is
    equivalent to the pairwise one, and a failure is reported as the pair
    (X+e, X+f).  Together the two imply lam(X) >= lam(empty) and
    lam(X)+lam(Y) >= lam(X-Y)+lam(Y-X).  Both checks are exhaustive for
    n <= LAMBDA_TABLE_N (construction runs them for n <= AUTO_VERIFY_N) and
    run on a seeded sample above that.
    """
    lam = sys.lam if sys._table is None else sys._table.__getitem__
    n = sys.n
    full = sys.full
    for x in _checked_sets(n, seed):
        if lam(x) != lam(full ^ x):
            return [Violation("symmetry", (x,))]
    bad = _local_submodularity_failure(lam, n, seed)
    if bad:
        x, be, bf = bad
        return [Violation("submodularity", (x | be, x | bf))]
    return []


def is_k_separating(sys: ConnectivitySystem, x: int, k: int) -> bool:
    return sys.lam(x) <= k


def is_exactly_k_separating(sys: ConnectivitySystem, x: int, k: int) -> bool:
    return sys.lam(x) == k


def is_vertically_k_connected(rank: RankFunction, k: int) -> bool:
    """Every (k-1)-separation of lambda_M has a side of rank <= k-2.

    Checked by exhaustion over all subsets (loose vertical connectivity).
    """
    if k < 2:
        raise PreconditionFailed("vertical connectivity needs k >= 2")
    n = rank.n
    full = full_mask(n)
    rm = rank.full_rank
    for x in range(1 << n):
        rx = rank.rank(x)
        ry = rank.rank(full ^ x)
        if rx + ry - rm + 1 <= k - 1 and rx > k - 2 and ry > k - 2:
            return False
    return True
